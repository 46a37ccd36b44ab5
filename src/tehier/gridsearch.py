"""Grid search over SVM cost C and RBF gamma, scored by cross-validated hF."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridSearchError, TehierError
from .hierarchy import LCPNB, HierModel, train_hier
from .kmers import KmerConfig
from .labels import HierLabel
from .metrics import crossval
from .parallel import run_tasks
from .svm import SvmConfig
from .taxonomy import Taxonomy

# Conventional powers-of-two lattice.
DEFAULT_C_VALUES = tuple(2.0**e for e in range(-5, 16, 2))
DEFAULT_GAMMA_VALUES = tuple(2.0**e for e in range(-15, 4, 2))

# Desk-scale 3x3 preset for tests and quick runs.
DESK_C_VALUES = (1.0, 2.0**4, 2.0**8)
DESK_GAMMA_VALUES = (1.0, 2.0**3, 2.0**6)


@dataclass(frozen=True)
class Grid:
    c_values: tuple[float, ...] = DEFAULT_C_VALUES
    gamma_values: tuple[float, ...] = DEFAULT_GAMMA_VALUES
    folds: int = 10
    strategy: str = LCPNB
    seed: int = 0

    def __post_init__(self):
        if not self.c_values or not self.gamma_values:
            raise ValueError("grid axes must be nonempty")
        if any(v <= 0 for v in self.c_values) or any(v <= 0 for v in self.gamma_values):
            raise ValueError("grid values must be positive")


def desk_grid(folds: int = 3, strategy: str = LCPNB, seed: int = 0) -> Grid:
    return Grid(
        c_values=DESK_C_VALUES,
        gamma_values=DESK_GAMMA_VALUES,
        folds=folds,
        strategy=strategy,
        seed=seed,
    )


@dataclass(frozen=True)
class GridCell:
    C: float
    gamma: float
    mean_hf: float | None
    std_hf: float | None
    status: str  # "ok" or "failed"
    error: str = ""


@dataclass
class GridResult:
    cells: list[GridCell]
    selected: tuple[float, float] | None

    @property
    def selected_cell(self) -> GridCell | None:
        if self.selected is None:
            return None
        return next(
            c for c in self.cells if (c.C, c.gamma) == self.selected and c.status == "ok"
        )


def grid_search(
    X: np.ndarray,
    labels: list[HierLabel],
    taxonomy: Taxonomy,
    grid: Grid | None = None,
    threads: int = 1,
) -> GridResult:
    """Evaluate every (C, gamma) cell by cross-validated hF on the given data.

    Failed cells are recorded and excluded from selection; ties go to the
    smaller C, then the smaller gamma. The cells are the tasks that
    ``threads`` worker processes share (``parallel.run_tasks``); the result
    is the same for any worker count. Cells are handed out dearest first:
    larger gamma, then larger C, the order of their cost on the desk corpus.
    So no worker is left alone with the slowest cell at the end.
    ``GridResult.cells`` is still in lattice order.
    """
    grid = grid or Grid()
    lattice = [(c, g) for c in grid.c_values for g in grid.gamma_values]
    dearest_first = sorted(range(len(lattice)), key=lambda k: (-lattice[k][1], -lattice[k][0]))

    def evaluate(index: int) -> GridCell:
        c_value, gamma = lattice[index]
        config = SvmConfig(C=c_value, gamma=gamma)
        try:
            result = crossval(
                X,
                labels,
                taxonomy,
                strategy=grid.strategy,
                base_kind="svm",
                config=config,
                k=grid.folds,
                seed=grid.seed,
            )
        except (TehierError, ValueError) as exc:
            return GridCell(c_value, gamma, None, None, "failed", str(exc))
        return GridCell(c_value, gamma, result.mean_hf, result.std_hf, "ok")

    evaluated = run_tasks(lambda t: evaluate(dearest_first[t]), len(lattice), threads)
    by_index = dict(zip(dearest_first, evaluated))
    cells = [by_index[k] for k in range(len(lattice))]
    selected = None
    best = -1.0
    for cell in cells:  # lattice order makes ">" implement the tie-break
        if cell.status == "ok" and cell.mean_hf > best:
            best = cell.mean_hf
            selected = (cell.C, cell.gamma)
    return GridResult(cells=cells, selected=selected)


def train_final(
    X: np.ndarray,
    labels: list[HierLabel],
    taxonomy: Taxonomy,
    grid_result: GridResult,
    kmer_config: KmerConfig | None = None,
    threads: int = 1,
) -> HierModel:
    """Train on all provided data with the selected (C, gamma)."""
    if grid_result.selected is None:
        raise GridSearchError("no viable cell: every grid cell failed")
    c_value, gamma = grid_result.selected
    config = SvmConfig(C=c_value, gamma=gamma)
    return train_hier(
        X,
        labels,
        taxonomy,
        base_kind="svm",
        config=config,
        kmer_config=kmer_config,
        threads=threads,
    )
