"""Grid search over SVM cost C and RBF gamma, scored by cross-validated hF."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TehierError
from .hierarchy import LCPNB
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
        for value in self.c_values:
            SvmConfig(C=value)
        for value in self.gamma_values:
            SvmConfig(gamma=value)
        if self.folds < 2:
            raise ValueError("grid folds must be >= 2")


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
    selected: GridCell | None  # the winning cell; None when every cell failed


def grid_search(
    X: np.ndarray,
    labels: list[HierLabel],
    taxonomy: Taxonomy,
    grid: Grid | None = None,
    threads: int = 1,
) -> GridResult:
    """Every (C, gamma) cell scored by cross-validated hF, and the winner.

    A cell that raises is recorded as failed and never selected; ties go to
    the smaller C, then the smaller gamma. Cells run dearest first (larger
    gamma, then larger C) on ``threads`` worker processes; the result is the
    same for any worker count, with ``cells`` in lattice order.
    """
    grid = grid or Grid()
    lattice = [(c, g) for c in grid.c_values for g in grid.gamma_values]
    dearest_first = sorted(range(len(lattice)), key=lambda k: (-lattice[k][1], -lattice[k][0]))

    def evaluate(index: int) -> GridCell:
        c_value, gamma = lattice[index]
        config = SvmConfig(C=c_value, gamma=gamma)
        try:
            result = crossval(
                X, labels, taxonomy, strategy=grid.strategy, config=config, k=grid.folds,
                seed=grid.seed,
            )
        except (TehierError, ValueError) as exc:
            return GridCell(c_value, gamma, None, None, "failed", str(exc))
        return GridCell(c_value, gamma, result.mean_hf, result.std_hf, "ok")

    evaluated = run_tasks(lambda t: evaluate(dearest_first[t]), len(lattice), threads)
    by_index = dict(zip(dearest_first, evaluated))
    cells = [by_index[k] for k in range(len(lattice))]
    # by value, not by position: a grid file may list its axes in any order
    best = min(
        (cell for cell in cells if cell.status == "ok"),
        key=lambda cell: (-cell.mean_hf, cell.C, cell.gamma),
        default=None,
    )
    return GridResult(cells=cells, selected=best)
