"""Grid search over SVM cost C and RBF gamma, scored by cross-validated hF."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TehierError
from .hierarchy import LCPNB
from .labels import HierLabel
from .metrics import crossval
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
        for name, values in (("C", self.c_values), ("gamma", self.gamma_values)):
            for i, value in enumerate(values):
                SvmConfig(**{name: value})
                if value in values[:i]:
                    raise ValueError(f"grid {name} value {value!r} given twice")
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

    One ``crossval`` call scores every cell: each fold trains once along the
    C values of a gamma, sharing its kernel and every SVM solve that is
    exact at the next C, on ``threads`` worker processes that share the
    (gamma, fold) pairs. A cell that raises on any fold is recorded as
    failed, with its lowest failing fold's error, and never selected; ties
    go to the smaller C, then the smaller gamma. ``cells`` are in lattice
    order, and the result is the same for any worker count.
    """
    grid = grid or Grid()
    lattice = [SvmConfig(C=c, gamma=g) for c in grid.c_values for g in grid.gamma_values]
    try:
        outcomes = crossval(
            X, labels, taxonomy, lattice, (grid.strategy,), k=grid.folds, seed=grid.seed,
            threads=threads,
        )
    except (TehierError, ValueError) as exc:  # raised before any fold ran
        outcomes = [exc] * len(lattice)
    cells = [
        GridCell(
            config.C, config.gamma, outcome[grid.strategy].mean_hf,
            outcome[grid.strategy].std_hf, "ok",
        )
        if isinstance(outcome, dict)
        else GridCell(config.C, config.gamma, None, None, "failed", str(outcome))
        for config, outcome in zip(lattice, outcomes)
    ]
    # by value, not by position: a grid file may list its axes in any order
    best = min(
        (cell for cell in cells if cell.status == "ok"),
        key=lambda cell: (-cell.mean_hf, cell.C, cell.gamma),
        default=None,
    )
    return GridResult(cells=cells, selected=best)
