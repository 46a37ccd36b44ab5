import numpy as np
import pytest

import tehier.gridsearch
import tehier.hierarchy
import tehier.metrics
import tehier.svm
from tehier import Grid, SvmConfig, Taxonomy, crossval_strategies, grid_search

from conftest import hl


def grid_dataset(rng):
    tax = Taxonomy([hl("1"), hl("2"), hl("3")])
    centers = [(2.5, 0), (-2.5, 0), (0, 2.5)]
    X = np.vstack([rng.normal(0, 0.35, (20, 2)) + c for c in centers])
    labels = [hl(str(c + 1)) for c in range(3) for _ in range(20)]
    return tax, X, labels


def test_two_by_two_grid_evaluates_four_cells(rng):
    tax, X, labels = grid_dataset(rng)
    grid = Grid(c_values=(1.0, 10.0), gamma_values=(0.5, 2.0), folds=3, seed=0)
    result = grid_search(X, labels, tax, grid)
    assert len(result.cells) == 4
    assert [(c.C, c.gamma) for c in result.cells] == [
        (1.0, 0.5), (1.0, 2.0), (10.0, 0.5), (10.0, 2.0),
    ]


def test_single_cell_grid_selects_it(rng):
    tax, X, labels = grid_dataset(rng)
    grid = Grid(c_values=(4.0,), gamma_values=(1.0,), folds=3, seed=0)
    result = grid_search(X, labels, tax, grid)
    assert result.selected is result.cells[0]
    assert (result.selected.C, result.selected.gamma) == (4.0, 1.0)


def test_selected_cell_is_argmax_and_good(rng):
    tax, X, labels = grid_dataset(rng)
    grid = Grid(c_values=(0.5, 4.0, 32.0), gamma_values=(0.25, 1.0, 4.0), folds=3, seed=0)
    result = grid_search(X, labels, tax, grid)
    chosen = result.selected
    assert chosen in result.cells and chosen.status == "ok"
    for cell in result.cells:
        if cell.status == "ok":
            assert chosen.mean_hf >= cell.mean_hf
    assert chosen.mean_hf >= 0.9


def fake_crossval(calls, scores):
    """A crossval stand-in that records the configs of each call and scores
    each config from ``scores``."""

    class Result:
        std_hf = 0.0

    def crossval(X, labels, taxonomy, configs, strategies, **kwargs):
        calls.append([(config.C, config.gamma) for config in configs])
        outcomes = []
        for config in configs:
            result = Result()
            result.mean_hf = scores(config.C, config.gamma)
            outcomes.append({strategies[0]: result})
        return outcomes

    return crossval


@pytest.mark.parametrize(
    "scores, selected",
    [
        (lambda c, g: 0.9, (1.0, 0.25)),  # all tied: smallest C, then smallest gamma
        (lambda c, g: 0.9 if g > 1 else 0.5, (1.0, 2.0)),
        (lambda c, g: 0.9 if c > 1 and g < 1 else 0.5, (2.0, 0.25)),
    ],
)
def test_cells_run_dearest_first_and_report_in_lattice_order(monkeypatch, scores, selected):
    # one crossval call scores the lattice; its folds train the larger gamma
    # first, each fold along its C values in ascending order
    calls = []
    monkeypatch.setattr(tehier.gridsearch, "crossval", fake_crossval(calls, scores))
    tax = Taxonomy([hl("1"), hl("2")])
    grid = Grid(c_values=(1.0, 2.0, 8.0), gamma_values=(0.25, 0.5, 2.0), folds=3)
    result = grid_search(np.zeros((6, 2)), [hl("1"), hl("2")] * 3, tax, grid, threads=1)
    lattice = [(c, g) for c in grid.c_values for g in grid.gamma_values]
    assert calls == [lattice]
    assert [(cell.C, cell.gamma) for cell in result.cells] == lattice
    assert [cell.mean_hf for cell in result.cells] == [scores(c, g) for c, g in lattice]
    assert (result.selected.C, result.selected.gamma) == selected

    monkeypatch.undo()
    trained = []

    def train_hier(X, labels, taxonomy, config, **kwargs):
        trained.append((config.C, config.gamma))
        return tehier.hierarchy.train_hier(X, labels, taxonomy, config, **kwargs)

    monkeypatch.setattr(tehier.metrics, "train_hier", train_hier)
    X = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [3.0, 3.0], [3.1, 3.0], [3.0, 3.1]])
    grid_search(X, [hl("1")] * 3 + [hl("2")] * 3, tax, grid, threads=1)
    assert trained == [(c, g) for g in (2.0, 0.5, 0.25) for _ in range(3) for c in (1.0, 2.0, 8.0)]


def test_tie_break_smaller_c_then_smaller_gamma(monkeypatch):
    # compared by value: a grid file may list its axes in any order
    tax = Taxonomy([hl("1"), hl("2")])
    grid = Grid(c_values=(1.0, 8.0, 2.0), gamma_values=(0.5, 2.0, 0.25), folds=3)
    for scores, selected in [
        (lambda c, g: 0.9, (1.0, 0.25)),  # all tied: smallest C, then smallest gamma
        (lambda c, g: 0.9 if c > 1 and g < 1 else 0.5, (2.0, 0.25)),
    ]:
        monkeypatch.setattr(tehier.gridsearch, "crossval", fake_crossval([], scores))
        result = grid_search(np.zeros((6, 2)), [hl("1"), hl("2")] * 3, tax, grid, threads=1)
        assert [(cell.C, cell.gamma) for cell in result.cells] == [
            (c, g) for c in grid.c_values for g in grid.gamma_values
        ]
        assert (result.selected.C, result.selected.gamma) == selected


def test_grid_determinism_and_threads(rng):
    tax, X, labels = grid_dataset(rng)
    grid = Grid(c_values=(1.0, 8.0), gamma_values=(0.5, 2.0), folds=3, seed=4)
    first = grid_search(X, labels, tax, grid, threads=1)
    second = grid_search(X, labels, tax, grid, threads=4)
    assert first.cells == second.cells
    assert first.selected == second.selected


def test_cell_failure_is_recorded_not_fatal(rng):
    tax, X, labels = grid_dataset(rng)
    # folds exceeding the sample count make every cell fail
    grid = Grid(c_values=(1.0,), gamma_values=(1.0,), folds=3, seed=0)
    result = grid_search(X[:2], labels[:2], tax, grid)
    assert all(c.status == "failed" for c in result.cells)
    assert result.selected is None


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(c_values=())
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="C must be finite and positive"):
            Grid(c_values=(1.0, bad))
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            Grid(gamma_values=(bad,))
    with pytest.raises(ValueError, match="folds"):
        Grid(folds=1)
    # an axis value given twice would make two cells of one (C, gamma)
    with pytest.raises(ValueError, match="grid C value 1.0 given twice"):
        Grid(c_values=(1.0, 1.0), gamma_values=(2.0, 2.0))
    with pytest.raises(ValueError, match="grid C value 4.0 given twice"):
        Grid(c_values=(4, 1.0, 4.0))
    with pytest.raises(ValueError, match="grid gamma value 2.0 given twice"):
        Grid(c_values=(1.0,), gamma_values=(0.5, 2.0, 2.0))


@pytest.mark.parametrize("snap", [None, 1e-2])
@pytest.mark.parametrize("threads", [1, 2])
def test_cells_equal_a_crossval_per_cell_bit_for_bit(rng, monkeypatch, snap, threads):
    # a grid fold trains along C and reuses the solves the C-path rule allows;
    # each cell must still be the cell's own cross-validation to the bit. A
    # snap of 1e-2 puts alphas kept on the way between the snaps of two C
    # values, where a wrong reuse moves a prediction.
    if snap is not None:
        monkeypatch.setattr(tehier.svm, "_SNAP", snap)
    names = ["1.1.1", "1.1.2", "1.2", "2.1", "2.2.1", "2.2.2"]
    centers = [(0, 0), (1.2, 0), (0, 1.2), (3, 3), (4.2, 3), (3, 4.2)]
    X = np.vstack([rng.normal(0, 0.45, (12, 2)) + c for c in centers])
    labels = [hl(name) for name in names for _ in range(12)]
    tax = Taxonomy(labels)
    grid = Grid(c_values=(0.5, 8.0, 32.0, 128.0, 2048.0), gamma_values=(0.5, 4.0), folds=3, seed=2)
    result = grid_search(X, labels, tax, grid, threads=threads)
    for cell in result.cells:
        alone = crossval_strategies(
            X, labels, tax, SvmConfig(cell.C, cell.gamma), (grid.strategy,), k=3, seed=2
        )[grid.strategy]
        assert (cell.mean_hf, cell.std_hf) == (alone.mean_hf, alone.std_hf), cell
