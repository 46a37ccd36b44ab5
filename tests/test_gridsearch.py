import numpy as np
import pytest

import tehier.gridsearch
from tehier import Grid, GridSearchError, build_from_labels, grid_search, train_final
from tehier.gridsearch import GridResult, GridCell

from conftest import hl


def grid_dataset(rng):
    tax = build_from_labels([hl("1"), hl("2"), hl("3")])
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
    assert result.selected == (4.0, 1.0)


def test_selected_cell_is_argmax_and_good(rng):
    tax, X, labels = grid_dataset(rng)
    grid = Grid(c_values=(0.5, 4.0, 32.0), gamma_values=(0.25, 1.0, 4.0), folds=3, seed=0)
    result = grid_search(X, labels, tax, grid)
    chosen = result.selected_cell
    for cell in result.cells:
        if cell.status == "ok":
            assert chosen.mean_hf >= cell.mean_hf
    assert chosen.mean_hf >= 0.9


def test_tie_break_smaller_c_then_smaller_gamma():
    cells = [
        GridCell(1.0, 1.0, 0.9, 0.0, "ok"),
        GridCell(1.0, 2.0, 0.9, 0.0, "ok"),
        GridCell(2.0, 1.0, 0.9, 0.0, "ok"),
    ]
    result = GridResult(cells=cells, selected=None)
    best = -1.0
    for cell in cells:
        if cell.mean_hf > best:
            best = cell.mean_hf
            result.selected = (cell.C, cell.gamma)
    assert result.selected == (1.0, 1.0)


def fake_crossval(calls, scores):
    """A crossval stand-in that records its (C, gamma) and scores it from ``scores``."""

    class Result:
        std_hf = 0.0

    def crossval(X, labels, taxonomy, config, **kwargs):
        calls.append((config.C, config.gamma))
        result = Result()
        result.mean_hf = scores(config.C, config.gamma)
        return result

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
    calls = []
    monkeypatch.setattr(tehier.gridsearch, "crossval", fake_crossval(calls, scores))
    tax = build_from_labels([hl("1"), hl("2")])
    grid = Grid(c_values=(1.0, 2.0, 8.0), gamma_values=(0.25, 0.5, 2.0), folds=3)
    result = grid_search(np.zeros((6, 2)), [hl("1"), hl("2")] * 3, tax, grid, threads=1)
    lattice = [(c, g) for c in grid.c_values for g in grid.gamma_values]
    assert calls[0] == (8.0, 2.0)  # the largest gamma, then the largest C
    assert calls == sorted(lattice, key=lambda cell: (-cell[1], -cell[0]))
    assert [(cell.C, cell.gamma) for cell in result.cells] == lattice
    assert [cell.mean_hf for cell in result.cells] == [scores(c, g) for c, g in lattice]
    assert result.selected == selected


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


def test_train_final_requires_viable_cell(rng):
    tax, X, labels = grid_dataset(rng)
    with pytest.raises(GridSearchError, match="no viable cell"):
        train_final(X, labels, tax, GridResult(cells=[], selected=None))


def test_train_final_equals_manual_training(rng):
    from tehier import SvmConfig, train_hier

    tax, X, labels = grid_dataset(rng)
    grid = Grid(c_values=(2.0,), gamma_values=(1.0,), folds=3, seed=0)
    result = grid_search(X, labels, tax, grid)
    final = train_final(X, labels, tax, result)
    manual = train_hier(X, labels, tax, base_kind="svm", config=SvmConfig(C=2.0, gamma=1.0))
    queries = rng.normal(size=(50, 2))
    assert final.predict(queries, "lcpnb") == manual.predict(queries, "lcpnb")


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(c_values=())
    with pytest.raises(ValueError):
        Grid(c_values=(0.0,))
