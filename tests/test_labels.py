import numpy as np
import pytest

from tehier import HierLabel, LabelParseError, parse_label, render_label


def test_parse_dot_path():
    assert parse_label("1.1.1").path == (1, 1, 1)
    assert parse_label("2.3").path == (2, 3)
    assert parse_label("7").path == (7,)


@pytest.mark.parametrize("bad", ["", "  ", "1..2", ".1", "1.", "0", "1.0.2", "-1", "a.b", "1.x"])
def test_parse_rejects_bad_tokens(bad):
    with pytest.raises(LabelParseError):
        parse_label(bad)


def test_render_parse_round_trip_random_paths():
    rng = np.random.default_rng(7)
    for _ in range(500):
        depth = int(rng.integers(1, 7))
        path = tuple(int(c) for c in rng.integers(1, 50, size=depth))
        label = HierLabel(path)
        assert parse_label(render_label(label)) == label


def test_ordering_puts_parents_before_children():
    assert parse_label("1") < parse_label("1.1") < parse_label("1.2") < parse_label("2")


def test_label_components_must_be_positive_ints():
    with pytest.raises(LabelParseError):
        HierLabel(())
    with pytest.raises(LabelParseError):
        HierLabel((1, 0))
