"""Dot-path hierarchy labels.

A label like ``1.1.1`` names one taxonomy node by its root-to-node path of
positive components. Labels are immutable and ordered by their component
tuples, so a parent sorts directly before its own children.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LabelParseError


@dataclass(frozen=True, order=True)
class HierLabel:
    """A node address in the class hierarchy: a tuple of positive ints."""

    path: tuple[int, ...]

    def __post_init__(self):
        if not self.path:
            raise LabelParseError("label path must be nonempty")
        if any((not isinstance(c, int)) or c < 1 for c in self.path):
            raise LabelParseError(f"label components must be positive integers, got {self.path!r}")

    def __str__(self) -> str:
        return render_label(self)


def parse_label(text: str) -> HierLabel:
    """Parse a dot-path label such as ``1.1.1``.

    Raises LabelParseError for empty components, non-numeric components and
    components below 1.
    """
    if not isinstance(text, str) or not text.strip():
        raise LabelParseError(f"empty label token {text!r}")
    parts = text.strip().split(".")
    components = []
    for part in parts:
        if not part:
            raise LabelParseError(f"empty component in label {text!r}")
        try:
            value = int(part)
        except ValueError:
            raise LabelParseError(f"non-numeric component {part!r} in label {text!r}") from None
        if value < 1:
            raise LabelParseError(f"component {value} in label {text!r} must be >= 1")
        components.append(value)
    return HierLabel(tuple(components))


def render_label(label: HierLabel) -> str:
    """Inverse of parse_label: ``HierLabel((1, 2)) -> "1.2"``."""
    return ".".join(str(c) for c in label.path)
