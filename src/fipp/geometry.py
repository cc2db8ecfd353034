"""Minimal 2D vector type shared by the flow, planning and simulation layers."""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

EPS = 1e-9


@dataclass(frozen=True, slots=True)
class Vec2:
    """Immutable 2D vector. Components are assumed finite; units depend on
    context (meters, meters/second or force units)."""

    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, s: float) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def magnitude(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Vec2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def normalized(self) -> "Vec2":
        m = self.magnitude()
        if m < EPS:
            return Vec2(0.0, 0.0)
        return Vec2(self.x / m, self.y / m)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


def check_finite(**values) -> None:
    """Raise ValueError naming the first keyword whose value is not a finite
    number. Parameter classes call it before their range checks, which NaN
    would pass silently."""
    for name, value in values.items():
        try:
            ok = math.isfinite(value)
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(f"{name} must be a finite number, got {value!r}")


def left_sum(values) -> float:
    """``values`` added from the left, rounding after each addition, as the
    builtin ``sum`` adds floats up to CPython 3.11. From 3.12 ``sum``
    compensates its rounding: ``[1e16, 1.0, -1e16]`` sums to 1.0, not 0.0."""
    return functools.reduce(operator.add, values, 0.0)
