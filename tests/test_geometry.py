from __future__ import annotations

import dataclasses
import math

import pytest

from fipp.geometry import EPS, Vec2, check_finite


def test_arithmetic():
    a = Vec2(1.0, 2.0)
    b = Vec2(3.0, -4.0)
    assert a + b == Vec2(4.0, -2.0)
    assert a - b == Vec2(-2.0, 6.0)
    assert a * 2.0 == Vec2(2.0, 4.0)
    assert 2.0 * a == Vec2(2.0, 4.0)


def test_magnitude():
    assert Vec2(3.0, 4.0).magnitude() == 5.0
    assert Vec2(0.0, 0.0).magnitude() == 0.0


def test_distance_to():
    assert Vec2(1.0, 1.0).distance_to(Vec2(4.0, 5.0)) == 5.0
    assert Vec2(2.0, 3.0).distance_to(Vec2(2.0, 3.0)) == 0.0


def test_normalized_unit_length():
    n = Vec2(3.0, 4.0).normalized()
    assert n.x == pytest.approx(0.6)
    assert n.y == pytest.approx(0.8)
    assert n.magnitude() == pytest.approx(1.0)


def test_normalized_zero_guard():
    assert Vec2(0.0, 0.0).normalized() == Vec2(0.0, 0.0)
    # Below the epsilon threshold counts as zero too, instead of blowing up
    # the components.
    assert Vec2(EPS / 10, 0.0).normalized() == Vec2(0.0, 0.0)


def test_as_tuple():
    assert Vec2(1.5, -2.5).as_tuple() == (1.5, -2.5)


def test_immutable():
    v = Vec2(1.0, 2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.x = 3.0  # type: ignore[misc]


def test_value_equality_and_hash():
    assert Vec2(1.0, 2.0) == Vec2(1.0, 2.0)
    assert hash(Vec2(1.0, 2.0)) == hash(Vec2(1.0, 2.0))
    assert Vec2(1.0, 2.0) != Vec2(2.0, 1.0)


def test_chained_expression():
    p = Vec2(0.0, 0.0) + Vec2(1.0, 0.0) * 0.5 - Vec2(0.0, 0.25)
    assert p == Vec2(0.5, -0.25)
    assert math.isclose(p.magnitude(), math.hypot(0.5, 0.25))


def test_check_finite_names_the_first_bad_value():
    check_finite(a=1.0, b=-2, c=0.0)
    with pytest.raises(ValueError, match=r"^b must be a finite number, got nan$"):
        check_finite(a=1.0, b=math.nan, c=math.inf)
    with pytest.raises(ValueError, match=r"^c must be a finite number, got 'x'$"):
        check_finite(c="x")
