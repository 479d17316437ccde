"""Small helpers for phase arithmetic, shared by every module."""

from __future__ import annotations

import math

TAU = 2.0 * math.pi


def normalize_radians(x: float) -> float:
    """Reduce a radian phase into [0, 2*pi)."""
    r = math.fmod(float(x), TAU)
    if r < 0.0:
        r += TAU
    # fmod can land exactly on TAU after the correction
    return 0.0 if r == TAU else r


def circular_distance(a: float, b: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    d = abs(normalize_radians(a) - normalize_radians(b))
    return min(d, TAU - d)
