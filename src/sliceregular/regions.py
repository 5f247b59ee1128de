"""Axially symmetric slice domains described by a kind plus real bounds.

Three kinds are supported: a half-plane Re > a, a disk |q| < r and an annulus
r0 < |q| < r1 (r1 may be infinite).  All three are rotation-invariant around
the real axis and meet it, so membership only depends on the slice
coordinates (x, y) and the descriptors double as domains for complex stems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UsageError
from .quaternion import SliceCoordinates, random_unit_imaginary

__all__ = ["Region", "half_plane", "disk", "annulus"]

HALF_PLANE = "half-plane"
DISK = "disk"
ANNULUS = "annulus"


@dataclass(frozen=True, slots=True)
class Region:
    kind: str
    bounds: tuple[float, ...]

    def contains(self, x: float, y: float = 0.0) -> bool:
        if self.kind == HALF_PLANE:
            return x > self.bounds[0]
        r = math.hypot(x, y)
        if self.kind == DISK:
            return r < self.bounds[0]
        lo, hi = self.bounds
        return lo < r < hi

    def intersect(self, other: "Region") -> "Region":
        """Largest common descriptor of like kinds; conservative across kinds."""
        a, b = self, other
        # an infinite disk is the whole space and never constrains anything
        if a.kind == DISK and math.isinf(a.bounds[0]):
            return b
        if b.kind == DISK and math.isinf(b.bounds[0]):
            return a
        if a.kind == b.kind:
            if a.kind == HALF_PLANE:
                return half_plane(max(a.bounds[0], b.bounds[0]))
            if a.kind == DISK:
                return disk(min(a.bounds[0], b.bounds[0]))
            lo = max(a.bounds[0], b.bounds[0])
            hi = min(a.bounds[1], b.bounds[1])
            if lo >= hi:
                raise UsageError("annuli do not overlap")
            return annulus(lo, hi)
        if {a.kind, b.kind} == {HALF_PLANE, DISK}:
            hp = a if a.kind == HALF_PLANE else b
            dk = a if a.kind == DISK else b
            if hp.bounds[0] < 0.0:
                r = min(dk.bounds[0], -hp.bounds[0])
                if r > 0.0:
                    return disk(r)
            raise UsageError(
                "no conservative common sub-region of half-plane and disk exists"
            )
        if {a.kind, b.kind} == {DISK, ANNULUS}:
            dk = a if a.kind == DISK else b
            an = a if a.kind == ANNULUS else b
            lo, hi = an.bounds[0], min(an.bounds[1], dk.bounds[0])
            if lo >= hi:
                raise UsageError("annulus and disk do not overlap")
            return annulus(lo, hi)
        # half-plane with annulus: keep the annulus part right of the wall
        hp = a if a.kind == HALF_PLANE else b
        an = a if a.kind == ANNULUS else b
        lo = max(an.bounds[0], hp.bounds[0])
        hi = an.bounds[1]
        if hp.bounds[0] >= 0.0 and lo < hi:
            # points with |q| > lo >= wall do not all satisfy Re > wall; only
            # safe when the wall is at or left of the inner radius and <= 0
            raise UsageError(
                "no conservative common sub-region of half-plane and annulus exists"
            )
        if hp.bounds[0] < 0.0:
            lo2 = max(an.bounds[0], 0.0)
            hi2 = min(hi, -hp.bounds[0])
            if lo2 < hi2:
                return annulus(lo2, hi2)
        raise UsageError("regions do not overlap conservatively")

    # -- probe helpers -------------------------------------------------------

    def real_interval(self, margin: float = 0.05) -> tuple[float, float]:
        """A finite representative interval of the (positive) real trace."""
        if self.kind == HALF_PLANE:
            a = self.bounds[0]
            return (a + margin + 0.1, a + 3.0)
        if self.kind == DISK:
            r = self.bounds[0]
            if math.isinf(r):
                return (-2.0, 2.0)
            return (-r * (1 - margin) * 0.9, r * (1 - margin) * 0.9)
        lo, hi = self.bounds
        lo2 = lo * (1 + margin) + margin
        hi2 = min(hi * (1 - margin), lo2 + 3.0 * max(lo, 1.0)) if math.isfinite(hi) else lo2 + 3.0 * max(lo, 1.0)
        if lo2 >= hi2:
            lo2, hi2 = lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo)
        return (lo2, hi2)

    def chebyshev_real_points(self, n: int = 30, margin: float = 0.05) -> list[float]:
        """Chebyshev-spaced real probes, well conditioned for analytic agreement."""
        lo, hi = self.real_interval(margin)
        mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return [mid + rad * math.cos((2 * k + 1) * math.pi / (2 * n)) for k in range(n)]

    def random_slice_points(self, rng, n: int, margin: float = 0.05,
                            y_max: float = 2.0) -> list[SliceCoordinates]:
        """Random interior slice coordinates with the given boundary margin."""
        points: list[SliceCoordinates] = []
        guard = 0
        while len(points) < n:
            guard += 1
            if guard > 200 * n:
                raise UsageError(f"could not sample {n} interior points of {self}")
            if self.kind == HALF_PLANE:
                a = self.bounds[0]
                x = rng.uniform(a + margin, a + margin + 2.5)
                y = rng.uniform(0.0, y_max)
            elif self.kind == DISK:
                r = min(self.bounds[0], 4.0)
                x = rng.uniform(-r, r)
                y = rng.uniform(0.0, r)
                if math.hypot(x, y) >= (self.bounds[0] - margin):
                    continue
            else:
                lo, hi = self.bounds
                hi = min(hi, lo + 4.0 * max(lo, 1.0))
                rad = rng.uniform(lo + margin, hi - margin)
                theta = rng.uniform(0.0, math.pi)
                x, y = rad * math.cos(theta), rad * math.sin(theta)
            displaced = ((x + margin, y), (x - margin, y), (x, y + margin), (x, abs(y - margin)))
            if self.contains(x, y) and all(self.contains(*d) for d in displaced):
                points.append(SliceCoordinates(x, y, random_unit_imaginary(rng)))
        return points


def half_plane(a: float) -> Region:
    return Region(HALF_PLANE, (float(a),))


def disk(r: float) -> Region:
    if r <= 0:
        raise UsageError("disk radius must be positive")
    return Region(DISK, (float(r),))


def annulus(lo: float, hi: float = math.inf) -> Region:
    if lo < 0 or hi <= lo:
        raise UsageError("annulus needs 0 <= inner < outer")
    return Region(ANNULUS, (float(lo), float(hi)))
