import math

import pytest

from sliceregular.errors import UsageError
from sliceregular.regions import annulus, disk, half_plane


class TestContainment:
    def test_half_plane_is_open(self):
        hp = half_plane(1.0)
        assert hp.contains(1.5, 10.0)
        assert not hp.contains(1.0, 0.0)
        assert not hp.contains(0.5)

    def test_disk(self):
        d = disk(2.0)
        assert d.contains(1.0, 1.0)
        assert not d.contains(2.0, 0.0)
        assert not d.contains(1.5, 1.5)

    def test_annulus(self):
        a = annulus(1.0, 3.0)
        assert a.contains(2.0, 0.0)
        assert a.contains(0.0, -2.0)
        assert not a.contains(0.5, 0.0)
        assert not a.contains(3.0, 0.0)

    def test_infinite_annulus(self):
        a = annulus(1.0)
        assert a.contains(100.0, 5.0)
        assert not a.contains(0.3, 0.0)


class TestIntersection:
    def test_like_kinds(self):
        assert half_plane(1).intersect(half_plane(2)) == half_plane(2)
        assert disk(1).intersect(disk(3)) == disk(1)
        assert annulus(1, 4).intersect(annulus(2, 6)) == annulus(2, 4)

    def test_infinite_disk_neutral(self):
        assert disk(math.inf).intersect(half_plane(0.5)) == half_plane(0.5)
        assert annulus(1, 2).intersect(disk(math.inf)) == annulus(1, 2)

    def test_disk_in_negative_half_plane(self):
        assert half_plane(-2.0).intersect(disk(1.0)) == disk(1.0)
        assert half_plane(-0.5).intersect(disk(1.0)) == disk(0.5)

    def test_disk_and_annulus(self):
        assert disk(3.0).intersect(annulus(1.0, 5.0)) == annulus(1.0, 3.0)
        assert annulus(1.0).intersect(disk(3.0)) == annulus(1.0, 3.0)
        with pytest.raises(UsageError, match="do not overlap"):
            disk(0.5).intersect(annulus(1.0, 5.0))

    def test_half_plane_and_annulus(self):
        # only the part of the annulus inside the disk |q| < -wall is certainly right of the wall
        assert half_plane(-2.0).intersect(annulus(0.5, 5.0)) == annulus(0.5, 2.0)
        assert annulus(0.5).intersect(half_plane(-2.0)) == annulus(0.5, 2.0)
        with pytest.raises(UsageError, match="no conservative common sub-region"):
            half_plane(0.5).intersect(annulus(1.0, 3.0))
        with pytest.raises(UsageError, match="do not overlap conservatively"):
            half_plane(-0.5).intersect(annulus(1.0, 3.0))

    def test_incompatible_mixed(self):
        with pytest.raises(UsageError):
            half_plane(0.5).intersect(disk(1.0))
        with pytest.raises(UsageError):
            annulus(1, 2).intersect(annulus(3, 4))


class TestSamplingAndJson:
    def test_chebyshev_points_inside(self):
        for region in (half_plane(0.0), disk(2.0), annulus(1.0, 5.0), annulus(1.0)):
            pts = region.chebyshev_real_points(30)
            assert len(pts) == 30
            assert all(region.contains(x) for x in pts)

    def test_random_points_interior(self, rng):
        for region in (half_plane(0.5), disk(2.0), annulus(1.0, 4.0)):
            for p in region.random_slice_points(rng, 25, margin=0.05):
                assert region.contains(p.x, p.y)
                assert p.y >= 0
                assert abs(p.unit.norm() - 1) < 1e-12
