import math
import re
from fractions import Fraction

import pytest

from lenswall.discplot import render_disc_svg, sample_wall_points, wall_ideal_endpoints
from lenswall.errors import ParameterError
from lenswall.lattice import SIGMA_MINUS, SIGMA_PLUS, reflection_sphere, standard_lattice
from lenswall.wallcross import WallClass, disc_project


def test_empty_point_list_gives_circle_and_wall_only():
    lat = standard_lattice()
    wall = WallClass((1, 1, 1))
    svg = render_disc_svg(lat, wall, sample_wall_points(lat, wall), [])
    assert svg.count("<circle") == 1
    assert svg.count("<polyline") == 1
    assert "<text" not in svg


def test_wall_samples_lie_on_wall_in_cone():
    # integer rays, for a perturbed wall too (its plane comes from its ray)
    lat = standard_lattice()
    perturbed = WallClass((1, 1, 1), (Fraction(1, 5), 0, 0))
    for wall, least in ((WallClass((1, 1, 1)), 21), (perturbed, 9)):
        samples = sample_wall_points(lat, wall)
        assert len(samples) >= least
        for v in samples:
            assert all(type(x) is int for x in v)
            assert lat.pairing(v, wall.vector()) == 0
            assert lat.norm(v) > 0
            y, z = disc_project(lat, v)
            assert y * y + z * z < 1


def test_wall_endpoints_are_i_and_one():
    # the default wall geodesic meets the boundary at 1 = (1,0) and i = (0,1)
    lat = standard_lattice()
    ends = wall_ideal_endpoints(lat, WallClass((1, 1, 1)))
    assert len(ends) == 2
    angles = sorted(math.atan2(v, u) % (2 * math.pi) for u, v in ends)
    assert abs(angles[0] - 0.0) < 1e-9
    assert abs(angles[1] - math.pi / 2) < 1e-9


def test_wall_missing_the_cone():
    # a timelike wall class meets the cone nowhere
    lat = standard_lattice()
    wall = WallClass((1, 0, 0))
    assert sample_wall_points(lat, wall) == []
    assert wall_ideal_endpoints(lat, wall) == []
    svg = render_disc_svg(lat, wall, [], [])
    assert "<polyline" not in svg


def test_orbit_points_render_inside_circle():
    lat = standard_lattice()
    f = reflection_sphere(lat, SIGMA_PLUS) * reflection_sphere(lat, SIGMA_MINUS)
    action = f.adjoint()
    pts = []
    omega = (3, 2, 2)
    for n in range(6):
        pts.append((n, omega))
        omega = action.apply(omega)
    wall = WallClass((1, 1, 1))
    svg = render_disc_svg(lat, wall, sample_wall_points(lat, wall), pts, crossing_index=0)
    dots = re.findall(r'<circle cx="([-0-9.]+)" cy="([-0-9.]+)" r="0.018"', svg)
    assert len(dots) == 6
    for cx, cy in dots:
        assert float(cx) ** 2 + float(cy) ** 2 < 1
    assert "<line" in svg  # highlighted crossing segment
    assert svg.count("<text") == 6


def test_wall_of_the_wrong_length_is_refused():
    # a short wall and a long one are both refused, not indexed or truncated
    lat = standard_lattice()
    for wall in (WallClass((1, 1)), WallClass((1, 1, 1, 1))):
        for sample in (sample_wall_points, wall_ideal_endpoints):
            with pytest.raises(ParameterError, match=f"vector length {len(wall.vector())} "):
                sample(lat, wall)
