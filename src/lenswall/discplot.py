"""SVG figures in the unit disc model: the wall geodesic, orbit points,
and the crossing segment.

The wall is sampled at exact integer rays on the wall plane inside the
positive cone, built from the wall's integer ray (WallClass.vector()), and
only projected to floats for drawing; output is deterministic byte-for-byte
for fixed inputs (fixed sample grid, fixed float formatting).
"""

from __future__ import annotations

import math

from .errors import ParameterError, ResourceBoundError
from .lattice import IntegralLattice, _as_vector, _dot, _echelon, _mat_vec
from .wallcross import WallClass, _require_disc_coordinates, disc_project

__all__ = ["sample_wall_points", "wall_ideal_endpoints", "render_disc_svg"]


def _wall_plane_basis(lattice: IntegralLattice, wall: WallClass):
    """Two independent integer vectors spanning the plane <v, w> = 0."""
    if lattice.rank != 3:
        raise ParameterError("wall sampling needs a rank-3 lattice")
    w = _as_vector(wall.vector(), lattice.rank)
    u = _mat_vec(lattice.gram, w)  # <v, w> = v . u
    candidates = [
        (-u[1], u[0], 0),
        (-u[2], 0, u[0]),
        (0, -u[2], u[1]),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]
    basis = []
    for cand in candidates:
        if _dot(cand, u) != 0 or not any(cand):
            continue
        if basis and len(_echelon([basis[0], cand])[0]) < 2:
            continue
        basis.append(cand)
        if len(basis) == 2:
            return basis
    raise AssertionError("wall plane basis not found")


def _orient(lattice, v):
    return tuple(-x for x in v) if lattice.pairing(v, lattice.positive_class) < 0 else v


def sample_wall_points(lattice: IntegralLattice, wall: WallClass):
    """Integer rays on the wall inside the positive cone, in ascending t.

    Rays are 2^13*b0 + t*b1 for t = 0, +-2*2^k and +-3*2^k with
    0 <= k <= 24, the rays of b0 + t'*b1 for t' = 0, +-2^k and +-(3/2)*2^k
    with |k| <= 12 (plus the b1 direction itself), so the samples
    accumulate at the wall's ideal endpoints.  Returns [] when the wall
    misses the cone.
    """
    b0, b1 = _wall_plane_basis(lattice, wall)
    ts = {0} | {sign * c * 2**k for sign in (1, -1) for c in (2, 3) for k in range(25)}
    rays = [tuple(2**13 * a + t * b for a, b in zip(b0, b1)) for t in sorted(ts)]
    if lattice.norm(b1) > 0:
        rays.append(b1)
    return [_orient(lattice, v) for v in rays if lattice.norm(v) > 0]


def wall_ideal_endpoints(lattice: IntegralLattice, wall: WallClass):
    """The two boundary points of the wall geodesic in the disc (floats).

    Solves for the null directions of the pairing restricted to the wall
    plane; returns [] when the plane carries no cone directions.  The
    endpoints are disc coordinates, so the gram must be the standard
    diag(1,-1,-1) (checked after the rank).
    """
    b0, b1 = _wall_plane_basis(lattice, wall)
    _require_disc_coordinates(lattice)
    a = lattice.norm(b0)
    b = lattice.pairing(b0, b1)
    c = lattice.norm(b1)
    # null rays of a*t^2 + 2*b*t*u + c*u^2 along b0*t + b1*u
    disc = b * b - a * c
    if disc <= 0:
        return []
    endpoints = []
    if a != 0:
        roots = [(-b + s * math.sqrt(disc)) / a for s in (1, -1)]
        dirs = [(1.0, r) for r in roots]  # (t, u) with t = 1
    else:
        dirs = [(1.0, 0.0), (-c / (2 * b), 1.0)]
    for t, u in dirs:
        # limit of the disc projection along the null ray; y/x and z/x are
        # the same for v and -v, so the ray needs no orientation
        x, y, z = (t * p + u * q for p, q in zip(b0, b1))
        endpoints.append((y / x, z / x))
    return endpoints


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def render_disc_svg(
    lattice: IntegralLattice,
    wall: WallClass,
    wall_points,
    orbit_points=(),
    crossing_index: int | None = None,
) -> str:
    """SVG text: unit circle, wall geodesic through wall_points (the rays of
    sample_wall_points), labeled orbit points, and the crossing segment
    highlighted.  orbit_points is an iterable of (step index, cone point) pairs;
    a point whose entries are beyond float range raises ResourceBoundError."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.15 -1.15 2.3 2.3" '
        'width="480" height="480">',
        '<rect x="-1.15" y="-1.15" width="2.3" height="2.3" fill="white"/>',
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#202020" stroke-width="0.012"/>',
    ]
    ends = wall_ideal_endpoints(lattice, wall)
    if len(ends) == 2:
        (ax, ay), (bx, by) = ends
        chord = (bx - ax, by - ay)
        # the geodesic arc is a graph over its chord, so chord projection
        # orders the samples monotonically along the arc
        samples = sorted(
            (disc_project(lattice, v) for v in wall_points),
            key=lambda p: (p[0] - ax) * chord[0] + (p[1] - ay) * chord[1],
        )
        arc = [ends[0], *samples, ends[1]]
        path = " ".join(f"{_fmt(u)},{_fmt(-v)}" for u, v in arc)
        lines.append(
            f'<polyline points="{path}" fill="none" stroke="#1f4e9c" stroke-width="0.015"/>'
        )
    projected = {}
    for n, v in orbit_points:
        try:
            projected[n] = disc_project(lattice, v)
        except OverflowError:
            raise ResourceBoundError(f"orbit point at step {n} is too large to draw") from None
    if crossing_index is not None:
        a = projected.get(crossing_index)
        b = projected.get(crossing_index + 1)
        if a and b:
            lines.append(
                f'<line x1="{_fmt(a[0])}" y1="{_fmt(-a[1])}" '
                f'x2="{_fmt(b[0])}" y2="{_fmt(-b[1])}" '
                'stroke="#e07b00" stroke-width="0.02"/>'
            )
    for n in sorted(projected):
        u, v = projected[n]
        lines.append(
            f'<circle cx="{_fmt(u)}" cy="{_fmt(-v)}" r="0.018" fill="#a01515"/>'
        )
        lines.append(
            f'<text x="{_fmt(u + 0.025)}" y="{_fmt(-v - 0.025)}" '
            f'font-size="0.07" fill="#303030">{n}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
