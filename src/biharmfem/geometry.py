"""Polygonal domains with per-edge boundary-condition tags.

Vertices are stored counterclockwise.  Edge ``j`` runs from vertex ``j`` to
vertex ``j+1 (mod n)``, so the edge arriving at vertex ``j`` is edge ``j-1``
and the edge leaving it is edge ``j``.  A vertex is classified by the
Dirichlet/Neumann types of its arriving and leaving edges, which together
with the interior angle determines how many corrective singular functions
the corner contributes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

ANGLE_TOL = 1e-12
# vertex coordinates lie in [-GRID_BOUND, GRID_BOUND]: mesh.initial_mesh
# tiles the vertices' bounding box with unit cells, so its level-0 grid has
# at most (2*GRID_BOUND)**2 of them, and the polygon arithmetic stays far
# from overflow
GRID_BOUND = 64

# Interval breakpoints for the singular-exponent table.
_BREAKPOINTS = (0.5 * math.pi, math.pi, 1.5 * math.pi, 2.0 * math.pi)


class BCType(Enum):
    DIRICHLET = "D"
    NEUMANN = "N"


class VertexClass(Enum):
    """Boundary-condition pattern of the two edges meeting at a vertex."""

    D2 = "D2"                 # Dirichlet / Dirichlet
    N2 = "N2"                 # Neumann / Neumann
    M_PRIME = "Mprime"        # arriving Neumann, leaving Dirichlet
    M_DPRIME = "Mdoubleprime"  # arriving Dirichlet, leaving Neumann


class DomainError(ValueError):
    """Invalid polygon or boundary tagging."""


def _snap_angle(omega: float) -> float:
    """Snap an interior angle to a table breakpoint within ANGLE_TOL."""
    for bp in _BREAKPOINTS:
        if abs(omega - bp) < ANGLE_TOL:
            return bp
    return omega


def _orient(a, b, c):
    """Sign of the turn a -> b -> c, 0 within 1e-14 (points broadcast)."""
    v = ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
         - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))
    return np.where(np.abs(v) < 1e-14, 0.0, np.sign(v))


def _check_simple(vertices):
    """Raise on the first degenerate edge, else on the first pair of edges
    i < j that properly cross (adjacent edges share an end, where an
    orientation is exactly 0, so they never cross), else on the first
    vertex k within 1e-10 of an edge j that does not end at it: a repeated
    vertex or a vertex on another edge makes the boundary touch itself.
    Each check loops over one side and is vectorised over the other, so
    memory stays linear in the vertex count."""
    v = vertices
    w = np.roll(v, -1, axis=0)
    degenerate = np.flatnonzero(np.isclose(v, w).all(axis=1))
    if len(degenerate):
        raise DomainError(f"degenerate edge {degenerate[0]}")
    for i in range(len(v) - 1):
        j = np.arange(i + 1, len(v))
        o1, o2 = _orient(v[i], w[i], v[j]), _orient(v[i], w[i], w[j])
        o3, o4 = _orient(v[j], w[j], v[i]), _orient(v[j], w[j], w[i])
        cross = (o1 != o2) & (o3 != o4) & (o1 * o2 * o3 * o4 != 0)
        if cross.any():
            raise DomainError(f"edges {i} and {j[np.argmax(cross)]} intersect")
    edge = np.arange(len(v))
    for k in edge:
        touch = on_segment(v[k], v, w) & (edge != k) & (np.roll(edge, -1) != k)
        if touch.any():
            raise DomainError(f"vertex {k} touches edge {np.argmax(touch)}")


def on_segment(points, a, b, tol=1e-10):
    """Whether each point (..., 2) lies within ``tol`` on its segment a-b,
    whose ends broadcast against the points."""
    ab, ap = b - a, points - a
    length2 = ab[..., 0] ** 2 + ab[..., 1] ** 2
    t = (ap[..., 0] * ab[..., 0] + ap[..., 1] * ab[..., 1]) / length2
    cross = ab[..., 0] * ap[..., 1] - ab[..., 1] * ap[..., 0]
    return ((np.abs(cross) <= tol * np.maximum(1.0, np.sqrt(length2)))
            & (-tol <= t) & (t <= 1 + tol))


@dataclass(frozen=True)
class PolygonDomain:
    """Simple counterclockwise polygon with Dirichlet/Neumann edge tags."""

    vertices: np.ndarray                 # (n, 2)
    tags: tuple[BCType, ...]             # tags[j] tags edge vertex j -> j+1
    name: str = ""
    angles: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
            raise DomainError("vertices must be an (n, 2) array with n >= 3")
        for j, (x, y) in enumerate(verts):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise DomainError(f"vertex {j} has a non-finite coordinate "
                                  f"({x}, {y})")
        extent = float(np.abs(verts).max())
        if extent > GRID_BOUND:
            raise DomainError(
                f"domain extent {extent:g} exceeds the level-0 grid bound: "
                f"vertex coordinates must lie in [-{GRID_BOUND}, {GRID_BOUND}]")
        object.__setattr__(self, "vertices", verts)
        if len(self.tags) != len(verts):
            raise DomainError("need one edge tag per vertex")
        object.__setattr__(self, "tags", tuple(BCType(t) for t in self.tags))
        if self.area() <= 0:
            raise DomainError("vertices must be ordered counterclockwise")
        _check_simple(verts)
        object.__setattr__(self, "angles", self._interior_angles())
        self._check_angles()

    # -- construction checks ------------------------------------------------

    def _interior_angles(self) -> np.ndarray:
        n = len(self.vertices)
        angles = np.empty(n)
        for j in range(n):
            d_out = self.vertices[(j + 1) % n] - self.vertices[j]
            d_in = self.vertices[j] - self.vertices[j - 1]
            # interior angle: counterclockwise turn from the leaving edge
            # direction to the reversed arriving edge direction
            a = math.atan2(-d_in[1], -d_in[0]) - math.atan2(d_out[1], d_out[0])
            a = a % (2.0 * math.pi)
            angles[j] = _snap_angle(a)
        return angles

    def _check_angles(self):
        for j, omega in enumerate(self.angles):
            if not 0.0 < omega < 2.0 * math.pi:
                raise DomainError(f"interior angle at vertex {j} out of (0, 2pi)")
            if omega == math.pi and self.tags[j - 1] == self.tags[j]:
                raise DomainError(
                    f"straight angle at vertex {j} requires a boundary-condition "
                    "change across the vertex"
                )

    # -- basic queries -------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def area(self) -> float:
        """Shoelace area, signed: negative for clockwise vertices."""
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def has_dirichlet(self) -> bool:
        return any(t == BCType.DIRICHLET for t in self.tags)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Even-odd point-in-polygon test (vectorized, strict interior only
        reliable away from the boundary)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        inside = np.zeros(len(pts), dtype=bool)
        n = self.n_vertices
        for i in range(n):
            x1, y1 = self.vertices[i]
            x2, y2 = self.vertices[(i + 1) % n]
            crosses = (y1 > y) != (y2 > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            inside ^= crosses & (x < np.where(crosses, xc, np.inf))
        return inside


def classify_vertex(domain: PolygonDomain, j: int) -> VertexClass:
    """Classify vertex ``j`` by the BC types of its two adjacent edges."""
    t_in = domain.tags[(j - 1) % domain.n_vertices]
    t_out = domain.tags[j % domain.n_vertices]
    if t_in == BCType.DIRICHLET and t_out == BCType.DIRICHLET:
        return VertexClass.D2
    if t_in == BCType.NEUMANN and t_out == BCType.NEUMANN:
        return VertexClass.N2
    if t_in == BCType.NEUMANN:
        return VertexClass.M_PRIME
    return VertexClass.M_DPRIME


def singular_exponents(vclass: VertexClass, omega: float) -> list[tuple[float, str]]:
    """Exponent/trig rows for the corrective singular functions at a corner.

    Returns (beta, trig) pairs with ``s = r**(-beta) * trig(beta * theta)``;
    only exponents in (0, 1) appear.  Interval membership at the breakpoints
    follows the exponent table exactly: (pi, 2pi) open for D2/N2, and
    (pi/2, 3pi/2] right-closed for the mixed classes.
    """
    if not 0.0 < omega < 2.0 * math.pi:
        raise ValueError("omega must lie in (0, 2pi)")
    omega = _snap_angle(omega)
    half, pi, three_half = _BREAKPOINTS[:3]
    if vclass in (VertexClass.D2, VertexClass.N2):
        trig = "sin" if vclass == VertexClass.D2 else "cos"
        if pi < omega < 2.0 * math.pi:
            return [(math.pi / omega, trig)]
        return []
    trig = "sin" if vclass == VertexClass.M_PRIME else "cos"
    if half < omega <= three_half:
        return [(math.pi / (2.0 * omega), trig)]
    if three_half < omega < 2.0 * math.pi:
        return [((2 * m - 1) * math.pi / (2.0 * omega), trig) for m in (1, 2)]
    return []


def perp_dimension(domain: PolygonDomain) -> tuple[int, list[int]]:
    """Dimension of the corrective space and the contributing vertex indices.

    Counts +1 per D2/N2 vertex with omega in (pi, 2pi), +1 per mixed vertex
    with omega in (pi/2, 3pi/2], and +2 per mixed vertex with omega in
    (3pi/2, 2pi).
    """
    total = 0
    contributing = []
    for j in range(domain.n_vertices):
        k = len(singular_exponents(classify_vertex(domain, j), float(domain.angles[j])))
        if k:
            total += k
            contributing.append(j)
    return total, contributing


# -- built-in experiment domains ---------------------------------------------

_BUILTIN_VERTICES = {
    # Square of side 4 centered at the corner Q = origin, with a sector
    # removed; Q is vertex 0 and its leaving edge runs along +x.
    "I": [(0, 0), (2, 0), (2, 2), (-2, 2), (-2, 0)],
    "II": [(0, 0), (2, 0), (2, 2), (-2, 2), (-2, -2)],
    "III": [(0, 0), (2, 0), (2, 2), (-2, 2), (-2, -2), (0, -2)],
    "IV": [(0, 0), (2, 0), (2, 2), (-2, 2), (-2, -2), (2, -2)],
}

BC_TYPES = ("B1", "B2", "B3", "B4", "B5")
BUILTIN_NAMES = tuple(_BUILTIN_VERTICES)


def builtin_domain(name: str, bc_type: str) -> PolygonDomain:
    """One of the four experiment domains with a standard boundary tagging.

    B1: all Dirichlet.  B2: the two edges at Q Neumann, rest Dirichlet.
    B3: arriving edge at Q Neumann, leaving edge Dirichlet (mixed M').
    B4: arriving edge Dirichlet, leaving edge Neumann (mixed M'').
    B5: all Neumann.
    """
    if name not in _BUILTIN_VERTICES:
        raise DomainError(f"unknown domain {name!r}; choose from I, II, III, IV")
    if bc_type not in BC_TYPES:
        raise DomainError(f"unknown boundary type {bc_type!r}; choose B1..B5")
    verts = np.array(_BUILTIN_VERTICES[name], dtype=float)
    n = len(verts)
    D, N = BCType.DIRICHLET, BCType.NEUMANN
    if bc_type == "B1":
        tags = [D] * n
    elif bc_type == "B5":
        tags = [N] * n
    else:
        tags = [D] * n
        if bc_type == "B2":
            tags[n - 1] = N  # arriving edge at Q
            tags[0] = N      # leaving edge at Q
        elif bc_type == "B3":
            tags[n - 1] = N
        else:  # B4
            tags[0] = N
    try:
        return PolygonDomain(verts, tuple(tags), name=f"{name}/{bc_type}")
    except DomainError as exc:
        raise DomainError(
            f"domain {name} with boundary type {bc_type} is inconsistent: {exc}"
        ) from exc


def read_domain_file(path) -> PolygonDomain:
    """Parse the plain-text domain format: vertex lines 'x y', then one
    'D'/'N' tag line per edge.  Blank lines, and lines whose first
    non-blank character is '#', are skipped; a '#' after data is not."""
    with open(path) as fh:
        lines = [ln for ln in map(str.strip, fh) if ln and not ln.startswith("#")]
    verts, tags = [], []
    for ln in lines:
        parts = ln.split()
        if len(parts) == 2 and parts[0] not in ("D", "N"):
            if tags:
                raise DomainError("vertex lines must precede tag lines")
            verts.append((float(parts[0]), float(parts[1])))
        elif len(parts) == 1 and parts[0] in ("D", "N"):
            tags.append(BCType(parts[0]))
        else:
            raise DomainError(f"unparsable domain line: {ln!r}")
    if len(tags) != len(verts):
        raise DomainError(
            f"got {len(verts)} vertices but {len(tags)} edge tags; need one tag per edge"
        )
    return PolygonDomain(np.array(verts), tuple(tags), name="file")


def resolve_domain(domain: str, bc_type: str,
                   domain_file: str | None = None) -> PolygonDomain:
    """The domain a command names: ``domain_file`` is always read as a
    file; otherwise ``domain`` is a built-in name (with ``bc_type``), else
    the path of a domain file.  Built-in names win over files."""
    if domain_file is not None:
        return read_domain_file(domain_file)
    if domain not in BUILTIN_NAMES and os.path.exists(domain):
        return read_domain_file(domain)
    return builtin_domain(domain, bc_type)
