"""Conforming triangulations with nested uniform refinement.

The initial mesh tiles the domain with unit grid squares, each split into
two triangles (or one, for squares cut in half by a diagonal domain edge),
built as arrays over all cells of the vertices' bounding box at once.
Nodes and edges are numbered in the order they first appear, by one
helper.  Uniform refinement is 4-way (red): every triangle is split at its
edge midpoints, so the coarse nodes are a prefix of the fine nodes and
piecewise linear prolongation between levels is exact.
``TriMesh.areas`` and ``TriMesh.edge_table``, each computed once per
mesh, give the triangles' areas and the numbered edges that assembly,
refinement and the mesh checks read.  The edge vectors are not kept:
``TriMesh.edge_vectors`` forms one coordinate of them for the stiffness,
and ``TriMesh.max_edge_length`` one edge at a time.  A refined mesh's
edges are numbered from its parent's in one pass over the parent
triangles, with no sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import BCType, PolygonDomain, on_segment

# The most triangles a refined mesh may have.  Red refinement makes
# T0 * 4**L triangles at level L; level 9 of the largest built-in (IV,
# 7,340,032 triangles) fits, level 10 of the smallest does not.
MAX_TRIANGLES = 1 << 23


class MeshError(ValueError):
    pass


@dataclass(frozen=True)
class TriMesh:
    """Triangulation of a polygon.

    ``boundary_edges`` rows are (node_a, node_b, domain_edge_index); the BC
    tag of a boundary edge is the tag of its domain edge.  For a refined
    mesh, node ``k < parent.n_nodes`` coincides with parent node ``k`` and
    ``edge_parents[k - parent.n_nodes]`` gives the two parent nodes whose
    midpoint is node ``k``.
    """

    domain: PolygonDomain
    nodes: np.ndarray          # (N, 2)
    triangles: np.ndarray      # (T, 3) counterclockwise
    boundary_edges: np.ndarray  # (B, 3)
    level: int = 0
    parent: "TriMesh | None" = None
    edge_parents: np.ndarray | None = None
    dirichlet_nodes: np.ndarray = field(init=False, repr=False)
    # set by refine_uniform: the edge table comes from the parent's
    _refined: bool = field(default=False, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dirichlet_nodes", self._dirichlet_mask())

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @cached_property
    def areas(self) -> np.ndarray:
        """The triangles' areas (T,), computed once per mesh and read-only;
        raises on a degenerate or inverted triangle."""
        tri, p = self.triangles, self.nodes
        a = p[tri[:, 0]]
        e1, e2 = a - p[tri[:, 2]], p[tri[:, 1]] - a
        area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        if np.any(area <= 0):
            raise MeshError("degenerate or inverted triangle "
                            "(non-positive area)")
        area.flags.writeable = False
        return area

    def edge_vectors(self, axis: int) -> np.ndarray:
        """Coordinate ``axis`` of each triangle's edge vectors, (T, 3),
        formed on each call: column k runs from local node k + 1 to local
        node k + 2 (mod 3), the edge opposite node k."""
        e = self.nodes[:, axis][self.triangles]
        x0, x1 = e[:, 0].copy(), e[:, 1].copy()
        np.subtract(e[:, 2], x1, out=e[:, 0])
        np.subtract(x0, e[:, 2], out=e[:, 1])
        np.subtract(x1, x0, out=e[:, 2])
        return e

    def max_edge_length(self) -> float:
        """The longest edge, formed one edge and one coordinate at a time:
        at most three (T,) temporaries."""
        longest = 0.0
        for k in range(3):
            sq = 0.0
            for x in self.nodes.T:
                d = x[self.triangles[:, k]]
                d -= x[self.triangles[:, k - 1]]
                d *= d
                sq = sq + d
            longest = max(longest, float(sq.max()))
        return math.sqrt(longest)

    @cached_property
    def edge_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_edges`` of the triangles and boundary rows, computed once per
        mesh: the (E, 2) edges, the (T, 3) edge numbers of the triangles
        and the (B,) edge numbers of the boundary rows; numbered from the
        parent's table by ``_refined_edges`` for a mesh made by
        ``refine_uniform``.  The arrays stay writeable, like the mesh's
        own: ``np.bincount`` copies a read-only input."""
        table = _refined_edges(self) if self._refined else None
        return _edges(self.triangles, self.boundary_edges) \
            if table is None else table

    def _dirichlet_mask(self) -> np.ndarray:
        """Nodes on the closure of any Dirichlet edge (junction nodes are
        Dirichlet)."""
        mask = np.zeros(self.n_nodes, dtype=bool)
        tagged = np.array([t == BCType.DIRICHLET for t in self.domain.tags])
        rows = self.boundary_edges
        mask[rows[tagged[rows[:, 2]], :2]] = True
        return mask

    def check_conforming(self) -> None:
        """Raise unless every interior edge is shared by exactly two
        triangles and every boundary edge by one, with positive areas."""
        self.areas
        edges, tri_edges, boundary = self.edge_table
        counts = np.bincount(tri_edges.ravel(), minlength=len(edges))
        expected = np.full(len(edges), 2)
        expected[boundary] = 1
        bad = np.flatnonzero(counts != expected)
        if len(bad) == 0:
            return
        k = bad[0]
        if counts[k] == 0:
            raise MeshError(f"boundary edge {edges[k].tolist()} not present in "
                            "triangulation")
        raise MeshError(f"edge {edges[k].tolist()} shared by {counts[k]} "
                        f"triangles, expected {expected[k]}")


# candidate triangles of a unit cell as corner offsets, counterclockwise:
# split along its diagonal of slope +1 or of slope -1
_RISING = np.array([[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]])
_FALLING = np.array([[[0, 0], [1, 0], [0, 1]], [[1, 0], [1, 1], [0, 1]]])


def initial_mesh(domain: PolygonDomain) -> TriMesh:
    """Tile the domain with unit grid cells, two triangles per full cell.

    Cells with their center in the quadrant where x*y > 0 use the diagonal
    of slope +1, the rest slope -1; this aligns cell diagonals with the
    slanted cuts of the built-in domains, so a cut cell contributes exactly
    one of its two candidate triangles.  Requires all domain vertices on the
    integer grid with edges horizontal, vertical, or along cell diagonals.
    The candidates of the cells in x-major order are kept if their
    centroid is inside the domain; nodes are numbered by first appearance.
    """
    verts = domain.vertices
    off = np.flatnonzero((np.abs(verts - np.round(verts)) > 1e-12).any(axis=1))
    if len(off):
        x, y = map(float, verts[off[0]])
        raise MeshError("domain vertices must lie on the integer unit grid: "
                        f"vertex {off[0]} is at ({x!r}, {y!r})")
    lo = np.floor(verts.min(axis=0)).astype(int)
    hi = np.ceil(verts.max(axis=0)).astype(int)
    cells = np.mgrid[lo[0]:hi[0], lo[1]:hi[1]].reshape(2, -1).T
    # the center (ix + 1/2, iy + 1/2) has x*y > 0
    rising = (2 * cells[:, 0] + 1) * (2 * cells[:, 1] + 1) > 0
    cand = cells[:, None, None] + np.where(rising[:, None, None, None],
                                           _RISING, _FALLING)
    cand = cand.reshape(-1, 3, 2)
    corners = cand[domain.contains(cand.mean(axis=1))].reshape(-1, 2)
    if not len(corners):
        raise MeshError("no triangles inside the domain")
    first, numbers = _first_appearance(
        (corners[:, 0] - lo[0]) * (hi[1] - lo[1] + 1) + corners[:, 1] - lo[1])
    nodes_arr = corners[first].astype(float)
    tris_arr = numbers.reshape(-1, 3)

    covered = 0.5 * len(tris_arr)
    if abs(covered - domain.area()) > 1e-9:
        raise MeshError(
            "domain is not representable on the unit grid with the supported "
            f"diagonal cuts (covered area {covered}, domain area {domain.area()})"
        )

    boundary = _find_boundary_edges(domain, nodes_arr, tris_arr)
    mesh = TriMesh(domain, nodes_arr, tris_arr, boundary, level=0)
    mesh.check_conforming()
    return mesh


def check_levels(mesh: TriMesh, levels: int) -> None:
    """Raise ``MeshError`` when ``levels`` refinements of the mesh would
    make more than ``MAX_TRIANGLES`` triangles: red refinement makes T0 *
    4**L at level L, so the check runs before the first refinement."""
    count = mesh.n_triangles * 4 ** max(levels, 0)
    if count > MAX_TRIANGLES:
        raise MeshError(f"level {levels} would have {count:,} triangles "
                        f"({mesh.n_triangles} * 4**{levels}), more than the "
                        f"{MAX_TRIANGLES:,} a mesh may have")


def _first_appearance(keys):
    """Number the distinct keys in the order they first appear: the
    position of each number's first appearance, and every key's number."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    return np.sort(first), rank[inverse]


def _edges(triangles, boundary_edges):
    """Number the edges of a triangulation and its boundary rows.

    Edges are sorted node pairs, numbered in the order they first appear in
    the triangles' (ab, bc, ca) edges, then in the boundary rows' (a, b).
    Returns the (E, 2) edges, stored by column, the (T, 3) edge numbers of
    the triangles and the (B,) edge numbers of the boundary rows.
    """
    tri_pairs = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    pairs = np.sort(np.vstack([tri_pairs, boundary_edges[:, :2]]), axis=1)
    first, numbers = _first_appearance(
        pairs[:, 0] * (pairs.max(initial=0) + 1) + pairs[:, 1])
    return (np.asfortranarray(pairs[first]),
            numbers[:len(tri_pairs)].reshape(-1, 3),
            numbers[len(tri_pairs):])


def _find_boundary_edges(domain, nodes, triangles) -> np.ndarray:
    """Sorted rows (a, b, j) for the edges that only one triangle has: j is
    the first domain edge that holds the edge's midpoint, and it must hold
    both ends too (a cell cut along the diagonal it does not have can leave
    an edge across the cut whose midpoint is on it)."""
    edges, tri_edges, _ = _edges(triangles, np.zeros((0, 3), dtype=np.int64))
    ends = edges[np.bincount(tri_edges.ravel()) == 1]
    mid = 0.5 * (nodes[ends[:, 0]] + nodes[ends[:, 1]])
    owner = np.full(len(ends), -1)
    starts, stops = domain.vertices, np.roll(domain.vertices, -1, axis=0)
    for j, (a, b) in enumerate(zip(starts, stops)):
        owner[on_segment(mid, a, b) & (owner < 0)] = j
    bad = owner < 0
    if not bad.any():
        bad = ~on_segment(nodes[ends], starts[owner, None],
                          stops[owner, None]).all(axis=1)
    if bad.any():
        a, b = ends[np.argmax(bad)]
        raise MeshError(f"boundary edge ({a}, {b}) lies on no domain edge")
    rows = np.column_stack([ends, owner])
    return rows[np.lexsort(rows.T[::-1])]


def refine_uniform(mesh: TriMesh) -> TriMesh:
    """Red refinement: split every triangle into 4 via edge midpoints.

    The midpoint of coarse edge k (numbered by ``_edges``) is fine node
    ``mesh.n_nodes + k``.
    """
    edges, tri_edges, boundary = mesh.edge_table
    a, b, c = mesh.triangles.T
    ab, bc, ca = (mesh.n_nodes + tri_edges).T
    tris = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1)

    p, q, j = mesh.boundary_edges.T
    m = mesh.n_nodes + boundary
    bedges = np.vstack([np.column_stack([p, m, j]), np.column_stack([m, q, j])])
    bedges = bedges[np.lexsort(bedges.T[::-1])]

    midpoints = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    fine = TriMesh(
        mesh.domain,
        np.vstack([mesh.nodes, midpoints]),
        tris.reshape(-1, 3),
        bedges,
        level=mesh.level + 1,
        parent=mesh,
        edge_parents=edges,
    )
    object.__setattr__(fine, "_refined", True)
    return fine


# The children (a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca) of a
# parent (a, b, c) hold 12 edge slots: slots 1, 5, 6 are the interior
# edges (ab, ca), (bc, ab), (ca, bc), repeated in slots 11, 9, 10, and the
# rest are the halves of the parent's edges ab, bc, ca at their start
# (slots 0, 4, 8) and at their end (slots 3, 7, 2).  In slot order a
# parent's edges appear first in slots 0-8.
_INNER, _REPEAT = [1, 5, 6], [11, 9, 10]
_START, _END = [0, 4, 8], [3, 7, 2]


def _refined_edges(fine):
    """``_edges`` of a mesh made by ``refine_uniform``, numbered from its
    parent's table in one pass over the parents; None if a parent edge
    lies in no triangle.

    The parent table numbers its edges in the order they first appear in
    the triangles, so a parent edge is new where the running maximum of
    the edge numbers first reaches it.  A parent's interior edges are new
    in it, and both halves of a parent edge are new in the first parent
    that holds that edge: counting the new slots in order numbers the
    fine edges as ``_edges`` does, and the boundary rows, halves of
    parent edges, add none.  Its temporaries go as soon as they are used,
    so it holds at most 1.6x the table it returns (``_edges`` 5.6x)."""
    coarse = fine.parent
    edges, tri_edges, _ = coarse.edge_table
    tri, n = coarse.triangles, coarse.n_nodes
    flat = tri_edges.ravel()
    top = np.maximum.accumulate(flat)
    if top[-1] != len(edges) - 1:
        return None
    first = np.ones(len(flat), dtype=bool)
    np.greater(flat[1:], top[:-1], out=first[1:])
    del top
    first = first.reshape(-1, 3)
    num = np.zeros((len(tri), 12), dtype=np.int64)
    num[:, _INNER] = 1
    num[:, _START] = num[:, _END] = first
    np.cumsum(num, out=num.reshape(-1))
    num -= 1
    num[:, _REPEAT] = num[:, _INNER]
    # the numbers of each parent edge's halves at its lower and upper end,
    # from its first triangle, for all the triangles that hold it
    at = 2 * tri_edges + (tri > tri[:, [1, 2, 0]])
    halves = np.empty(2 * len(edges), dtype=np.int64)
    halves[at[first]] = num[:, _START][first]
    halves[at[first] ^ 1] = num[:, _END][first]
    del first
    num[:, _START] = halves[at]
    num[:, _END] = halves[at ^ 1]
    del at
    ends = np.empty((2 * len(edges) + 3 * len(tri), 2), dtype=np.int64,
                    order="F")
    ends[halves.reshape(-1, 2), 0] = edges
    ends[halves.reshape(-1, 2), 1] = n + np.arange(len(edges))[:, None]
    # interior edge k joins the midpoints of the parent's edges k and k - 1
    other = tri_edges[:, [2, 0, 1]]
    inner = num[:, _INNER]
    ends[inner, 0] = n + np.minimum(tri_edges, other)
    ends[inner, 1] = n + np.maximum(tri_edges, other)
    del other, inner
    a, b = fine.boundary_edges[:, :2].T
    v, k = np.minimum(a, b), np.maximum(a, b) - n
    return ends, num.reshape(-1, 3), halves[2 * k + (edges[k, 1] == v)]


def prolongate(fine: TriMesh, coarse_values: np.ndarray) -> np.ndarray:
    """Interpolate a coarse nodal vector onto the fine mesh (exact for
    functions piecewise linear on the coarse mesh)."""
    if fine.parent is None or fine.edge_parents is None:
        raise MeshError("mesh has no parent level")
    v = np.asarray(coarse_values, dtype=float)
    if len(v) != fine.parent.n_nodes:
        raise MeshError(
            f"expected {fine.parent.n_nodes} coarse values, got {len(v)}"
        )
    out = np.empty(fine.n_nodes)
    out[: len(v)] = v
    out[len(v):] = 0.5 * (v[fine.edge_parents[:, 0]] + v[fine.edge_parents[:, 1]])
    return out


def nested_dissection(mesh: TriMesh, nodes: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Positions into ``nodes`` (all nodes by default) in nested-dissection
    order, for the sparse factor of a matrix with the mesh's edge graph,
    and the separator tree: the box whose separator holds each ordered
    node, as a key with a leading 1 bit (the root box is 1, the halves of
    box k are 2k and 2k + 1).

    A node of a level-L mesh lies on the grid of spacing 2^-L (the initial
    mesh tiles unit cells, red refinement halves them) and an edge joins
    nodes at most one grid step apart in each coordinate, so a grid line
    through a box of nodes separates its two sides.  Starting from the
    bounding box, every box is halved across the axis that is longer at
    that depth, x first on a tie (x, y, x, ... on a square).  At each
    depth a node gets digit 2 if it lies on its box's halving line and its
    side, 0 or 1, otherwise; the first 2 places it on that separator, and
    its later digits order it along the separator.  Sorting by the digits
    puts every separator after both of its halves."""
    xy = mesh.nodes if nodes is None else mesh.nodes[nodes]
    ij = np.ascontiguousarray(
        np.rint((xy - xy.min(axis=0)) * 2.0 ** mesh.level).T, dtype=np.int64)
    top = ij.max(axis=1)
    lo, hi = np.zeros_like(ij), np.repeat(top[:, None], ij.shape[1], axis=1)
    width = top.astype(float)
    unplaced = np.ones(ij.shape[1], dtype=bool)
    box = np.ones(ij.shape[1], dtype=np.int64)
    digits = []
    while unplaced.any():
        axis = int(width[1] > width[0])
        width[axis] /= 2
        c, low, high = ij[axis], lo[axis], hi[axis]
        mid = (low + high) // 2
        on, above = c == mid, c > mid
        digits.append((above + 2 * on).astype(np.int8))
        np.putmask(high, c < mid, mid - 1)
        np.putmask(low, above, mid + 1)
        unplaced &= ~on
        np.putmask(box, unplaced, 2 * box + above)
    order = np.lexsort(digits[::-1])
    return order, box[order]


def restrict(fine: TriMesh, values: np.ndarray, coarse: TriMesh) -> np.ndarray:
    """The adjoint of ``prolongate``: map rows of fine nodal loads (last
    axis over the nodes of ``fine``) to the loads against the hats of
    ``coarse``, an ancestor of ``fine``, one parent link at a time.  A
    coarse hat is the sum of the fine hats weighted by the prolongation, so
    the coarse load is exactly P^T times the fine load; the sum of every
    row is kept."""
    chain = [fine]
    while chain[-1] is not coarse:
        if chain[-1].parent is None or chain[-1].edge_parents is None:
            raise MeshError("mesh to restrict to is not an ancestor")
        chain.append(chain[-1].parent)
    v = np.asarray(values, dtype=float)
    if v.shape[-1] != fine.n_nodes:
        raise MeshError(f"expected {fine.n_nodes} fine values, got {v.shape[-1]}")
    rows = v.reshape(-1, fine.n_nodes)
    for m in chain[:-1]:
        n = m.parent.n_nodes
        out = rows[:, :n].copy()
        for coarse_row, row in zip(out, rows):
            # each midpoint entry goes half to each of its two parents
            coarse_row += np.bincount(m.edge_parents.ravel(),
                                      np.repeat(0.5 * row[n:], 2), n)
        rows = out
    return rows.reshape(*v.shape[:-1], coarse.n_nodes)
