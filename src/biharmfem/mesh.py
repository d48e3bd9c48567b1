"""Conforming triangulations with nested uniform refinement.

The initial mesh tiles the domain with unit grid squares, each split into
two triangles (or one, for squares cut in half by a diagonal domain edge).
Uniform refinement is 4-way (red): every triangle is split at its edge
midpoints, so the coarse nodes are a prefix of the fine nodes and piecewise
linear prolongation between levels is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import BCType, PolygonDomain


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

    def __post_init__(self):
        object.__setattr__(self, "dirichlet_nodes", self._dirichlet_mask())

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def areas(self) -> np.ndarray:
        p = self.nodes[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def max_edge_length(self) -> float:
        p = self.nodes[self.triangles]
        lengths = [np.linalg.norm(p[:, i] - p[:, (i + 1) % 3], axis=1) for i in range(3)]
        return float(np.max(lengths))

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
        if np.any(self.areas() <= 0):
            raise MeshError("triangle with non-positive area")
        edges, tri_edges, boundary = _edges(self.triangles, self.boundary_edges)
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


def _point_on_segment(p, a, b, tol=1e-10) -> bool:
    ab = b - a
    ap = p - a
    cross = ab[0] * ap[1] - ab[1] * ap[0]
    if abs(cross) > tol * max(1.0, np.linalg.norm(ab)):
        return False
    t = np.dot(ap, ab) / np.dot(ab, ab)
    return -tol <= t <= 1 + tol


def initial_mesh(domain: PolygonDomain) -> TriMesh:
    """Tile the domain with unit grid cells, two triangles per full cell.

    Cells with their center in the quadrant where x*y > 0 use the diagonal
    of slope +1, the rest slope -1; this aligns cell diagonals with the
    slanted cuts of the built-in domains, so a cut cell contributes exactly
    one of its two candidate triangles.  Requires all domain vertices on the
    integer grid with edges horizontal, vertical, or along cell diagonals.
    """
    verts = domain.vertices
    if not np.allclose(verts, np.round(verts), atol=1e-12):
        raise MeshError("domain vertices must lie on the integer unit grid")
    xmin, ymin = np.floor(verts.min(axis=0)).astype(int)
    xmax, ymax = np.ceil(verts.max(axis=0)).astype(int)

    node_ids: dict[tuple[int, int], int] = {}
    nodes: list[tuple[float, float]] = []

    def nid(ix, iy):
        key = (ix, iy)
        if key not in node_ids:
            node_ids[key] = len(nodes)
            nodes.append((float(ix), float(iy)))
        return node_ids[key]

    triangles = []
    centroids = []
    for ix in range(xmin, xmax):
        for iy in range(ymin, ymax):
            cx, cy = ix + 0.5, iy + 0.5
            if cx * cy > 0:
                cand = [((ix, iy), (ix + 1, iy), (ix + 1, iy + 1)),
                        ((ix, iy), (ix + 1, iy + 1), (ix, iy + 1))]
            else:
                cand = [((ix, iy), (ix + 1, iy), (ix, iy + 1)),
                        ((ix + 1, iy), (ix + 1, iy + 1), (ix, iy + 1))]
            for tri in cand:
                c = np.mean(np.array(tri, dtype=float), axis=0)
                triangles.append(tri)
                centroids.append(c)
    keep = domain.contains(np.array(centroids))
    tri_nodes = []
    for tri, k in zip(triangles, keep):
        if k:
            tri_nodes.append([nid(*v) for v in tri])
    if not tri_nodes:
        raise MeshError("no triangles inside the domain")
    nodes_arr = np.array(nodes, dtype=float)
    tris_arr = np.array(tri_nodes, dtype=np.int64)

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


def _edges(triangles, boundary_edges):
    """Number the edges of a triangulation and its boundary rows.

    Edges are sorted node pairs, numbered in the order they first appear in
    the triangles' (ab, bc, ca) edges, then in the boundary rows' (a, b).
    Returns the (E, 2) edges, the (T, 3) edge numbers of the triangles and
    the (B,) edge numbers of the boundary rows.
    """
    tri_pairs = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    pairs = np.sort(np.vstack([tri_pairs, boundary_edges[:, :2]]), axis=1)
    keys = pairs[:, 0] * (pairs.max(initial=0) + 1) + pairs[:, 1]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    numbers = rank[inverse]
    return (pairs[np.sort(first)], numbers[:len(tri_pairs)].reshape(-1, 3),
            numbers[len(tri_pairs):])


def _find_boundary_edges(domain, nodes, triangles) -> np.ndarray:
    edges, tri_edges, _ = _edges(triangles, np.zeros((0, 3), dtype=np.int64))
    rows = []
    for a, b in edges[np.bincount(tri_edges.ravel()) == 1].tolist():
        mid = 0.5 * (nodes[a] + nodes[b])
        for j in range(domain.n_vertices):
            p, q, _ = domain.edge(j)
            if _point_on_segment(mid, p, q):
                rows.append((a, b, j))
                break
        else:
            raise MeshError(f"boundary edge ({a}, {b}) lies on no domain edge")
    rows.sort()
    return np.array(rows, dtype=np.int64)


def refine_uniform(mesh: TriMesh) -> TriMesh:
    """Red refinement: split every triangle into 4 via edge midpoints.

    The midpoint of coarse edge k (numbered by ``_edges``) is fine node
    ``mesh.n_nodes + k``.
    """
    edges, tri_edges, boundary = _edges(mesh.triangles, mesh.boundary_edges)
    a, b, c = mesh.triangles.T
    ab, bc, ca = (mesh.n_nodes + tri_edges).T
    tris = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1)

    p, q, j = mesh.boundary_edges.T
    m = mesh.n_nodes + boundary
    bedges = np.vstack([np.column_stack([p, m, j]), np.column_stack([m, q, j])])
    bedges = bedges[np.lexsort(bedges.T[::-1])]

    midpoints = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    return TriMesh(
        mesh.domain,
        np.vstack([mesh.nodes, midpoints]),
        tris.reshape(-1, 3),
        bedges,
        level=mesh.level + 1,
        parent=mesh,
        edge_parents=edges,
    )


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
                      ) -> np.ndarray:
    """Positions into ``nodes`` (all nodes by default) in nested-dissection
    order, for the sparse factor of a matrix with the mesh's edge graph.

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
    return np.lexsort(digits[::-1])


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
