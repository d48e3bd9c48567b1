"""Reference implementation of the mesh layer's edge bookkeeping with
Python dicts and loops, kept as a differential-test oracle for
``initial_mesh``, ``refine_uniform``, ``_find_boundary_edges``,
``TriMesh.dirichlet_nodes`` and the simple-polygon check of
``PolygonDomain``.

Edges are numbered by a dict keyed on sorted node pairs, in the order they
are first met among each triangle's (ab, bc, ca) edges and then among the
boundary rows.  Slow (a Python loop per cell, triangle, edge or vertex
pair) but independent of the vectorized code.
"""

import numpy as np

from biharmfem.geometry import BCType, DomainError
from biharmfem.mesh import MeshError, TriMesh


def point_on_segment(p, a, b, tol=1e-10) -> bool:
    ab = b - a
    ap = p - a
    cross = ab[0] * ap[1] - ab[1] * ap[0]
    if abs(cross) > tol * max(1.0, np.linalg.norm(ab)):
        return False
    t = np.dot(ap, ab) / np.dot(ab, ab)
    return -tol <= t <= 1 + tol


def segments_intersect(p1, p2, q1, q2) -> bool:
    """Proper intersection test for open segments (shared endpoints ignored)."""

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if abs(v) < 1e-14:
            return 0
        return 1 if v > 0 else -1

    o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
    o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def check_simple_loop(vertices):
    """Edge by edge: raise on a degenerate edge, or on the first later
    non-adjacent edge that crosses it; then vertex by vertex, on the first
    edge not ending at the vertex that holds it."""
    n = len(vertices)
    for i in range(n):
        p1, p2 = vertices[i], vertices[(i + 1) % n]
        if np.allclose(p1, p2):
            raise DomainError(f"degenerate edge {i}")
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            q1, q2 = vertices[j], vertices[(j + 1) % n]
            if segments_intersect(p1, p2, q1, q2):
                raise DomainError(f"edges {i} and {j} intersect")
    for k in range(n):
        for j in range(n):
            if k not in (j, (j + 1) % n) and point_on_segment(
                    vertices[k], vertices[j], vertices[(j + 1) % n]):
                raise DomainError(f"vertex {k} touches edge {j}")


def initial_mesh_loop(domain):
    """The level-0 mesh, built one unit cell and one node at a time."""
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

    boundary = find_boundary_edges_dict(domain, nodes_arr, tris_arr)
    mesh = TriMesh(domain, nodes_arr, tris_arr, boundary, level=0)
    mesh.check_conforming()
    return mesh


def find_boundary_edges_dict(domain, nodes, triangles):
    counts = {}
    for tri in triangles:
        for i in range(3):
            key = tuple(sorted((int(tri[i]), int(tri[(i + 1) % 3]))))
            counts[key] = counts.get(key, 0) + 1
    n = domain.n_vertices
    segments = [(domain.vertices[j], domain.vertices[(j + 1) % n])
                for j in range(n)]
    rows = []
    for (a, b), c in counts.items():
        if c != 1:
            continue
        mid = 0.5 * (nodes[a] + nodes[b])
        for j, (p, q) in enumerate(segments):
            if point_on_segment(mid, p, q):
                rows.append((a, b, j))
                break
        else:
            raise MeshError(f"boundary edge ({a}, {b}) lies on no domain edge")
    # the domain edge found from the midpoint must hold the ends too
    for a, b, j in rows:
        if not all(point_on_segment(nodes[k], *segments[j]) for k in (a, b)):
            raise MeshError(f"boundary edge ({a}, {b}) lies on no domain edge")
    rows.sort()
    return np.array(rows, dtype=np.int64)


def dirichlet_mask_loop(mesh):
    mask = np.zeros(mesh.n_nodes, dtype=bool)
    for a, b, edge_idx in mesh.boundary_edges:
        if mesh.domain.tags[edge_idx] == BCType.DIRICHLET:
            mask[a] = True
            mask[b] = True
    return mask


def refine_uniform_dict(mesh):
    n0 = mesh.n_nodes
    edge_ids = {}
    new_points = []

    def mid(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in edge_ids:
            edge_ids[key] = n0 + len(new_points)
            new_points.append(0.5 * (mesh.nodes[key[0]] + mesh.nodes[key[1]]))
        return edge_ids[key]

    tris = []
    for a, b, c in mesh.triangles:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        tris.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])

    bedges = []
    for a, b, j in mesh.boundary_edges:
        m = mid(int(a), int(b))
        bedges.append((int(a), m, int(j)))
        bedges.append((m, int(b), int(j)))
    bedges.sort()

    nodes = np.vstack([mesh.nodes, np.array(new_points)])
    edge_parents = np.array(sorted(edge_ids, key=edge_ids.get), dtype=np.int64)
    return TriMesh(
        mesh.domain,
        nodes,
        np.array(tris, dtype=np.int64),
        np.array(bedges, dtype=np.int64),
        level=mesh.level + 1,
        parent=mesh,
        edge_parents=edge_parents,
    )
