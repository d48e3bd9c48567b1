"""Reference implementation of the mesh layer's edge bookkeeping with
Python dicts, kept as a differential-test oracle for ``refine_uniform``,
``_find_boundary_edges`` and ``TriMesh.dirichlet_nodes``.

Edges are numbered by a dict keyed on sorted node pairs, in the order they
are first met among each triangle's (ab, bc, ca) edges and then among the
boundary rows.  Slow (a Python loop per triangle) but independent of the
vectorized edge table.
"""

import numpy as np

from biharmfem.geometry import BCType
from biharmfem.mesh import MeshError, TriMesh, _point_on_segment


def find_boundary_edges_dict(domain, nodes, triangles):
    counts = {}
    for tri in triangles:
        for i in range(3):
            key = tuple(sorted((int(tri[i]), int(tri[(i + 1) % 3]))))
            counts[key] = counts.get(key, 0) + 1
    rows = []
    for (a, b), c in counts.items():
        if c != 1:
            continue
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
