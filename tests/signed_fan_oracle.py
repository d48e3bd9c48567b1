"""Reference fan rule for straddling triangles, kept as a differential-test
oracle for ``singular._graded_integrate``: the pass as it was before a
triangle T away from q was integrated over the fans of its far edges only.

Here T is the signed sum of the three fans (q, a, b) over its edges a -> b,
each from q and clipped to T's radial range: the fans of the edges facing
away from q cover about twice T's region and those of the edges facing q
subtract the extra.  The per-triangle geometry of every triangle near q is
formed at once.  The collapsed rule and the fans of the triangles at q are
the pass's own, so the two differ only in how a straddling triangle is cut
into pieces, and by roundoff.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from biharmfem import singular
from biharmfem.singular import _collapsed_rule, _fan_moments, _segment_dist


def graded_integrate(mesh, basis, radial, angular, gammas, radii):
    """``singular._graded_integrate`` with every fan triangle the signed sum
    of its three fans from q."""
    q = np.asarray(basis.origin)
    node_d = np.linalg.norm(mesh.nodes - q, axis=1)
    near = node_d[mesh.triangles].min(axis=1) < radii[-1] + mesh.max_edge_length()
    triangles = mesh.triangles[near]
    tri_pts = mesh.nodes[triangles]
    h = np.max([np.sqrt(((tri_pts[:, k] - tri_pts[:, k - 1]) ** 2).sum(axis=1))
                for k in range(3)], axis=0)
    area = mesh.areas[near]
    dist = np.min([_segment_dist(q, tri_pts[:, i], tri_pts[:, (i + 1) % 3])
                   for i in range(3)], axis=0)
    r_max = node_d[triangles].max(axis=1)
    support = (dist < radii[-1]) & (r_max > radii[0])
    at_corner = node_d[triangles] < 1e-12
    corner = support & at_corner.any(axis=1)
    fan = corner.copy()
    for c in radii:     # r = 0 adds none
        fan |= support & (dist < c) & (r_max > c)

    n_rows = len(gammas)
    out = np.zeros((n_rows, mesh.n_nodes))

    def scatter(rows, tri):
        nodes = triangles[tri].ravel()
        for load, row in zip(out, rows):
            np.add.at(load, nodes, row.ravel())

    # every edge not at q, its fan from q signed like det(a - q, b - q)
    lo = np.maximum(radii[0], (1.0 - 1e-9) * dist)
    hi = np.minimum(radii[-1], (1.0 + 1e-9) * r_max)
    div = np.where(corner, 1, np.clip(dist // h, 1, 3)).astype(int)
    nxt = [1, 2, 0]
    for k in (1, 2, 3):
        idx = np.flatnonzero(fan & (div == k))
        keep = ~(at_corner[idx] | at_corner[idx][:, nxt]).ravel()
        a = tri_pts[idx].reshape(-1, 2)[keep]
        b = tri_pts[idx][:, nxt].reshape(-1, 2)[keep]
        owner = np.repeat(idx, 3)[keep]
        for s in range(0, len(owner), singular._FAN_CHUNK):
            sl = slice(s, s + singular._FAN_CHUNK)
            fan_radii = np.clip(np.asarray(radii, dtype=float),
                                lo[owner[sl], None], hi[owner[sl], None])
            for j, m0, m1 in _fan_moments(basis, a[sl], b[sl], fan_radii, radial,
                                          angular, gammas,
                                          max(singular.N_RADIAL // k, 1),
                                          max(singular.N_ANGULAR // k, 1)):
                tri = owner[sl][j]
                rel = m0[:, None] * (q - tri_pts[tri, 0]).T + m1
                pts = tri_pts[tri]
                e1, e2 = (pts[:, 1] - pts[:, 0]).T, (pts[:, 0] - pts[:, 2]).T
                det = 2.0 * area[tri]
                l2 = (rel[:, 1] * e2[0] - rel[:, 0] * e2[1]) / det
                l3 = (e1[0] * rel[:, 1] - e1[1] * rel[:, 0]) / det
                scatter(np.stack([m0 - l2 - l3, l2, l3], axis=-1), tri)

    cells = np.flatnonzero(support & ~fan)
    order = np.ceil(singular.ORDER_TARGET
                    / np.arcsinh(2.0 * dist[cells] / h[cells])).astype(int)
    for n in np.flatnonzero(np.bincount(order)):
        lam, w = _collapsed_rule(int(n))
        corner_w = lam * w[:, None]
        pick = cells[order == n]
        step = max(1, singular._BLOCK_VALUES // (n_rows * len(w)))
        for s in range(0, len(pick), step):
            tri = pick[s:s + step]
            r, theta = basis.local_polar((lam @ tri_pts[tri]).reshape(-1, 2))
            vals = (radial(r) * angular(theta)).reshape(n_rows, len(tri), 1, -1)
            scatter((vals @ corner_w)[..., 0, :] * area[tri][:, None], tri)
    return out


def corner_loads(mesh, bases):
    """``singular.corner_loads`` through ``graded_integrate``."""
    with mock.patch.object(singular, "_graded_integrate", graded_integrate):
        return singular.corner_loads(mesh, bases)
