"""The graded fixed-order collapsed rule that one leaf per triangle
replaced, kept as a differential-test oracle for the collapsed rule of
``singular._graded_integrate``.

A collapsed triangle is red-refined child by child while a child fails
the near test NEAR_RATIO*h <= dist or, meeting the cutoff band
(tau*R, R), the feature test h <= (R - tau*R)/N_FEATURE; MAX_DEPTH caps
the depth.  Every leaf takes the N_GAUSS-point rule.  No order depends on
a cell's h/dist, so the pass's order formula is not shared.

``corner_loads`` runs the singular module's own pass, its fans at the
module's ``N_RADIAL`` and ``N_ANGULAR``, with its collapsed points zeroed
and adds these leaves, so the two differ only in the collapsed rule.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from biharmfem import singular

N_GAUSS = 6         # collapsed rule order (degree 2n-2 exact)
NEAR_RATIO = 6.0    # subdivide until child diameter <= dist/NEAR_RATIO
N_FEATURE = 10      # resolve the cutoff band to (R - tau*R)/N_FEATURE
MAX_DEPTH = 8


def graded_cells(q, corners, cell, dist, h, band):
    """Red-refine the triangles corners[cell] (corners: (n, 3, 2), with
    distances ``dist`` to q and diameters ``h``) child by child while a
    child fails the near test or, meeting the band (inner, outer), the
    feature test; MAX_DEPTH caps the depth.  Yields (depth, cell, bary)
    per depth: the leaves' triangles and their corners' barycentric
    coordinates (m, 3, 3) in it."""
    dist = dist[cell]
    bary = np.broadcast_to(np.eye(3), (len(cell), 3, 3))
    inner, outer = band
    for depth in range(MAX_DEPTH + 1):
        hd = h[cell] / 2**depth
        split = NEAR_RATIO * hd > dist
        in_band = (dist < outer + hd) & (dist + hd > inner - hd)
        split |= in_band & (hd > (outer - inner) / N_FEATURE)
        split &= depth < MAX_DEPTH
        leaf = ~split
        yield depth, cell[leaf], bary[leaf]
        if not split.any():
            return
        c0, c1, c2 = np.moveaxis(bary[split], 1, 0)
        m01, m12, m20 = 0.5 * (c0 + c1), 0.5 * (c1 + c2), 0.5 * (c2 + c0)
        bary = np.stack([c0, m01, m20, m01, c1, m12, m20, m12, c2,
                         m01, m12, m20], axis=1).reshape(-1, 3, 3)
        cell = np.repeat(cell[split], 4)
        x = bary @ corners[cell]
        dist = np.min([singular._segment_dist(q, x[:, i], x[:, (i + 1) % 3])
                       for i in range(3)], axis=0)


def corner_loads(mesh, bases):
    """``singular.corner_loads`` with the triangles of the collapsed rule
    integrated on the leaves of ``graded_cells``."""
    band = (bases[0].cutoff.inner, bases[0].cutoff.R)
    graded = singular._graded_integrate

    def integrate(mesh, basis, radial, angular, gammas, radii):
        n_rows = len(gammas)

        def fan_only(r):     # the collapsed rule passes flat points
            return radial(r) if r.ndim == 3 else np.zeros((n_rows, *r.shape))
        out = graded(mesh, basis, fan_only, angular, gammas, radii)
        # the triangles the pass sends to its collapsed rule
        q = np.asarray(basis.origin)
        pts = mesh.nodes[mesh.triangles]
        vert_d = np.linalg.norm(pts - q, axis=2)
        dist = np.min([singular._segment_dist(q, pts[:, i], pts[:, (i + 1) % 3])
                       for i in range(3)], axis=0)
        r_max = vert_d.max(axis=1)
        support = (dist < radii[-1]) & (r_max > radii[0])
        fan = support & (vert_d < 1e-12).any(axis=1)
        for c in radii:     # r = 0 adds none
            fan |= support & (dist < c) & (r_max > c)
        area = mesh.areas
        h = np.linalg.norm(pts - np.roll(pts, 1, axis=1), axis=2).max(axis=1)
        lam, w = singular._collapsed_rule(N_GAUSS)
        step = max(1, singular._BLOCK_VALUES // (n_rows * len(w)))
        for depth, cell, bary in graded_cells(
                q, pts, np.flatnonzero(support & ~fan), dist, h, band):
            for s in range(0, len(cell), step):
                leaf = slice(s, s + step)
                tri = cell[leaf]
                x = lam @ (bary[leaf] @ pts[tri])
                r, theta = basis.local_polar(x.reshape(-1, 2))
                vals = (radial(r) * angular(theta)).reshape(n_rows, len(tri), -1)
                loads = vals * w * (area[tri] / 4**depth)[:, None] @ lam
                loads = (loads[..., None] * bary[leaf]).sum(axis=-2)
                nodes = mesh.triangles[tri].ravel()
                for row, load in zip(out, loads):
                    np.add.at(row, nodes, load.ravel())
        return out

    with mock.patch.object(singular, "_graded_integrate", integrate):
        return singular.corner_loads(mesh, bases)
