"""The graded collapsed rules that one leaf per triangle replaced, kept as
differential-test oracles for the collapsed rule of
``singular._graded_integrate``.

A collapsed triangle is red-refined child by child while a child fails
the near test near_ratio*h <= dist or, with n_feature set and meeting the
cutoff band (tau*R, R), the feature test h <= (R - tau*R)/n_feature;
max_depth caps the depth.  A leaf takes the n_gauss-point rule or, with
order_target set, the order ceil(order_target / asinh(2*dist/h)) its
h/dist asks for.  Two configurations:

- ``FixedOrderOptions()``: order 6 on leaves graded to h <= dist/6 and
  across the band, the rule before per-leaf orders.  The other oracles
  (``graded_oracle``, ``per_basis_oracle``) grade their cells by the same
  fields and defaults.
- ``PER_LEAF_ORDER``: leaves graded to h <= dist/2, each at the order
  order_target = 22 asks for, the rule before one leaf per triangle.

``corner_loads`` runs the singular module's own pass, its fans at the
module's ``N_RADIAL`` and ``N_ANGULAR``, with its collapsed points zeroed
and adds these leaves, so the two differ only in the collapsed rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from unittest import mock

import numpy as np

from biharmfem import singular


@dataclass(frozen=True)
class FixedOrderOptions:
    n_gauss: int = 6          # collapsed rule order (degree 2n-2 exact)
    near_ratio: float = 6.0   # subdivide until child diameter <= dist/near_ratio
    n_feature: int | None = 10   # resolve the cutoff band to (R - tau*R)/n_feature
    max_depth: int = 8
    # fan-rule nodes of graded_oracle and per_basis_oracle, as the pass's
    # N_RADIAL and N_ANGULAR
    n_radial: int = 24
    n_angular: int = 24
    order_target: float | None = None   # per-leaf order in place of n_gauss


PER_LEAF_ORDER = FixedOrderOptions(near_ratio=2.0, n_feature=None,
                                   order_target=22.0)


def graded_cells(q, corners, cell, dist, h, band, opts: FixedOrderOptions):
    """Red-refine the triangles corners[cell] (corners: (n, 3, 2), with
    distances ``dist`` to q and diameters ``h``) child by child while a
    child fails the near test or, meeting the band (inner, outer), the
    feature test; max_depth caps the depth.  Yields (depth, cell, bary,
    order) per depth: the leaves' triangles, their corners' barycentric
    coordinates (m, 3, 3) in it and each leaf's collapsed-rule order."""
    dist = dist[cell]
    bary = np.broadcast_to(np.eye(3), (len(cell), 3, 3))
    for depth in range(opts.max_depth + 1):
        hd = h[cell] / 2**depth
        split = opts.near_ratio * hd > dist
        if opts.n_feature:
            inner, outer = band
            in_band = (dist < outer + hd) & (dist + hd > inner - hd)
            split |= in_band & (hd > (outer - inner) / opts.n_feature)
        split &= depth < opts.max_depth
        leaf = ~split
        if opts.order_target:
            order = np.ceil(opts.order_target
                            / np.arcsinh(2.0 * dist[leaf] / hd[leaf])).astype(int)
        else:
            order = np.full(int(leaf.sum()), opts.n_gauss)
        yield depth, cell[leaf], bary[leaf], order
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


def corner_loads(mesh, bases, opts: FixedOrderOptions | None = None):
    """``singular.corner_loads`` with the triangles of the collapsed rule
    integrated on the leaves of ``graded_cells``."""
    opts = opts or FixedOrderOptions()
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
        for depth, cell, bary, order in graded_cells(
                q, pts, np.flatnonzero(support & ~fan), dist, h, band, opts):
            for n in np.unique(order):
                lam, w = singular._collapsed_rule(int(n))
                pick = np.flatnonzero(order == n)
                step = max(1, singular._BLOCK_VALUES // (n_rows * len(w)))
                for s in range(0, len(pick), step):
                    leaf = pick[s:s + step]
                    tri = cell[leaf]
                    x = lam @ (bary[leaf] @ pts[tri])
                    r, theta = basis.local_polar(x.reshape(-1, 2))
                    vals = (radial(r) * angular(theta)).reshape(
                        n_rows, len(tri), -1)
                    loads = vals * w * (area[tri] / 4**depth)[:, None] @ lam
                    loads = (loads[..., None] * bary[leaf]).sum(axis=-2)
                    nodes = mesh.triangles[tri].ravel()
                    for row, load in zip(out, loads):
                        np.add.at(row, nodes, load.ravel())
        return out

    with mock.patch.object(singular, "_graded_integrate", integrate):
        return singular.corner_loads(mesh, bases)
