"""The collapsed rule at one fixed order, kept as a differential-test oracle
for the per-leaf order of ``singular._graded_cells``.

Every collapsed leaf takes the ``n_gauss``-point rule.  A child is split
while it fails the near test near_ratio*h <= dist or, meeting the cutoff
band (tau*R, R), the feature test h <= (R - tau*R)/n_feature.  The other
oracles (``graded_oracle``, ``per_basis_oracle``) grade their cells by the
same fields and defaults.  ``corner_loads`` runs the singular module's own
pass with these leaves, so the two differ only in the collapsed rule.
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
    n_feature: int = 10       # resolve the cutoff band to (R - tau*R)/n_feature
    max_depth: int = 8
    n_radial: int = 24        # fan-rule nodes, as in GradedQuadratureOptions
    n_angular: int = 24


def graded_cells(q, corners, cell, dist, h, band, opts: FixedOrderOptions):
    """Red-refine the triangles corners[cell] child by child while a child
    fails the near test or, meeting the band (inner, outer), the feature
    test; max_depth caps the depth.  Yields (depth, cell, bary) per depth,
    bary None at depth 0."""
    inner, outer = band
    feat = (outer - inner) / opts.n_feature
    dist = dist[cell]
    bary = np.broadcast_to(np.eye(3), (len(cell), 3, 3))
    for depth in range(opts.max_depth + 1):
        hd = h[cell] / 2**depth
        in_band = (dist < outer + hd) & (dist + hd > inner - hd)
        split = (opts.near_ratio * hd > dist) | in_band & (hd > feat)
        split &= depth < opts.max_depth
        yield depth, cell[~split], bary[~split] if depth else None
        c0, c1, c2 = np.moveaxis(bary[split], 1, 0)
        m01, m12, m20 = 0.5 * (c0 + c1), 0.5 * (c1 + c2), 0.5 * (c2 + c0)
        bary = np.stack([c0, m01, m20, m01, c1, m12, m20, m12, c2,
                         m01, m12, m20], axis=1).reshape(-1, 3, 3)
        cell = np.repeat(cell[split], 4)
        x = bary @ corners[cell]
        dist = np.min([singular._segment_dist(q, x[:, i], x[:, (i + 1) % 3])
                       for i in range(3)], axis=0)


def corner_loads(mesh, bases, opts: FixedOrderOptions | None = None):
    """``singular.corner_loads`` with every collapsed leaf graded by the
    near and feature tests and integrated at order n_gauss."""
    opts = opts or FixedOrderOptions()
    band = (bases[0].cutoff.inner, bases[0].cutoff.R)

    def leaves(q, corners, cell, dist, h, _opts):
        for depth, leaf, bary in graded_cells(q, corners, cell, dist, h,
                                              band, opts):
            yield depth, leaf, bary, np.full(len(leaf), opts.n_gauss)

    with mock.patch.object(singular, "_graded_cells", leaves):
        return singular.corner_loads(mesh, bases, opts)
