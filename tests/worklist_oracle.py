"""Reference implementation of the corner load of lap(chi*s) by kink
worklist, kept as a differential-test oracle for ``load_singular``.

Triangles with a vertex at the corner get a Duffy/Gauss rule whose radial
integral is split at the two cutoff circles.  Every other triangle in the
cutoff band is red-refined to a depth set by the band width, and cells
straddling r = tau*R or r = R keep being split until they are smaller than
``KINK_RESOLVE``.  Slow (seconds per call) but independent of the fan rule.
"""

import math

import numpy as np
from scipy.special import roots_legendre

KINK_RESOLVE = 1e-3
N_GAUSS, N_FEATURE, MAX_DEPTH, N_RADIAL, N_ANGULAR = 6, 10, 8, 24, 24


def _collapsed_rule(n):
    x, w = roots_legendre(n)
    u, wu = 0.5 * (x + 1.0), 0.5 * w
    U, V = np.meshgrid(u, u, indexing="ij")
    WU, WV = np.meshgrid(wu, wu, indexing="ij")
    lam = np.stack([1.0 - U, U * (1.0 - V), U * V], axis=-1).reshape(-1, 3)
    return lam, (2.0 * WU * WV * U).reshape(-1)


def _split(tris):
    c0, c1, c2 = tris[:, 0], tris[:, 1], tris[:, 2]
    m01, m12, m20 = 0.5 * (c0 + c1), 0.5 * (c1 + c2), 0.5 * (c2 + c0)
    return np.concatenate([
        np.stack([c0, m01, m20], axis=1), np.stack([m01, c1, m12], axis=1),
        np.stack([m20, m12, c2], axis=1), np.stack([m01, m12, m20], axis=1),
    ])


def _dist(cells, q):
    d = np.full(len(cells), np.inf)
    for i in range(3):
        a, ab = cells[:, i], cells[:, (i + 1) % 3] - cells[:, i]
        t = np.clip(np.einsum("td,td->t", q - a, ab)
                    / np.einsum("td,td->t", ab, ab), 0.0, 1.0)
        d = np.minimum(d, np.linalg.norm(a + t[:, None] * ab - q, axis=1))
    return d


def _diameter(cells):
    return np.max([np.linalg.norm(cells[:, i] - cells[:, (i + 1) % 3], axis=1)
                   for i in range(3)], axis=0)


def _corner_rule(q, p1, p2, breakpoints):
    """Duffy rule on (q, p1, p2) for a bounded integrand (gamma = 0)."""
    e1, e2 = p1 - q, p2 - q
    two_area = abs(e1[0] * e2[1] - e1[1] * e2[0])
    xv, wv = roots_legendre(N_ANGULAR)
    xl, wl = roots_legendre(N_RADIAL)
    tl, wl = 0.5 * (xl + 1.0), 0.5 * wl
    pts, wts = [], []
    for vj, wvj in zip(0.5 * (xv + 1.0), 0.5 * wv):
        edge = (1.0 - vj) * e1 + vj * e2
        rho = math.hypot(edge[0], edge[1])
        segs = [0.0] + sorted({c / rho for c in breakpoints
                               if 0.0 < c / rho < 1.0}) + [1.0]
        for lo, hi in zip(segs[:-1], segs[1:]):
            u = lo + (hi - lo) * tl
            pts.append(q[None, :] + u[:, None] * edge[None, :])
            wts.append(two_area * wvj * (hi - lo) * wl * u)
    return np.vstack(pts), np.concatenate(wts)


def _bary(pts, tri):
    T = np.array([tri[1] - tri[0], tri[2] - tri[0]]).T
    lam12 = np.linalg.solve(T, (pts - tri[0]).T).T
    return np.column_stack([1.0 - lam12.sum(axis=1), lam12])


def load_singular_worklist(mesh, basis):
    """Load vector of lap(chi*s) against the P1 hats."""
    q, spec = basis.origin, basis.cutoff
    gfun = basis.eval_laplacian_chi_s
    kinks = (spec.inner, spec.R)
    tri_pts = mesh.nodes[mesh.triangles]
    vert_d = np.linalg.norm(tri_pts - q[None, None, :], axis=2)
    corner = np.any(vert_d < 1e-12, axis=1)
    dist = _dist(tri_pts, q)
    keep = (dist < spec.R) & (vert_d.max(axis=1) > spec.inner)
    out = np.zeros(mesh.n_nodes)

    for ti in np.flatnonzero(corner & keep):
        nodes = mesh.triangles[ti]
        order = np.argsort(np.linalg.norm(mesh.nodes[nodes] - q, axis=1))
        _, n1, n2 = nodes[order]
        pts, wts = _corner_rule(q, mesh.nodes[n1], mesh.nodes[n2], kinks)
        bary = _bary(pts, mesh.nodes[nodes[order]])
        np.add.at(out, nodes[order], ((wts * gfun(pts))[:, None] * bary).sum(0))

    lam, w = _collapsed_rule(N_GAUSS)
    feat = (spec.R - spec.inner) / N_FEATURE
    idx = np.flatnonzero(~corner & keep)
    d, h = dist[idx], _diameter(tri_pts[idx])
    in_band = (d < spec.R + h) & (d + h > spec.inner - h)
    depth = np.where(in_band & (h > feat),
                     np.ceil(np.log2(h / feat)).astype(int), 0)
    depth = np.clip(depth, 0, MAX_DEPTH)
    cells, orig = tri_pts[idx], idx
    for k in range(depth.max(initial=0)):
        deep = depth[np.searchsorted(idx, orig)] > k
        cells = np.concatenate([cells[~deep], _split(cells[deep])])
        orig = np.concatenate([orig[~deep], np.tile(orig[deep], 4)])
    while len(cells):
        r_max = np.linalg.norm(cells - q[None, None, :], axis=2).max(axis=1)
        r_min = _dist(cells, q)
        straddle = np.zeros(len(cells), dtype=bool)
        for kr in kinks:
            straddle |= (r_min < kr) & (r_max > kr)
        split = straddle & (_diameter(cells) > KINK_RESOLVE)
        ready, ready_orig = cells[~split], orig[~split]
        pts = np.einsum("qi,cid->cqd", lam, ready).reshape(-1, 2)
        d1, d2 = ready[:, 1] - ready[:, 0], ready[:, 2] - ready[:, 0]
        areas = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        vals = (gfun(pts).reshape(len(ready), -1) * w * areas[:, None]).ravel()
        owner = np.repeat(ready_orig, len(lam))
        tri = tri_pts[owner]
        e1, e2, rel = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0], pts - tri[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        l2 = (rel[:, 0] * e2[:, 1] - rel[:, 1] * e2[:, 0]) / det
        l3 = (e1[:, 0] * rel[:, 1] - e1[:, 1] * rel[:, 0]) / det
        bary = np.column_stack([1.0 - l2 - l3, l2, l3])
        out += np.bincount(mesh.triangles[owner].ravel(),
                           weights=(vals[:, None] * bary).ravel(),
                           minlength=mesh.n_nodes)
        cells, orig = _split(cells[split]), np.tile(orig[split], 4)
    return out
