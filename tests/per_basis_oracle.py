"""Reference implementation of the singular loads with one graded
quadrature pass per basis and per load, kept as a differential-test oracle
for ``singular.corner_loads``.

Each call builds its own point set: ``load_singular_per_basis`` fans out
on the radial breakpoints (tau*R, R) and grades its collapsed cells only by
the cutoff band; ``load_chi_s_per_basis`` fans out on (0, tau*R, R) with a
Gauss-Jacobi rule for r**(-beta) at the corner and also grades toward the
corner.  Slower than the one pass (it repeats the geometry, the polar
coordinates and the cutoff for every load) but independent of it.
"""

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from biharmfem.singular import _collapsed_rule, _segment_dist
from fixed_order_oracle import FixedOrderOptions
from graded_oracle import _subdivision_templates

FAN_CHUNK, CELL_CHUNK = 512, 16384


def _fan_rule(q, a, b, gamma, radii, n_radial, n_angular):
    d, e = a - q, b - a
    two_area = d[:, 0] * e[:, 1] - d[:, 1] * e[:, 0]
    ee, de, dd = (e * e).sum(axis=1), (d * e).sum(axis=1), (d * d).sum(axis=1)
    cuts = [np.zeros(len(d)), np.ones(len(d))]
    for c in radii.T:
        disc = de**2 - ee * (dd - c * c)
        for sgn in (-1.0, 1.0):
            v = (-de + sgn * np.sqrt(np.maximum(disc, 0.0))) / ee
            cuts.append(np.where((c > 0) & (disc > 0) & (v > 0) & (v < 1),
                                 v, np.nan))
    cuts = np.sort(np.column_stack(cuts), axis=1)
    fan, piece = np.nonzero(cuts[:, 1:] > cuts[:, :-1])
    v0 = cuts[fan, piece]
    dv = cuts[fan, piece + 1] - v0

    xa, wa = roots_legendre(n_angular)
    v = v0[:, None] + dv[:, None] * (0.5 * (xa + 1.0))
    p = d[fan, None, :] + v[..., None] * e[fan, None, :]
    rho = np.linalg.norm(p, axis=-1)
    xl, wl = roots_legendre(n_radial)
    tl, wl = 0.5 * (xl + 1.0), 0.5 * wl
    xj, wj = roots_jacobi(n_radial, 0.0, 1.0 - gamma)
    tj = 0.5 * (xj + 1.0)
    wj = wj * 2.0 ** (gamma - 2.0) * tj**gamma
    us, ws = [], []
    for r0, r1 in zip(radii.T[:-1], radii.T[1:]):
        r0, r1 = r0[fan, None], r1[fan, None]
        u0, u1 = (np.minimum(r / rho, 1.0)[..., None] for r in (r0, r1))
        jacobi = (r0 == 0.0)[..., None]
        u = np.where(jacobi, u1 * tj, u0 + (u1 - u0) * tl)
        us.append(u)
        ws.append(np.where(jacobi, u1**2 * wj, (u1 - u0) * wl * u))
    u = np.concatenate(us, axis=-1)
    w = np.concatenate(ws, axis=-1) \
        * (two_area[fan, None] * 0.5 * dv[:, None] * wa)[..., None]
    ip, ia, ik = np.nonzero(w)
    pts = q + u[ip, ia, ik][:, None] * p[ip, ia]
    return pts, w[ip, ia, ik], fan[ip]


def _graded_integrate(mesh, basis, gfun, gamma, radii, opts, kinks):
    q = np.array(basis.origin)
    spec = basis.cutoff
    tri_pts = mesh.nodes[mesh.triangles]
    vert_d = np.linalg.norm(tri_pts - q, axis=2)
    dist = np.min([_segment_dist(q, tri_pts[:, i], tri_pts[:, (i + 1) % 3])
                   for i in range(3)], axis=0)
    r_max = vert_d.max(axis=1)
    support = (dist < radii[-1]) & (r_max > radii[0])
    at_corner = vert_d < 1e-12
    corner = support & at_corner.any(axis=1)
    fan = corner.copy()
    for c in kinks:
        fan |= support & (dist < c) & (r_max > c)
    e1 = tri_pts[:, 1] - tri_pts[:, 0]
    e2 = tri_pts[:, 2] - tri_pts[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    h = np.max([np.linalg.norm(e1, axis=1), np.linalg.norm(e2, axis=1),
                np.linalg.norm(e2 - e1, axis=1)], axis=0)

    def scatter(contrib, tri):
        return np.bincount(mesh.triangles[tri].ravel(), weights=contrib.ravel(),
                           minlength=mesh.n_nodes)

    out = np.zeros(mesh.n_nodes)
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
        for s in range(0, len(owner), FAN_CHUNK):
            sl = slice(s, s + FAN_CHUNK)
            fan_radii = np.clip(np.asarray(radii, dtype=float),
                                lo[owner[sl], None], hi[owner[sl], None])
            pts, wts, j = _fan_rule(q, a[sl], b[sl], gamma, fan_radii,
                                    opts.n_radial // k, opts.n_angular // k)
            tri = owner[sl][j]
            vals = wts * np.sign(det[tri]) * gfun(pts)
            rel = pts - tri_pts[tri, 0]
            l2 = (rel[:, 0] * e2[tri, 1] - rel[:, 1] * e2[tri, 0]) / det[tri]
            l3 = (e1[tri, 0] * rel[:, 1] - e1[tri, 1] * rel[:, 0]) / det[tri]
            out += scatter(vals[:, None]
                           * np.column_stack([1.0 - l2 - l3, l2, l3]), tri)

    idx = np.flatnonzero(support & ~fan)
    d, h = dist[idx], h[idx]
    feat = (spec.R - spec.inner) / opts.n_feature
    in_band = (d < spec.R + h) & (d + h > spec.inner - h)
    depth = np.where(in_band & (h > feat), np.ceil(np.log2(h / feat)), 0)
    if gamma > 0:
        depth = np.maximum(depth, np.ceil(np.log2(opts.near_ratio * h / d)))
    depth = np.clip(depth.astype(int), 0, opts.max_depth)
    lam, w = _collapsed_rule(opts.n_gauss)
    for level in np.unique(depth):
        sub = _subdivision_templates(int(level))
        bary = np.einsum("qi,sij->sqj", lam, sub).reshape(-1, 3)
        wts = np.tile(w, len(sub)) / len(sub)
        sel = idx[depth == level]
        step = max(1, CELL_CHUNK // len(sub))
        for s in range(0, len(sel), step):
            tri = sel[s:s + step]
            pts = (bary @ tri_pts[tri]).reshape(-1, 2)
            vals = gfun(pts).reshape(len(tri), -1) * wts \
                * (0.5 * np.abs(det[tri]))[:, None]
            out += scatter(vals @ bary, tri)
    return out


def load_singular_per_basis(mesh, basis, opts=None):
    """Load vector of lap(chi*s) against the P1 hats, on its own point set."""
    opts = opts or FixedOrderOptions()
    spec = basis.cutoff
    return _graded_integrate(mesh, basis, basis.eval_laplacian_chi_s, 0.0,
                             (spec.inner, spec.R), opts,
                             kinks=(spec.inner, spec.R))


def load_chi_s_per_basis(mesh, basis, opts=None):
    """Load vector of chi*s against the P1 hats, on its own point set."""
    opts = opts or FixedOrderOptions()
    spec = basis.cutoff
    return _graded_integrate(mesh, basis, basis.eval_chi_s, basis.beta,
                             (0.0, spec.inner, spec.R), opts,
                             kinks=(spec.inner, spec.R))
