"""Reference implementation of the graded singular quadrature in point
form, kept as a differential-test oracle for ``singular._graded_integrate``.

It evaluates the integrand at every quadrature point: the fan rule gives
each point of each Duffy ray its own polar coordinates, cutoff, angular
factor and barycentric coordinates, and the collapsed rule refines every
child of a graded cell to the depth its cell needs (4**depth children),
at the fixed order and grading of ``fixed_order_oracle.FixedOrderOptions``.
``corner_loads`` is the singular module's caller of that rule, on the same
integrands; ``pair_graded`` is the graded 2-D pair rule that the fan rule
over the domain's edges (now ``pair_oracle.pair_fan_rule``) replaced.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from biharmfem.singular import _collapsed_rule, _segment_dist, chi_derivs
from fixed_order_oracle import FixedOrderOptions

_FAN_CHUNK = 256      # fan triangles per batch of quadrature points
_CELL_CHUNK = 2048    # graded cells per batch


@functools.lru_cache(maxsize=32)
def _gauss(n: int, alpha: float | None = None):
    """The n-point Gauss-Legendre rule on [-1, 1], or with ``alpha`` the
    Gauss-Jacobi rule for the weight (1 + x)**alpha."""
    return roots_legendre(n) if alpha is None else roots_jacobi(n, 0.0, alpha)


def _subdivision_templates(depth: int) -> np.ndarray:
    """Barycentric corner coordinates of the 4**depth red-refinement children."""
    tris = np.eye(3)[None, :, :]
    for _ in range(depth):
        c0, c1, c2 = tris[:, 0], tris[:, 1], tris[:, 2]
        m01, m12, m20 = 0.5 * (c0 + c1), 0.5 * (c1 + c2), 0.5 * (c2 + c0)
        tris = np.concatenate([
            np.stack([c0, m01, m20], axis=1),
            np.stack([m01, c1, m12], axis=1),
            np.stack([m20, m12, c2], axis=1),
            np.stack([m01, m12, m20], axis=1),
        ], axis=0)
    return tris


def _fan_rule(q, a, b, gammas, radii, n_radial, n_angular):
    """Points, weights (signed like det(a-q, b-q)) and fan index over the
    triangles (q, a[k], b[k]) within radii[k, 0] <= r <= radii[k, -1]
    (radii: one ascending row per fan), by the Duffy map x = q + u*p(v),
    p(v) = (1-v)*(a-q) + v*(b-q).  u is split at each circle
    r = radii[k, i], v where |p(v)| crosses a circle (a quadratic in v);
    n_radial x n_angular nodes per piece.  Returns one (pts, w, fan) triple
    for the Gauss-Legendre segments, then one per gamma in ``gammas`` for
    the segments from the corner (radii[k, 0] = 0), where Gauss-Jacobi
    absorbs u**(1-gamma) of an integrand singular like r**(-gamma)."""
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
    cuts = np.sort(np.column_stack(cuts), axis=1)      # nan sorts last
    fan, piece = np.nonzero(cuts[:, 1:] > cuts[:, :-1])
    v0 = cuts[fan, piece]
    dv = cuts[fan, piece + 1] - v0

    xa, wa = _gauss(n_angular)
    v = v0[:, None] + dv[:, None] * (0.5 * (xa + 1.0))          # (P, A)
    p = d[fan, None, :] + v[..., None] * e[fan, None, :]       # (P, A, 2)
    rho = np.linalg.norm(p, axis=-1)
    scale = two_area[fan, None] * 0.5 * dv[:, None] * wa

    def nodes(rows, u, w):      # (len(rows), A, K) nodes of pieces ``rows``
        w = w * scale[rows, :, None]
        i, ia, ik = np.nonzero(w)
        return q + u[i, ia, ik][:, None] * p[rows[i], ia], w[i, ia, ik], \
            fan[rows[i]]

    u_at = np.minimum(radii[fan][:, None, :] / rho[..., None], 1.0)
    xl, wl = _gauss(n_radial)
    tl, wl = 0.5 * (xl + 1.0), 0.5 * wl
    u0, u1 = u_at[..., :-1, None], u_at[..., 1:, None]       # (P, A, S, 1)
    u = u0 + (u1 - u0) * tl
    w = (u1 - u0) * wl * u
    corner = np.flatnonzero(radii[fan, 0] == 0.0)
    w[corner, :, 0] = 0.0       # the segment from the corner: Gauss-Jacobi
    shape = (len(fan), len(wa), -1)
    out = [nodes(np.arange(len(fan)), u.reshape(shape), w.reshape(shape))]
    u_end = u_at[corner, :, 1:2]       # where each corner segment ends
    for gamma in gammas:
        xj, wj = _gauss(n_radial, 1.0 - gamma)
        tj = 0.5 * (xj + 1.0)
        # the [-1, 1] weight (1 + x)**(1 - gamma) -> u * u**(-gamma) on [0, 1]
        wj = wj * 2.0 ** (gamma - 2.0) * tj**gamma
        out.append(nodes(corner, u_end * tj, u_end**2 * wj))
    return out


def _graded_integrate(mesh: TriMesh, q, values, n_rows: int, gammas, radii,
                      opts: FixedOrderOptions, kinks: tuple = (),
                      depth_bump: int = 0) -> np.ndarray:
    """Integrate ``n_rows`` integrands, supported in radii[0] <= r <=
    radii[-1] about the corner q and smooth between consecutive radii,
    against all P1 hats: an (n_rows, n_nodes) array, one load per row.

    values(pts, gamma) gives the (n_rows, len(pts)) integrand values.
    gamma is None on points every row shares; on the corner fans' first
    segment [0, radii[1]] it is the exponent of the Gauss-Jacobi rule that
    made the points, one of ``gammas``, and a row counts there only if it
    is singular like r**(-gamma) at q (values 0 otherwise).  Triangles at q
    or straddling a circle r = c, c in ``kinks``, go through the fan rule;
    the rest through a collapsed rule on children graded toward q and
    across the band radii[-2] <= r <= radii[-1]."""
    q = np.asarray(q, dtype=float)
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

    out = np.zeros((n_rows, mesh.n_nodes))

    def scatter(rows, tri):     # per row of out, per-triangle (T, 3) -> nodes
        nodes = mesh.triangles[tri].ravel()
        for load, row in zip(out, rows):
            load += np.bincount(nodes, weights=row.ravel(),
                                minlength=mesh.n_nodes)

    # fan rule over each edge (a, b) of the triangle, skipping edges at q.
    # T lies in dist_T <= r <= r_max_T, so its fans' radii are clipped to
    # that range, padded by a relative 1e-9 so that a clipped end adds no
    # v-split.  A straddling triangle's radial segments are then O(h_T) long,
    # and its fans span an angle of about h_T/dist_T seen from q; that ratio
    # bounds the strip where the integrand is analytic in u and v, so they
    # take 1/k of the corner fans' nodes, k = dist_T // h_T clipped to 1..3.
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
        for s in range(0, len(owner), _FAN_CHUNK):
            sl = slice(s, s + _FAN_CHUNK)
            fan_radii = np.clip(np.asarray(radii, dtype=float),
                                lo[owner[sl], None], hi[owner[sl], None])
            groups = _fan_rule(q, a[sl], b[sl], gammas, fan_radii,
                               opts.n_radial // k, opts.n_angular // k)
            for gamma, (pts, wts, j) in zip((None, *gammas), groups):
                tri = owner[sl][j]
                vals = values(pts, gamma) * (wts * np.sign(det[tri]))
                # barycentric coordinates of the fan points in their triangle
                rel = pts - tri_pts[tri, 0]
                l2 = (rel[:, 0] * e2[tri, 1] - rel[:, 1] * e2[tri, 0]) / det[tri]
                l3 = (e1[tri, 0] * rel[:, 1] - e1[tri, 1] * rel[:, 0]) / det[tri]
                bary = np.column_stack([1.0 - l2 - l3, l2, l3])
                scatter((row[:, None] * bary for row in vals), tri)

    # collapsed rule on graded children: depth set by corner distance and
    # by the cutoff band
    idx = np.flatnonzero(support & ~fan)
    d, h = dist[idx], h[idx]
    inner, outer = radii[-2], radii[-1]
    feat = (outer - inner) / opts.n_feature
    in_band = (d < outer + h) & (d + h > inner - h)
    depth = np.where(in_band & (h > feat), np.ceil(np.log2(h / feat)), 0)
    depth = np.maximum(depth, np.ceil(np.log2(opts.near_ratio * h / d)))
    depth = np.clip(depth.astype(int) + depth_bump, 0, opts.max_depth)
    lam, w = _collapsed_rule(opts.n_gauss)
    for level in np.unique(depth):
        sub = _subdivision_templates(int(level))
        bary = np.einsum("qi,sij->sqj", lam, sub).reshape(-1, 3)   # (S*Q, 3)
        wts = np.tile(w, len(sub)) / len(sub)
        sel = idx[depth == level]
        step = max(1, _CELL_CHUNK // len(sub))
        for s in range(0, len(sel), step):
            tri = sel[s:s + step]
            pts = (bary @ tri_pts[tri]).reshape(-1, 2)
            vals = values(pts, None).reshape(n_rows, len(tri), -1) * wts \
                * (0.5 * np.abs(det[tri]))[:, None]
            scatter(vals @ bary, tri)
    return out


def corner_loads(mesh: TriMesh, bases: list[SingularBasis],
                 opts: FixedOrderOptions | None = None):
    """The load vectors of lap(chi*s) and of chi*s against the P1 hats for
    every basis of one corner, from one point-form quadrature pass: two
    (k, n_nodes) arrays, row i for bases[i]."""
    opts = opts or FixedOrderOptions()
    first = bases[0]
    def frame(b):
        return b.origin, b.frame_angle, b.omega, b.cutoff

    if any(frame(b) != frame(first) for b in bases):
        raise ValueError("corner_loads takes the bases of one corner")
    spec = first.cutoff
    k = len(bases)

    def values(pts, gamma):
        # rows 0..k-1: lap(chi*s) = (chi'' + (1 - 2*beta)*chi'/r) * s (s is
        # harmonic); rows k..2k-1: chi*s
        r, theta = first.local_polar(pts)
        c0, c1, c2 = chi_derivs(r, spec)
        out = np.zeros((2 * k, len(r)))
        for i, basis in enumerate(bases):
            if gamma not in (None, basis.beta):
                continue        # another exponent's rule at the corner
            r_beta, phi = r ** (-basis.beta), basis.angular(theta)
            out[i] = (c2 + (1.0 - 2.0 * basis.beta) * c1 / r) * r_beta * phi
            out[k + i] = c0 * r_beta * phi
        return out

    loads = _graded_integrate(mesh, first.origin, values, 2 * k,
                              sorted({b.beta for b in bases}),
                              (0.0, spec.inner, spec.R), opts,
                              kinks=(spec.inner, spec.R))
    return loads[:k], loads[k:]


def pair_graded(mesh: TriMesh, basis_a: SingularBasis, basis_b: SingularBasis,
                opts: FixedOrderOptions, target: float) -> float:
    """The pair integral by the graded 2-D rule, computed at two depths
    that must agree to the target."""
    gamma = basis_a.beta + basis_b.beta

    def values(pts, _gamma):    # one integrand, singular like r**(-gamma)
        return (basis_a.eval_chi_s(pts) * basis_b.eval_chi_s(pts))[None]

    r_hi = min(basis_a.cutoff.R, basis_b.cutoff.R)
    radii = (0.0, min(basis_a.cutoff.inner, r_hi), r_hi)
    # the P1 hats sum to 1, so the nodal integrals sum to the integral
    coarse, fine = (_graded_integrate(mesh, basis_a.origin, values, 1, (gamma,),
                                      radii, opts, depth_bump=bump).sum()
                    for bump in (0, 1))
    # absolute floor of 1: distinct angular modes are orthogonal over the
    # sector, so entries can vanish identically while the natural scale of
    # the quadrature stays O(1)
    scale = max(abs(fine), 1.0)
    if abs(fine - coarse) > 10 * target * scale:
        raise AssertionError(
            f"pair quadrature disagreement {abs(fine - coarse) / scale:.3e} "
            f"exceeds target {target:.1e}")
    return float(fine)
