"""Corner singular functions, the radial cutoff, and singular quadrature.

A corner q with interior angle omega contributes harmonic functions
``s = r**(-beta) * trig(beta*theta)`` in the local polar frame of the
corner.  They are localized by a radial quintic cutoff ``chi`` equal to 1
inside r = tau*R and 0 beyond r = R.  Quadrature:

- Loads of lap(chi*s) and chi*s against the P1 hats.  Triangles at q, and
  for lap(chi*s) the triangles straddling its radial kinks r = tau*R and
  r = R, use the fan rule: a triangle is the signed sum of the triangles
  (q, a, b) over its edges, each Duffy-mapped with its radial variable
  split at the cutoff circles (Gauss-Jacobi absorbs r**(-gamma) at q) and
  its angular variable split where the edge a->b crosses a circle, so
  each piece is smooth.  Other triangles use a collapsed Gauss rule on
  red-refinement children graded toward q and across the cutoff band.
- The Gram pair integral of (chi*s_a)*(chi*s_b).  When the disk B(q, R)
  meets the domain only inside the corner sector it separates: a radial
  factor (closed form on [0, tau*R], self-checked Gauss rule on
  [tau*R, R]) times a closed-form angular factor.  Otherwise the graded
  2-D rule runs at two depths that must agree.

``solver.LevelContext`` caches these per mesh level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .geometry import PolygonDomain, SingularSpec
from .mesh import TriMesh

_FAN_CHUNK = 512      # fan triangles per batch of quadrature points
_CELL_CHUNK = 16384   # graded cells per batch


class QuadratureError(RuntimeError):
    """Graded quadrature failed to reach its accuracy target."""

    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class CutoffSpec:
    """Radial cutoff parameters: 1 on [0, tau*R], 0 on [R, inf)."""

    tau: float = 0.125
    R: float = 1.8

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.R <= 0:
            raise ValueError("R must be positive")

    @property
    def inner(self) -> float:
        return self.tau * self.R


def chi(r, spec: CutoffSpec):
    """Quintic cutoff: 1 below tau*R, 0 above R, C^2 transition between."""
    return chi_derivs(r, spec, orders=(0,))[0]


def chi_derivs(r, spec: CutoffSpec, orders=(0, 1, 2)):
    """The requested derivatives (default chi, chi', chi'') of the piecewise
    quintic cutoff; the quintic is evaluated on the transition band only."""
    r = np.asarray(r, dtype=float)
    band = (r > spec.inner) & (r < spec.R)
    scale = 2.0 / (spec.R * (1.0 - spec.tau))
    t = scale * r[band] - (1.0 + spec.tau) / (1.0 - spec.tau)
    t2 = t * t
    out = []
    for k in orders:
        c = np.zeros(r.shape)
        if k == 0:
            c[r <= spec.inner] = 1.0
            c[band] = ((-3 / 16 * t2 + 5 / 8) * t2 - 15 / 16) * t + 0.5
        elif k == 1:
            c[band] = ((-15 / 16 * t2 + 15 / 8) * t2 - 15 / 16) * scale
        else:
            c[band] = (-15 / 4 * t2 + 15 / 4) * t * scale**2
        out.append(float(c) if c.ndim == 0 else c)
    return tuple(out)


@dataclass(frozen=True)
class SingularBasis:
    """One localized singular function chi(r) * r**(-beta) * trig(beta*theta)."""

    beta: float
    trig: str                  # "sin" or "cos"
    origin: np.ndarray
    frame_angle: float         # rotation aligning the corner's leaving edge with +x
    omega: float
    cutoff: CutoffSpec = field(default_factory=CutoffSpec)

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.trig not in ("sin", "cos"):
            raise ValueError("trig must be 'sin' or 'cos'")
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float))

    @property
    def key(self):
        """Hashable defining values (beta, trig, then the corner, frame and
        cutoff): equal keys mean equal functions."""
        return (self.beta, self.trig, tuple(self.origin.tolist()),
                self.frame_angle, self.omega, self.cutoff)

    def local_polar(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        dx = pts[:, 0] - self.origin[0]
        dy = pts[:, 1] - self.origin[1]
        r = np.hypot(dx, dy)
        theta = np.mod(np.arctan2(dy, dx) - self.frame_angle, 2.0 * math.pi)
        # fold roundoff on the theta = 0 edge back to a small negative angle
        slack = 0.5 * (2.0 * math.pi - self.omega)
        theta = np.where(theta > self.omega + slack, theta - 2.0 * math.pi, theta)
        return r, theta

    def angular(self, theta):
        arg = self.beta * np.asarray(theta, dtype=float)
        return np.sin(arg) if self.trig == "sin" else np.cos(arg)

    def eval_s(self, points):
        """The raw singular function r**(-beta)*Phi; undefined at the corner."""
        r, theta = self.local_polar(points)
        if np.any(r == 0):
            raise ValueError("singular function evaluated at the corner")
        return r ** (-self.beta) * self.angular(theta)

    def eval_chi_s(self, points):
        r, theta = self.local_polar(points)
        out = np.zeros_like(r)
        inside = (r > 0) & (r < self.cutoff.R)
        c = chi(r[inside], self.cutoff)
        out[inside] = c * r[inside] ** (-self.beta) * self.angular(theta[inside])
        return out

    def eval_laplacian_chi_s(self, points):
        """Closed form: since s is harmonic,
        lap(chi*s) = (chi'' + (1 - 2*beta)*chi'/r) * r**(-beta) * Phi(theta),
        supported on the cutoff transition annulus only."""
        r, theta = self.local_polar(points)
        out = np.zeros_like(r)
        band = (r > self.cutoff.inner) & (r < self.cutoff.R)
        rb = r[band]
        c1, c2 = chi_derivs(rb, self.cutoff, orders=(1, 2))
        out[band] = (c2 + (1.0 - 2.0 * self.beta) * c1 / rb) \
            * rb ** (-self.beta) * self.angular(theta[band])
        return out


def bases_from_spec(spec: SingularSpec, cutoff: CutoffSpec | None = None) -> list[SingularBasis]:
    cutoff = cutoff or CutoffSpec()
    return [
        SingularBasis(beta, trig, spec.origin, spec.frame_angle, spec.omega, cutoff)
        for beta, trig in spec.exponents
    ]


@dataclass
class HybridField:
    """P1 nodal part plus scaled analytic singular parts.

    The analytic parts are never sampled into nodal values (they are
    unbounded at the corner); inner products against them go through the
    graded quadrature loads.
    """

    nodal: np.ndarray
    analytic_parts: list[tuple[SingularBasis, float]] = field(default_factory=list)


# -- quadrature ----------------------------------------------------------------


def _collapsed_rule(n: int):
    """Gauss rule on the reference triangle via the square-collapse map;
    exact for polynomials of total degree 2n-2.  Barycentric points and
    weights normalized to sum to 1."""
    x, w = roots_legendre(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    U, V = np.meshgrid(u, u, indexing="ij")
    WU, WV = np.meshgrid(wu, wu, indexing="ij")
    lam = np.stack([1.0 - U, U * (1.0 - V), U * V], axis=-1).reshape(-1, 3)
    weights = (2.0 * WU * WV * U).reshape(-1)
    return lam, weights


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


def _segment_dist(q, a, b) -> np.ndarray:
    """Distance from the point q to each segment a[k] -> b[k]."""
    ab = b - a
    t = np.einsum("kd,kd->k", q - a, ab) / np.einsum("kd,kd->k", ab, ab)
    proj = a + np.clip(t, 0.0, 1.0)[:, None] * ab
    return np.linalg.norm(proj - q, axis=1)


@dataclass(frozen=True)
class GradedQuadratureOptions:
    n_gauss: int = 6          # collapsed rule order (degree 2n-2 exact)
    near_ratio: float = 6.0   # subdivide until child diameter <= dist/near_ratio
    n_feature: int = 10       # resolve the cutoff band to (R - tau*R)/n_feature
    max_depth: int = 8
    n_radial: int = 24        # fan-rule nodes per radial segment; pair radial rule
    n_angular: int = 24       # fan-rule angular nodes per piece


def _fan_rule(q, a, b, gamma, radii, opts: GradedQuadratureOptions):
    """Points, weights (signed like det(a-q, b-q)) and fan index for
    r**(-gamma)*smooth over the triangles (q, a[k], b[k]) within
    radii[0] <= r <= radii[-1], by the Duffy map x = q + u*p(v),
    p(v) = (1-v)*(a-q) + v*(b-q).  u is split at each circle r = radii[i],
    with Gauss-Jacobi absorbing u**(1-gamma) on a segment from the corner;
    v is split where |p(v)| crosses a circle (a quadratic in v)."""
    d, e = a - q, b - a
    two_area = d[:, 0] * e[:, 1] - d[:, 1] * e[:, 0]
    ee, de, dd = (e * e).sum(axis=1), (d * e).sum(axis=1), (d * d).sum(axis=1)
    cuts = [np.zeros(len(d)), np.ones(len(d))]
    for c in radii:
        if c > 0.0:
            disc = de**2 - ee * (dd - c * c)
            for sgn in (-1.0, 1.0):
                v = (-de + sgn * np.sqrt(np.maximum(disc, 0.0))) / ee
                cuts.append(np.where((disc > 0) & (v > 0) & (v < 1), v, np.nan))
    cuts = np.sort(np.column_stack(cuts), axis=1)      # nan sorts last
    fan, piece = np.nonzero(cuts[:, 1:] > cuts[:, :-1])
    v0 = cuts[fan, piece]
    dv = cuts[fan, piece + 1] - v0

    xa, wa = roots_legendre(opts.n_angular)
    v = v0[:, None] + dv[:, None] * (0.5 * (xa + 1.0))          # (P, A)
    p = d[fan, None, :] + v[..., None] * e[fan, None, :]       # (P, A, 2)
    rho = np.linalg.norm(p, axis=-1)
    xl, wl = roots_legendre(opts.n_radial)
    tl, wl = 0.5 * (xl + 1.0), 0.5 * wl
    xj, wj = roots_jacobi(opts.n_radial, 0.0, 1.0 - gamma)
    tj = 0.5 * (xj + 1.0)
    wj = wj * 2.0 ** (gamma - 2.0) * tj**gamma   # [-1, 1] weight -> u*u**(-gamma)
    us, ws = [], []
    for r0, r1 in zip(radii[:-1], radii[1:]):
        u0, u1 = (np.minimum(r / rho, 1.0)[..., None] for r in (r0, r1))
        jacobi = r0 == 0.0          # the segment starts at the corner
        u = u1 * tj if jacobi else u0 + (u1 - u0) * tl
        us.append(u)
        ws.append(u1**2 * wj if jacobi else (u1 - u0) * wl * u)
    u = np.concatenate(us, axis=-1)                            # (P, A, K)
    w = np.concatenate(ws, axis=-1) \
        * (two_area[fan, None] * 0.5 * dv[:, None] * wa)[..., None]
    ip, ia, ik = np.nonzero(w)
    pts = q + u[ip, ia, ik][:, None] * p[ip, ia]
    return pts, w[ip, ia, ik], fan[ip]


def _graded_integrate(mesh: TriMesh, basis: SingularBasis, gfun, gamma,
                      radii, nodal: bool, opts: GradedQuadratureOptions,
                      depth_bump: int = 0, kinks: tuple = ()):
    """Integrate gfun (singular like r**(-gamma) at the corner, supported
    in radii[0] <= r <= radii[-1], smooth between consecutive radii)
    against all P1 hats (nodal=True) or 1.  Triangles at the corner or
    straddling a circle r = c, c in ``kinks``, go through the fan rule."""
    q = basis.origin
    spec = basis.cutoff
    tri_pts = mesh.nodes[mesh.triangles]
    vert_d = np.linalg.norm(tri_pts - q, axis=2)
    dist = np.min([_segment_dist(q, tri_pts[:, i], tri_pts[:, (i + 1) % 3])
                   for i in range(3)], axis=0)
    r_max = vert_d.max(axis=1)
    support = (dist < radii[-1]) & (r_max > radii[0])
    at_corner = vert_d < 1e-12
    fan = support & at_corner.any(axis=1)
    for c in kinks:
        fan |= support & (dist < c) & (r_max > c)
    e1 = tri_pts[:, 1] - tri_pts[:, 0]
    e2 = tri_pts[:, 2] - tri_pts[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]

    def scatter(contrib, tri):      # per-triangle (T, 3) -> nodes
        return np.bincount(mesh.triangles[tri].ravel(), weights=contrib.ravel(),
                           minlength=mesh.n_nodes)

    out = np.zeros(mesh.n_nodes) if nodal else 0.0

    # fan rule over each edge (a, b) of the triangle, skipping edges at q
    idx = np.flatnonzero(fan)
    nxt = [1, 2, 0]
    keep = ~(at_corner[idx] | at_corner[idx][:, nxt]).ravel()
    a = tri_pts[idx].reshape(-1, 2)[keep]
    b = tri_pts[idx][:, nxt].reshape(-1, 2)[keep]
    owner = np.repeat(idx, 3)[keep]
    for s in range(0, len(owner), _FAN_CHUNK):
        sl = slice(s, s + _FAN_CHUNK)
        pts, wts, k = _fan_rule(q, a[sl], b[sl], gamma, radii, opts)
        tri = owner[sl][k]
        vals = wts * np.sign(det[tri]) * gfun(pts)
        if not nodal:
            out += float(vals.sum())
            continue
        # barycentric coordinates of the fan points in their triangle
        rel = pts - tri_pts[tri, 0]
        l2 = (rel[:, 0] * e2[tri, 1] - rel[:, 1] * e2[tri, 0]) / det[tri]
        l3 = (e1[tri, 0] * rel[:, 1] - e1[tri, 1] * rel[:, 0]) / det[tri]
        out += scatter(vals[:, None] * np.column_stack([1.0 - l2 - l3, l2, l3]),
                       tri)

    # collapsed rule on graded children: depth set by corner distance and
    # by the cutoff band
    idx = np.flatnonzero(support & ~fan)
    d = dist[idx]
    h = np.max([np.linalg.norm(e1[idx], axis=1), np.linalg.norm(e2[idx], axis=1),
                np.linalg.norm(e2[idx] - e1[idx], axis=1)], axis=0)
    feat = (spec.R - spec.inner) / opts.n_feature
    in_band = (d < spec.R + h) & (d + h > spec.inner - h)
    depth = np.where(in_band & (h > feat), np.ceil(np.log2(h / feat)), 0)
    if gamma > 0:
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
            pts = np.einsum("pj,tjd->tpd", bary, tri_pts[tri]).reshape(-1, 2)
            vals = gfun(pts).reshape(len(tri), -1) * wts \
                * (0.5 * np.abs(det[tri]))[:, None]
            out += scatter(vals @ bary, tri) if nodal else float(vals.sum())
    return out


def load_singular(mesh: TriMesh, basis: SingularBasis,
                  opts: GradedQuadratureOptions | None = None) -> np.ndarray:
    """Load vector of lap(chi*s) against the P1 hats (annulus-supported)."""
    opts = opts or GradedQuadratureOptions()
    spec = basis.cutoff
    # the cutoff is C^2, so lap(chi*s) has radial kinks on both circles
    return _graded_integrate(mesh, basis, basis.eval_laplacian_chi_s, 0.0,
                             (spec.inner, spec.R), True, opts,
                             kinks=(spec.inner, spec.R))


def load_chi_s(mesh: TriMesh, basis: SingularBasis,
               opts: GradedQuadratureOptions | None = None) -> np.ndarray:
    """Load vector of chi*s against the P1 hats (graded at the corner)."""
    opts = opts or GradedQuadratureOptions()
    spec = basis.cutoff
    return _graded_integrate(mesh, basis, basis.eval_chi_s, basis.beta,
                             (0.0, spec.inner, spec.R), True, opts)


def cutoff_disk_in_sector(domain: PolygonDomain, basis: SingularBasis) -> bool:
    """True when the disk B(q, R) meets the domain only inside the corner
    sector: both edges at q are at least R long and every other edge is at
    least R from q.  The pair integral then separates in polar coordinates."""
    q, R = basis.origin, basis.cutoff.R
    a = domain.vertices
    b = np.roll(a, -1, axis=0)                  # edge i runs a[i] -> b[i]
    at_q = (np.linalg.norm(a - q, axis=1) < 1e-12) \
        | (np.linalg.norm(b - q, axis=1) < 1e-12)
    return bool(at_q.sum() == 2
                and np.all(np.linalg.norm(b - a, axis=1)[at_q] >= R)
                and np.all(_segment_dist(q, a[~at_q], b[~at_q]) >= R))


def _angular_product(basis_a: SingularBasis, basis_b: SingularBasis) -> float:
    """Closed form of the integral of Phi_a * Phi_b over (0, omega), with
    Phi = cos(beta*theta - phase), phase pi/2 for sin."""
    omega = basis_a.omega

    def int_cos(k, phase):      # integral of cos(k*theta - phase)
        return (math.cos(phase) * omega * np.sinc(k * omega / math.pi)
                + math.sin(phase) * 0.5 * k * omega**2
                * np.sinc(k * omega / (2.0 * math.pi))**2)

    pa, pb = (0.5 * math.pi * (b.trig == "sin") for b in (basis_a, basis_b))
    ba, bb = basis_a.beta, basis_b.beta
    return float(0.5 * (int_cos(ba - bb, pa - pb) + int_cos(ba + bb, pa + pb)))


def _pair_separable(basis_a: SingularBasis, basis_b: SingularBasis,
                    n: int, target: float) -> float:
    """Radial times angular factor: chi = 1 gives a closed form on
    [0, tau*R]; on [tau*R, R] Gauss rules of n and 2n points must agree."""
    spec = basis_a.cutoff
    gamma = basis_a.beta + basis_b.beta
    half = 0.5 * (spec.R - spec.inner)

    def band(m):
        x, w = roots_legendre(m)
        r = spec.inner + half * (x + 1.0)
        return half * float(np.sum(w * chi(r, spec) ** 2 * r ** (1.0 - gamma)))

    coarse, fine = band(n), band(2 * n)
    radial = spec.inner ** (2.0 - gamma) / (2.0 - gamma) + fine
    if abs(fine - coarse) > target * radial:
        raise QuadratureError(
            f"pair radial rule disagreement {abs(fine - coarse) / radial:.3e} "
            f"exceeds target {target:.1e}", radial)
    return radial * _angular_product(basis_a, basis_b)


def _pair_graded(mesh: TriMesh, basis_a: SingularBasis, basis_b: SingularBasis,
                 opts: GradedQuadratureOptions, target: float) -> float:
    """The pair integral by the graded 2-D rule, computed at two depths
    that must agree to the target."""
    gamma = basis_a.beta + basis_b.beta

    def gfun(pts):
        return basis_a.eval_chi_s(pts) * basis_b.eval_chi_s(pts)

    r_hi = min(basis_a.cutoff.R, basis_b.cutoff.R)
    radii = (0.0, min(basis_a.cutoff.inner, r_hi), r_hi)
    coarse, fine = (_graded_integrate(mesh, basis_a, gfun, gamma, radii, False,
                                      opts, depth_bump=bump) for bump in (0, 1))
    # absolute floor of 1: distinct angular modes are orthogonal over the
    # sector, so entries can vanish identically while the natural scale of
    # the quadrature stays O(1)
    scale = max(abs(fine), 1.0)
    if abs(fine - coarse) > 10 * target * scale:
        raise QuadratureError(
            f"pair quadrature disagreement {abs(fine - coarse) / scale:.3e} "
            f"exceeds target {target:.1e}", fine)
    return float(fine)


def inner_chi_s_pair(mesh: TriMesh, basis_a: SingularBasis, basis_b: SingularBasis,
                     opts: GradedQuadratureOptions | None = None,
                     target: float = 1e-8) -> float:
    """Integral of (chi*s_a)(chi*s_b) over the domain: separable when both
    functions share a corner sector that holds the cutoff disk's part of
    the domain, else the graded 2-D rule."""
    opts = opts or GradedQuadratureOptions()
    same_sector = basis_a.key[2:] == basis_b.key[2:]
    if same_sector and cutoff_disk_in_sector(mesh.domain, basis_a):
        return _pair_separable(basis_a, basis_b, opts.n_radial, target)
    return _pair_graded(mesh, basis_a, basis_b, opts, target)


def inner_singular(nodal_or_field, basis: SingularBasis, mesh: TriMesh,
                   mass=None, chi_s_load=None,
                   opts: GradedQuadratureOptions | None = None) -> float:
    """L2 inner product of a P1 field (or HybridField) with chi*s.

    P1-vs-P1 parts go through the mass matrix; any term with an analytic
    factor goes through the graded quadrature loads.
    """
    if chi_s_load is None:
        chi_s_load = load_chi_s(mesh, basis, opts)
    if isinstance(nodal_or_field, HybridField):
        total = float(nodal_or_field.nodal @ chi_s_load)
        for other, coeff in nodal_or_field.analytic_parts:
            total += coeff * inner_chi_s_pair(mesh, other, basis, opts)
        return total
    return float(np.asarray(nodal_or_field, dtype=float) @ chi_s_load)
