"""Corner singular functions, the radial cutoff, and singular quadrature.

A corner q with interior angle omega contributes harmonic functions
``s = r**(-beta) * trig(beta*theta)`` in the local polar frame of the
corner.  They are localized by a radial quintic cutoff ``chi`` equal to 1
inside r = tau*R and 0 beyond r = R.  Quadrature:

- Loads of lap(chi*s) and chi*s against the P1 hats, for every basis of a
  corner, come from one pass (``corner_loads``) over integrands that are
  a radial factor of r times an angular factor of theta.  Triangles at q
  and triangles straddling the radial kinks r = tau*R and r = R (chi is
  only C^2 there) use the fan rule: a triangle is covered by the
  triangles (q, a, b) over its edges a->b facing away from q, each
  Duffy-mapped with its radial variable split at 0, tau*R and R and its
  angular variable split where the edge a->b crosses a circle.  Away from
  q a ray starts where it enters the triangle through its edges facing q,
  and the angular variable is also split at the ray through the triangle's
  middle vertex and where a circle crosses an edge facing q, so each
  piece is smooth and the fans cover the triangle once.  A ray of a
  piece takes one angular value and two radial moments, which give every
  hat's load since a hat is affine along the ray.  On the corner fans'
  singular segment [0, tau*R] chi = 1, so each row is c*r**(-beta) or 0
  and its ray moments are closed forms at its own exponent, all rows from
  one evaluation.  A radial segment takes more nodes where q is near it
  relative to its length, as the corner fans' [tau*R, R] at small tau.  A
  straddling triangle's fans are clipped to its own radial range, so they
  are short and thin and take fewer nodes.  Every other triangle takes
  one collapsed Gauss rule.  The integrand is analytic away from q, so the
  rule's order is the one the triangle's width-to-distance ratio needs
  (see ``ORDER_TARGET``); a mesh triangle off q is at least half as far
  from q as it is wide, which bounds the order.  Both rules form at most
  ``_BLOCK_VALUES`` integrand values (rows x points, 128 KiB) at once,
  and chi takes every point without a mask; the triangles'
  geometry is formed per chunk, and only the scalars the rules read are
  kept.  So the pass's transients are a few such blocks besides its loads
  and per-triangle scalars: a traced peak of 0.96 MiB at IV/B3 level 2,
  1.59 MiB at III/B5 level 4 and 17.3 MiB at IV/B3 level 7.  The rule's
  three numbers are the constants ``ORDER_TARGET``, ``N_RADIAL`` and
  ``N_ANGULAR``.
- The Gram pair integral of (chi*s_a)*(chi*s_b) separates while R is
  below the corner's ``clearance``: a closed-form angular product times
  a radial integral, closed form on [0, tau*R], one Gauss rule on the band.

A study integrates a corner's loads once, on its finest mesh; each coarser
level's ``solver.LevelContext`` restricts them (``mesh.restrict``), since
the P1 spaces of uniform refinement are nested.  Pair integrals depend on
the domain only, so a study computes them once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (GRID_BOUND, PolygonDomain, classify_vertex,
                       singular_exponents)
from .mesh import TriMesh

# integrand values (rows x points) the pass forms at once, by either rule
_BLOCK_VALUES = 16384
_FAN_CHUNK = 256      # fan edges whose rays are formed at once
# a triangle of diameter h at distance dist from q, off the fan rule, takes
# the collapsed Gauss rule of order n = ceil(ORDER_TARGET / ln(rho)), where
# rho = 2*dist/h + sqrt((2*dist/h)**2 + 1) is its Bernstein-ellipse
# parameter seen from q: its error decays like
# rho**(-2n) <= exp(-2*ORDER_TARGET)
ORDER_TARGET = 22.0
# fan-rule nodes per radial segment and angular piece of the corner fans;
# fans of triangles away from q take 1/2 or 1/3 (all while h_T > dist_T/2);
# a segment relatively nearer q than [R/8, R] takes more (_fan_moments)
N_RADIAL = 24
N_ANGULAR = 24


@dataclass(frozen=True)
class CutoffSpec:
    """Radial cutoff parameters: 1 on [0, tau*R], 0 on [R, inf)."""

    tau: float = 0.125
    R: float = 1.8

    def __post_init__(self):
        # below 0.001 the band rule of inner_chi_s_pair rounds past 1e-12
        if not 1e-3 <= self.tau < 1.0:
            raise ValueError(f"tau must lie in [0.001, 1), got {self.tau}")
        if not 0.0 < self.R < math.inf:
            raise ValueError(f"R must be finite and positive, got {self.R}")
        # coordinates up to GRID_BOUND are rounded to about this: a
        # narrower transition band cannot be sampled (and the scale of
        # chi'' overflows before the band width reaches 1e-154)
        floor = GRID_BOUND * 2.0**-52
        if self.R * (1.0 - self.tau) < floor:
            raise ValueError(f"the cutoff band R*(1 - tau) = "
                             f"{self.R * (1.0 - self.tau):.3g} is narrower "
                             f"than {floor:.3g}")

    @property
    def inner(self) -> float:
        return self.tau * self.R


def chi(r, spec: CutoffSpec):
    """Quintic cutoff: 1 below tau*R, 0 above R, C^2 transition between."""
    return chi_derivs(r, spec, orders=(0,))[0]


def chi_derivs(r, spec: CutoffSpec, orders=(0, 1, 2)):
    """The requested derivatives (default chi, chi', chi'') of the piecewise
    quintic cutoff.  The band's coordinate t is clipped to [-1, 1], where
    the quintic gives exactly 1, 0, 0 (t = -1) and 0, 0, 0 (t = 1), so every
    point takes the same polynomial and no mask."""
    r = np.asarray(r, dtype=float)
    scale = 2.0 / (spec.R * (1.0 - spec.tau))
    t = np.clip(scale * r - (1.0 + spec.tau) / (1.0 - spec.tau), -1.0, 1.0)
    t2 = t * t
    out = []
    for k in orders:
        if k == 0:
            c = ((-3 / 16 * t2 + 5 / 8) * t2 - 15 / 16) * t + 0.5
        elif k == 1:
            c = ((-15 / 16 * t2 + 15 / 8) * t2 - 15 / 16) * scale
        else:
            c = (-15 / 4 * t2 + 15 / 4) * t * scale**2
        out.append(float(c) if c.ndim == 0 else c)
    return tuple(out)


@dataclass(frozen=True)
class SingularBasis:
    """One localized singular function chi(r) * r**(-beta) * trig(beta*theta).

    Hashable: equal bases are equal functions, so a basis is its own cache
    key."""

    beta: float
    trig: str                  # "sin" or "cos"
    origin: tuple[float, float]
    frame_angle: float         # rotation aligning the corner's leaving edge with +x
    omega: float
    cutoff: CutoffSpec = field(default_factory=CutoffSpec)

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.trig not in ("sin", "cos"):
            raise ValueError("trig must be 'sin' or 'cos'")
        object.__setattr__(self, "origin", tuple(map(float, self.origin)))

    def local_polar(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        dx = pts[:, 0] - self.origin[0]
        dy = pts[:, 1] - self.origin[1]
        r = np.sqrt(dx * dx + dy * dy)     # np.hypot is several times slower
        theta = np.arctan2(dy, dx) - self.frame_angle      # in [-2*pi, 2*pi]
        theta += np.where(theta < 0.0, 2.0 * math.pi, 0.0)  # np.mod's values
        # fold roundoff on the theta = 0 edge back to a small negative angle
        slack = 0.5 * (2.0 * math.pi - self.omega)
        theta = np.where(theta > self.omega + slack, theta - 2.0 * math.pi, theta)
        return r, theta

    def angular(self, theta):
        arg = self.beta * np.asarray(theta, dtype=float)
        return np.sin(arg) if self.trig == "sin" else np.cos(arg)

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


def corner_bases(domain: PolygonDomain, j: int,
                 cutoff: CutoffSpec | None = None) -> list[SingularBasis]:
    """The singular functions of vertex ``j`` (none when it contributes
    none), in the corner's polar frame: origin at the vertex, leaving edge
    along theta = 0, so theta in (0, omega) is the interior."""
    omega = float(domain.angles[j])
    d_out = domain.vertices[(j + 1) % domain.n_vertices] - domain.vertices[j]
    frame_angle = math.atan2(d_out[1], d_out[0])
    return [SingularBasis(beta, trig, domain.vertices[j], frame_angle, omega,
                          cutoff or CutoffSpec())
            for beta, trig in singular_exponents(classify_vertex(domain, j),
                                                 omega)]


# -- quadrature ----------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _gauss(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1];
    computed once per n and shared, so the arrays are read-only."""
    x, w = _legendre_rule(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _legendre_rule(n: int):
    """The n-point Gauss-Legendre rule: Tricomi's asymptotic nodes
    (1 - (n-1)/(8n^3)) cos(pi (i - 1/4)/(n + 1/2)), three Newton steps on
    P_n by the three-term recurrence, and the weights
    2 / ((1 - x^2) P_n'(x)^2) at the refined nodes, made symmetric and
    scaled to sum to 2.  No LAPACK routine is called (Newton from
    asymptotic nodes, as in Hale & Townsend 2013)."""
    i = np.arange(n, 0, -1)     # ascending nodes
    x = ((1.0 - (n - 1) / (8.0 * n ** 3))
         * np.cos(np.pi * (i - 0.25) / (n + 0.5)))

    def derivative(x):      # P_n'(x), from P_n and P_(n-1) by recurrence
        p0, p1 = np.ones_like(x), x
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))

    for _ in range(3):
        p, dp = derivative(x)
        x = x - p / dp
    dp = derivative(x)[1]
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return x, w * (2.0 / w.sum())


@functools.lru_cache(maxsize=32)
def _collapsed_rule(n: int):
    """Gauss rule on the reference triangle via the square-collapse map;
    exact for polynomials of total degree 2n-2.  Barycentric points and
    weights normalized to sum to 1; computed once per n and shared, so the
    arrays are read-only."""
    x, w = _gauss(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    U, V = np.meshgrid(u, u, indexing="ij")
    WU, WV = np.meshgrid(wu, wu, indexing="ij")
    lam = np.stack([1.0 - U, U * (1.0 - V), U * V], axis=-1).reshape(-1, 3)
    weights = (2.0 * WU * WV * U).reshape(-1)
    lam.flags.writeable = weights.flags.writeable = False
    return lam, weights


def _log_rho(r0, r1):
    """ln(rho), rho the Bernstein-ellipse parameter of r = 0 seen from the
    segment [r0, r1], 0 < r0 < r1: an n-point Gauss rule on it integrates
    a function analytic but at r = 0 to an error like rho**(-2n)."""
    return np.arccosh((r1 + r0) / (r1 - r0))


def _segment_dist(q, a, b) -> np.ndarray:
    """Distance from the point q to each segment a[k] -> b[k]."""
    ab, aq = b - a, q - a
    t = ((aq[:, 0] * ab[:, 0] + aq[:, 1] * ab[:, 1])
         / (ab[:, 0] * ab[:, 0] + ab[:, 1] * ab[:, 1]))
    proj = a + np.clip(t, 0.0, 1.0)[:, None] * ab
    return np.linalg.norm(proj - q, axis=1)


def clearance(domain: PolygonDomain, q) -> float:
    """Distance from the vertex q to the nearest edge not ending at q: a
    disk r < R below it meets the domain in exactly the corner's sector."""
    a, b = domain.vertices, np.roll(domain.vertices, -1, axis=0)
    away = (a != q).any(axis=1) & (b != q).any(axis=1)
    return float(_segment_dist(np.asarray(q), a[away], b[away]).min())


def _cross(x, y):
    """det(x, y) over the last axis of the (..., 2) arrays x and y."""
    return x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]


def _circle_crossings(d, e, radii):
    """Where the segments q + d + t*e, 0 < t < 1, cross the circles r = c
    about q, c > 0 in the last axis of ``radii``: t (nan where none), the
    smaller roots of every circle, then the larger.  d, e (..., 2) and
    radii (..., C) give (..., 2C)."""
    ee, de, dd = ((x * y).sum(axis=-1)[..., None]
                  for x, y in ((e, e), (d, e), (d, d)))
    disc = de**2 - ee * (dd - radii * radii)
    root = np.sqrt(np.maximum(disc, 0.0))
    t = np.concatenate([(-de - root) / ee, (-de + root) / ee], axis=-1)
    hit = np.concatenate([(radii > 0) & (disc > 0)] * 2, axis=-1)
    return np.where(hit & (t > 0) & (t < 1), t, np.nan)


def _near_cuts(q, d, e, near, radii):
    """The v of the rays q + u*(d + v*e) through T's middle vertex and
    through the points where a circle r = radii[k, i] crosses an edge facing
    q, nan where outside (0, 1); ``near`` as in ``_fan_moments``."""
    s, t = near[:, :, 0], near[:, :, 1]
    middle = (near[:, 0] != near[:, 1]).any(axis=(1, 2))
    hits = _circle_crossings(s - q, t - s, radii[:, None])[..., None]
    w = np.concatenate([np.where(middle[:, None, None], t[:, :1], np.nan),
                        (s[:, :, None] + hits * (t - s)[:, :, None])
                        .reshape(len(d), -1, 2)], axis=1) - q
    num, den = _cross(d[:, None], w), _cross(w, e[:, None])
    inside = (num > 0) & (num < den)        # v = num / den in (0, 1)
    return np.where(inside, num, np.nan) / np.where(inside, den, 1.0)


def _fan_moments(basis: SingularBasis, a, b, radii, radial, angular, gammas,
                 n_radial: int, n_angular: int, near=None):
    """Moments of f = radial(r) * angular(theta) over the triangles
    (q, a[k], b[k]), q = basis.origin, within radii[k, 0] <= r <=
    radii[k, -1], by the Duffy map x = q + u*p(v), p(v) = (1-v)*(a-q) +
    v*(b-q): v split where |p(v)| crosses a circle r = radii[k, i], u at
    each circle; n_angular rays per piece.  ``near`` (F, 2, 2, 2), if
    given, holds per fan the (start, end) of two edges facing q of a
    triangle T whose far edge a -> b is (the second edge the first again
    where T has one): a ray then starts where it enters T, u_in(v) = the
    largest det(s - q, t - s) / det(p(v), t - s) over those edges s -> t,
    so the fan covers T's part of its angle, and v is also split at the
    ray through T's middle vertex (where two edges meet) and where a
    circle crosses an edge facing q.  f is singular at q, so a
    radial segment [r0, r1] (r1 its farthest ray's end) takes n_radial
    nodes if its ``_log_rho`` is at least that of the default cutoff band
    [R/8, R], and otherwise n_radial * ln(rho_band) / ln(rho), which keeps
    rho**(-2n) where n_radial nodes put it on that band.  Along a ray
    theta is fixed, r = u*|p| and a hat is affine, so a hat's integral over
    a (piece, segment) is hat(q)*m0 + grad(hat).m1: m0, m1 the sums of w*f,
    w*f*(x - q), signed like det(a-q, b-q).  Yields (fan, m0, m1) of shapes
    (n,), (rows, n), (rows, 2, n): Gauss-Legendre segments, then the
    segments from the corner (radii[k, 0] = 0), where row i is
    c*r**(-gammas[i]) or 0 and its moments take closed forms.  The radial
    values go in blocks of at most _BLOCK_VALUES (rows x points), or one
    segment."""
    q = np.asarray(basis.origin)
    d, e = a - q, b - a
    two_area = _cross(d, e)
    cuts = [np.zeros((len(d), 1)), np.ones((len(d), 1)),
            _circle_crossings(d, e, radii)]
    if near is not None:
        cuts.append(_near_cuts(q, d, e, near, radii))
    cuts = np.sort(np.concatenate(cuts, axis=1), axis=1)     # nan sorts last
    fan, piece = np.nonzero(cuts[:, 1:] > cuts[:, :-1])
    v0 = cuts[fan, piece]
    dv = cuts[fan, piece + 1] - v0

    xa, wa = _gauss(n_angular)
    v = v0[:, None] + dv[:, None] * (0.5 * (xa + 1.0))          # (P, A)
    p = d.T[:, fan, None] + v * e.T[:, fan, None]              # (2, P, A)
    rho = np.hypot(*p)
    _, theta = basis.local_polar((q[:, None, None] + p).reshape(2, -1).T)
    phi = angular(theta.reshape(rho.shape)) * (0.5 * two_area[fan, None]
                                               * dv[:, None] * wa)

    def ray_moments(pi, u, w0, w1):     # u (n, A, L); w0, w1 broadcast to f
        f = radial(u * rho[pi, :, None])                   # (rows, n, A, L)
        ray0 = (w0 * f).sum(axis=-1) * phi[:, pi]
        ray1 = (w1 * f).sum(axis=-1) * phi[:, pi]
        return ray0.sum(axis=-1), (ray1[:, None] * p[:, pi]).sum(axis=-1)

    def blocks(n_pieces, n_nodes):
        step = max(1, _BLOCK_VALUES // (len(phi) * n_angular * n_nodes))
        for s in range(0, n_pieces, step):
            yield slice(s, s + step)

    u_in = np.zeros(rho.shape)      # where each ray enters its triangle
    if near is not None:
        for k in (0, 1):
            s, t = near[fan, k, 0], near[fan, k, 1]
            u_in = np.maximum(u_in, _cross(s - q, t - s)[:, None]
                              / (p[0] * (t - s)[:, 1, None]
                                 - p[1] * (t - s)[:, 0, None]))
    u_at = np.clip(radii[fan][:, None, :] / rho[..., None], u_in[..., None], 1.0)
    corner = radii[fan, 0] == 0.0
    live = (u_at[..., 1:] > u_at[..., :-1]).any(axis=1)       # (P, S)
    live[corner, 0] = False     # the segment from the corner: closed form
    pi, si = np.nonzero(live)
    # a live segment has a ray past its inner circle, so r1 > r0
    r0 = radii[fan[pi], si]
    r1 = np.minimum(radii[fan[pi], si + 1], rho[pi].max(axis=1))
    # n_radial nodes on the default band [R/8, R] set the error
    n_seg = np.ceil(n_radial * _log_rho(1.0, 8.0) / _log_rho(r0, r1))
    n_seg = np.maximum(n_radial, n_seg).astype(int)
    for n in np.flatnonzero(np.bincount(n_seg)):
        xl, wl = _gauss(int(n))
        tl, wl = 0.5 * (xl + 1.0), 0.5 * wl
        sub = np.flatnonzero(n_seg == n)
        m0, m1 = np.empty((len(phi), len(sub))), np.empty((len(phi), 2, len(sub)))
        for blk in blocks(len(sub), int(n)):
            pb, sb = pi[sub[blk]], si[sub[blk]]
            u0, u1 = u_at[pb, :, sb, None], u_at[pb, :, sb + 1, None]
            u = u0 + (u1 - u0) * tl
            w = (u1 - u0) * wl * u
            m0[:, blk], m1[:, :, blk] = ray_moments(pb, u, w, w * u)
        yield fan[pi[sub]], m0, m1
    # on the corner segment [0, U], row i is f = c*(u*|p|)**(-gamma_i): the
    # moments of u*f and u*u*f are f(U/2)*2**-gamma_i times U**2/(2-gamma_i),
    # U**3/(3-gamma_i), the scalars formed in Python floats per row.  A row
    # that is 0 there (lap(chi*s): chi' = chi'' = 0) takes any weight.
    per_row = np.array([(2.0**-gamma, 2.0 - gamma, 3.0 - gamma)
                        for gamma in gammas])
    scale, den2, den3 = per_row.T[..., None, None, None]
    pi = np.flatnonzero(corner)
    m0, m1 = np.empty((len(phi), len(pi))), np.empty((len(phi), 2, len(pi)))
    for blk in blocks(len(pi), 1):
        u_end = u_at[pi[blk], :, 1, None]   # where each corner segment ends
        w = scale * u_end**2
        m0[:, blk], m1[:, :, blk] = ray_moments(
            pi[blk], 0.5 * u_end, w / den2, w * u_end / den3)
    yield fan[pi], m0, m1


def _graded_integrate(mesh: TriMesh, basis: SingularBasis, radial, angular,
                      gammas, radii) -> np.ndarray:
    """Integrate len(gammas) integrands radial(r) * angular(theta) in the
    polar frame of ``basis`` (each callable gives (rows, *shape) values),
    supported in radii[0] <= r <= radii[-1] and smooth between consecutive
    radii, against all P1 hats: a (rows, n_nodes) array, one load per row.
    On the corner fans' first segment [0, radii[1]] row i is
    c*r**(-gammas[i]) or 0.  Triangles at q or straddling a circle r = c,
    c > 0 one of ``radii``, go through the fan rule: at q the fan from q
    over the edge opposite q, away from q the fans over the edges facing
    away from q, each ray starting on the edges facing q.  The rest go
    through one collapsed rule each, at the order its distance to q asks
    for."""
    q = np.asarray(basis.origin)
    node_d = np.linalg.norm(mesh.nodes - q, axis=1)
    # a triangle meeting r < radii[-1] has a vertex within radii[-1] + h_max.
    # The geometry of those is formed per chunk of triangles, and only the
    # scalars the rules read are kept: per fan triangle its index, distance
    # dist_T to q, farthest vertex r_max_T, node divisor (below) and whether
    # it is at q, per collapsed triangle its index and order.
    reach = radii[-1] + mesh.max_edge_length()
    fans, cells = [], []
    step = max(1, _BLOCK_VALUES // 6)
    for s in range(0, mesh.n_triangles, step):
        tri_d = node_d[mesh.triangles[s:s + step]]
        near = np.flatnonzero(tri_d.min(axis=1) < reach)
        tri_d = tri_d[near]
        near += s
        tri_pts = mesh.nodes[mesh.triangles[near]]
        h = np.max([np.sqrt(((tri_pts[:, k] - tri_pts[:, k - 1]) ** 2).sum(axis=1))
                    for k in range(3)], axis=0)
        dist = np.min([_segment_dist(q, tri_pts[:, i], tri_pts[:, (i + 1) % 3])
                       for i in range(3)], axis=0)
        r_max = tri_d.max(axis=1)
        support = (dist < radii[-1]) & (r_max > radii[0])
        corner = support & (tri_d < 1e-12).any(axis=1)
        fan = corner.copy()
        for c in radii:     # r = 0 adds none: dist >= 0
            fan |= support & (dist < c) & (r_max > c)
        # fans of a triangle away from q take 1/k of the corner fans' nodes,
        # k = dist_T // h_T clipped to 1..3 (see the fan rule below)
        div = np.where(corner, 1, np.clip(dist // h, 1, 3)).astype(int)
        fans.append((near[fan], dist[fan], r_max[fan], div[fan], corner[fan]))
        pick = support & ~fan
        cells.append((near[pick],
                      np.ceil(ORDER_TARGET
                              / np.arcsinh(2.0 * dist[pick] / h[pick])).astype(int)))
    fan_tri, dist, r_max, div, at_q = map(np.concatenate, zip(*fans))
    cells, order = map(np.concatenate, zip(*cells))

    n_rows = len(gammas)
    out = np.zeros((n_rows, mesh.n_nodes))

    def scatter(rows, tri):     # per row of out, per-triangle (T, 3) -> nodes
        nodes = mesh.triangles[tri].ravel()
        for load, row in zip(out, rows):
            np.add.at(load, nodes, row.ravel())

    # fan rule over the edges (a, b) of T facing away from q, det(a - q,
    # b - q) > 0: at q the one opposite q, with the fan from q; away from q
    # one or two, each fan's rays starting on the edges facing q, det < 0
    # (an edge in line with q is neither).  T lies in dist_T <= r <=
    # r_max_T, so its fans' radii are clipped to that range, padded by a
    # relative 1e-9 so that a clipped end adds no v-split.  A straddling
    # triangle's radial segments are then O(h_T) long, and its fans span an
    # angle of about h_T/dist_T seen from q; that ratio bounds the strip
    # where the integrand is analytic in u and v, so they take 1/k of the
    # corner fans' nodes, k = dist_T // h_T clipped to 1..3.
    lo = np.maximum(radii[0], (1.0 - 1e-9) * dist)
    hi = np.minimum(radii[-1], (1.0 + 1e-9) * r_max)
    nxt = [1, 2, 0]
    for from_q, k in ((True, 1), (False, 1), (False, 2), (False, 3)):
        idx = np.flatnonzero(at_q if from_q else ~at_q & (div == k))
        tris, lo_t, hi_t = fan_tri[idx], lo[idx], hi[idx]
        tri_pts = mesh.nodes[mesh.triangles[tris]]
        rel = tri_pts - q
        side = rel[..., 0] * rel[:, nxt, 1] - rel[..., 1] * rel[:, nxt, 0]
        owner, edge = np.nonzero(side > 0)
        a, b = tri_pts[owner, edge], tri_pts[owner, (edge + 1) % 3]
        near = None
        if not from_q:
            # the edges after and before the far edge, where they face q;
            # where one of them does, it fills both slots
            after, before = (edge + 1) % 3, (edge + 2) % 3
            faces_a, faces_b = side[owner, after] < 0, side[owner, before] < 0
            ends = np.stack([np.where(faces_a, after, before),
                             np.where(faces_b, before, after)], axis=1)
            near = tri_pts[owner[:, None, None], (ends[..., None] + [0, 1]) % 3]
        for s in range(0, len(owner), _FAN_CHUNK):
            sl = slice(s, s + _FAN_CHUNK)
            fan_radii = np.clip(np.asarray(radii, dtype=float),
                                lo_t[owner[sl], None], hi_t[owner[sl], None])
            for j, m0, m1 in _fan_moments(basis, a[sl], b[sl], fan_radii, radial,
                                          angular, gammas,
                                          max(N_RADIAL // k, 1),
                                          max(N_ANGULAR // k, 1),
                                          None if near is None else near[sl]):
                own = owner[sl][j]
                # T's barycentric map applied to the moments about corner 0;
                # the edges opposite corners 2 and 1 are p1 - p0 and p0 - p2
                pts = tri_pts[own]
                rel = m0[:, None] * (q - pts[:, 0]).T + m1
                e1, e2 = (pts[:, 1] - pts[:, 0]).T, (pts[:, 0] - pts[:, 2]).T
                det = 2.0 * mesh.areas[tris[own]]
                l2 = (rel[:, 1] * e2[0] - rel[:, 0] * e2[1]) / det
                l3 = (e1[0] * rel[:, 1] - e1[1] * rel[:, 0]) / det
                scatter(np.stack([m0 - l2 - l3, l2, l3], axis=-1), tris[own])

    # collapsed rule, one leaf per triangle; a triangle off q has dist >= h/2
    # on the meshes the program builds, so the order stays at most
    # ceil(ORDER_TARGET / asinh(1)).  Each batch forms at most _BLOCK_VALUES
    # radial values whatever the leaves' order.
    for n in np.flatnonzero(np.bincount(order)):
        lam, w = _collapsed_rule(int(n))
        # one (1, points) @ (points, 3) product per row and triangle: one
        # matmul over the batch would round by where it tiles the batch
        corner_w = lam * w[:, None]
        pick = cells[order == n]
        step = max(1, _BLOCK_VALUES // (n_rows * len(w)))
        for s in range(0, len(pick), step):
            tri = pick[s:s + step]
            pts = mesh.nodes[mesh.triangles[tri]]
            r, theta = basis.local_polar((lam @ pts).reshape(-1, 2))
            vals = (radial(r) * angular(theta)).reshape(n_rows, len(tri), 1, -1)
            # (n_rows, T, 3) loads of the triangle's corners
            scatter((vals @ corner_w)[..., 0, :] * mesh.areas[tri][:, None], tri)
    return out


def corner_loads(mesh: TriMesh, bases: list[SingularBasis]):
    """The load vectors of lap(chi*s) and of chi*s against the P1 hats for
    every basis of one corner, from one quadrature pass (see the module
    docstring): two (k, n_nodes) arrays, row i for bases[i]."""
    if len({(b.origin, b.frame_angle, b.omega, b.cutoff) for b in bases}) > 1:
        raise ValueError("corner_loads takes the bases of one corner")
    first, k = bases[0], len(bases)
    spec = first.cutoff

    def radial(r):
        # rows 0..k-1: lap(chi*s) = (chi'' + (1 - 2*beta)*chi'/r) * s (s is
        # harmonic), 0 on [0, tau*R]; rows k..2k-1: chi*s
        c0, c1, c2 = chi_derivs(r, spec)
        out = np.empty((2 * k, *r.shape))
        for i, basis in enumerate(bases):
            r_beta = r ** (-basis.beta)
            lap = np.multiply(c1, 1.0 - 2.0 * basis.beta, out=out[i])
            lap /= r
            lap += c2
            lap *= r_beta
            np.multiply(c0, r_beta, out=out[k + i])
        return out

    def angular(theta):
        return np.array([basis.angular(theta) for basis in bases] * 2)

    loads = _graded_integrate(mesh, first, radial, angular,
                              [b.beta for b in bases] * 2,
                              (0.0, spec.inner, spec.R))
    return loads[:k], loads[k:]


def load_singular(mesh: TriMesh, basis: SingularBasis) -> np.ndarray:
    """The load of lap(chi*s): the one-basis view of ``corner_loads``."""
    return corner_loads(mesh, [basis])[0][0]


def load_chi_s(mesh: TriMesh, basis: SingularBasis) -> np.ndarray:
    """The load of chi*s: the one-basis view of ``corner_loads``."""
    return corner_loads(mesh, [basis])[1][0]


def angular_product(basis_a: SingularBasis, basis_b: SingularBasis) -> float:
    """Integral of Phi_a * Phi_b over (0, omega), with
    Phi = cos(beta*theta - phase), phase pi/2 for sin."""
    omega = basis_a.omega

    def int_cos(k, phase):      # integral of cos(k*theta - phase)
        return (math.cos(phase) * omega * np.sinc(k * omega / math.pi)
                + math.sin(phase) * 0.5 * k * omega**2
                * np.sinc(k * omega / (2.0 * math.pi))**2)

    pa, pb = (0.5 * math.pi * (b.trig == "sin") for b in (basis_a, basis_b))
    ba, bb = basis_a.beta, basis_b.beta
    return float(0.5 * (int_cos(ba - bb, pa - pb) + int_cos(ba + bb, pa + pb)))


def inner_chi_s_pair(mesh: TriMesh, basis_a: SingularBasis,
                     basis_b: SingularBasis) -> float:
    """Integral of (chi*s_a)(chi*s_b) over the domain of ``mesh``, R below
    the corner's clearance: the angular product times the integral of
    chi**2 * r**(1 - gamma), gamma = beta_a + beta_b, closed on [0, tau*R];
    the band's Gauss rule takes 5 nodes for chi**2 (degree 10) and
    ORDER_TARGET / ln(rho), rho the band's Bernstein parameter of r = 0."""
    if len({(b.origin, b.frame_angle, b.omega, b.cutoff)
            for b in (basis_a, basis_b)}) > 1:
        raise ValueError("inner_chi_s_pair takes the bases of one corner")
    spec, gamma = basis_a.cutoff, basis_a.beta + basis_b.beta
    if spec.R >= clearance(mesh.domain, basis_a.origin):
        raise ValueError("the pair integral does not separate: R >= clearance")
    x, w = _gauss(5 + math.ceil(ORDER_TARGET / _log_rho(spec.tau, 1.0)))
    half = 0.5 * (spec.R - spec.inner)
    r = spec.inner + half * (x + 1.0)
    band = half * float(w @ (chi(r, spec) ** 2 * r ** (1.0 - gamma)))
    return (spec.inner ** (2.0 - gamma) / (2.0 - gamma) + band) \
        * angular_product(basis_a, basis_b)
