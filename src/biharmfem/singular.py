"""Corner singular functions, the radial cutoff, and singular quadrature.

A corner q with interior angle omega contributes harmonic functions
``s = r**(-beta) * trig(beta*theta)`` in the local polar frame of the
corner.  They are localized by a radial quintic cutoff ``chi`` equal to 1
inside r = tau*R and 0 beyond r = R.  Quadrature:

- Loads of lap(chi*s) and chi*s against the P1 hats, for every basis of a
  corner, come from one pass (``corner_loads``) over integrands that are
  a radial factor of r times an angular factor of theta.  Triangles at q
  and triangles straddling the radial kinks r = tau*R and r = R (chi is
  only C^2 there) use the fan rule: a triangle is the signed sum of the
  triangles (q, a, b) over its edges, each Duffy-mapped with its radial
  variable split at 0, tau*R and R and its angular variable split where
  the edge a->b crosses a circle, so each piece is smooth.  A ray of a
  piece takes one angular value and two radial moments, which give every
  hat's load since a hat is affine along the ray.  On the corner fans'
  singular segment [0, tau*R] chi = 1, so the ray moments are closed
  forms.  A radial segment takes more nodes where q is near it relative
  to its length, as the corner fans' [tau*R, R] at small tau.  A
  straddling triangle's fans are clipped to its own radial range, so they
  are short and thin and take fewer nodes.  Every other triangle takes
  one collapsed Gauss rule.  The integrand is analytic away from q, so the
  rule's order is the one the triangle's width-to-distance ratio needs
  (see ``GradedQuadratureOptions``); a mesh triangle off q is at least
  half as far from q as it is wide, which bounds the order.  Both rules
  form at most ``_BLOCK_VALUES`` integrand values (rows x points, 128 KiB)
  at once, and chi takes every point without a mask, so the pass's
  transients are a few such blocks besides its per-triangle arrays of the
  triangles near q: a traced peak of 0.98 MiB at IV/B3 level 2 and of
  1.73 MiB at III/B5 level 4.
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
import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import (GRID_BOUND, PolygonDomain, classify_vertex,
                       singular_exponents)
from .mesh import TriMesh

# integrand values (rows x points) the pass forms at once, by either rule
_BLOCK_VALUES = 16384
_FAN_CHUNK = 256      # fan edges whose rays are formed at once


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
        r = np.hypot(dx, dy)
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
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _collapsed_rule(n: int):
    """Gauss rule on the reference triangle via the square-collapse map;
    exact for polynomials of total degree 2n-2.  Barycentric points and
    weights normalized to sum to 1."""
    x, w = _gauss(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    U, V = np.meshgrid(u, u, indexing="ij")
    WU, WV = np.meshgrid(wu, wu, indexing="ij")
    lam = np.stack([1.0 - U, U * (1.0 - V), U * V], axis=-1).reshape(-1, 3)
    weights = (2.0 * WU * WV * U).reshape(-1)
    return lam, weights


def _log_rho(r0, r1):
    """ln(rho), rho the Bernstein-ellipse parameter of r = 0 seen from the
    segment [r0, r1], 0 < r0 < r1: an n-point Gauss rule on it integrates
    a function analytic but at r = 0 to an error like rho**(-2n)."""
    return np.arccosh((r1 + r0) / (r1 - r0))


def _segment_dist(q, a, b) -> np.ndarray:
    """Distance from the point q to each segment a[k] -> b[k]."""
    ab = b - a
    t = np.einsum("kd,kd->k", q - a, ab) / np.einsum("kd,kd->k", ab, ab)
    proj = a + np.clip(t, 0.0, 1.0)[:, None] * ab
    return np.linalg.norm(proj - q, axis=1)


def clearance(domain: PolygonDomain, q) -> float:
    """Distance from the vertex q to the nearest edge not ending at q: a
    disk r < R below it meets the domain in exactly the corner's sector."""
    a, b = domain.vertices, np.roll(domain.vertices, -1, axis=0)
    away = (a != q).any(axis=1) & (b != q).any(axis=1)
    return float(_segment_dist(np.asarray(q), a[away], b[away]).min())


@dataclass(frozen=True)
class GradedQuadratureOptions:
    # a triangle of diameter h at distance dist from q, off the fan rule,
    # takes the collapsed Gauss rule of order n = ceil(order_target /
    # ln(rho)), where rho = 2*dist/h + sqrt((2*dist/h)**2 + 1) is its
    # Bernstein-ellipse parameter seen from q: its error decays like
    # rho**(-2n) <= exp(-2*order_target)
    order_target: float = 22.0
    # fan-rule nodes per radial segment and angular piece of the corner fans;
    # fans of triangles away from q take 1/2 or 1/3 (all while h_T > dist_T/2);
    # a segment relatively nearer q than [R/8, R] takes more (_fan_moments)
    n_radial: int = 24
    n_angular: int = 24

    def __post_init__(self):
        rules = {
            "order_target": (numbers.Real, lambda v: 0 < v < math.inf,
                             "finite and positive"),
            "n_radial": (numbers.Integral, lambda v: v >= 1, "an integer >= 1"),
            "n_angular": (numbers.Integral, lambda v: v >= 1, "an integer >= 1"),
        }
        for name, (kind, ok, what) in rules.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind) \
                    or not ok(value):
                raise ValueError(f"GradedQuadratureOptions.{name} must be "
                                 f"{what}, got {value!r}")


def _fan_moments(basis: SingularBasis, a, b, radii, radial, angular, gammas,
                 n_radial: int, n_angular: int):
    """Moments of f = radial(r, gamma) * angular(theta) over the triangles
    (q, a[k], b[k]), q = basis.origin, within radii[k, 0] <= r <=
    radii[k, -1], by the Duffy map x = q + u*p(v), p(v) = (1-v)*(a-q) +
    v*(b-q): v split where |p(v)| crosses a circle r = radii[k, i], u at
    each circle; n_angular rays per piece.  f is singular at q, so a
    radial segment [r0, r1] (r1 its farthest ray's end) takes n_radial
    nodes if its ``_log_rho`` is at least that of the default cutoff band
    [R/8, R], and otherwise n_radial * ln(rho_band) / ln(rho), which keeps
    rho**(-2n) where n_radial nodes put it on that band.  Along a ray
    theta is fixed, r = u*|p| and a hat is affine, so a hat's integral over
    a (piece, segment) is hat(q)*m0 + grad(hat).m1: m0, m1 the sums of w*f,
    w*f*(x - q), signed like det(a-q, b-q).  Yields (fan, m0, m1) of shapes
    (n,), (rows, n), (rows, 2, n): Gauss-Legendre segments, then per gamma
    the segments from the corner (radii[k, 0] = 0), where each row is
    c*r**(-gamma) and its moments take closed forms.  The radial values
    go in blocks of at most _BLOCK_VALUES (rows x points), or one segment."""
    q = np.asarray(basis.origin)
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
    p = d.T[:, fan, None] + v * e.T[:, fan, None]              # (2, P, A)
    rho = np.hypot(*p)
    _, theta = basis.local_polar((q[:, None, None] + p).reshape(2, -1).T)
    phi = angular(theta.reshape(rho.shape)) * (0.5 * two_area[fan, None]
                                               * dv[:, None] * wa)

    def ray_moments(pi, u, w0, w1, gamma):     # u, w0, w1: (n, A, L)
        f = radial(u * rho[pi, :, None], gamma)            # (rows, n, A, L)
        ray0 = (w0 * f).sum(axis=-1) * phi[:, pi]
        ray1 = (w1 * f).sum(axis=-1) * phi[:, pi]
        return ray0.sum(axis=-1), (ray1[:, None] * p[:, pi]).sum(axis=-1)

    def blocks(n_pieces, n_nodes):
        step = max(1, _BLOCK_VALUES // (len(phi) * n_angular * n_nodes))
        for s in range(0, n_pieces, step):
            yield slice(s, s + step)

    u_at = np.minimum(radii[fan][:, None, :] / rho[..., None], 1.0)
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
            m0[:, blk], m1[:, :, blk] = ray_moments(pb, u, w, w * u, None)
        yield fan[pi[sub]], m0, m1
    # on the corner segment [0, U], f = c*(u*|p|)**(-gamma): the moments of
    # u*f and u*u*f are f(U/2)*2**-gamma times U**2/(2-gamma), U**3/(3-gamma)
    pi = np.flatnonzero(corner)
    for gamma in gammas:
        m0, m1 = np.empty((len(phi), len(pi))), np.empty((len(phi), 2, len(pi)))
        for blk in blocks(len(pi), 1):
            u_end = u_at[pi[blk], :, 1, None]   # where each corner segment ends
            w = 2.0**-gamma * u_end**2
            m0[:, blk], m1[:, :, blk] = ray_moments(
                pi[blk], 0.5 * u_end, w / (2.0 - gamma),
                w * u_end / (3.0 - gamma), gamma)
        yield fan[pi], m0, m1


def _graded_integrate(mesh: TriMesh, basis: SingularBasis, radial, angular,
                      n_rows: int, gammas, radii, opts: GradedQuadratureOptions,
                      kinks: tuple = ()) -> np.ndarray:
    """Integrate ``n_rows`` integrands radial(r, gamma) * angular(theta) in
    the polar frame of ``basis`` (each callable gives (n_rows, *shape)
    values), supported in radii[0] <= r <= radii[-1] and smooth between
    consecutive radii, against all P1 hats: an (n_rows, n_nodes) array,
    one load per row.  gamma is None on nodes every row shares; on the
    corner fans' first segment [0, radii[1]] it is one of ``gammas``, and a
    row counts there only if it is c*r**(-gamma) there (radial values 0
    otherwise).  Triangles at q or straddling a circle r = c, c in
    ``kinks``, go through the fan rule; the rest through one collapsed
    rule each, at the order its distance to q asks for."""
    q = np.asarray(basis.origin)
    # a triangle meeting r < radii[-1] has a vertex within radii[-1] + h_max
    node_d = np.linalg.norm(mesh.nodes - q, axis=1)
    near = node_d[mesh.triangles].min(axis=1) < radii[-1] + mesh.max_edge_length()
    triangles = mesh.triangles[near]
    tri_pts = mesh.nodes[triangles]
    edges, area = mesh.triangle_geometry()
    h = np.linalg.norm(edges[near], axis=2).max(axis=1)
    area = area[near]
    dist = np.min([_segment_dist(q, tri_pts[:, i], tri_pts[:, (i + 1) % 3])
                   for i in range(3)], axis=0)
    r_max = node_d[triangles].max(axis=1)
    support = (dist < radii[-1]) & (r_max > radii[0])
    at_corner = node_d[triangles] < 1e-12
    corner = support & at_corner.any(axis=1)
    fan = corner.copy()
    for c in kinks:
        fan |= support & (dist < c) & (r_max > c)

    out = np.zeros((n_rows, mesh.n_nodes))

    def scatter(rows, tri):     # per row of out, per-triangle (T, 3) -> nodes
        nodes = triangles[tri].ravel()
        for load, row in zip(out, rows):
            np.add.at(load, nodes, row.ravel())

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
            for j, m0, m1 in _fan_moments(basis, a[sl], b[sl], fan_radii, radial,
                                          angular, gammas,
                                          max(opts.n_radial // k, 1),
                                          max(opts.n_angular // k, 1)):
                tri = owner[sl][j]
                # T's barycentric map applied to the moments about corner 0;
                # the edges opposite corners 2 and 1 are p1 - p0 and p0 - p2
                rel = m0[:, None] * (q - tri_pts[tri, 0]).T + m1
                pts = tri_pts[tri]
                e1, e2 = (pts[:, 1] - pts[:, 0]).T, (pts[:, 0] - pts[:, 2]).T
                det = 2.0 * area[tri]
                l2 = (rel[:, 1] * e2[0] - rel[:, 0] * e2[1]) / det
                l3 = (e1[0] * rel[:, 1] - e1[1] * rel[:, 0]) / det
                scatter(np.stack([m0 - l2 - l3, l2, l3], axis=-1), tri)

    # collapsed rule, one leaf per triangle; a triangle off q has dist >= h/2
    # on the meshes the program builds, so the order stays at most
    # ceil(order_target / asinh(1)).  Each batch forms at most _BLOCK_VALUES
    # radial values whatever the leaves' order.
    cells = np.flatnonzero(support & ~fan)
    order = np.ceil(opts.order_target
                    / np.arcsinh(2.0 * dist[cells] / h[cells])).astype(int)
    for n in np.flatnonzero(np.bincount(order)):
        lam, w = _collapsed_rule(int(n))
        # one (1, points) @ (points, 3) product per row and triangle: one
        # matmul over the batch would round by where it tiles the batch
        corner_w = lam * w[:, None]
        pick = cells[order == n]
        step = max(1, _BLOCK_VALUES // (n_rows * len(w)))
        for s in range(0, len(pick), step):
            tri = pick[s:s + step]
            r, theta = basis.local_polar((lam @ tri_pts[tri]).reshape(-1, 2))
            vals = (radial(r, None) * angular(theta)).reshape(n_rows, len(tri), 1, -1)
            # (n_rows, T, 3) loads of the triangle's corners
            scatter((vals @ corner_w)[..., 0, :] * area[tri][:, None], tri)
    return out


def corner_loads(mesh: TriMesh, bases: list[SingularBasis],
                 opts: GradedQuadratureOptions | None = None):
    """The load vectors of lap(chi*s) and of chi*s against the P1 hats for
    every basis of one corner, from one quadrature pass (see the module
    docstring): two (k, n_nodes) arrays, row i for bases[i]."""
    opts = opts or GradedQuadratureOptions()
    if len({(b.origin, b.frame_angle, b.omega, b.cutoff) for b in bases}) > 1:
        raise ValueError("corner_loads takes the bases of one corner")
    first, k = bases[0], len(bases)
    spec = first.cutoff

    def radial(r, gamma):
        # rows 0..k-1: lap(chi*s) = (chi'' + (1 - 2*beta)*chi'/r) * s (s is
        # harmonic); rows k..2k-1: chi*s
        c0, c1, c2 = chi_derivs(r, spec)
        out = np.zeros((2 * k, *r.shape))
        for i, basis in enumerate(bases):
            if gamma not in (None, basis.beta):
                continue        # another exponent's rule at the corner
            r_beta = r ** (-basis.beta)
            lap = np.multiply(c1, 1.0 - 2.0 * basis.beta, out=out[i])
            lap /= r
            lap += c2
            lap *= r_beta
            np.multiply(c0, r_beta, out=out[k + i])
        return out

    def angular(theta):
        return np.array([basis.angular(theta) for basis in bases] * 2)

    loads = _graded_integrate(mesh, first, radial, angular, 2 * k,
                              sorted({b.beta for b in bases}),
                              (0.0, spec.inner, spec.R), opts,
                              kinks=(spec.inner, spec.R))
    return loads[:k], loads[k:]


def load_singular(mesh: TriMesh, basis: SingularBasis,
                  opts: GradedQuadratureOptions | None = None) -> np.ndarray:
    """The load of lap(chi*s): the one-basis view of ``corner_loads``."""
    return corner_loads(mesh, [basis], opts)[0][0]


def load_chi_s(mesh: TriMesh, basis: SingularBasis,
               opts: GradedQuadratureOptions | None = None) -> np.ndarray:
    """The load of chi*s: the one-basis view of ``corner_loads``."""
    return corner_loads(mesh, [basis], opts)[1][0]


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
    order_target / ln(rho), rho the band's Bernstein parameter of r = 0."""
    if len({(b.origin, b.frame_angle, b.omega, b.cutoff)
            for b in (basis_a, basis_b)}) > 1:
        raise ValueError("inner_chi_s_pair takes the bases of one corner")
    spec, gamma = basis_a.cutoff, basis_a.beta + basis_b.beta
    if spec.R >= clearance(mesh.domain, basis_a.origin):
        raise ValueError("the pair integral does not separate: R >= clearance")
    x, w = _gauss(5 + math.ceil(GradedQuadratureOptions.order_target
                                / _log_rho(spec.tau, 1.0)))
    half = 0.5 * (spec.R - spec.inner)
    r = spec.inner + half * (x + 1.0)
    band = half * float(w @ (chi(r, spec) ** 2 * r ** (1.0 - gamma)))
    return (spec.inner ** (2.0 - gamma) / (2.0 - gamma) + band) \
        * angular_product(basis_a, basis_b)
