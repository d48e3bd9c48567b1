"""References for ``singular.inner_chi_s_pair`` and ``singular.clearance``.

- ``pair_fan_rule`` is the fan rule the pair integral used before it took
  its separable form: the signed sum of the fan rule over the triangles
  (q, a, b) of the domain's edges a -> b away from q, which tile the
  domain when it is star-shaped from q.  It needs no separation, only
  enough angular nodes: a fan over a long edge close to q (the hexagon of
  ``tests/test_singular.py``) needs more than 24.
- ``radial_composite`` integrates chi**2 * r**(1 - gamma) over (0, R) by
  a geometric composite Gauss rule on the band [tau*R, R].
- ``disk_in_sector`` says whether B(q, R) meets the domain only inside the
  corner sector, checked edge by edge.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from biharmfem.singular import SingularBasis, _fan_moments, _segment_dist, chi


def _edges(domain):
    a = domain.vertices
    return a, np.roll(a, -1, axis=0)            # edge i runs a[i] -> b[i]


def disk_in_sector(domain, basis: SingularBasis) -> bool:
    """True when B(q, R) meets the domain only inside the corner sector:
    both edges at q are at least R long and every other edge is at least
    R from q."""
    q, R = np.array(basis.origin), basis.cutoff.R
    a, b = _edges(domain)
    at_q = (np.linalg.norm(a - q, axis=1) < 1e-12) \
        | (np.linalg.norm(b - q, axis=1) < 1e-12)
    return bool(at_q.sum() == 2
                and np.all(np.linalg.norm(b - a, axis=1)[at_q] >= R)
                and np.all(_segment_dist(q, a[~at_q], b[~at_q]) >= R))


def pair_fan_rule(domain, basis_a: SingularBasis, basis_b: SingularBasis,
                  n_radial: int = 48, n_angular: int = 96) -> float:
    """The pair integral by the fan rule over the domain's edges away from
    q, with radial splits at 0, tau*R and R, closed-form corner segments,
    and n_radial x n_angular nodes per segment and angular piece."""
    spec, gamma = basis_a.cutoff, basis_a.beta + basis_b.beta

    def radial(r):      # one integrand, singular like r**(-gamma)
        return (chi(r, spec) ** 2 * r ** (-gamma))[None]

    def angular(theta):
        return (basis_a.angular(theta) * basis_b.angular(theta))[None]

    q = np.array(basis_a.origin)
    a, b = _edges(domain)
    away = (np.linalg.norm(a - q, axis=1) > 1e-12) \
        & (np.linalg.norm(b - q, axis=1) > 1e-12)
    radii = np.tile((0.0, spec.inner, spec.R), (int(away.sum()), 1))
    return math.fsum(float(m0.sum()) for _, m0, _ in _fan_moments(
        basis_a, a[away], b[away], radii, radial, angular, [gamma],
        n_radial, n_angular))


def radial_composite(spec, gamma: float, panels: int = 400) -> float:
    """Integral of chi**2 * r**(1 - gamma) over (0, R): the closed form on
    [0, tau*R] plus a 30-point Gauss rule on each of ``panels`` panels of
    the band, their ends in geometric progression from tau*R to R."""
    x, w = leggauss(30)
    ends = spec.inner * (spec.R / spec.inner) ** (np.arange(panels + 1) / panels)
    lo, hi = ends[:-1, None], ends[1:, None]
    r = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
    band = 0.5 * (hi - lo) * w * chi(r, spec) ** 2 * r ** (1.0 - gamma)
    return spec.inner ** (2.0 - gamma) / (2.0 - gamma) + math.fsum(band.ravel())
