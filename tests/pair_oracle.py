"""Closed form of the Gram pair integral, kept as a test oracle for
``singular.inner_chi_s_pair``.

When the disk B(q, R) meets the domain only inside the corner sector, the
integral of (chi*s_a)*(chi*s_b) over the domain separates in the corner's
polar frame: a radial factor, the integral of chi**2 * r**(1 - gamma)
over (0, R), times the integral of Phi_a * Phi_b over (0, omega).  The
angular factor and the radial factor on [0, tau*R] (chi = 1) are closed
forms; on the band [tau*R, R] the integrand is analytic, and a 64-point
Gauss rule reaches it to roundoff.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from biharmfem.singular import SingularBasis, _segment_dist, chi


def disk_in_sector(domain, basis: SingularBasis) -> bool:
    """True when B(q, R) meets the domain only inside the corner sector:
    both edges at q are at least R long and every other edge is at least
    R from q."""
    q, R = np.array(basis.origin), basis.cutoff.R
    a = domain.vertices
    b = np.roll(a, -1, axis=0)                  # edge i runs a[i] -> b[i]
    at_q = (np.linalg.norm(a - q, axis=1) < 1e-12) \
        | (np.linalg.norm(b - q, axis=1) < 1e-12)
    return bool(at_q.sum() == 2
                and np.all(np.linalg.norm(b - a, axis=1)[at_q] >= R)
                and np.all(_segment_dist(q, a[~at_q], b[~at_q]) >= R))


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


def radial_factor(basis_a: SingularBasis, basis_b: SingularBasis) -> float:
    """Integral of chi**2 * r**(1 - gamma) over (0, R), gamma = beta_a +
    beta_b, for two bases with one cutoff."""
    spec = basis_a.cutoff
    gamma = basis_a.beta + basis_b.beta
    half = 0.5 * (spec.R - spec.inner)
    x, w = leggauss(64)
    r = spec.inner + half * (x + 1.0)
    band = half * float(np.sum(w * chi(r, spec) ** 2 * r ** (1.0 - gamma)))
    return spec.inner ** (2.0 - gamma) / (2.0 - gamma) + band


def pair_closed_form(domain, basis_a: SingularBasis,
                     basis_b: SingularBasis) -> float:
    """The pair integral over ``domain``, which must hold the cutoff disk's
    part of the domain inside the corner sector."""
    if basis_a.cutoff != basis_b.cutoff or not disk_in_sector(domain, basis_a):
        raise ValueError("the pair integral does not separate")
    return radial_factor(basis_a, basis_b) * angular_product(basis_a, basis_b)
