import collections
import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from biharmfem import singular
from biharmfem.geometry import (BC_TYPES, BUILTIN_NAMES, BCType, DomainError,
                                PolygonDomain, builtin_domain, perp_dimension)
from biharmfem.mesh import MeshError, TriMesh, initial_mesh, restrict
from biharmfem.singular import (CutoffSpec, SingularBasis, chi, corner_bases,
                                chi_derivs, corner_loads, inner_chi_s_pair,
                                load_chi_s, load_singular)
import fixed_order_oracle
import pair_oracle
from conftest import mesh_hierarchy, skyline_domains
from jacobi_rule_oracle import jacobi_rule
from worklist_oracle import load_singular_worklist


def lshape_basis(cutoff=None):
    dom = builtin_domain("III", "B1")
    return corner_bases(dom, 0, cutoff)[0]


def hexagon():
    """The all-Dirichlet hexagon whose corner (3, 1) is 1 from the bottom
    edge: a clearance of 1, below the default cutoff radius."""
    return PolygonDomain(np.array([(0, 0), (5, 0), (5, 1), (3, 1), (3, 2),
                                   (0, 2)], dtype=float),
                         (BCType.DIRICHLET,) * 6)


def neumann_basis():
    dom = builtin_domain("III", "B5")
    return corner_bases(dom, 0)[0]


def raw_s(basis, points):
    """The singular function r**(-beta)*Phi(theta) without the cutoff."""
    r, theta = basis.local_polar(points)
    return r ** (-basis.beta) * basis.angular(theta)


def chi_derivs_masked(r, spec):
    """``chi_derivs`` as it was before it went mask-free: the quintic on the
    open band (tau*R, R) only, 1 (chi) or 0 below it and 0 above it."""
    r = np.asarray(r, dtype=float)
    band = (r > spec.inner) & (r < spec.R)
    scale = 2.0 / (spec.R * (1.0 - spec.tau))
    t = scale * r[band] - (1.0 + spec.tau) / (1.0 - spec.tau)
    t2 = t * t
    out = []
    for k in (0, 1, 2):
        c = np.zeros(r.shape)
        if k == 0:
            c[r <= spec.inner] = 1.0
            c[band] = ((-3 / 16 * t2 + 5 / 8) * t2 - 15 / 16) * t + 0.5
        elif k == 1:
            c[band] = ((-15 / 16 * t2 + 15 / 8) * t2 - 15 / 16) * scale
        else:
            c[band] = (-15 / 4 * t2 + 15 / 4) * t * scale**2
        out.append(c)
    return tuple(out)


class TestCutoff:
    @pytest.mark.parametrize("kw", [dict(R=math.inf), dict(R=math.nan),
                                    dict(R=0.0), dict(tau=math.nan)])
    def test_non_finite_or_empty_cutoff_rejected(self, kw):
        with pytest.raises(ValueError):
            CutoffSpec(**kw)

    def test_one_inside_inner_radius(self):
        spec = CutoffSpec()
        assert chi(np.array([0.1 * spec.R]), spec)[0] == 1.0

    def test_zero_outside(self):
        spec = CutoffSpec()
        assert chi(np.array([2.0 * spec.R]), spec)[0] == 0.0

    def test_half_at_band_midpoint(self):
        spec = CutoffSpec()
        r = 0.5 * (1.0 + spec.tau) * spec.R
        assert chi(np.array([r]), spec)[0] == pytest.approx(0.5, abs=1e-14)

    def test_derivatives_match_finite_differences(self):
        spec = CutoffSpec()
        h = 1e-5
        for r in np.linspace(spec.inner + 0.01, spec.R - 0.01, 9):
            c, c1, c2 = (v[0] for v in chi_derivs(np.array([r]), spec))
            stencil = chi(np.array([r - h, r, r + h]), spec)
            fd1 = (stencil[2] - stencil[0]) / (2 * h)
            fd2 = (stencil[2] - 2 * stencil[1] + stencil[0]) / h**2
            assert c1 == pytest.approx(fd1, abs=1e-7)
            assert c2 == pytest.approx(fd2, abs=1e-4)

    def test_derivatives_vanish_off_band(self):
        spec = CutoffSpec()
        for r in (0.05, 0.5 * spec.inner, 1.5 * spec.R):
            c, c1, c2 = chi_derivs(np.array([r]), spec)
            assert c1[0] == 0.0 and c2[0] == 0.0

    def test_matches_power_form_on_random_points(self):
        # the quintic and its derivatives as first written: evaluated on
        # every point in power form, then masked to the band
        rng = np.random.default_rng(5)
        for spec in (CutoffSpec(), CutoffSpec(tau=0.25, R=1.2)):
            r = rng.uniform(0.0, 1.2 * spec.R, 2000)
            scale = 2.0 / (spec.R * (1.0 - spec.tau))
            t = scale * r - (1.0 + spec.tau) / (1.0 - spec.tau)
            below, above = r <= spec.inner, r >= spec.R
            off = below | above
            ref = (
                np.where(below, 1.0, np.where(
                    above, 0.0, -3 / 16 * t**5 + 5 / 8 * t**3 - 15 / 16 * t + 0.5)),
                np.where(off, 0.0, (-15 / 16 * t**4 + 15 / 8 * t**2 - 15 / 16) * scale),
                np.where(off, 0.0, (-15 / 4 * t**3 + 15 / 4 * t) * scale**2),
            )
            got = chi_derivs(r, spec)
            assert len(got) == 3
            for g, ref_k in zip(got, ref):
                assert np.max(np.abs(g - ref_k)) <= 1e-15 * np.max(np.abs(ref_k))
            assert np.array_equal(chi(r, spec), got[0])

    @pytest.mark.parametrize("spec", [CutoffSpec(), CutoffSpec(tau=0.25, R=1.2),
                                      CutoffSpec(tau=0.001, R=1.8),
                                      CutoffSpec(tau=0.9, R=1e-3)])
    def test_mask_free_form_matches_masked_form(self, spec):
        # clipping t to [-1, 1] gives the masked values bit for bit, except
        # within an ulp of a kink, where t rounds off +-1 by an ulp
        kinks = np.array([spec.inner, spec.R])
        near = np.concatenate([kinks, np.nextafter(kinks, 0.0),
                               np.nextafter(kinks, np.inf)])
        far = np.concatenate([[0.0, 0.5 * spec.inner, 1.5 * spec.R, 1e300],
                              np.random.default_rng(3).uniform(0.0, 1.2 * spec.R,
                                                               5000)])
        scale = 2.0 / (spec.R * (1.0 - spec.tau))
        for k in (0, 1, 2):
            (got_far, got_near), (ref_far, ref_near) = (
                [fn(r, spec)[k] for r in (far, near)]
                for fn in (chi_derivs, chi_derivs_masked))
            assert np.array_equal(got_far, ref_far), k
            assert np.all(np.abs(got_near - ref_near) <= 1e-14 * scale**k), k
        # t clipped to -1 and to 1: the quintic's exact end values
        assert chi_derivs(0.0, spec) == (1.0, 0.0, 0.0)
        assert chi_derivs(1e300, spec) == (0.0, 0.0, 0.0)

    def test_scalar_input_gives_floats(self):
        c, c1, c2 = chi_derivs(0.5 * (1.0 + 0.125) * 1.8, CutoffSpec())
        assert isinstance(c, float) and c == pytest.approx(0.5, abs=1e-14)

    def test_continuity_at_band_edges(self):
        spec = CutoffSpec()
        eps = 1e-12
        for r0, val in ((spec.inner, 1.0), (spec.R, 0.0)):
            inside = chi(np.array([r0 - eps, r0 + eps]), spec)
            assert inside[0] == pytest.approx(val, abs=1e-9)
            assert inside[1] == pytest.approx(val, abs=1e-9)


class TestSingularFunction:
    def test_value_at_cone_bisector(self):
        basis = lshape_basis()
        # r = 1, theta = 3 pi / 4: sin(beta * theta) = sin(pi / 2) = 1
        theta = 0.75 * math.pi
        p = np.array([[math.cos(theta), math.sin(theta)]])
        assert raw_s(basis, p)[0] == pytest.approx(1.0, abs=1e-14)

    def test_sin_branch_vanishes_on_leaving_edge(self):
        dom = builtin_domain("III", "B4")
        basis = corner_bases(dom, 0)[0]
        assert basis.trig == "cos"
        dom = builtin_domain("III", "B3")
        basis = corner_bases(dom, 0)[0]
        p = np.array([[0.7, 0.0]])  # on the leaving (Dirichlet) edge
        assert raw_s(basis, p)[0] == pytest.approx(0.0, abs=1e-14)

    def test_cos_branch_has_zero_angular_slope_at_leaving_edge(self):
        basis = corner_bases(builtin_domain("III", "B4"), 0)[0]
        r, eps = 0.7, 1e-6
        v0 = raw_s(basis, np.array([[r * math.cos(eps), r * math.sin(eps)]]))[0]
        v1 = raw_s(basis, np.array([[r * math.cos(2 * eps), r * math.sin(2 * eps)]]))[0]
        assert abs(v1 - v0) / eps < 1e-4

    def test_radial_decay(self):
        basis = lshape_basis()
        theta = 0.75 * math.pi
        d = np.array([math.cos(theta), math.sin(theta)])
        v1 = raw_s(basis, d[None, :] * 0.5)[0]
        v2 = raw_s(basis, d[None, :] * 1.0)[0]
        assert v1 / v2 == pytest.approx(2.0 ** basis.beta, rel=1e-12)


class TestLaplacian:
    def _annulus_points(self, basis, n=100, seed=11):
        rng = np.random.default_rng(seed)
        r = rng.uniform(basis.cutoff.inner + 0.02, basis.cutoff.R - 0.02, n)
        th = rng.uniform(0.05, basis.omega - 0.05, n)
        ca, sa = math.cos(basis.frame_angle), math.sin(basis.frame_angle)
        x = r * np.cos(th + basis.frame_angle)
        y = r * np.sin(th + basis.frame_angle)
        return np.column_stack([x, y]) + basis.origin

    def _fd_laplacian(self, basis, pts, h=1e-4):
        out = np.zeros(len(pts))
        for k, (dx, dy) in enumerate([(h, 0), (-h, 0), (0, h), (0, -h)]):
            out += basis.eval_chi_s(pts + np.array([dx, dy]))
        return (out - 4.0 * basis.eval_chi_s(pts)) / h**2

    def test_zero_inside_inner_circle(self):
        basis = lshape_basis()
        p = np.array([[0.05, 0.05], [-0.08, 0.02]])
        assert np.all(basis.eval_laplacian_chi_s(p) == 0.0)

    def test_zero_outside_cutoff(self):
        basis = lshape_basis()
        p = np.array([[1.9, 0.5], [-1.9, -0.4]])
        assert np.all(basis.eval_laplacian_chi_s(p) == 0.0)

    def test_matches_finite_differences_on_annulus(self):
        basis = lshape_basis()
        pts = self._annulus_points(basis)
        exact = basis.eval_laplacian_chi_s(pts)
        fd = self._fd_laplacian(basis, pts)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(exact - fd)) / scale < 1e-5

    def test_harmonic_inside_inner_circle(self):
        basis = lshape_basis()
        rng = np.random.default_rng(12)
        r = rng.uniform(0.05, basis.cutoff.inner - 0.02, 20)
        th = rng.uniform(0.05, basis.omega - 0.05, 20)
        pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
        fd = self._fd_laplacian(basis, pts, h=1e-5)
        assert np.max(np.abs(fd)) < 1e-2  # truncation-level only


class TestBoundaryCompliance:
    def test_trace_zero_on_dirichlet_sides(self):
        basis = lshape_basis()  # both sides Dirichlet
        for theta in (1e-12, basis.omega - 1e-12):
            r = np.linspace(0.1, 1.7, 7)
            p = np.column_stack([r * math.cos(theta), r * math.sin(theta)])
            assert np.max(np.abs(basis.eval_chi_s(p))) < 1e-10

    def test_zero_beyond_cutoff_boundary(self):
        basis = lshape_basis()
        p = np.array([[2.0, 1.5], [-2.0, 0.3], [1.0, 2.0]])
        assert np.all(basis.eval_chi_s(p) == 0.0)

    def test_neumann_angular_derivative_zero(self):
        basis = neumann_basis()
        r, eps = 0.9, 1e-6
        for th0 in (0.0, basis.omega):
            sgn = 1.0 if th0 == 0.0 else -1.0
            v0 = raw_s(basis, np.array(
                [[r * math.cos(th0 + sgn * eps), r * math.sin(th0 + sgn * eps)]]))[0]
            v1 = raw_s(basis, np.array(
                [[r * math.cos(th0 + 2 * sgn * eps), r * math.sin(th0 + 2 * sgn * eps)]]))[0]
            assert abs(v1 - v0) / eps < 1e-4


class TestSingularLoads:
    def test_neumann_load_integrates_to_zero(self):
        m = mesh_hierarchy(builtin_domain("III", "B5"), 3)[-1]
        b = load_singular(m, neumann_basis())
        assert abs(b.sum()) < 1e-12

    def test_load_supported_in_annulus(self):
        m = mesh_hierarchy(builtin_domain("III", "B1"), 3)[-1]
        basis = lshape_basis(CutoffSpec(tau=0.125, R=0.9))
        b = load_singular(m, basis)
        far = np.linalg.norm(m.nodes, axis=1) > 0.9 + 2 * m.max_edge_length()
        assert np.max(np.abs(b[far])) == 0.0
        near = np.linalg.norm(m.nodes, axis=1) < 0.125 * 0.9 - m.max_edge_length()
        assert np.max(np.abs(b[near]), initial=0.0) == 0.0

    def test_load_self_convergence(self):
        meshes = mesh_hierarchy(builtin_domain("III", "B1"), 3)
        basis = lshape_basis()
        smooth = lambda nodes: np.cos(nodes[:, 0]) * nodes[:, 1]
        vals = [load_singular(m, basis) @ smooth(m.nodes) for m in meshes]
        errs = [abs(v - vals[-1]) for v in vals[:-1]]
        assert errs[1] < errs[0] and errs[2] < errs[1]


class TestFanRule:
    @pytest.mark.parametrize("name,bc", [("IV", "B3"), ("III", "B5")])
    def test_matches_kink_worklist(self, name, bc):
        dom = builtin_domain(name, bc)
        for m in mesh_hierarchy(dom, 1):
            for basis in corner_bases(dom, 0):
                ref = load_singular_worklist(m, basis)
                got = load_singular(m, basis)
                assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_corner_triangles_crossing_cutoff_circles(self):
        # at tau*R = 0.3, R = 1.2 the far edges of the corner triangles at
        # levels 0 and 2 cross a cutoff circle, so the angular split matters
        dom = builtin_domain("III", "B1")
        basis = lshape_basis(CutoffSpec(tau=0.25, R=1.2))
        for m in mesh_hierarchy(dom, 2):
            for load in (load_singular, load_chi_s):
                with mock.patch.multiple(singular, **REF):
                    ref = load(m, basis)
                got = load(m, basis)
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("corners", [
        [(0.20, 0.05), (0.45, 0.10), (0.25, 0.40)],      # crosses r = tau*R
        [(0.3007, -0.1), (0.3007, 0.2), (0.10, 0.15)],   # one edge 7e-4 off it
        [(1.00, 0.30), (1.45, 0.20), (1.10, 0.75)],      # crosses r = R ...
        [(1.00, 0.20), (1.40, 0.20), (1.10, 0.55)],      # ... at dist_T/h_T
        [(1.15, 0.10), (1.25, 0.10), (1.20, 0.20)],      # 1.6, 2.2 and 10
        # one far edge: its rays enter through two edges facing q, split at
        # the ray through the middle vertex (0.2, 0.15); r = tau*R cuts both
        [(0.50, 0.10), (0.40, 0.45), (0.20, 0.15)],
        # two far edges, one edge facing q, cut by r = tau*R
        [(0.25, 0.05), (0.60, 0.35), (0.05, 0.30)],
        # an edge in line with q, neither facing q nor away from it
        [(0.20, 0.00), (0.50, 0.00), (0.35, 0.30)],
        # an edge facing q cut by r = tau*R and by r = R
        [(1.30, 0.20), (1.00, 0.80), (0.20, 0.15)],
        # the middle vertex on r = R, the edge after it crossing r = R again
        [(1.60, 0.20), (0.20, 1.60), (0.72, 0.96)],
    ])
    def test_clipped_fans_weigh_triangle_in_annulus(self, corners):
        # with radial and angular factors 1 the fan rule over one triangle
        # away from q gives the area of T within the annulus, against the
        # closed form; the indicator jumps on both circles, the worst case
        # for a clipped fan with fewer nodes.  Every fan is over an edge
        # facing away from q and starts on the edges facing q.
        spec = CutoffSpec(tau=0.25, R=1.2)
        basis = SingularBasis(0.5, "sin", np.zeros(2), 0.0, 1.5 * math.pi, spec)
        mesh = TriMesh(builtin_domain("III", "B1"), np.array(corners),
                       np.array([[0, 1, 2]]), np.zeros((0, 3), dtype=int))
        calls = []
        fan_moments = singular._fan_moments

        def spy(*args):
            calls.append(args[-1] is not None)
            return fan_moments(*args)

        one = lambda x: np.ones((1, *x.shape))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(singular, "_fan_moments", spy)
            area = singular._graded_integrate(
                mesh, basis, one, one, [0.0], (spec.inner, spec.R)).sum()
        assert calls and all(calls)
        exact = sum(_fan_disk_area(np.array(corners[i]),
                                   np.array(corners[(i + 1) % 3]), r) * sgn
                    for i in range(3) for r, sgn in ((spec.R, 1), (spec.inner, -1)))
        assert area == pytest.approx(exact, rel=1e-13)


def _fan_disk_area(a, b, r):
    """Closed-form signed area of the triangle (0, a, b) inside the disk
    |x| <= r: straight pieces of a -> b inside, circular sectors outside."""
    d = b - a
    A, B, C = d @ d, a @ d, a @ a - r * r
    ts = [0.0, 1.0]
    disc = B * B - A * C
    if disc > 0:
        ts += [t for t in ((-B - math.sqrt(disc)) / A, (-B + math.sqrt(disc)) / A)
               if 0.0 < t < 1.0]
    ts.sort()
    area = 0.0
    for t0, t1 in zip(ts[:-1], ts[1:]):
        p0, p1 = a + t0 * d, a + t1 * d
        cross = p0[0] * p1[1] - p0[1] * p1[0]
        if np.linalg.norm(a + 0.5 * (t0 + t1) * d) <= r:
            area += 0.5 * cross
        else:
            area += 0.5 * r * r * math.atan2(cross, p0 @ p1)
    return area


# the reference rule: every part of the default rule at far higher order
REF = dict(ORDER_TARGET=40.0, N_RADIAL=48, N_ANGULAR=48)


@functools.lru_cache(maxsize=None)
def corner_passes(name, bc, cutoff):
    """The bases of corner 0 of a built-in domain and, per level 0-4, the
    mesh and the ``corner_loads`` pass over every basis at the default rule
    and at REF; each reference pass runs once for both test classes."""
    dom = builtin_domain(name, bc)
    bases = corner_bases(dom, 0, cutoff)
    meshes = mesh_hierarchy(dom, 4)
    with mock.patch.multiple(singular, **REF):
        refs = [corner_loads(m, bases) for m in meshes]
    return bases, [(m, corner_loads(m, bases), ref)
                   for m, ref in zip(meshes, refs)]


class TestLoadAccuracy:
    def check(self, name, bc, cutoff):
        _, levels = corner_passes(name, bc, cutoff)
        for m, got, ref in levels:
            for load, got_rows, ref_rows in zip(("load_singular", "load_chi_s"),
                                                got, ref):
                for g, r in zip(got_rows, ref_rows):
                    err = np.max(np.abs(g - r)) / np.max(np.abs(r))
                    assert err <= 1e-12, (m.level, load, err)

    @pytest.mark.parametrize("name,bc", [("IV", "B3"), ("III", "B5"), ("III", "B1")])
    def test_loads_match_high_order_reference(self, name, bc):
        # at tau*R = 0.3, R = 1.2 the cutoff circles cut through many
        # triangles at every level
        self.check(name, bc, CutoffSpec(tau=0.25, R=1.2))

    @pytest.mark.parametrize("name,bc", [("IV", "B3"), ("III", "B5")])
    def test_default_cutoff_loads_match_high_order_reference(self, name, bc):
        # at tau*R = 0.225 the band cells of the second IV/B3 basis need the
        # grading toward q that lap(chi*s) alone does not ask for
        self.check(name, bc, CutoffSpec())


class TestOneQuadraturePass:
    """One corner_loads pass over every basis of a corner: the one-basis
    views are its rows, its Gauss and collapsed rules are built once, and
    the Gauss rules match leggauss and the Jacobi-matrix rule."""

    def test_views_are_rows_of_the_pass(self):
        dom = builtin_domain("IV", "B3")
        bases = corner_bases(dom, 0)
        m = mesh_hierarchy(dom, 2)[-1]
        lap, chi_s = corner_loads(m, bases)
        for i, basis in enumerate(bases):
            assert np.array_equal(load_singular(m, basis), lap[i])
            assert np.array_equal(load_chi_s(m, basis), chi_s[i])

    def test_bases_of_two_corners_rejected(self):
        dom = builtin_domain("IV", "B3")
        a = corner_bases(dom, 0)[0]
        b = corner_bases(dom, 0, CutoffSpec(R=1.2))[0]
        with pytest.raises(ValueError, match="one corner"):
            corner_loads(mesh_hierarchy(dom, 0)[0], [a, b])

    def test_gauss_rules_computed_once_and_read_only(self, monkeypatch):
        calls = []

        def spy(n, fn=singular._legendre_rule):
            calls.append(n)
            return fn(n)
        monkeypatch.setattr(singular, "_legendre_rule", spy)
        singular._gauss.cache_clear()
        singular._collapsed_rule.cache_clear()
        dom = builtin_domain("IV", "B3")
        for m in mesh_hierarchy(dom, 2):
            corner_loads(m, corner_bases(dom, 0))
        # 24, 12 and 8 nodes on the fans, 8 to 13, 16 and 20 for the
        # collapsed rule (20 at h/dist = sqrt(2), the nearest triangles off
        # q); the corner segments take closed forms
        assert sorted(calls) == [8, 9, 10, 11, 12, 13, 16, 20, 24]
        x, w = singular._gauss(24)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0
        singular._gauss.cache_clear()
        singular._collapsed_rule.cache_clear()

    def test_collapsed_rules_computed_once_and_read_only(self):
        rule = singular._collapsed_rule
        rule.cache_clear()
        dom = builtin_domain("IV", "B3")
        for _ in range(2):
            for m in mesh_hierarchy(dom, 2):
                corner_loads(m, corner_bases(dom, 0))
        # the orders 8 to 13, 16 and 20 of the first pass's leaves, each
        # built once
        info = rule.cache_info()
        assert info.misses == 8 and info.hits > 0, info
        lam, w = rule(8)
        with pytest.raises(ValueError):
            lam[0, 0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0
        rule.cache_clear()


    def test_gauss_rules_match_leggauss(self):
        # nodes within 1.1e-16 and weights within 7.3e-15 of leggauss for
        # n <= 100; against 40-digit roots at n = 30, 60 and 100 the
        # weights are within 1.2e-16, leggauss's within 3.6e-15
        for n in range(1, 101):
            x, w = singular._legendre_rule(n)
            ref_x, ref_w = leggauss(n)
            assert np.abs(x - ref_x).max() <= 2.3e-16, n
            assert np.abs(w - ref_w).max() <= 1e-14, n

    def test_gauss_rules_match_jacobi_rule(self):
        # Tricomi's nodes and three Newton steps against the Jacobi
        # eigenvalues and one Newton step, for every n up to 250 and for
        # the largest rule a study builds: at tau = 0.001 the pair
        # integral's band takes 353 nodes
        for n in [*range(1, 251), 353]:
            x, w = singular._legendre_rule(n)
            ref_x, ref_w = jacobi_rule(n)
            assert np.abs(x - ref_x).max() <= 2.3e-16, n
            assert np.abs(w - ref_w).max() <= 1e-15, n


class TestFixedOrderOracle:
    """One collapsed leaf per triangle, at the order its h/dist asks for,
    against the graded fixed-order rule it replaced
    (tests/fixed_order_oracle.py): the same pass with every collapsed
    triangle red-refined by the near and band tests, each leaf at order 6.
    The other load tests stop at level 4; at level 5 the triangles far
    from q take the lowest orders, and a floor in place of the ceiling in
    the order formula reads up to 4.7e-13 here and passes them all."""

    @pytest.mark.parametrize("cutoff", [CutoffSpec(), CutoffSpec(tau=0.25, R=1.2),
                                        CutoffSpec(0.125, 2.5)])
    @pytest.mark.parametrize("name,bc", [("IV", "B3"), ("III", "B5"),
                                         ("III", "B1"), ("I", "B3")])
    def test_corner_loads_match(self, name, bc, cutoff):
        # within 1e-13 relative per row at levels 0-5
        dom = builtin_domain(name, bc)
        bases = corner_bases(dom, 0, cutoff)
        for m in mesh_hierarchy(dom, 5):
            got = corner_loads(m, bases)
            ref = fixed_order_oracle.corner_loads(m, bases)
            for load, got_rows, ref_rows in zip(("load_singular", "load_chi_s"),
                                                got, ref):
                for i, (g, r) in enumerate(zip(got_rows, ref_rows)):
                    err = np.max(np.abs(g - r)) / np.max(np.abs(r))
                    assert err <= 1e-13, (m.level, load, i, err)


class TestPassPreamble:
    """The pass computes its per-triangle geometry only for triangles with
    a vertex within radii[-1] + h_max of q; the loads equal those of the
    whole-mesh preamble (h_max = inf selects every triangle)."""

    @pytest.mark.parametrize("cutoff", [CutoffSpec(), CutoffSpec(tau=0.25, R=1.2),
                                        CutoffSpec(0.125, 2.5)])
    @pytest.mark.parametrize("name,bc", [("IV", "B3"), ("III", "B5"),
                                         ("III", "B1"), ("I", "B3")])
    def test_loads_equal_whole_mesh_preamble(self, name, bc, cutoff, monkeypatch):
        dom = builtin_domain(name, bc)
        bases = corner_bases(dom, 0, cutoff)
        for m in mesh_hierarchy(dom, 4):
            got = corner_loads(m, bases)
            with monkeypatch.context() as mp:
                mp.setattr(TriMesh, "max_edge_length", lambda self: math.inf)
                ref = corner_loads(m, bases)
            for g, r in zip(got, ref):
                assert np.array_equal(g, r), m.level


class TestQuadratureOptions:
    def test_one_node_fans_run(self):
        # the thin fans take a half or a third of the nodes, at least one
        dom = builtin_domain("IV", "B3")
        m = mesh_hierarchy(dom, 2)[-1]
        with mock.patch.multiple(singular, N_RADIAL=1, N_ANGULAR=1):
            loads = corner_loads(m, corner_bases(dom, 0))
        for rows in loads:
            assert np.all(np.isfinite(rows)) and np.any(rows)


class TestEvaluationCounts:
    """The integrand evaluations of two passes, pinned: the fan rule's rays
    (one angular value each) and radial nodes, and the collapsed rule's
    points."""

    @pytest.mark.parametrize("name,bc,level,expected", [
        ("IV", "B3", 2, {"fan rays": 3304, "radial nodes": 22568,
                         "collapsed points": 27230}),
        ("III", "B5", 4, {"fan rays": 13200, "radial nodes": 121872,
                          "collapsed points": 158130})])
    def test_pinned(self, name, bc, level, expected, monkeypatch):
        counts = collections.Counter()
        graded = singular._graded_integrate

        def counted(mesh, basis, radial, angular, *args, **kw):
            # the fan rule passes (pieces, rays) angles and (segments,
            # rays, nodes) radii; the collapsed rule flat point arrays
            def radial_spy(r):
                counts["radial nodes" if r.ndim == 3 else "collapsed points"] \
                    += r.size
                return radial(r)

            def angular_spy(theta):
                counts["fan rays"] += theta.size if theta.ndim == 2 else 0
                return angular(theta)
            return graded(mesh, basis, radial_spy, angular_spy, *args, **kw)

        monkeypatch.setattr(singular, "_graded_integrate", counted)
        dom = builtin_domain(name, bc)
        corner_loads(mesh_hierarchy(dom, level)[-1], corner_bases(dom, 0))
        assert dict(counts) == expected


class TestBlockedPass:
    """The pass forms at most ``_BLOCK_VALUES`` integrand values at once:
    fan segments and collapsed triangles go in blocks of at most that many
    row values, so the integrand values it holds do not grow with the
    mesh."""

    @pytest.mark.parametrize("cutoff", [CutoffSpec(), CutoffSpec(tau=0.25, R=1.2)])
    def test_small_budget_gives_the_same_loads(self, cutoff, monkeypatch):
        # 300 values: one segment or triangle per block nearly everywhere
        for dom, j in singular_builtins():
            bases = corner_bases(dom, j, cutoff)
            for m in mesh_hierarchy(dom, 3)[1:]:
                ref = np.concatenate(corner_loads(m, bases))
                with monkeypatch.context() as mp:
                    mp.setattr(singular, "_BLOCK_VALUES", 300)
                    got = np.concatenate(corner_loads(m, bases))
                err = np.abs(got - ref).max(axis=1) / np.abs(ref).max(axis=1)
                assert np.all(err <= 1e-15), (dom.name, m.level, err)

    @pytest.mark.parametrize("name,bc,level,mib", [("IV", "B3", 2, 1.25),
                                                    ("III", "B5", 4, 2.0),
                                                    ("IV", "B3", 6, 10.0)])
    def test_traced_peak(self, name, bc, level, mib):
        # 0.95 and 1.58 MiB; 3.48 and 5.19 MiB when each 256-edge chunk
        # formed all its fans' radial values at once and the collapsed rule
        # took 18,432 points per batch.  5.31 MiB at IV/B3 level 6; 7.44 MiB
        # when max_edge_length() formed (T, 3) edge vectors, 15.54 MiB when
        # the geometry of every triangle near q was formed at once
        dom = builtin_domain(name, bc)
        m = mesh_hierarchy(dom, level)[-1]
        bases = corner_bases(dom, 0)
        corner_loads(m, bases)      # the mesh geometry and the Gauss rules
        tracemalloc.start()
        try:
            corner_loads(m, bases)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20, peak / 2**20


class TestRestrictedLoads:
    """The loads a study uses on a coarse level, restricted from the
    level-4 pass, against each level's own pass and the reference."""

    @pytest.mark.parametrize("name,bc,cutoff", [
        ("IV", "B3", CutoffSpec()), ("III", "B5", CutoffSpec()),
        ("III", "B1", CutoffSpec()), ("I", "B3", CutoffSpec()),
        ("IV", "B3", CutoffSpec(tau=0.25, R=1.2)),
        ("III", "B5", CutoffSpec(tau=0.25, R=1.2)),
        ("III", "B1", CutoffSpec(tau=0.25, R=1.2)),
        # the cutoff disk leaves the corner sector
        ("III", "B5", CutoffSpec(0.125, 2.5))])
    def test_match_per_level_passes_and_reference(self, name, bc, cutoff):
        _, levels = corner_passes(name, bc, cutoff)
        finest, fine_loads, _ = levels[-1]
        for m, got, ref in levels[:-1]:
            for load, fine_rows, got_rows, ref_rows in zip(
                    ("load_singular", "load_chi_s"), fine_loads, got, ref):
                for i, row in enumerate(restrict(finest, fine_rows, m)):
                    for other, gate in ((got_rows[i], 1e-13),
                                        (ref_rows[i], 1e-12)):
                        err = np.max(np.abs(row - other)) / np.max(np.abs(other))
                        assert err <= gate, (m.level, load, i, err)


def singular_builtins():
    """(domain, singular vertex) of every built-in with a singular corner."""
    out = []
    for name in BUILTIN_NAMES:
        for bc in BC_TYPES:
            try:
                dom = builtin_domain(name, bc)
            except DomainError:
                continue
            d_perp, contributing = perp_dimension(dom)
            if d_perp:
                out.append((dom, contributing[0]))
    return out


def _pass_and_moments(mesh, bases):
    """corner_loads of ``bases`` as one (2k, n_nodes) array, the collapsed
    rule's orders, and each row's integral m0 and first moment m1 about q
    over the domain: ``singular._fan_moments`` of the pass's own integrands,
    each row with the exponent of its own basis (from ``bases``, not from
    the pass), over the triangles (q, a, b) of the domain's edges a -> b
    away from q, the fans of ``pair_oracle.pair_fan_rule``, at twice the
    corner fans' nodes (so twice the radial nodes of the segment rule,
    which at tau = 0.001 gives the band [tau*R, R] 561 of them)."""
    seen, orders = {}, set()
    graded, rule = singular._graded_integrate, singular._collapsed_rule

    def spy(mesh, basis, radial, angular, gammas, radii):
        seen.update(basis=basis, radial=radial, angular=angular, radii=radii)
        return graded(mesh, basis, radial, angular, gammas, radii)

    def rule_spy(n):
        orders.add(n)
        return rule(n)
    with mock.patch.object(singular, "_graded_integrate", spy), \
            mock.patch.object(singular, "_collapsed_rule", rule_spy):
        rows = np.concatenate(corner_loads(mesh, bases))
    q = np.array(bases[0].origin)
    a = mesh.domain.vertices
    b = np.roll(a, -1, axis=0)
    away = (np.linalg.norm(a - q, axis=1) > 1e-12) \
        & (np.linalg.norm(b - q, axis=1) > 1e-12)
    radii = np.tile(seen["radii"], (int(away.sum()), 1))
    m0, m1 = 0.0, 0.0
    for _, f0, f1 in singular._fan_moments(
            seen["basis"], a[away], b[away], radii, seen["radial"],
            seen["angular"], [b.beta for b in bases] * 2,
            2 * singular.N_RADIAL,
            2 * singular.N_ANGULAR):
        m0, m1 = m0 + f0.sum(axis=-1), m1 + f1.sum(axis=-1)
    return rows, orders, m0, m1


def _assert_moments(mesh, q, rows, m0, m1):
    """Each row's sum is m0 and its first moment about q is m1, within
    1e-12 of the row's largest moment."""
    scale = np.maximum(np.abs(m0), np.abs(m1).max(axis=1))
    assert np.all(np.abs(rows.sum(axis=1) - m0) <= 1e-12 * scale), mesh.level
    got = rows @ (mesh.nodes - q)
    assert np.all(np.abs(got - m1).max(axis=1) <= 1e-12 * scale), mesh.level


class TestLoadMoments:
    """P1 hats reproduce 1 and x, so every ``corner_loads`` row sums to its
    integrand's integral m0 over the domain and its first moment about q
    is the integrand's m1; the fan rule over the domain's edges gives both
    without the mesh.  Restriction keeps both, and no collapsed leaf's
    order passes ceil(ORDER_TARGET / asinh(1)), its bound at dist = h/2."""

    def check(self, meshes, j, cutoff):
        bases = corner_bases(meshes[0].domain, j, cutoff)
        q = np.array(bases[0].origin)
        bound = math.ceil(singular.ORDER_TARGET / math.asinh(1))
        for m in meshes:
            rows, orders, m0, m1 = _pass_and_moments(m, bases)
            assert max(orders, default=0) <= bound, (m.level, max(orders))
            _assert_moments(m, q, rows, m0, m1)
        for m in meshes[:-1]:
            _assert_moments(m, q, restrict(meshes[-1], rows, m), m0, m1)

    @pytest.mark.parametrize("cutoff", [CutoffSpec(), CutoffSpec(tau=0.25, R=1.2)])
    def test_builtins(self, cutoff):
        for dom, j in singular_builtins():
            self.check(mesh_hierarchy(dom, 2), j, cutoff)

    @pytest.mark.parametrize("name,bc", [("III", "B1"), ("IV", "B3")])
    @pytest.mark.parametrize("tau", [0.01, 0.001])
    def test_small_tau(self, name, bc, tau):
        # the corner fans' band segment [tau*R, r1] has q at tau*R/(r1 -
        # tau*R) of its length: with a fixed 24 nodes the rows' sums were
        # off by up to 8.5e-7 at tau = 0.001
        dom = builtin_domain(name, bc)
        self.check(mesh_hierarchy(dom, 2)[1:], 0, CutoffSpec(tau=tau, R=1.8))

    @given(skyline_domains(),
           st.sampled_from([CutoffSpec(), CutoffSpec(tau=0.25, R=1.2)]))
    # most skylines have two or more reflex vertices, each singular, and
    # are filtered out
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_skyline_polygons(self, dom, cutoff):
        # the domains the solver takes: one singular vertex, and a level-0
        # grid that represents the domain
        _, contributing = perp_dimension(dom)
        assume(len(contributing) == 1)
        try:
            meshes = mesh_hierarchy(dom, 2)
        except MeshError:
            assume(False)
        self.check(meshes, contributing[0], cutoff)


class TestSeparablePair:
    """The separable pair integral against the fan rule over the domain's
    edges that it replaced (tests/pair_oracle.py), and the clearance that
    makes it separate."""

    @pytest.mark.parametrize("cutoff", [CutoffSpec(), CutoffSpec(tau=0.25, R=1.2),
                                        CutoffSpec(tau=0.3, R=1.0)])
    def test_matches_closed_form_on_builtins(self, cutoff):
        cases = singular_builtins()
        assert len(cases) == 17
        for dom, j in cases:
            bases = corner_bases(dom, j, cutoff)
            m = mesh_hierarchy(dom, 0)[0]
            for i, a in enumerate(bases):
                for b in bases[i:]:
                    ref = pair_oracle.pair_fan_rule(dom, a, b)
                    got = inner_chi_s_pair(m, a, b)
                    assert abs(got - ref) <= 1e-13 * max(abs(ref), 1.0), dom.name

    def test_hexagon_self_pair(self):
        # the corner (3, 1) is 1 from the bottom edge, which is 5 long: its
        # fan needs more than 24 angular nodes (24 give 1.817753197618758)
        dom = hexagon()
        (basis,) = corner_bases(dom, 3, CutoffSpec(0.125, 0.8))
        got = inner_chi_s_pair(initial_mesh(dom), basis, basis)
        assert got == pytest.approx(1.817753174278387, rel=1e-15)
        for n_angular in (96, 192, 384):
            ref = pair_oracle.pair_fan_rule(dom, basis, basis, 48, n_angular)
            assert abs(got - ref) <= 1e-13 * ref, n_angular

    def test_value_depends_on_the_domain_only(self):
        dom = builtin_domain("IV", "B3")
        b1, b2 = corner_bases(dom, 0, CutoffSpec(0.125, 1.8))
        values = {inner_chi_s_pair(m, b1, b2) for m in mesh_hierarchy(dom, 3)}
        assert len(values) == 1

    def test_bases_of_two_corners_rejected(self):
        # the fans are integrated in the polar frame of one corner, with
        # one cutoff
        m = mesh_hierarchy(builtin_domain("III", "B1"), 0)[0]
        a = lshape_basis()
        for b in (SingularBasis(a.beta, a.trig, (1.0, 0.0), a.frame_angle, a.omega),
                  lshape_basis(CutoffSpec(R=1.2))):
            with pytest.raises(ValueError, match="one corner"):
                inner_chi_s_pair(m, a, b)

    @pytest.mark.parametrize("trig_a,trig_b", [("sin", "sin"), ("sin", "cos"),
                                               ("cos", "sin"), ("cos", "cos")])
    def test_angular_factor_matches_quadrature(self, trig_a, trig_b):
        for omega in (1.2 * math.pi, 1.75 * math.pi):
            for beta_a, beta_b in ((0.3, 0.7), (0.55, 0.55)):
                a = SingularBasis(beta_a, trig_a, np.zeros(2), 0.0, omega)
                b = SingularBasis(beta_b, trig_b, np.zeros(2), 0.0, omega)
                ref = quad(lambda t: a.angular(t) * b.angular(t), 0.0, omega,
                           epsabs=1e-15, limit=200)[0]
                assert singular.angular_product(a, b) == pytest.approx(
                    ref, rel=1e-13, abs=1e-14)

    @pytest.mark.parametrize("tau", [0.001, 0.01, 0.125, 0.5, 0.95])
    def test_radial_factor_matches_composite_rule(self, tau):
        # the pair of a basis with itself over the sector of III/B1's
        # corner (clearance 2) is the radial factor times the angular
        # product, which is positive
        m = mesh_hierarchy(builtin_domain("III", "B1"), 0)[0]
        for R in (0.6, 1.8):
            spec = CutoffSpec(tau, R)
            for gamma in np.linspace(0.6, 1.9, 14):
                a = SingularBasis(gamma / 2, "sin", (0.0, 0.0), 0.0,
                                  1.5 * math.pi, spec)
                got = inner_chi_s_pair(m, a, a) / singular.angular_product(a, a)
                ref = pair_oracle.radial_composite(spec, gamma)
                assert abs(got - ref) <= 1e-13 * ref, (R, gamma)

    @pytest.mark.parametrize("cutoff", [CutoffSpec(), CutoffSpec(0.125, 2.5)])
    def test_non_star_shaped_domain_raises(self, cutoff):
        # from the reflex vertex q = (1, 1) of a U the edges (0, 0) -> (3, 0)
        # and (2, 3) -> (2, 1) are 1 away: the cutoff disk meets them, and
        # the pair integral does not separate (the solver rejects this
        # domain, which has two singular vertices, and such a cutoff)
        dom = PolygonDomain(np.array([(0, 0), (3, 0), (3, 3), (2, 3), (2, 1),
                                      (1, 1), (1, 3), (0, 3)], dtype=float),
                            (BCType.DIRICHLET,) * 8)
        assert perp_dimension(dom) == (2, [4, 5])
        assert singular.clearance(dom, dom.vertices[5]) == 1.0
        (basis,) = corner_bases(dom, 5, cutoff)
        with pytest.raises(ValueError, match="does not separate"):
            inner_chi_s_pair(initial_mesh(dom), basis, basis)


def _assert_clearance_matches_disk_in_sector(dom, j):
    q = dom.vertices[j]
    reach = singular.clearance(dom, q)
    for R in (0.3, 0.6, 2.0 ** -0.5, 0.8, 1.0, 1.2, 1.5, 1.8, 2.0, 2.5, 3.0):
        basis = SingularBasis(0.5, "sin", q, 0.0, math.pi, CutoffSpec(R=R))
        # disk_in_sector admits R equal to the clearance, the guard does not
        if R != reach:
            assert (R < reach) == pair_oracle.disk_in_sector(dom, basis), R


class TestClearance:
    """``singular.clearance`` against the edge-by-edge check of
    tests/pair_oracle.py, over a grid of cutoff radii."""

    def test_builtins(self):
        for dom, j in singular_builtins():
            assert singular.clearance(dom, dom.vertices[j]) == 2.0, dom.name
            _assert_clearance_matches_disk_in_sector(dom, j)

    @given(skyline_domains())
    @settings(max_examples=60, deadline=None)
    def test_skyline_polygons(self, dom):
        for j in range(dom.n_vertices):
            _assert_clearance_matches_disk_in_sector(dom, j)
            # a grid polygon's roof slopes are 0 or +-1
            assert singular.clearance(dom, dom.vertices[j]) >= 2.0 ** -0.5 - 1e-15

    def test_hexagon(self):
        dom = hexagon()
        assert [singular.clearance(dom, v) for v in dom.vertices] \
            == [2.0, 1.0, 1.0, 1.0, 1.0, 2.0]


class TestInnerProducts:
    def test_self_product_matches_polar_oracle(self):
        m = mesh_hierarchy(builtin_domain("III", "B1"), 2)[-1]
        basis = lshape_basis()
        val = inner_chi_s_pair(m, basis, basis)
        omega = 1.5 * math.pi
        ang = quad(lambda t: math.sin(basis.beta * t) ** 2, 0, omega)[0]
        rad = quad(lambda r: chi(np.array([r]), basis.cutoff)[0] ** 2
                   * r ** (1 - 2 * basis.beta), 0, basis.cutoff.R,
                   points=[basis.cutoff.inner], limit=200)[0]
        assert val == pytest.approx(ang * rad, rel=1e-12)

    def test_symmetry(self):
        dom = builtin_domain("IV", "B3")
        m = mesh_hierarchy(dom, 2)[-1]
        b1, b2 = corner_bases(dom, 0)
        v12 = inner_chi_s_pair(m, b1, b2)
        v21 = inner_chi_s_pair(m, b2, b1)
        assert v12 == pytest.approx(v21, abs=1e-12)
