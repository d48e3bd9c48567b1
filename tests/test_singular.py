import math

import numpy as np
import pytest
from scipy.integrate import quad

from biharmfem import fem, singular
from biharmfem.geometry import (BC_TYPES, BUILTIN_NAMES, DomainError,
                                builtin_domain, perp_dimension, singular_spec)
from biharmfem.mesh import initial_mesh, prolongate, refine_uniform
from biharmfem.singular import (CutoffSpec, GradedQuadratureOptions,
                                HybridField, SingularBasis, bases_from_spec,
                                chi, chi_derivs, cutoff_disk_in_sector,
                                inner_chi_s_pair, inner_singular, load_chi_s,
                                load_singular)
from conftest import mesh_hierarchy
from worklist_oracle import load_singular_worklist


def lshape_basis(cutoff=None):
    dom = builtin_domain("III", "B1")
    return bases_from_spec(singular_spec(dom, 0), cutoff)[0]


def neumann_basis():
    dom = builtin_domain("III", "B5")
    return bases_from_spec(singular_spec(dom, 0), None)[0]


class TestCutoff:
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
            for orders in ((0, 1, 2), (0,), (1, 2)):
                got = chi_derivs(r, spec, orders=orders)
                assert len(got) == len(orders)
                for k, g in zip(orders, got):
                    scale_k = np.max(np.abs(ref[k]))
                    assert np.max(np.abs(g - ref[k])) <= 1e-15 * scale_k

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
        assert basis.eval_s(p)[0] == pytest.approx(1.0, abs=1e-14)

    def test_sin_branch_vanishes_on_leaving_edge(self):
        dom = builtin_domain("III", "B4")
        basis = bases_from_spec(singular_spec(dom, 0), None)[0]
        assert basis.trig == "cos"
        dom = builtin_domain("III", "B3")
        basis = bases_from_spec(singular_spec(dom, 0), None)[0]
        p = np.array([[0.7, 0.0]])  # on the leaving (Dirichlet) edge
        assert basis.eval_s(p)[0] == pytest.approx(0.0, abs=1e-14)

    def test_cos_branch_has_zero_angular_slope_at_leaving_edge(self):
        basis = bases_from_spec(
            singular_spec(builtin_domain("III", "B4"), 0), None)[0]
        r, eps = 0.7, 1e-6
        v0 = basis.eval_s(np.array([[r * math.cos(eps), r * math.sin(eps)]]))[0]
        v1 = basis.eval_s(np.array([[r * math.cos(2 * eps), r * math.sin(2 * eps)]]))[0]
        assert abs(v1 - v0) / eps < 1e-4

    def test_evaluation_at_corner_rejected(self):
        with pytest.raises(ValueError):
            lshape_basis().eval_s(np.array([[0.0, 0.0]]))

    def test_radial_decay(self):
        basis = lshape_basis()
        theta = 0.75 * math.pi
        d = np.array([math.cos(theta), math.sin(theta)])
        v1 = basis.eval_s(d[None, :] * 0.5)[0]
        v2 = basis.eval_s(d[None, :] * 1.0)[0]
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
            v0 = basis.eval_s(np.array(
                [[r * math.cos(th0 + sgn * eps), r * math.sin(th0 + sgn * eps)]]))[0]
            v1 = basis.eval_s(np.array(
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
            for basis in bases_from_spec(singular_spec(dom, 0), None):
                ref = load_singular_worklist(m, basis)
                got = load_singular(m, basis)
                assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_corner_triangles_crossing_cutoff_circles(self):
        # at tau*R = 0.3, R = 1.2 the far edges of the corner triangles at
        # levels 0 and 2 cross a cutoff circle, so the angular split matters
        dom = builtin_domain("III", "B1")
        basis = lshape_basis(CutoffSpec(tau=0.25, R=1.2))
        fine = GradedQuadratureOptions(n_gauss=10, n_feature=20, n_radial=48,
                                       n_angular=48)
        for m in mesh_hierarchy(dom, 2):
            ref = load_singular(m, basis, fine)
            got = load_singular(m, basis)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def singular_builtins():
    """(domain, basis list) of every built-in with a singular corner."""
    out = []
    for name in BUILTIN_NAMES:
        for bc in BC_TYPES:
            try:
                dom = builtin_domain(name, bc)
            except DomainError:
                continue
            d_perp, contributing = perp_dimension(dom)
            if d_perp:
                out.append((dom, singular_spec(dom, contributing[0])))
    return out


class TestSeparablePair:
    @pytest.mark.parametrize("cutoff", [CutoffSpec(), CutoffSpec(tau=0.25, R=1.2)])
    def test_predicate_holds_for_builtins(self, cutoff):
        cases = singular_builtins()
        assert len(cases) >= 15
        for dom, spec in cases:
            basis = bases_from_spec(spec, cutoff)[0]
            assert cutoff_disk_in_sector(dom, basis), dom.name

    def test_predicate_fails_when_disk_reaches_far_edges(self):
        dom = builtin_domain("III", "B1")
        assert not cutoff_disk_in_sector(dom, lshape_basis(CutoffSpec(R=2.5)))

    @pytest.mark.parametrize("name,bc", [("III", "B1"), ("I", "B3"), ("IV", "B3")])
    def test_matches_graded_rule(self, name, bc):
        dom = builtin_domain(name, bc)
        bases = bases_from_spec(singular_spec(dom, 0), None)
        m = mesh_hierarchy(dom, 1)[-1]
        opts = GradedQuadratureOptions()
        for i, a in enumerate(bases):
            for b in bases[i:]:
                graded = singular._pair_graded(m, a, b, opts, 1e-8)
                separable = inner_chi_s_pair(m, a, b)
                assert abs(separable - graded) <= 1e-12 * max(abs(graded), 1.0)

    def test_fallback_runs_when_predicate_fails(self, monkeypatch):
        calls = []
        graded = singular._pair_graded
        monkeypatch.setattr(singular, "_pair_graded",
                            lambda *args: calls.append(1) or graded(*args))
        m = mesh_hierarchy(builtin_domain("III", "B1"), 1)[-1]
        inner_chi_s_pair(m, lshape_basis(), lshape_basis())
        assert calls == []
        wide = lshape_basis(CutoffSpec(R=2.5))
        val = inner_chi_s_pair(m, wide, wide)
        assert calls == [1] and val > 0

    @pytest.mark.parametrize("trig_a,trig_b", [("sin", "sin"), ("sin", "cos"),
                                               ("cos", "sin"), ("cos", "cos")])
    def test_angular_factor_matches_quadrature(self, trig_a, trig_b):
        for omega in (1.2 * math.pi, 1.75 * math.pi):
            for beta_a, beta_b in ((0.3, 0.7), (0.55, 0.55)):
                a = SingularBasis(beta_a, trig_a, np.zeros(2), 0.0, omega)
                b = SingularBasis(beta_b, trig_b, np.zeros(2), 0.0, omega)
                ref = quad(lambda t: a.angular(t) * b.angular(t), 0.0, omega,
                           epsabs=1e-15, limit=200)[0]
                assert singular._angular_product(a, b) == pytest.approx(
                    ref, rel=1e-13, abs=1e-14)

    def test_radial_self_check_raises(self):
        basis = lshape_basis()
        with pytest.raises(singular.QuadratureError):
            singular._pair_separable(basis, basis, 2, 1e-8)


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
        assert val == pytest.approx(ang * rad, rel=1e-10)

    def test_symmetry(self):
        dom = builtin_domain("IV", "B3")
        m = mesh_hierarchy(dom, 2)[-1]
        b1, b2 = bases_from_spec(singular_spec(dom, 0), None)
        v12 = inner_chi_s_pair(m, b1, b2)
        v21 = inner_chi_s_pair(m, b2, b1)
        assert v12 == pytest.approx(v21, abs=1e-12)

    def test_zero_nodal_field(self):
        m = mesh_hierarchy(builtin_domain("III", "B1"), 1)[-1]
        basis = lshape_basis()
        assert inner_singular(np.zeros(m.n_nodes), basis, m) == 0.0

    def test_hybrid_field_inner_product(self):
        m = mesh_hierarchy(builtin_domain("III", "B1"), 2)[-1]
        basis = lshape_basis()
        field = HybridField(np.zeros(m.n_nodes), [(basis, 2.0)])
        direct = 2.0 * inner_chi_s_pair(m, basis, basis)
        assert inner_singular(field, basis, m) == pytest.approx(direct, rel=1e-10)
