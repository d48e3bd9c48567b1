import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import dblquad

from biharmfem import fem
from biharmfem.geometry import BCType, PolygonDomain, builtin_domain
from biharmfem.mesh import TriMesh, initial_mesh, refine_uniform
from biharmfem.singular import _collapsed_rule
from biharmfem.sources import quadrant_step, square_eigen
from conftest import mesh_hierarchy, unit_square


def single_triangle_mesh(p0=(0.0, 0.0), p1=(1.0, 0.0), p2=(0.0, 1.0)):
    dom = PolygonDomain(np.array([p0, p1, p2], dtype=float),
                        (BCType.DIRICHLET,) * 3)
    return TriMesh(dom, dom.vertices, np.array([[0, 1, 2]]),
                   np.array([[0, 1, 0], [1, 2, 1], [2, 0, 2]]))


class TestStiffness:
    def test_unit_right_triangle_local_matrix(self):
        K = fem.assemble_stiffness(single_triangle_mesh()).toarray()
        expected = 0.5 * np.array([[2.0, -1.0, -1.0],
                                   [-1.0, 1.0, 0.0],
                                   [-1.0, 0.0, 1.0]])
        assert np.allclose(K, expected, atol=1e-14)

    def test_row_sums_vanish(self, lshape_b1_meshes):
        K = fem.assemble_stiffness(lshape_b1_meshes[2])
        assert np.max(np.abs(K @ np.ones(K.shape[0]))) < 1e-12

    def test_positive_on_nonconstant_mean_free_vectors(self, lshape_b1_meshes):
        K = fem.assemble_stiffness(lshape_b1_meshes[1])
        rng = np.random.default_rng(1)
        for _ in range(5):
            v = rng.standard_normal(K.shape[0])
            v -= v.mean()
            assert v @ (K @ v) > 0

    def test_triangle_order_invariance(self, lshape_b1_meshes):
        m = lshape_b1_meshes[1]
        K1 = fem.assemble_stiffness(m)
        perm = np.random.default_rng(2).permutation(m.n_triangles)
        m2 = TriMesh(m.domain, m.nodes, m.triangles[perm], m.boundary_edges)
        K2 = fem.assemble_stiffness(m2)
        assert abs(K1 - K2).max() < 1e-14


class TestMass:
    def test_total_mass_is_area(self, lshape_b1_meshes):
        M = fem.assemble_mass(lshape_b1_meshes[2])
        one = np.ones(M.shape[0])
        assert one @ (M @ one) == pytest.approx(12.0, rel=1e-12)

    def test_single_triangle_diagonal(self):
        m = single_triangle_mesh(p2=(0.0, 2.0))  # area 1
        M = fem.assemble_mass(m).toarray()
        assert np.allclose(np.diag(M), 1.0 / 6.0)

    def test_positive_definite(self, lshape_b1_meshes):
        M = fem.assemble_mass(lshape_b1_meshes[1]).toarray()
        assert np.linalg.eigvalsh(M).min() > 0


class TestLoad:
    def test_constant_source_sums_to_area(self, lshape_b1_meshes):
        b = fem.assemble_load(lshape_b1_meshes[1], lambda p: np.ones(len(p)))
        assert b.sum() == pytest.approx(12.0, rel=1e-12)

    def test_piecewise_quadrant_source_balances_on_lshape(self, lshape_b1_meshes):
        b = fem.assemble_load(lshape_b1_meshes[2], quadrant_step)
        assert abs(b.sum()) < 1e-12

    def test_smooth_source_matches_adaptive_quadrature(self):
        meshes = mesh_hierarchy(unit_square(), 2)
        m = meshes[-1]
        b = fem.assemble_load(m, square_eigen, quad=_collapsed_rule(8))

        def hat_integral(node):
            # adaptive 2D integration of f * hat over the node's support
            total = 0.0
            for tri in m.triangles:
                if node not in tri:
                    continue
                pts = m.nodes[tri]
                i = list(tri).index(node)
                a, e1, e2 = pts[0], pts[1] - pts[0], pts[2] - pts[0]
                jac = abs(e1[0] * e2[1] - e1[1] * e2[0])

                def integrand(t, s):
                    x = a + s * e1 + t * e2
                    lam = (1.0 - s - t, s, t)[i]
                    return float(square_eigen(x[None, :])[0]) * lam

                val, _ = dblquad(integrand, 0, 1, 0, lambda s: 1 - s,
                                 epsabs=1e-11, epsrel=1e-11)
                total += jac * val
            return total

        rng = np.random.default_rng(3)
        for node in rng.choice(m.n_nodes, size=5, replace=False):
            assert b[node] == pytest.approx(hat_integral(int(node)), abs=1e-8)


class TestDirichlet:
    def test_no_constraints_leaves_system_unchanged(self, lshape_b1_meshes):
        m = lshape_b1_meshes[1]
        K = fem.assemble_stiffness(m)
        b = np.arange(m.n_nodes, dtype=float)
        K2, b2, free = fem.apply_dirichlet(K, b, np.zeros(m.n_nodes, bool))
        assert abs(K - K2).max() == 0
        assert np.array_equal(b, b2)
        assert len(free) == m.n_nodes

    def test_fully_constrained_mesh_rejected(self):
        meshes = mesh_hierarchy(unit_square(), 0)
        m = meshes[0]
        K = fem.assemble_stiffness(m)
        assert m.dirichlet_nodes.all()
        with pytest.raises(ValueError):
            fem.apply_dirichlet(K, np.zeros(m.n_nodes), m.dirichlet_nodes)

    def test_reduced_system_solvable(self, lshape_b1_meshes):
        m = lshape_b1_meshes[2]
        K = fem.assemble_stiffness(m)
        rng = np.random.default_rng(4)
        b = rng.standard_normal(m.n_nodes)
        K2, b2, _ = fem.apply_dirichlet(K, b, m.dirichlet_nodes)
        x = fem.solve_spd(K2, b2)
        assert np.linalg.norm(b2 - K2 @ x) <= 1e-9 * np.linalg.norm(b2)


class TestSolveSpd:
    def test_one_by_one(self):
        A = sp.csr_matrix(np.array([[4.0]]))
        assert fem.solve_spd(A, np.array([2.0]))[0] == pytest.approx(0.5)

    def test_matches_dense_factorization(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((10, 10))
        A = B @ B.T + 10 * np.eye(10)
        b = rng.standard_normal(10)
        x = fem.solve_spd(sp.csr_matrix(A), b)
        assert np.linalg.norm(x - np.linalg.solve(A, b)) < 1e-9

    def test_poisson_manufactured_first_order_h1(self):
        # -lap u = 2 pi^2 sin(pi x) sin(pi y), u = sin(pi x) sin(pi y)
        f = lambda p: 2 * math.pi**2 * np.sin(math.pi * p[:, 0]) * np.sin(math.pi * p[:, 1])
        exact = lambda nodes: np.sin(math.pi * nodes[:, 0]) * np.sin(math.pi * nodes[:, 1])
        errs = []
        for m in mesh_hierarchy(unit_square(), 5)[3:]:
            K = fem.assemble_stiffness(m)
            b = fem.assemble_load(m, f)
            K2, b2, free = fem.apply_dirichlet(K, b, m.dirichlet_nodes)
            u = np.zeros(m.n_nodes)
            u[free] = fem.solve_spd(K2, b2)
            d = u - exact(m.nodes)
            # true H1 seminorm error vs the smooth solution, via interpolant
            # plus the known O(h) interpolation bound; the discrete energy
            # difference to the interpolant superconverges, so test decay
            errs.append(math.sqrt(d @ (K @ d)))
        assert errs[1] < 0.6 * errs[0] and errs[2] < 0.6 * errs[1]

    def test_incomplete_factor_exact_on_full_pattern(self):
        rng = np.random.default_rng(6)
        B = rng.standard_normal((25, 25))
        A = sp.csr_matrix(B @ B.T + 25 * np.eye(25))
        L = fem._incomplete_cholesky(A)
        assert abs((L @ L.T - A).toarray()).max() < 1e-10


class TestMeanZeroSolve:
    def _system(self, level=2):
        m = mesh_hierarchy(builtin_domain("III", "B5"), level)[-1]
        return m, fem.assemble_stiffness(m), fem.assemble_mass(m)

    def test_zero_rhs(self):
        _, A, M = self._system(1)
        assert np.all(fem.solve_mean_zero(A, M, np.zeros(A.shape[0])) == 0)

    def test_compatible_rhs_solved_with_zero_mean(self):
        m, A, M = self._system()
        b = fem.assemble_load(m, quadrant_step)
        v = fem.solve_mean_zero(A, M, b)
        b0 = b - b.sum() / len(b)
        assert np.linalg.norm(b0 - A @ v) <= 1e-9 * np.linalg.norm(b0)
        vm = math.sqrt(v @ (M @ v))
        assert abs(np.ones(len(v)) @ (M @ v)) <= 1e-9 * vm

    def test_incompatible_rhs_rejected(self):
        m, A, M = self._system(1)
        b = fem.assemble_load(m, lambda p: np.ones(len(p)))  # integral 12
        with pytest.raises(fem.SolveError):
            fem.solve_mean_zero(A, M, b)


class TestNorms:
    def test_identical_vectors(self, lshape_b1_meshes):
        m = lshape_b1_meshes[1]
        K = fem.assemble_stiffness(m)
        v = np.arange(m.n_nodes, dtype=float)
        assert fem.h1_seminorm_diff(v, v, K) == 0.0

    def test_linear_field_energy(self, lshape_b1_meshes):
        m = lshape_b1_meshes[1]
        K = fem.assemble_stiffness(m)
        x = m.nodes[:, 0].copy()
        assert fem.h1_seminorm_diff(x, np.zeros_like(x), K) == pytest.approx(
            math.sqrt(12.0), rel=1e-12)

    def test_symmetry(self, lshape_b1_meshes):
        m = lshape_b1_meshes[1]
        K = fem.assemble_stiffness(m)
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal((2, m.n_nodes))
        assert fem.h1_seminorm_diff(a, b, K) == fem.h1_seminorm_diff(b, a, K)

    def test_linf_diff(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.0, 2.5, 3.0])
        assert fem.linf_diff(a, a) == 0.0
        assert fem.linf_diff(a, b) == 0.5

    def test_linf_diff_rejects_length_mismatch(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            fem.linf_diff(rng.standard_normal(50), rng.standard_normal(80))
