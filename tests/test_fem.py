import functools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from scipy.integrate import dblquad

from biharmfem import cholesky, fem
from biharmfem.cholesky import Cholesky
from biharmfem.geometry import (BC_TYPES, BCType, BUILTIN_NAMES,
                                DomainError, PolygonDomain, builtin_domain)
from biharmfem.mesh import (MeshError, TriMesh, nested_dissection,
                            refine_uniform)
from biharmfem.solver import LevelContext
from biharmfem.sources import const1, quadrant_step, square_eigen
import assembly_oracle
from conftest import mesh_hierarchy, skyline_domains, unit_square
from superlu_oracle import SuperLUSolver, to_scipy
import front_oracle
import update_set_oracle

TOL = 1e-10     # normwise backward error every direct solve must reach


def identity(n):
    """The ordering and the single box passed for a matrix that is not a
    mesh matrix: one dense front."""
    return np.arange(n), np.ones(n, dtype=np.int64)


def dense(A):
    """A dense symmetric matrix as an ``fem.EdgeMatrix``."""
    A = np.asarray(A, dtype=float)
    i, j = np.nonzero(np.tril(A, -1))
    return fem.EdgeMatrix(np.diag(A).copy(), np.stack([i, j]), A[i, j])


def plus(A, B):
    """The sum of two ``fem.EdgeMatrix`` of one mesh."""
    return fem.EdgeMatrix(A.diag + B.diag, A.ends, A.off + B.off)


def dirichlet_solver(m, A, tol=TOL):
    """The Dirichlet solver of m, as ``LevelContext.solve_dirichlet``
    builds it: the free nodes in nested-dissection order."""
    free = np.flatnonzero(~m.dirichlet_nodes)
    order, box = nested_dissection(m, free)
    return fem.DirectSolver(A, tol, free[order], box)


def mean_zero_solver(m, A, M):
    """The grounded pure-Neumann solver of m, as
    ``LevelContext.solve_neumann`` builds it."""
    return fem.DirectSolver(A, TOL, *nested_dissection(m), mass=M)


def single_triangle_mesh(p0=(0.0, 0.0), p1=(1.0, 0.0), p2=(0.0, 1.0)):
    dom = PolygonDomain(np.array([p0, p1, p2], dtype=float),
                        (BCType.DIRICHLET,) * 3)
    return TriMesh(dom, dom.vertices, np.array([[0, 1, 2]]),
                   np.array([[0, 1, 0], [1, 2, 1], [2, 0, 2]]))


class TestStiffness:
    def test_unit_right_triangle_local_matrix(self):
        K = to_scipy(fem.assemble_stiffness(single_triangle_mesh())).toarray()
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
        assert abs(to_scipy(K1) - to_scipy(K2)).max() < 1e-14


class TestMass:
    def test_total_mass_is_area(self, lshape_b1_meshes):
        M = fem.assemble_mass(lshape_b1_meshes[2])
        one = np.ones(M.shape[0])
        assert one @ (M @ one) == pytest.approx(12.0, rel=1e-12)

    def test_single_triangle_diagonal(self):
        m = single_triangle_mesh(p2=(0.0, 2.0))  # area 1
        M = to_scipy(fem.assemble_mass(m)).toarray()
        assert np.allclose(np.diag(M), 1.0 / 6.0)

    def test_positive_definite(self, lshape_b1_meshes):
        M = to_scipy(fem.assemble_mass(lshape_b1_meshes[1])).toarray()
        assert np.linalg.eigvalsh(M).min() > 0


class TestLoad:
    def test_constant_source_sums_to_area(self, lshape_b1_meshes):
        b = fem.assemble_load(lshape_b1_meshes[1], lambda p: np.ones(len(p)))
        assert b.sum() == pytest.approx(12.0, rel=1e-12)

    def test_piecewise_quadrant_source_balances_on_lshape(self, lshape_b1_meshes):
        b = fem.assemble_load(lshape_b1_meshes[2], quadrant_step)
        assert abs(b.sum()) < 1e-12

    def test_smooth_source_matches_adaptive_quadrature(self):
        # f * hat is quadratic for an affine f, where the 3-point rule is
        # exact
        def affine(p):
            return 1.0 + 2.0 * p[:, 0] - 3.0 * p[:, 1]

        meshes = mesh_hierarchy(unit_square(), 2)
        m = meshes[-1]
        b = fem.assemble_load(m, affine)

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
                    return float(affine(x[None, :])[0]) * lam

                val, _ = dblquad(integrand, 0, 1, 0, lambda s: 1 - s,
                                 epsabs=1e-13, epsrel=1e-13)
                total += jac * val
            return total

        rng = np.random.default_rng(3)
        for node in rng.choice(m.n_nodes, size=5, replace=False):
            assert b[node] == pytest.approx(hat_integral(int(node)), abs=1e-12)


class TestAssemblyOracle:
    """The P1 assembly against the einsum, int64-COO and per-point np.add.at
    code it replaced (tests/assembly_oracle.py)."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_matrices_identical(self, name):
        for m in mesh_hierarchy(builtin_domain(name, "B3"), 4):
            for fn in ("assemble_stiffness", "assemble_mass"):
                got = getattr(fem, fn)(m)
                ref = getattr(assembly_oracle, fn)(m)
                assert isinstance(got, fem.EdgeMatrix) and got.shape == ref.shape
                got = to_scipy(got)
                for part in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got, part),
                                          getattr(ref, part)), (m.level, fn)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_loads_agree(self, name):
        for m in mesh_hierarchy(builtin_domain(name, "B3"), 4):
            for f in (const1, quadrant_step, square_eigen):
                got = fem.assemble_load(m, f)
                ref = assembly_oracle.assemble_load(m, f)
                err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
                assert err <= 1e-15, (m.level, f.__name__, err)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_loads_identical_to_stacked_form(self, name):
        for bc in BC_TYPES:
            try:
                meshes = _meshes(name, bc)[:5]
            except DomainError:     # a tagging the domain does not allow
                continue
            for m in meshes:
                for f in (const1, quadrant_step, square_eigen):
                    got = fem.assemble_load(m, f)
                    ref = assembly_oracle.stacked_load(m, f)
                    assert got.tobytes() == ref.tobytes(), \
                        (bc, m.level, f.__name__)

    @pytest.mark.parametrize("fn", ["assemble_stiffness", "assemble_mass"])
    def test_traced_peak_bounded_by_result(self, fn):
        # with the mesh's areas and edge table at hand, assembly forms
        # only the (T, 3) diagonal and then the (T, 3) edge entries of the
        # element matrices, each summed by one bincount, and copies no
        # index array; the stiffness forms one coordinate of the edge
        # vectors at a time: 0.95x (stiffness) and 0.56x (mass) one
        # (T, 3, 3) stack at level 5; a whole stack alive exceeds 1x
        m = mesh_hierarchy(builtin_domain("IV", "B3"), 5)[-1]
        m.areas, m.edge_table
        tracemalloc.start()
        try:
            A = getattr(fem, fn)(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = 9 * 8 * m.n_triangles
        assert peak <= stack, peak / stack
        assert A.diag.nbytes + A.off.nbytes < stack / 4

    def test_inverted_triangle_rejected(self):
        m = single_triangle_mesh()
        m = TriMesh(m.domain, m.nodes, m.triangles[:, ::-1], m.boundary_edges)
        for fn in (fem.assemble_stiffness, fem.assemble_mass):
            with pytest.raises(ValueError, match="degenerate"):
                fn(m)


class TestDirichlet:
    """A factor of a subset of the stiffness's rows, read and returned as
    full-length vectors."""

    def test_no_constraints_leaves_system_unchanged(self, lshape_b1_meshes):
        # every node an unknown: the whole (here nonsingular) matrix
        m = lshape_b1_meshes[1]
        K = plus(fem.assemble_stiffness(m), fem.assemble_mass(m))
        b = np.arange(m.n_nodes, dtype=float)
        x = fem.DirectSolver(K, TOL, *nested_dissection(m))(b)
        ref = np.linalg.solve(to_scipy(K).toarray(), b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.array_equal(b, np.arange(m.n_nodes))

    def test_fully_constrained_mesh_rejected(self):
        meshes = mesh_hierarchy(unit_square(), 0)
        m = meshes[0]
        K = fem.assemble_stiffness(m)
        assert m.dirichlet_nodes.all()
        free = np.flatnonzero(~m.dirichlet_nodes)
        with pytest.raises(ValueError, match="all nodes are constrained"):
            fem.DirectSolver(K, TOL, free, free)

    def test_reduced_system_solvable(self, lshape_b1_meshes):
        m = lshape_b1_meshes[2]
        K = fem.assemble_stiffness(m)
        rng = np.random.default_rng(4)
        b = rng.standard_normal(m.n_nodes)
        x = dirichlet_solver(m, K)(b)
        free = ~m.dirichlet_nodes
        assert np.all(x[m.dirichlet_nodes] == 0)
        assert np.linalg.norm((b - K @ x)[free]) <= 1e-9 * np.linalg.norm(b[free])


class TestSolveSpd:
    def test_one_by_one(self):
        A = dense([[4.0]])
        assert fem.DirectSolver(A, TOL, *identity(1))(np.array([2.0]))[0] \
            == pytest.approx(0.5)

    def test_matches_dense_factorization(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((10, 10))
        A = B @ B.T + 10 * np.eye(10)
        b = rng.standard_normal(10)
        x = fem.DirectSolver(dense(A), TOL, *identity(10))(b)
        assert np.linalg.norm(x - np.linalg.solve(A, b)) < 1e-9

    def test_zero_rhs(self):
        A = dense(np.diag([1.0, 2.0, 3.0]))
        assert np.all(fem.DirectSolver(A, TOL, *identity(3))(np.zeros(3)) == 0)

    def test_poisson_manufactured_first_order_h1(self):
        # -lap u = 2 pi^2 sin(pi x) sin(pi y), u = sin(pi x) sin(pi y)
        f = lambda p: 2 * math.pi**2 * np.sin(math.pi * p[:, 0]) * np.sin(math.pi * p[:, 1])
        exact = lambda nodes: np.sin(math.pi * nodes[:, 0]) * np.sin(math.pi * nodes[:, 1])
        errs = []
        for m in mesh_hierarchy(unit_square(), 5)[3:]:
            K = fem.assemble_stiffness(m)
            b = fem.assemble_load(m, f)
            u = dirichlet_solver(m, K)(b)
            d = u - exact(m.nodes)
            # true H1 seminorm error vs the smooth solution, via interpolant
            # plus the known O(h) interpolation bound; the discrete energy
            # difference to the interpolant superconverges, so test decay
            errs.append(math.sqrt(d @ (K @ d)))
        assert errs[1] < 0.6 * errs[0] and errs[2] < 0.6 * errs[1]


class TestMeanZeroSolve:
    def _system(self, level=2):
        m = mesh_hierarchy(builtin_domain("III", "B5"), level)[-1]
        return m, fem.assemble_stiffness(m), fem.assemble_mass(m)

    def test_zero_rhs(self):
        m, A, M = self._system(1)
        assert np.all(mean_zero_solver(m, A, M)(np.zeros(A.shape[0])) == 0)

    def test_compatible_rhs_solved_with_zero_mean(self):
        m, A, M = self._system()
        b = fem.assemble_load(m, quadrant_step)
        v = mean_zero_solver(m, A, M)(b)
        b0 = b - b.sum() / len(b)
        assert np.linalg.norm(b0 - A @ v) <= 1e-9 * np.linalg.norm(b0)
        vm = math.sqrt(v @ (M @ v))
        assert abs(np.ones(len(v)) @ (M @ v)) <= 1e-9 * vm

    def test_incompatible_rhs_rejected(self):
        m, A, M = self._system(1)
        b = fem.assemble_load(m, lambda p: np.ones(len(p)))  # integral 12
        with pytest.raises(fem.CompatibilityError,
                           match="sums to 1.200e[+]01.*must integrate to 0"):
            mean_zero_solver(m, A, M)(b)


SYSTEMS = [("III", "B1"), ("IV", "B3"), ("III", "B5")]


@functools.lru_cache(maxsize=None)
def _meshes(name, bc):
    return mesh_hierarchy(builtin_domain(name, bc), 5)


def _deep_mesh():
    """III/B1 at level 7, where the default CHUNK cuts 12 depths."""
    return refine_uniform(refine_uniform(_meshes("III", "B1")[5]))


def _bordered(A, M):
    m1 = (to_scipy(M) @ np.ones(A.shape[0]))[:, None]
    return sp.bmat([[to_scipy(A), m1], [m1.T, None]], format="csc")


def _system(name, bc, level):
    """The solver of a built-in level as ``LevelContext`` builds it, the
    matrix of the same system in node order (the stiffness on the free
    nodes, or bordered on B5), the full-length right-hand side of the
    quadrant-step load (compatible on B5) and the unknowns."""
    m = _meshes(name, bc)[level]
    b = fem.assemble_load(m, quadrant_step)
    A = fem.assemble_stiffness(m)
    if bc == "B5":
        M = fem.assemble_mass(m)
        return (mean_zero_solver(m, A, M), _bordered(A, M),
                b - b.sum() / len(b), np.arange(m.n_nodes))
    free = np.flatnonzero(~m.dirichlet_nodes)
    return dirichlet_solver(m, A), to_scipy(A)[free][:, free], b, free


class TestDirectSolveAgainstDense:
    """The Cholesky solves against dense LAPACK solves of the same
    systems (level 5 does not fit a dense matrix)."""

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    def test_dirichlet_matches_dense(self, level):
        for name, bc in SYSTEMS[:2]:
            solver, K2, b, free = _system(name, bc, level)
            ref = np.linalg.solve(K2.toarray(), b[free])
            x = solver(b)
            assert np.linalg.norm(x[free] - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    def test_mean_zero_matches_dense_bordered(self, level):
        solver, bordered, b, _ = _system("III", "B5", level)
        n = len(b)
        ref = np.linalg.solve(bordered.toarray(), np.append(b, 0.0))
        assert abs(ref[n]) <= 1e-12 * np.linalg.norm(ref[:n])
        x = solver(b)
        assert np.linalg.norm(x - ref[:n]) <= 1e-12 * np.linalg.norm(ref[:n])


class TestNestedDissectionFactor:
    """The nested-dissection Cholesky factor against SuperLU with its
    default COLAMD ordering and partial pivoting, on the Dirichlet-reduced
    III/B1 and IV/B3 stiffness and the bordered III/B5 matrix."""

    @pytest.mark.parametrize("level", range(6))
    @pytest.mark.parametrize("name, bc", SYSTEMS)
    def test_matches_colamd_oracle(self, name, bc, level):
        solver, matrix, b, free = _system(name, bc, level)
        oracle = spla.splu(matrix.tocsc())
        rhs = np.append(b, 0.0) if bc == "B5" else b[free]
        ref = oracle.solve(rhs)[:len(free)]
        x = solver(b)[free]
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        # L and L^T together hold no more than COLAMD's L and U
        n = solver.factor.n
        if level >= 4:
            assert 2 * solver.factor.nnz - n <= oracle.nnz

    @pytest.mark.parametrize("level", range(5))
    def test_bordered_pivots_are_not_roundoff(self, level):
        # the pure-Neumann stiffness is singular: factored over every node
        # its last pivot is roundoff (or negative); grounding the last node
        # leaves a last pivot of the order of the matrix's entries.  The
        # last pivot is 1 / W[-1, -1] of the root front, W = F11^-1, which
        # has no update set: its H is W.
        m = _meshes("III", "B5")[level]
        A, M = fem.assemble_stiffness(m), fem.assemble_mass(m)
        grounded = mean_zero_solver(m, A, M).factor
        assert 1.0 / grounded.groups[-1][1][0, -1, -1] >= 1e-8 * A.diag.max()
        order, box = nested_dissection(m)
        K = to_scipy(A)[order][:, order].tocoo()
        low = K.row >= K.col
        try:
            whole = Cholesky([K.row[low], K.col[low], K.data[low]], box)
        except np.linalg.LinAlgError:
            return
        assert abs(1.0 / whole.groups[-1][1][0, -1, -1]) \
            < 1e-8 * A.diag.max()


class TestSubsetFactor:
    """The free nodes' factor taken straight from the stiffness against
    the path it replaced, written out here as the oracle: the Cholesky
    factor of the reduced copy A[free][:, free] with its explicit zeros
    (the hypotenuse couplings of the grid) eliminated, in its
    free-relative nested-dissection order, with the solution scattered
    back to full length."""

    @pytest.mark.parametrize("level", range(6))
    @pytest.mark.parametrize("name, bc", [("III", "B1"), ("IV", "B3"),
                                          ("I", "B3")])
    def test_matches_reduced_copy(self, name, bc, level):
        m = _meshes(name, bc)[level]
        A = fem.assemble_stiffness(m)
        b = fem.assemble_load(m, quadrant_step)
        free = np.flatnonzero(~m.dirichlet_nodes)
        order, box = nested_dissection(m, free)
        A_red = to_scipy(A)[free][:, free].tocsr()
        A_red.eliminate_zeros()
        K = A_red[order][:, order].tocoo()
        low = K.row >= K.col
        oracle = Cholesky([K.row[low], K.col[low], K.data[low]], box)
        x_red = np.empty(len(free))
        x_red[order] = oracle.solve(b[free][order])
        ref = np.zeros(m.n_nodes)
        ref[free] = x_red
        solver = dirichlet_solver(m, A)
        assert np.array_equal(solver(b), ref)
        assert solver.factor.nnz == oracle.nnz

    def test_traced_peak_of_the_factor_step(self):
        # the factor takes A's nonzero lower entries from the caller and
        # frees each depth's share once that depth is factored, and keeps
        # no update-set keys beyond the depth that forms them.  6.6 MiB at
        # level 5; 8.4 MiB when a depth's fronts were padded to its largest
        # and the entries lived to the end, 10.0 MiB when each depth kept
        # its children's S to its end, and 13.8 MiB when the caller's
        # copies and a sorted copy of the entries stayed alive and the zero
        # couplings were factored
        m = _meshes("III", "B1")[5]
        A = fem.assemble_stiffness(m)
        free = np.flatnonzero(~m.dirichlet_nodes)
        order, box = nested_dissection(m, free)
        order = free[order]
        tracemalloc.start()
        try:
            solver = fem.DirectSolver(A, TOL, order, box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.3 * 2**20, peak / 2**20
        # the exactly zero hypotenuse couplings of the grid make no entry
        assert np.count_nonzero(A.off == 0) == 12288
        assert solver.factor.nnz == 366537

    def test_residual_check_still_raises(self, lshape_b1_meshes):
        m = lshape_b1_meshes[3]
        solver = dirichlet_solver(m, fem.assemble_stiffness(m), tol=1e-300)
        with pytest.raises(fem.SolveError):
            solver(fem.assemble_load(m, quadrant_step))

    @pytest.mark.parametrize("neumann", [False, True])
    def test_perturbed_factor_raises(self, neumann):
        m = _meshes("III", "B5" if neumann else "B1")[3]
        A = fem.assemble_stiffness(m)
        if neumann:
            solver = mean_zero_solver(m, A, fem.assemble_mass(m))
            b = fem.assemble_load(m, quadrant_step)
        else:
            solver = dirichlet_solver(m, A)
            b = fem.assemble_load(m, const1)
        solver(b)
        assert 0 < solver.backward_error_max <= 1e-14
        _, H = solver.factor.groups[0]
        H *= 1.0 + 1e-6
        with pytest.raises(fem.SolveError, match="backward error"):
            solver(b)

    def test_all_dirichlet_level_gives_zeros_without_factor(self):
        m = mesh_hierarchy(unit_square(), 0)[0]
        ctx = LevelContext(m)
        x = ctx.solve_dirichlet(np.ones(m.n_nodes))
        assert np.array_equal(x, np.zeros(m.n_nodes))
        assert ctx.factor_nnz == 0


def _oracle_pair(m):
    """The level's solver as ``LevelContext`` builds it, the SuperLU oracle
    of the same system, and a right-hand side: a smooth load, made
    compatible on a pure-Neumann level."""
    A = fem.assemble_stiffness(m)
    b = fem.assemble_load(m, square_eigen)
    if m.domain.has_dirichlet():
        free = np.flatnonzero(~m.dirichlet_nodes)
        order, _ = nested_dissection(m, free)
        return (dirichlet_solver(m, A), SuperLUSolver(to_scipy(A), free[order]),
                b)
    M = fem.assemble_mass(m)
    return (mean_zero_solver(m, A, M),
            SuperLUSolver(to_scipy(A), nested_dissection(m)[0], to_scipy(M)),
            b - b.sum() / len(b))


class TestCholeskyAgainstSuperLU:
    """The Cholesky solves against the SuperLU solver they replaced
    (tests/superlu_oracle.py), Dirichlet and pure-Neumann."""

    @pytest.mark.parametrize("level", range(5))
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins(self, name, level):
        for bc in ("B1", "B3", "B5"):
            try:
                m = _meshes(name, bc)[level]
            except DomainError:     # a tagging the domain does not allow
                continue
            if not (~m.dirichlet_nodes).any():
                continue
            solver, oracle, b = _oracle_pair(m)
            ref, x = oracle(b), solver(b)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref), bc

    @given(skyline_domains(max_columns=3, max_height=4))
    @settings(max_examples=25, deadline=None)
    def test_skylines(self, domain):
        try:
            meshes = mesh_hierarchy(domain, 2)
        except MeshError:       # not representable on the level-0 grid
            return
        for m in meshes:
            if not (~m.dirichlet_nodes).any():
                continue
            solver, oracle, b = _oracle_pair(m)
            ref, x = oracle(b), solver(b)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
            if not m.domain.has_dirichlet():
                mass = fem.assemble_mass(m)
                assert abs(np.ones(m.n_nodes) @ (mass @ x)) \
                    <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("chunk, level", [(1, 2), (2000, 4)])
    def test_chunked_fronts(self, chunk, level, monkeypatch):
        # each size class cut into pieces of a few fronts, or of one front
        # when one front has more than CHUNK entries
        for bc in ("B1", "B5"):
            m = _meshes("III", bc)[level]
            solver, oracle, b = _oracle_pair(m)
            monkeypatch.setattr(cholesky, "CHUNK", chunk)
            chunked, _, _ = _oracle_pair(m)
            monkeypatch.undo()
            assert len(chunked.factor.groups) > len(solver.factor.groups)
            assert chunked.factor.nnz == solver.factor.nnz
            ref, x = oracle(b), chunked(b)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_class_with_one_update_row(self):
        # at level 1 of this L-shaped skyline two fronts of 7 pivots and 1
        # update row share a class, so H21 is strided by 8 entries, where
        # numpy 2.4.6's np.negative (AVX-512) writes wrong values: the
        # solve failed its backward-error check
        dom = PolygonDomain(np.array([[0, 0], [7, 0], [7, 1], [2, 1], [2, 4],
                                      [0, 4]], dtype=float),
                            (BCType.DIRICHLET,) * 6)
        for m in mesh_hierarchy(dom, 2):
            solver, oracle, b = _oracle_pair(m)
            ref, x = oracle(b), solver(b)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_not_positive_definite_raises_solve_error(self, lshape_b1_meshes):
        m = lshape_b1_meshes[3]
        A = fem.assemble_stiffness(m)
        free = np.flatnonzero(~m.dirichlet_nodes)
        order, box = nested_dissection(m, free)
        for k in (order[0], order[len(order) // 2], order[-1]):
            diag = A.diag.copy()
            diag[free[k]] = -diag[free[k]]
            bad = fem.EdgeMatrix(diag, A.ends, A.off)
            with pytest.raises(fem.SolveError, match="not positive definite"):
                fem.DirectSolver(bad, TOL, free[order], box)


def _factor_inputs(m):
    """The entries and boxes ``LevelContext`` factors for m's Poisson
    system: rows, cols, vals and box."""
    A = fem.assemble_stiffness(m)
    if m.domain.has_dirichlet():
        free = np.flatnonzero(~m.dirichlet_nodes)
        order, box = nested_dissection(m, free)
        order = free[order]
    else:       # grounded: the last node in the order is left out
        order, box = (a[:-1] for a in nested_dissection(m))
    return (*fem._lower_entries(A, order), box)


def _factor(args):
    """``Cholesky`` of ``_factor_inputs``, which it leaves intact."""
    *entries, box = args
    return Cholesky(entries, box)


def _assert_update_sets(m):
    """Each front's update rows in the factor of m's Poisson system, as
    ``LevelContext`` builds it, equal the key carry's; return the
    factor."""
    rows, cols, vals, box = _factor_inputs(m)
    factor = Cholesky([rows, cols, vals], box)
    starts, sets = update_set_oracle.update_sets(rows, cols, box)
    assert np.array_equal(factor.starts, starts)
    assert np.array_equal(factor.u, [len(s) for s in sets])
    seen = []
    for index, H in factor.groups:
        pm = H.shape[1]
        for f, row in zip(factor.owner[index[:, 0]], index[:, pm:]):
            u = factor.u[f]
            assert np.array_equal(row[:u], sets[f]), f
            assert np.all(row[u:] == factor.n)
            seen.append(f)
    assert sorted(seen) == list(range(len(starts)))
    return factor


class TestUpdateSets:
    """Each front's update set, formed from its own entries and its
    children's U as the factor climbs the tree, against the key carry it
    replaced (tests/update_set_oracle.py)."""

    @pytest.mark.parametrize("level", range(6))
    @pytest.mark.parametrize("name, bc", SYSTEMS)
    def test_builtins(self, name, bc, level):
        _assert_update_sets(_meshes(name, bc)[level])

    @given(skyline_domains(max_columns=3, max_height=4))
    @settings(max_examples=25, deadline=None)
    def test_skylines(self, domain):
        try:
            meshes = mesh_hierarchy(domain, 2)
        except MeshError:       # not representable on the level-0 grid
            return
        for m in meshes:
            if (~m.dirichlet_nodes).any():
                _assert_update_sets(m)

    @pytest.mark.parametrize("chunk, level", [(1, 3), (2000, 4)])
    @pytest.mark.parametrize("name, bc", SYSTEMS)
    def test_chunked_fronts(self, name, bc, chunk, level, monkeypatch):
        # each size class cut into pieces of a few fronts, or of one
        m = _meshes(name, bc)[level]
        whole = _assert_update_sets(m)
        monkeypatch.setattr(cholesky, "CHUNK", chunk)
        assert len(_assert_update_sets(m).groups) > len(whole.groups)

    def test_pieces_at_the_default_chunk(self):
        _assert_update_sets(_deep_mesh())


def _fronts(factor):
    """Each front of a factor, keyed by its first pivot: its unknowns (the
    pivots, then the update set) and its rows of H = W [I, -F21^T], with
    the padding left out."""
    n, out = factor.n, {}
    for index, H in factor.groups:
        pm = H.shape[1]
        for row, h in zip(index, H):
            p, u = np.count_nonzero(row[:pm] < n), np.count_nonzero(row[pm:] < n)
            out[row[0]] = (np.concatenate([row[:p], row[pm:pm + u]]),
                           np.concatenate([h[:p, :p], h[:p, pm:pm + u]], axis=1))
    return out


def _assert_same_factor(m):
    """The factor of m's Poisson system, as ``LevelContext`` builds it,
    has the reference loop's nnz and fronts: the same unknowns, and H
    within 1e-13 of each front's largest entry (size classes pad fronts
    and order the extend-adds differently, which moves the roundoff);
    return it."""
    args = _factor_inputs(m)
    factor, ref = _factor(args), front_oracle.FrontOracle(*args)
    assert factor.nnz == ref.nnz
    got, want = _fronts(factor), _fronts(ref)
    assert sorted(got) == sorted(want)
    for key, (index, H) in want.items():
        assert np.array_equal(got[key][0], index), key
        assert np.abs(got[key][1] - H).max() <= 1e-13 * np.abs(H).max(), key
    return factor


def _assert_pieces_capped(factor):
    """No piece of the factor holds more than CHUNK front entries, unless
    it is one front."""
    for index, _ in factor.groups:
        assert len(index) == 1 or index.size * index.shape[1] <= cholesky.CHUNK


class TestFreedUpdateMatrices:
    """The factor that pads fronts per size class and frees each update
    matrix S once its parent has extended it against the loop that padded
    a depth's fronts to its largest and kept its S to its end
    (tests/front_oracle.py): the same fronts within roundoff, in less
    memory."""

    @pytest.mark.parametrize("level", range(6))
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins(self, name, level):
        for bc in BC_TYPES:
            try:
                m = _meshes(name, bc)[level]
            except DomainError:     # a tagging the domain does not allow
                continue
            if (~m.dirichlet_nodes).any():
                _assert_same_factor(m)

    @given(skyline_domains(max_columns=3, max_height=4))
    @settings(max_examples=25, deadline=None)
    def test_skylines(self, domain):
        try:
            meshes = mesh_hierarchy(domain, 2)
        except MeshError:       # not representable on the level-0 grid
            return
        for m in meshes:
            if (~m.dirichlet_nodes).any():
                _assert_same_factor(m)

    @pytest.mark.parametrize("chunk, level", [(1, 3), (2000, 4)])
    @pytest.mark.parametrize("name, bc", SYSTEMS)
    def test_chunked_fronts(self, name, bc, chunk, level, monkeypatch):
        # each size class is cut into pieces that take their children by
        # position; with CHUNK = 1 each piece is one front, and the
        # extend-add also indexes one child at a time, read as a view
        m = _meshes(name, bc)[level]
        whole = len(_factor(_factor_inputs(m)).groups)
        monkeypatch.setattr(cholesky, "CHUNK", chunk)
        factor = _assert_same_factor(m)
        assert len(factor.groups) > whole
        _assert_pieces_capped(factor)

    def test_pieces_at_the_default_chunk(self):
        # level 7 is the first level whose depths the default CHUNK cuts
        # into pieces; the largest reads 2,083,725 entries of 2,097,152
        _assert_pieces_capped(_assert_same_factor(_deep_mesh()))

    @pytest.mark.parametrize("chunk, level", [(cholesky.CHUNK, 5), (2000, 4)])
    def test_no_update_matrix_outlives_its_parents(self, chunk, level,
                                                    monkeypatch):
        # at every call of _front, and once the factor is built, the S of
        # each child group handed to an earlier call is gone if every
        # front it updates has been factored: neither the pending lists
        # nor the depth loop keep it
        monkeypatch.setattr(cholesky, "CHUNK", chunk)
        done = np.zeros(0, dtype=bool)
        handed = []     # (weakref to a group's whole S, its whole parents)
        front = Cholesky._front

        def whole(a):
            return a if a.base is None else a.base

        def check():
            for ref, up in handed:
                assert ref() is None or not done[up].all()

        def checked(factor, fronts, *args):
            nonlocal done
            if not len(done):
                done = np.zeros(len(factor.starts), dtype=bool)
            check()
            handed.extend([(weakref.ref(whole(S)), whole(up))
                           for S, _, up, _ in args[-1]])
            out = front(factor, fronts, *args)
            done[fronts] = True
            check()
            return out

        monkeypatch.setattr(Cholesky, "_front", checked)
        _factor(_factor_inputs(_meshes("III", "B1")[level]))
        assert done.all() and handed
        assert all(ref() is None for ref, _ in handed)

    @pytest.mark.parametrize("name, bc, mib", [("III", "B1", 7.3),
                                               ("IV", "B3", 8.6)])
    def test_traced_peak_of_the_cholesky_step(self, name, bc, mib):
        # level 5: 6.6 MiB (III/B1) and 7.8 MiB (IV/B3), the entries'
        # per-depth copies included (the caller keeps its own here); 7.6
        # and 9.2 MiB when a depth's fronts were padded to its largest and
        # W's L^-1 outlived it; 9.1 and 11.7 MiB when a depth kept its
        # children's S to its end, the extend-add indexed a whole group at
        # once and H21 and S went through temporaries
        args = _factor_inputs(_meshes(name, bc)[5])
        tracemalloc.start()
        try:
            _factor(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20, peak / 2**20


class TestSizeClasses:
    """Each depth's fronts padded per size class rather than to the
    depth's largest front."""

    def test_stored_entries_near_nnz(self):
        # III/B1 level 5 stores 1.19 nnz(L), 1.325 when each depth was
        # padded to its largest front
        ctx = LevelContext(_meshes("III", "B1")[5])
        ctx.solve_dirichlet(np.ones(ctx.mesh.n_nodes))
        factor = ctx._cache["dirichlet"].factor
        assert ctx.factor_entries == factor.stored \
            == sum(H.size for _, H in factor.groups)
        assert ctx.factor_entries <= 1.22 * ctx.factor_nnz

    def test_classes_are_runs_of_sizes(self, monkeypatch):
        # fronts of one size p + u share a class and the classes ascend in
        # size; with no room to pad (CHUNK >> 7 = 0) each size is a class
        rng = np.random.default_rng(5)
        for _ in range(50):
            p, u = rng.integers(1, 20, 60), rng.integers(0, 40, 60)
            order = np.argsort(p + u, kind="stable")
            label, k = cholesky._classes(p, u)
            assert np.all(np.diff(label[order]) >= 0)
            assert set(label.tolist()) == set(range(k))
            monkeypatch.setattr(cholesky, "CHUNK", 64)
            label, k = cholesky._classes(p, u)
            monkeypatch.undo()
            assert k == len(set((p + u).tolist()))
            assert np.all(np.diff(label[order]) >= 0)

    def test_entries_taken_from_the_caller(self):
        rows, cols, vals, box = _factor_inputs(_meshes("III", "B1")[3])
        entries = [rows, cols, vals]
        Cholesky(entries, box)
        assert entries == []


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
