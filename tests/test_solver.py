import math
from collections import Counter

import numpy as np
import pytest

from biharmfem import fem, solver
from biharmfem.geometry import BCType, PolygonDomain, builtin_domain
from biharmfem.singular import CutoffSpec, corner_bases
from biharmfem.solver import (CompatibilityError, LevelContext,
                              SingularVertexError, solve_modified,
                              solve_modified_neumann, solve_naive)
from biharmfem.sources import const1, quadrant_step, square_eigen, zero
from biharmfem.study import StudyConfig, _run_formulation, run_study
from conftest import mesh_hierarchy, unit_square
from superlu_oracle import to_scipy


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
def test_level_context_rejects_bad_tol(tol, lshape_b1_meshes):
    with pytest.raises(ValueError, match="tol"):
        LevelContext(lshape_b1_meshes[0], tol)


class TestNaive:
    def test_zero_source_gives_zero_solution(self, lshape_b1_meshes):
        res = solve_naive(LevelContext(lshape_b1_meshes[1]), zero)
        assert np.all(res.w_h == 0.0) and np.all(res.u_h == 0.0)

    def test_pure_neumann_is_mean_zero(self):
        # the domain picks the mean-zero Poisson solve
        ctx = LevelContext(mesh_hierarchy(builtin_domain("III", "B5"), 2)[-1])
        res = solve_naive(ctx, quadrant_step)
        for v in (res.w_h, res.u_h):
            vm = math.sqrt(v @ (ctx.mass @ v))
            assert vm > 0
            assert abs(np.ones(len(v)) @ (ctx.mass @ v)) < 1e-9 * vm

    def test_square_hinged_plate_converges_to_eigenfunction(self):
        errs = []
        for m in mesh_hierarchy(unit_square(), 5)[3:]:
            ctx = LevelContext(m)
            res = solve_naive(ctx, square_eigen)
            exact = np.sin(math.pi * m.nodes[:, 0]) * np.sin(math.pi * m.nodes[:, 1])
            errs.append(fem.h1_seminorm_diff(res.u_h, exact, ctx.stiffness))
        assert errs[1] < 0.6 * errs[0] and errs[2] < 0.6 * errs[1]


class TestModified:
    def test_convex_domain_reduces_to_naive(self):
        m = mesh_hierarchy(unit_square(), 3)[-1]
        ctx = LevelContext(m)
        naive = solve_naive(ctx, square_eigen)
        mod = solve_modified(ctx, square_eigen)
        assert mod.diagnostics["d_perp"] == 0
        assert len(mod.zeta_h) == len(mod.coefficients) == 0
        assert np.max(np.abs(mod.u_h - naive.u_h)) < 1e-12

    def test_coefficient_matches_projection_formula(self, lshape_b1_meshes):
        res = solve_modified(LevelContext(lshape_b1_meshes[3]), const1)
        gram = res.diagnostics["gram"]
        rhs = res.diagnostics["gram_rhs"]
        assert res.coefficients[0] == pytest.approx(rhs[0] / gram[0, 0], rel=1e-12)

    def test_orthogonality_residual(self, lshape_b1_meshes):
        res = solve_modified(LevelContext(lshape_b1_meshes[3]), const1)
        assert res.diagnostics["gram_residual"] <= 1e-10

    def test_result_shapes(self, lshape_b1_meshes):
        res = solve_modified(LevelContext(lshape_b1_meshes[2]), const1)
        assert res.diagnostics["d_perp"] == 1
        assert len(res.zeta_h) == len(res.coefficients) == 1

    def test_linearity_in_source(self, lshape_b1_meshes):
        m = lshape_b1_meshes[2]
        ctx = LevelContext(m)
        r1 = solve_modified(ctx, const1)
        r3 = solve_modified(ctx, lambda p: 3.0 * const1(p))
        assert np.allclose(r3.w_h, 3.0 * r1.w_h, atol=1e-9)
        assert r3.coefficients[0] == pytest.approx(3.0 * r1.coefficients[0], rel=1e-8)
        assert np.allclose(r3.u_h, 3.0 * r1.u_h, atol=1e-8)

    def test_differs_from_naive_on_reentrant_domain(self, lshape_b1_meshes):
        m = lshape_b1_meshes[3]
        ctx = LevelContext(m)
        naive = solve_naive(ctx, const1)
        mod = solve_modified(ctx, const1)
        assert np.max(np.abs(naive.u_h - mod.u_h)) > 0.1

    def test_gram_positive_definite_for_two_functions(self):
        m = mesh_hierarchy(builtin_domain("IV", "B3"), 3)[-1]
        res = solve_modified(LevelContext(m), quadrant_step)
        gram = res.diagnostics["gram"]
        assert gram.shape == (2, 2)
        assert np.linalg.det(gram) > 0 and gram[0, 0] > 0

    @pytest.mark.parametrize("n_used", [None, 1], ids=["k2", "k1"])
    def test_gram_condition_number(self, n_used):
        # modified (k = 2) and modified-truncated (k = 1) on IV/B3
        m = mesh_hierarchy(builtin_domain("IV", "B3"), 2)[-1]
        res = solve_modified(LevelContext(m), quadrant_step,
                             truncate_basis=n_used)
        gram = res.diagnostics["gram"]
        assert gram.shape == (n_used or 2,) * 2
        assert res.diagnostics["gram_cond"] == pytest.approx(
            np.linalg.cond(gram, 1), rel=1e-12)

    @pytest.mark.parametrize("gram, match", [
        ([[1.0, 1.0], [1.0, 1.0]], "not positive definite"),
        ([[1.0, 2.0], [2.0, 1.0]], "not positive definite"),
        ([[1.0, 1.0], [1.0, 1.0 + 1e-15]], "numerically singular"),
    ], ids=["singular", "indefinite", "det-below-rtol"])
    def test_bad_gram_raises_solve_error(self, gram, match):
        with pytest.raises(fem.SolveError, match=match):
            solver._gram_coefficients(np.array(gram), np.ones(2))

    def test_truncated_basis_changes_solution(self):
        m = mesh_hierarchy(builtin_domain("IV", "B3"), 3)[-1]
        ctx = LevelContext(m)
        full = solve_modified(ctx, quadrant_step)
        trunc = solve_modified(ctx, quadrant_step, truncate_basis=1)
        assert len(full.coefficients) == 2
        assert len(trunc.coefficients) == 1
        assert np.max(np.abs(full.u_h - trunc.u_h)) > 1e-3

    def test_multiple_singular_vertices_rejected(self):
        # U-shaped domain with two re-entrant corners
        verts = np.array([
            [0.0, 0.0], [1.0, 0.0], [1.0, -1.0], [2.0, -1.0], [2.0, 0.0],
            [3.0, 0.0], [3.0, 1.0], [0.0, 1.0],
        ])
        dom = PolygonDomain(verts, (BCType.DIRICHLET,) * 8)
        m = mesh_hierarchy(dom, 1)[-1]
        with pytest.raises(SingularVertexError) as err:
            solve_modified(LevelContext(m), const1)
        assert "2" in str(err.value)

    def test_contributor_not_largest_angle_warns_at_the_caller(self):
        # vertex 2 (mixed D/N, 135 degrees) contributes; vertex 1 (D/D, 135
        # degrees) is the first largest angle.  The warning's stacklevel
        # counts the frames through the root context's ``once``, so it
        # names the file that called solve_modified
        D, N = BCType.DIRICHLET, BCType.NEUMANN
        dom = PolygonDomain(np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 1.0],
                                      [3.0, 3.0], [0.0, 3.0]]),
                            (D, D, N, D, D))
        ctx = LevelContext(mesh_hierarchy(dom, 1)[-1])
        with pytest.warns(UserWarning, match="vertex 2, which is not the "
                          "largest") as caught:
            res = solve_modified(ctx, const1, CutoffSpec(R=1.0))
        assert [w.filename for w in caught] == [__file__]
        assert res.diagnostics["d_perp"] == 1

    def test_cutoff_parameters_move_coefficient_little(self, lshape_b1_meshes):
        m = lshape_b1_meshes[3]
        ctx = LevelContext(m)
        c1 = solve_modified(ctx, const1).coefficients[0]
        c2 = solve_modified(ctx, const1,
                            cutoff=CutoffSpec(tau=0.25, R=1.2)).coefficients[0]
        assert abs(c1 - c2) < 0.05 * abs(c1)


class TestCompatibility:
    # the integral of the source, the sum the pure-Neumann solve checks
    def test_constant_source_on_lshape(self, lshape_b1_meshes):
        total = fem.assemble_load(lshape_b1_meshes[1], const1).sum()
        assert total == pytest.approx(12.0)

    def test_quadrant_source_balances(self, lshape_b1_meshes):
        total = fem.assemble_load(lshape_b1_meshes[2], quadrant_step).sum()
        assert abs(total) < 1e-12

    def test_zero_source(self, lshape_b1_meshes):
        assert fem.assemble_load(lshape_b1_meshes[1], zero).sum() == 0.0


@pytest.fixture(scope="module")
def meshes():
    return mesh_hierarchy(builtin_domain("III", "B5"), 3)


class TestNeumannVariant:
    def test_incompatible_source_rejected(self, meshes):
        with pytest.raises(CompatibilityError):
            solve_modified_neumann(LevelContext(meshes[1]), const1)

    @pytest.mark.parametrize("solve", [solve_naive, solve_modified,
                                       solve_modified_neumann])
    def test_incompatible_source_rejected_by_the_w_solve(self, meshes,
                                                         solve, monkeypatch):
        # the mean-zero Poisson solve is the one check: it rejects the
        # source's load before any singular quadrature, with an error both
        # ``except SolveError`` and ``except ValueError`` catch
        monkeypatch.setattr(solver, "corner_loads", None)
        with pytest.raises(CompatibilityError, match="sums to 1.200e[+]01") \
                as err:
            solve(LevelContext(meshes[1]), const1)
        assert isinstance(err.value, fem.SolveError)
        assert isinstance(err.value, ValueError)
        assert CompatibilityError is fem.CompatibilityError

    def test_mixed_domain_rejected(self, lshape_b1_meshes):
        with pytest.raises(ValueError):
            solve_modified_neumann(LevelContext(lshape_b1_meshes[1]), quadrant_step)

    def test_solution_mean_zero(self, meshes):
        m = meshes[-1]
        ctx = LevelContext(m)
        res = solve_modified_neumann(ctx, quadrant_step)
        for v in (res.w_h, res.u_h):
            vm = math.sqrt(v @ (ctx.mass @ v))
            assert abs(np.ones(len(v)) @ (ctx.mass @ v)) < 1e-9 * vm

    def test_basis_is_cosine(self, meshes):
        res = solve_modified_neumann(LevelContext(meshes[2]), quadrant_step)
        assert res.diagnostics["d_perp"] == 1
        basis, = corner_bases(meshes[2].domain, 0)
        assert basis.trig == "cos"
        # zeta solves for lap(chi*s) of this cosine basis function
        ctx = LevelContext(meshes[2])
        zeta = ctx.solve_neumann(solver.load_singular(meshes[2], basis))
        assert np.allclose(res.zeta_h[0], zeta, rtol=0, atol=1e-12)

    def test_correction_function_mean_zero(self, meshes):
        res = solve_modified_neumann(LevelContext(meshes[-1]), quadrant_step)
        assert abs(res.diagnostics["xi_mean"]) <= 1e-7

    def test_is_modified_on_all_neumann_domain(self, meshes):
        neu = solve_modified_neumann(LevelContext(meshes[2]), quadrant_step)
        mod = solve_modified(LevelContext(meshes[2]), quadrant_step)
        assert np.array_equal(neu.u_h, mod.u_h)
        assert np.array_equal(neu.coefficients, mod.coefficients)

    def test_corrected_differs_from_naive(self, meshes):
        ctx = LevelContext(meshes[-1])
        cor = solve_modified_neumann(ctx, quadrant_step)
        raw = solve_naive(ctx, quadrant_step)
        assert np.max(np.abs(cor.u_h - raw.u_h)) > 1e-2


class TestQuadratureCache:
    def test_compare_study_computes_each_quadrature_once(self, monkeypatch):
        # one corner_loads pass over both bases, on the finest (level-2)
        # mesh, restricted to the coarser levels, also under the truncated
        # formulation; the one-basis views are never called.  The three pair
        # integrals depend on the domain only: they too run on level 2 only
        calls = Counter()
        for name in ("corner_loads", "load_singular", "load_chi_s",
                     "inner_chi_s_pair"):
            def counted(mesh, *bases, fn=getattr(solver, name), name=name):
                key = tuple(bases[0]) if name == "corner_loads" else bases
                calls[(name, mesh.level, key)] += 1
                return fn(mesh, *bases)
            monkeypatch.setattr(solver, name, counted)
        run_study(StudyConfig(domain="IV", bc_type="B3", source="quadrant-step",
                              formulation="modified",
                              compare_formulation="modified-truncated",
                              max_level=2))
        assert set(calls.values()) == {1}
        assert [(level, len(bases)) for name, level, bases in calls
                if name == "corner_loads"] == [(2, 2)]
        per_function = Counter(name for name, _, _ in calls)
        assert per_function == {"corner_loads": 1, "inner_chi_s_pair": 3}
        assert {level for name, level, _ in calls} == {2}

    @pytest.mark.parametrize("bc", ["B1", "B5"])
    def test_mass_assembled_before_the_factor(self, bc, monkeypatch):
        # M's assembly transients never sit on top of a live factor
        contexts, built = [], []
        direct_solver = fem.DirectSolver

        def checked(*args, **kw):
            built.append(all("M" in ctx._cache for ctx in contexts))
            return direct_solver(*args, **kw)

        monkeypatch.setattr(fem, "DirectSolver", checked)
        source = quadrant_step if bc == "B5" else const1
        for m in mesh_hierarchy(builtin_domain("III", bc), 2):
            contexts.append(LevelContext(m))
            solve_naive(contexts[-1], source)
        assert built == [True] * 3

    def test_level_without_finest_integrates_its_own_mesh(self, monkeypatch):
        # a single-level solve, as the solve command runs it
        levels = []
        corner_loads = solver.corner_loads

        def counted(mesh, bases):
            levels.append(mesh.level)
            return corner_loads(mesh, bases)

        monkeypatch.setattr(solver, "corner_loads", counted)
        m = mesh_hierarchy(builtin_domain("IV", "B3"), 1)[-1]
        solve_modified(LevelContext(m), quadrant_step)
        assert levels == [1]

    def test_compare_study_reuses_poisson_solves(self, monkeypatch):
        # per level: w, zeta_0, zeta_1 and u for modified, then only u for
        # modified-truncated, which reuses w and zeta_0
        solves = Counter()
        dirichlet = LevelContext.solve_dirichlet

        def counted(ctx, rhs):
            solves[ctx.mesh.level] += 1
            return dirichlet(ctx, rhs)

        monkeypatch.setattr(LevelContext, "solve_dirichlet", counted)
        report = run_study(StudyConfig(
            domain="IV", bc_type="B3", source="quadrant-step",
            formulation="modified", compare_formulation="modified-truncated",
            max_level=2))
        assert solves == {0: 5, 1: 5, 2: 5}      # 15 in all, 21 before reuse
        monkeypatch.undo()
        # fresh truncated solves on contexts linked as run_study links them
        finest = LevelContext(report.meshes[-1])
        bases = corner_bases(finest.mesh.domain, 0)
        for m, res, other in zip(report.meshes, report.solutions,
                                  report.other_solutions):
            ctx = finest if m is finest.mesh else LevelContext(m, finest=finest)
            alone = solve_modified(ctx, quadrant_step, truncate_basis=1)
            for name in ("w_h", "u_h", "coefficients"):
                assert np.array_equal(getattr(other, name), getattr(alone, name))
            assert np.array_equal(other.zeta_h[0], alone.zeta_h[0])
            assert other.w_h is res.w_h and other.zeta_h[0] is res.zeta_h[0]
            for loads in ctx.singular_loads(bases):
                for load in loads:
                    with pytest.raises(ValueError):
                        load[0] = 1.0

    def test_compare_study_sets_up_the_bases_once(self, monkeypatch):
        # six corrected solves, one basis setup, kept on the finest level
        calls = []
        setup = solver._singular_setup

        def counted(domain, cutoff):
            calls.append(cutoff)
            return setup(domain, cutoff)

        monkeypatch.setattr(solver, "_singular_setup", counted)
        run_study(StudyConfig(domain="IV", bc_type="B3", source="quadrant-step",
                              formulation="modified",
                              compare_formulation="modified-truncated",
                              max_level=2))
        assert calls == [CutoffSpec()]

    def test_gram_forms_each_mass_product_once(self):
        # M @ zeta once per zeta, for the Gram entries and right-hand side
        m = mesh_hierarchy(builtin_domain("IV", "B3"), 1)[-1]
        ctx = LevelContext(m)
        res = solve_modified(ctx, quadrant_step)
        bases = corner_bases(m.domain, 0)
        chi_s_loads = ctx.singular_loads(bases)[1]
        mass, products = ctx.mass, []

        class Counted:
            def __matmul__(self, x):
                products.append(x)
                return mass @ x

        ctx._cache["M"] = Counted()
        _, diagnostics = solver._gram_solve(ctx, res.w_h, bases, res.zeta_h,
                                            chi_s_loads)
        assert len(products) == len(bases) == 2
        for k in ("gram", "gram_rhs"):
            assert np.array_equal(diagnostics[k], res.diagnostics[k])
        assert np.array_equal(diagnostics["gram"], diagnostics["gram"].T)
        # through a whole pure-Neumann solve, whose xi_mean reads the Gram
        # system's M @ zeta: one product per zeta
        ctx = LevelContext(mesh_hierarchy(builtin_domain("III", "B5"), 2)[-1])
        mass, products = ctx.mass, []
        ctx._cache["M"] = Counted()
        res = solve_modified(ctx, quadrant_step)
        of_zetas = [x for x in products if any(x is z for z in res.zeta_h)]
        assert len(of_zetas) == len(res.zeta_h) == 1
        chi_s = ctx.singular_loads(corner_bases(ctx.mesh.domain, 0))[1][0]
        assert res.diagnostics["xi_mean"] \
            == float((mass @ res.zeta_h[0]).sum() + chi_s.sum())

    def test_key_is_basis_values_and_arrays_are_read_only(self):
        dom = builtin_domain("III", "B5")
        m = mesh_hierarchy(dom, 1)[-1]
        ctx = LevelContext(m)
        first = corner_bases(dom, 0)[0]
        again = corner_bases(dom, 0)[0]
        other = corner_bases(dom, 0, CutoffSpec(R=1.2))[0]
        assert first is not again
        assert first == again and hash(first) == hash(again)
        assert first != other
        load = ctx.quadrature(solver.load_singular, first)
        assert ctx.quadrature(solver.load_singular, again) is load
        assert ctx.quadrature(solver.load_singular, other) is not load
        with pytest.raises(ValueError):
            load[0] = 1.0

    def test_neumann_solve_leaves_cached_load_unchanged(self):
        dom = builtin_domain("III", "B5")
        m = mesh_hierarchy(dom, 2)[-1]
        ctx = LevelContext(m)
        first = solve_modified_neumann(ctx, quadrant_step)
        second = solve_modified_neumann(ctx, quadrant_step)
        basis = corner_bases(dom, 0)[0]
        assert np.array_equal(ctx.quadrature(solver.load_singular, basis),
                              solver.load_singular(m, basis))
        assert np.array_equal(first.u_h, second.u_h)


class TestSolveHealth:
    """A level keeps its Poisson factor's fill and the worst normwise
    backward error of its solves, and every formulation reports both."""

    @pytest.mark.parametrize("name, bc", [("IV", "B3"), ("III", "B5")])
    def test_diagnostics_report_fill_and_worst_residual(self, name, bc):
        m = mesh_hierarchy(builtin_domain(name, bc), 2)[-1]
        ctx = LevelContext(m)
        assert ctx.record()["factor_nnz"] == 0
        assert ctx.record()["backward_error_max"] == 0.0
        neumann = not m.domain.has_dirichlet()
        method = "solve_neumann" if neumann else "solve_dirichlet"
        poisson, errors = getattr(ctx, method), []
        keep = np.ones(m.n_nodes, bool) if neumann else ~m.dirichlet_nodes
        # |A|_inf of the stiffness restricted to the unknowns
        A = to_scipy(ctx.stiffness).tocsr()[keep][:, keep]
        norm_A = abs(A).sum(axis=1).max()

        def recorded(rhs):
            x = poisson(rhs)
            # the backward error of the system the factor solves
            r = rhs - rhs.mean() if neumann else rhs
            d = (r - ctx.stiffness @ x)[keep]
            errors.append(np.abs(d).max()
                          / (norm_A * np.abs(x).max() + np.abs(r[keep]).max()))
            return x

        setattr(ctx, method, recorded)
        naive = solve_naive(ctx, quadrant_step)
        modified = solve_modified(ctx, quadrant_step)
        # naive: w and u; modified reuses w and adds each zeta and its u
        assert len(errors) == 3 + len(modified.zeta_h)
        record = ctx.record()
        assert record["factor_nnz"] > m.n_nodes
        assert 0 < record["backward_error_max"] <= ctx.tol
        assert record["backward_error_max"] == pytest.approx(
            max(errors), rel=1e-6, abs=0.0)
        # each front's H holds its whole W = F11^-1 and its padding, and the
        # factor keeps one H per group of equal fronts
        factor = ctx._cache["neumann" if neumann else "dirichlet"].factor
        per_front = sum(len(index) * H[0].size
                        for index, _, H in factor.pieces)
        assert per_front >= record["factor_nnz"]
        assert record["factor_entries"] <= per_front
        assert 0 < record["factor_groups"] <= record["factor_fronts"] \
            == len(factor.size)
        for res in (naive, modified):
            for key in ("factor_nnz", "factor_entries", "factor_fronts",
                        "factor_groups"):
                assert res.diagnostics[key] == record[key]
        assert modified.diagnostics["backward_error_max"] \
            == record["backward_error_max"]
        assert naive.diagnostics["backward_error_max"] \
            <= record["backward_error_max"]

    @pytest.mark.parametrize("name, bc, f, formulations", [
        ("IV", "B3", const1, ("naive", "modified", "modified-truncated")),
        ("III", "B5", quadrant_step, ("naive", "modified",
                                      "modified-truncated",
                                      "neumann-modified"))])
    def test_record_is_a_fresh_dict_of_the_diagnostics(self, name, bc, f,
                                                       formulations):
        ctx = LevelContext(mesh_hierarchy(builtin_domain(name, bc), 2)[-1])
        keys = ["factor_nnz", "factor_entries", "factor_fronts",
                "factor_groups", "backward_error_max"]
        assert ctx.record() == dict.fromkeys(keys, 0)
        for formulation in formulations:
            res = _run_formulation(formulation, ctx, f, CutoffSpec())
            record = ctx.record()
            assert list(record) == keys
            assert {k: res.diagnostics[k] for k in keys} == record
            record["factor_nnz"] = -1
            assert ctx.record() is not record
            assert ctx.record()["factor_nnz"] > 0

    def test_level_without_free_node_has_no_factor(self):
        ctx = LevelContext(mesh_hierarchy(unit_square(), 0)[0])
        res = solve_naive(ctx, const1)
        assert res.diagnostics["factor_nnz"] == 0
        assert res.diagnostics["factor_entries"] == 0
        assert res.diagnostics["backward_error_max"] == 0.0
