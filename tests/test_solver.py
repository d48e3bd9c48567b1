import math
from collections import Counter

import numpy as np
import pytest

from biharmfem import fem, solver
from biharmfem.geometry import BCType, PolygonDomain, builtin_domain
from biharmfem.geometry import singular_spec
from biharmfem.singular import CutoffSpec, bases_from_spec
from biharmfem.solver import (CompatibilityError, LevelContext,
                              SingularVertexError, check_compatibility,
                              solve_modified, solve_modified_neumann,
                              solve_naive)
from biharmfem.sources import const1, quadrant_step, square_eigen, zero
from biharmfem.study import StudyConfig, run_study
from conftest import mesh_hierarchy, unit_square


class TestNaive:
    def test_zero_source_gives_zero_solution(self, lshape_b1_meshes):
        res = solve_naive(lshape_b1_meshes[1], zero)
        assert np.all(res.w_h == 0.0) and np.all(res.u_h == 0.0)

    def test_pure_neumann_rejected(self):
        m = mesh_hierarchy(builtin_domain("III", "B5"), 1)[-1]
        with pytest.raises(ValueError):
            solve_naive(m, quadrant_step)

    def test_square_hinged_plate_converges_to_eigenfunction(self):
        errs = []
        for m in mesh_hierarchy(unit_square(), 5)[3:]:
            ctx = LevelContext(m)
            res = solve_naive(m, square_eigen, ctx=ctx)
            exact = np.sin(math.pi * m.nodes[:, 0]) * np.sin(math.pi * m.nodes[:, 1])
            errs.append(fem.h1_seminorm_diff(res.u_h, exact, ctx.stiffness))
        assert errs[1] < 0.6 * errs[0] and errs[2] < 0.6 * errs[1]


class TestModified:
    def test_convex_domain_reduces_to_naive(self):
        m = mesh_hierarchy(unit_square(), 3)[-1]
        ctx = LevelContext(m)
        naive = solve_naive(m, square_eigen, ctx=ctx)
        mod = solve_modified(m, square_eigen, ctx=ctx)
        assert mod.diagnostics["d_perp"] == 0
        assert len(mod.xi_h) == 0
        assert np.max(np.abs(mod.u_h - naive.u_h)) < 1e-12

    def test_coefficient_matches_projection_formula(self, lshape_b1_meshes):
        res = solve_modified(lshape_b1_meshes[3], const1)
        gram = res.diagnostics["gram"]
        rhs = res.diagnostics["gram_rhs"]
        assert res.coefficients[0] == pytest.approx(rhs[0] / gram[0, 0], rel=1e-12)

    def test_orthogonality_residual(self, lshape_b1_meshes):
        res = solve_modified(lshape_b1_meshes[3], const1)
        assert res.diagnostics["gram_residual"] <= 1e-10

    def test_result_shapes(self, lshape_b1_meshes):
        res = solve_modified(lshape_b1_meshes[2], const1)
        assert res.diagnostics["d_perp"] == 1
        assert len(res.zeta_h) == len(res.xi_h) == len(res.coefficients) == 1

    def test_linearity_in_source(self, lshape_b1_meshes):
        m = lshape_b1_meshes[2]
        ctx = LevelContext(m)
        r1 = solve_modified(m, const1, ctx=ctx)
        r3 = solve_modified(m, lambda p: 3.0 * const1(p), ctx=ctx)
        assert np.allclose(r3.w_h, 3.0 * r1.w_h, atol=1e-9)
        assert r3.coefficients[0] == pytest.approx(3.0 * r1.coefficients[0], rel=1e-8)
        assert np.allclose(r3.u_h, 3.0 * r1.u_h, atol=1e-8)

    def test_differs_from_naive_on_reentrant_domain(self, lshape_b1_meshes):
        m = lshape_b1_meshes[3]
        ctx = LevelContext(m)
        naive = solve_naive(m, const1, ctx=ctx)
        mod = solve_modified(m, const1, ctx=ctx)
        assert np.max(np.abs(naive.u_h - mod.u_h)) > 0.1

    def test_gram_positive_definite_for_two_functions(self):
        m = mesh_hierarchy(builtin_domain("IV", "B3"), 3)[-1]
        res = solve_modified(m, quadrant_step)
        gram = res.diagnostics["gram"]
        assert gram.shape == (2, 2)
        assert np.linalg.det(gram) > 0 and gram[0, 0] > 0

    def test_truncated_basis_changes_solution(self):
        m = mesh_hierarchy(builtin_domain("IV", "B3"), 3)[-1]
        ctx = LevelContext(m)
        full = solve_modified(m, quadrant_step, ctx=ctx)
        trunc = solve_modified(m, quadrant_step, ctx=ctx, truncate_basis=1)
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
            solve_modified(m, const1)
        assert "2" in str(err.value)

    def test_cutoff_parameters_move_coefficient_little(self, lshape_b1_meshes):
        m = lshape_b1_meshes[3]
        ctx = LevelContext(m)
        c1 = solve_modified(m, const1, ctx=ctx).coefficients[0]
        c2 = solve_modified(m, const1, cutoff=CutoffSpec(tau=0.25, R=1.2),
                            ctx=ctx).coefficients[0]
        assert abs(c1 - c2) < 0.05 * abs(c1)


class TestCompatibility:
    def test_constant_source_on_lshape(self, lshape_b1_meshes):
        assert check_compatibility(lshape_b1_meshes[1], const1) == pytest.approx(12.0)

    def test_quadrant_source_balances(self, lshape_b1_meshes):
        assert abs(check_compatibility(lshape_b1_meshes[2], quadrant_step)) < 1e-12

    def test_zero_source(self, lshape_b1_meshes):
        assert check_compatibility(lshape_b1_meshes[1], zero) == 0.0


@pytest.fixture(scope="module")
def meshes():
    return mesh_hierarchy(builtin_domain("III", "B5"), 3)


class TestNeumannVariant:
    def test_incompatible_source_rejected(self, meshes):
        with pytest.raises(CompatibilityError):
            solve_modified_neumann(meshes[1], const1)

    def test_mixed_domain_rejected(self, lshape_b1_meshes):
        with pytest.raises(ValueError):
            solve_modified_neumann(lshape_b1_meshes[1], quadrant_step)

    def test_solution_mean_zero(self, meshes):
        m = meshes[-1]
        ctx = LevelContext(m)
        res = solve_modified_neumann(m, quadrant_step, ctx=ctx)
        for v in (res.w_h, res.u_h):
            vm = math.sqrt(v @ (ctx.mass @ v))
            assert abs(np.ones(len(v)) @ (ctx.mass @ v)) < 1e-9 * vm

    def test_basis_is_cosine(self, meshes):
        res = solve_modified_neumann(meshes[2], quadrant_step)
        assert res.diagnostics["d_perp"] == 1
        (basis, coeff), = res.xi_h[0].analytic_parts
        assert basis.trig == "cos"

    def test_correction_function_mean_zero(self, meshes):
        res = solve_modified_neumann(meshes[-1], quadrant_step)
        assert abs(res.diagnostics["xi_mean"]) <= 1e-7

    def test_corrected_differs_from_uncorrected(self, meshes):
        m = meshes[-1]
        ctx = LevelContext(m)
        cor = solve_modified_neumann(m, quadrant_step, ctx=ctx)
        raw = solve_modified_neumann(m, quadrant_step, ctx=ctx, corrected=False)
        assert np.max(np.abs(cor.u_h - raw.u_h)) > 1e-2


class TestQuadratureCache:
    def test_compare_study_computes_each_quadrature_once(self, monkeypatch):
        calls = Counter()
        for name in ("load_singular", "load_chi_s", "inner_chi_s_pair"):
            def counted(mesh, *args, fn=getattr(solver, name), name=name):
                bases = tuple(a.key for a in args[:-1])
                calls[(name, mesh.level, bases)] += 1
                return fn(mesh, *args)
            monkeypatch.setattr(solver, name, counted)
        run_study(StudyConfig(domain="IV", bc_type="B3", source="quadrant-step",
                              formulation="modified",
                              compare_formulation="modified-truncated",
                              max_level=2))
        assert set(calls.values()) == {1}
        per_function = Counter(name for name, _, _ in calls)
        assert per_function == {"load_singular": 6, "load_chi_s": 6,
                                "inner_chi_s_pair": 9}

    def test_key_is_basis_values_and_arrays_are_read_only(self):
        dom = builtin_domain("III", "B5")
        m = mesh_hierarchy(dom, 1)[-1]
        ctx = LevelContext(m)
        first = bases_from_spec(singular_spec(dom, 0))[0]
        again = bases_from_spec(singular_spec(dom, 0))[0]
        load = ctx.quadrature(solver.load_singular, first)
        assert ctx.quadrature(solver.load_singular, again) is load
        assert ctx.quadrature(solver.load_singular, bases_from_spec(
            singular_spec(dom, 0), CutoffSpec(R=1.2))[0]) is not load
        with pytest.raises(ValueError):
            load[0] = 1.0

    def test_neumann_solve_leaves_cached_load_unchanged(self):
        dom = builtin_domain("III", "B5")
        m = mesh_hierarchy(dom, 2)[-1]
        ctx = LevelContext(m)
        first = solve_modified_neumann(m, quadrant_step, ctx=ctx)
        second = solve_modified_neumann(m, quadrant_step, ctx=ctx)
        basis = bases_from_spec(singular_spec(dom, 0))[0]
        assert np.array_equal(ctx.quadrature(solver.load_singular, basis),
                              solver.load_singular(m, basis))
        assert np.array_equal(first.u_h, second.u_h)
