"""Naive and corrected mixed solvers for the biharmonic problem.

The biharmonic problem splits into two chained Poisson solves (the naive
route).  On domains with a large corner the intermediate field w has a
component outside the range of the Laplacian on the H^2-constrained space;
the corrected route removes that component by projecting w onto the span
of the corner singular functions before the second solve:

  1. solve the Poisson problem for w,
  2. for each singular function chi*s, solve for its regular complement
     zeta and form the hybrid field xi = zeta + chi*s,
  3. solve the small Gram system for the projection coefficients,
  4. solve the Poisson problem for u with right-hand side w - sum(c * xi).

The pure-Neumann variant runs the same steps in mean-zero spaces.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .fem import LinearSolveOptions, SolveError
from .geometry import PolygonDomain, perp_dimension, singular_spec
from .mesh import TriMesh
from .singular import (CutoffSpec, GradedQuadratureOptions, HybridField,
                       SingularBasis, bases_from_spec, inner_chi_s_pair,
                       load_chi_s, load_singular)

GRAM_DET_RTOL = 1e-14


class SingularVertexError(ValueError):
    """More singular vertices than the solver supports."""


class CompatibilityError(ValueError):
    """Pure-Neumann source violates the zero-mean compatibility condition."""


@dataclass
class LevelContext:
    """Per-mesh assembly, factorization and singular-quadrature cache
    shared between solves."""

    mesh: TriMesh
    options: LinearSolveOptions = field(default_factory=LinearSolveOptions)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def stiffness(self):
        if "A" not in self._cache:
            self._cache["A"] = fem.assemble_stiffness(self.mesh)
        return self._cache["A"]

    @property
    def mass(self):
        if "M" not in self._cache:
            self._cache["M"] = fem.assemble_mass(self.mesh)
        return self._cache["M"]

    def _dirichlet_system(self):
        if "reduced" not in self._cache:
            A_red, _, free = fem.apply_dirichlet(
                self.stiffness, np.zeros(self.mesh.n_nodes), self.mesh.dirichlet_nodes
            )
            precond = fem._make_preconditioner(A_red, self.options)
            self._cache["reduced"] = (A_red, free, precond)
        return self._cache["reduced"]

    def solve_dirichlet(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the Dirichlet-reduced Poisson system; full-length result
        with zeros at constrained nodes."""
        A_red, free, precond = self._dirichlet_system()
        x = np.zeros(self.mesh.n_nodes)
        x[free] = fem.solve_spd(A_red, rhs[free], self.options, precond=precond)
        return x

    def solve_neumann(self, rhs: np.ndarray) -> np.ndarray:
        if "neumann_precond" not in self._cache:
            self._cache["neumann_precond"] = fem.make_mean_zero_preconditioner(
                self.stiffness, self.mass, self.options
            )
        return fem.solve_mean_zero(self.stiffness, self.mass, rhs, self.options,
                                   precond=self._cache["neumann_precond"])

    def quadrature(self, fn, *bases: SingularBasis,
                   opts: GradedQuadratureOptions | None = None):
        """fn(mesh, *bases, opts), computed once per level for each set of
        basis values; arrays come back read-only."""
        key = (fn, opts) + tuple(b.key for b in bases)
        if key not in self._cache:
            value = fn(self.mesh, *bases, opts)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            self._cache[key] = value
        return self._cache[key]


@dataclass
class NaiveSolveResult:
    w_h: np.ndarray
    u_h: np.ndarray


@dataclass
class ModifiedSolveResult:
    w_h: np.ndarray
    zeta_h: list[np.ndarray]
    xi_h: list[HybridField]
    coefficients: np.ndarray
    u_h: np.ndarray
    diagnostics: dict


def check_compatibility(mesh: TriMesh, f) -> float:
    """Integral of the source over the domain (zero required for the
    pure-Neumann problem)."""
    return float(fem.assemble_load(mesh, f).sum())


def _singular_setup(domain: PolygonDomain, cutoff: CutoffSpec | None):
    """Resolve the corrective basis of the domain; errors on multiple
    singular vertices, warns when the contributor is not the largest angle."""
    d_perp, contributing = perp_dimension(domain)
    if d_perp == 0:
        return 0, []
    if len(contributing) > 1:
        raise SingularVertexError(
            f"domain has {len(contributing)} singular vertices "
            f"{contributing} (d_perp = {d_perp}); only a single singular "
            "vertex is supported"
        )
    j = contributing[0]
    if j != int(np.argmax(domain.angles)):
        warnings.warn(
            f"singular contribution at vertex {j}, which is not the largest "
            "interior angle", stacklevel=3
        )
    bases = bases_from_spec(singular_spec(domain, j), cutoff)
    return d_perp, bases


def solve_naive(mesh: TriMesh, f, options: LinearSolveOptions | None = None,
                ctx: LevelContext | None = None) -> NaiveSolveResult:
    """Two chained Dirichlet-reduced Poisson solves (no correction)."""
    if not mesh.domain.has_dirichlet():
        raise ValueError("naive mixed solve requires a Dirichlet part; "
                         "use the pure-Neumann variant")
    ctx = ctx or LevelContext(mesh, options or LinearSolveOptions())
    w = ctx.solve_dirichlet(fem.assemble_load(mesh, f))
    u = ctx.solve_dirichlet(ctx.mass @ w)
    return NaiveSolveResult(w_h=w, u_h=u)


def solve_modified(mesh: TriMesh, f, cutoff: CutoffSpec | None = None,
                   options: LinearSolveOptions | None = None,
                   quad_opts: GradedQuadratureOptions | None = None,
                   ctx: LevelContext | None = None,
                   truncate_basis: int | None = None) -> ModifiedSolveResult:
    """Corrected mixed solve (mixed boundary conditions, Dirichlet part
    nonempty).

    ``truncate_basis`` artificially limits the number of singular functions
    used (reproducing the under-corrected variant); default uses all.
    """
    domain = mesh.domain
    if not domain.has_dirichlet():
        raise ValueError("use solve_modified_neumann for the pure-Neumann problem")
    ctx = ctx or LevelContext(mesh, options or LinearSolveOptions())
    d_perp, bases = _singular_setup(domain, cutoff)
    if truncate_basis is not None:
        bases = bases[:truncate_basis]

    # Step 1
    w = ctx.solve_dirichlet(fem.assemble_load(mesh, f))
    if not bases:
        u = ctx.solve_dirichlet(ctx.mass @ w)
        return ModifiedSolveResult(w, [], [], np.zeros(0), u,
                                   diagnostics={"d_perp": d_perp})

    # Step 2
    zetas, xis, chi_s_loads = [], [], []
    for basis in bases:
        zeta = ctx.solve_dirichlet(
            ctx.quadrature(load_singular, basis, opts=quad_opts))
        zetas.append(zeta)
        xis.append(HybridField(zeta, [(basis, 1.0)]))
        chi_s_loads.append(ctx.quadrature(load_chi_s, basis, opts=quad_opts))

    # Step 3: Gram system for the projection coefficients
    coeffs, gram_info = _gram_solve(ctx, w, bases, zetas, chi_s_loads,
                                    quad_opts)

    # Step 4
    rhs = ctx.mass @ (w - sum(c * z for c, z in zip(coeffs, zetas)))
    rhs -= sum(c * bs for c, bs in zip(coeffs, chi_s_loads))
    u = ctx.solve_dirichlet(rhs)
    return ModifiedSolveResult(
        w_h=w, zeta_h=zetas, xi_h=xis, coefficients=coeffs, u_h=u,
        diagnostics={"d_perp": d_perp, **gram_info},
    )


def _gram_solve(ctx, w, bases, zetas, chi_s_loads, quad_opts):
    """Projection coefficients, and the Gram matrix, right-hand side,
    determinant and relative residual as diagnostics."""
    k = len(bases)
    gram = np.empty((k, k))
    for a in range(k):
        for b in range(a, k):
            val = float(zetas[a] @ (ctx.mass @ zetas[b]))
            val += float(zetas[a] @ chi_s_loads[b])
            val += float(zetas[b] @ chi_s_loads[a])
            val += ctx.quadrature(inner_chi_s_pair, bases[a], bases[b],
                                  opts=quad_opts)
            gram[a, b] = gram[b, a] = val
    rhs = np.array([
        float(w @ (ctx.mass @ z)) + float(w @ bs)
        for z, bs in zip(zetas, chi_s_loads)
    ])
    det = float(np.linalg.det(gram))
    scale = float(np.prod(np.diag(gram)))
    if abs(det) < GRAM_DET_RTOL * max(scale, 1e-300):
        raise SolveError(f"Gram matrix numerically singular (det = {det:.3e})")
    coeffs = np.linalg.solve(gram, rhs)
    residual = float(np.linalg.norm(gram @ coeffs - rhs)
                     / max(np.linalg.norm(rhs), 1e-300))
    return coeffs, {"gram": gram, "gram_det": det, "gram_rhs": rhs,
                    "gram_residual": residual}


def solve_modified_neumann(mesh: TriMesh, f, cutoff: CutoffSpec | None = None,
                           options: LinearSolveOptions | None = None,
                           quad_opts: GradedQuadratureOptions | None = None,
                           ctx: LevelContext | None = None,
                           corrected: bool = True) -> ModifiedSolveResult:
    """Corrected mixed solve for the pure-Neumann problem in mean-zero
    spaces; ``corrected=False`` gives the naive variant on the same path."""
    domain = mesh.domain
    if not domain.all_neumann():
        raise ValueError("pure-Neumann solver requires all edges Neumann")
    ctx = ctx or LevelContext(mesh, options or LinearSolveOptions())
    b_f = fem.assemble_load(mesh, f)
    total = float(b_f.sum())
    if abs(total) > 1e-10 * max(np.linalg.norm(b_f), 1e-300):
        raise CompatibilityError(
            f"source integral over the domain is {total:.6g}; the "
            "pure-Neumann problem requires a mean-zero source "
            "(compatibility condition)"
        )
    d_perp, bases = _singular_setup(domain, cutoff)
    w = ctx.solve_neumann(b_f)
    if not corrected or not bases:
        u = ctx.solve_neumann(ctx.mass @ w)
        return ModifiedSolveResult(w, [], [], np.zeros(0), u,
                                   diagnostics={"d_perp": d_perp})
    if d_perp != 1:
        raise SingularVertexError(
            f"pure-Neumann correction expects d_perp = 1, got {d_perp}"
        )
    basis = bases[0]
    b_lap = ctx.quadrature(load_singular, basis, opts=quad_opts)
    # analytically compatible; clean roundoff (out of place: b_lap is cached)
    b_lap = b_lap - b_lap.sum() / len(b_lap)
    zeta = ctx.solve_neumann(b_lap)
    bs = ctx.quadrature(load_chi_s, basis, opts=quad_opts)
    xi = HybridField(zeta, [(basis, 1.0)])
    coeffs, gram_info = _gram_solve(ctx, w, [basis], [zeta], [bs], quad_opts)
    rhs = ctx.mass @ (w - coeffs[0] * zeta) - coeffs[0] * bs
    xi_mean = float((ctx.mass @ zeta).sum() + bs.sum())
    if abs(float(rhs.sum())) > 1e-8 * max(np.linalg.norm(rhs), 1e-300):
        raise SolveError(
            f"corrected right-hand side violates compatibility "
            f"(sum = {rhs.sum():.3e}); singular quadrature failure"
        )
    rhs -= rhs.sum() / len(rhs)
    u = ctx.solve_neumann(rhs)
    return ModifiedSolveResult(
        w_h=w, zeta_h=[zeta], xi_h=[xi], coefficients=coeffs, u_h=u,
        diagnostics={"d_perp": d_perp, **gram_info, "xi_mean": xi_mean},
    )
