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

The domain picks the Poisson solve: the Dirichlet-reduced one when the
boundary has a Dirichlet part, else the mass-mean-zero one, so both the
naive and the corrected solve accept every boundary condition.  The
mean-zero solve is where compatibility is checked: it raises
``CompatibilityError`` on a right-hand side that does not sum to zero, so
on a source that does not integrate to 0.  ``solve_modified_neumann`` is
``solve_modified`` restricted to all-Neumann domains.

Each level factors its stiffness once by a multifrontal Cholesky over the
nested-dissection tree of the unknowns of its Poisson solve
(``mesh.nested_dissection``): the free nodes, or every node but one
grounded node on a pure-Neumann level.  It reports the factor's fill (the
nonzeros of L, its diagonal included) and the worst normwise backward
error of its solves with every result.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .fem import SolveError
from .geometry import PolygonDomain, perp_dimension
from .mesh import TriMesh, nested_dissection, restrict
from .singular import (CutoffSpec, SingularBasis, clearance, corner_bases,
                       corner_loads, inner_chi_s_pair, load_chi_s,
                       load_singular)

GRAM_DET_RTOL = 1e-14


class SingularVertexError(ValueError):
    """More singular vertices than the solver supports."""


CompatibilityError = fem.CompatibilityError    # re-exported


@dataclass
class LevelContext:
    """One mesh level: the mesh, the normwise backward error ``tol`` every
    Poisson solve must reach (see ``fem.DirectSolver``), and the assembly,
    factorization, singular-quadrature and Poisson-solution caches shared
    between solves; ``record()`` reports the Poisson factor's health.
    ``finest``, the context of a finer level of the same hierarchy,
    supplies the singular loads, integrated once on its mesh and
    restricted to this one, and the pair integrals, which depend on the
    domain only."""

    mesh: TriMesh
    tol: float = 1e-10
    finest: LevelContext | None = field(default=None, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")

    @property
    def root(self) -> LevelContext:
        """The context that holds the hierarchy's shared caches:
        ``finest``, else this one."""
        return self if self.finest is None else self.finest

    @property
    def stiffness(self):
        return self.once("A", lambda: fem.assemble_stiffness(self.mesh))

    @property
    def mass(self):
        return self.once("M", lambda: fem.assemble_mass(self.mesh))

    def solve_dirichlet(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the Dirichlet-reduced Poisson system with the level's cached
        factor; full-length result with zeros at constrained nodes, so the
        zero vector on a level with no free node (a coarse mesh whose every
        node lies on the Dirichlet boundary)."""
        if self.mesh.dirichlet_nodes.all():
            return np.zeros(self.mesh.n_nodes)
        if "dirichlet" not in self._cache:
            free = np.flatnonzero(~self.mesh.dirichlet_nodes)
            order, box = nested_dissection(self.mesh, free)
            # every formulation needs M: assemble it before the factor
            A, _ = self.stiffness, self.mass
            self._cache["dirichlet"] = fem.DirectSolver(A, self.tol,
                                                        free[order], box)
        return self._cache["dirichlet"](rhs)

    def solve_neumann(self, rhs: np.ndarray) -> np.ndarray:
        """Mass-mean-zero solution of the pure-Neumann Poisson system with a
        compatible right-hand side, with the level's cached factor."""
        if "neumann" not in self._cache:
            self._cache["neumann"] = fem.DirectSolver(
                self.stiffness, self.tol, *nested_dissection(self.mesh),
                mass=self.mass)
        return self._cache["neumann"](rhs)

    def record(self) -> dict:
        """The level's factor health, as a new dict: ``factor_nnz``, the
        nonzeros of its Cholesky factor L, diagonal included;
        ``factor_entries``, the entries of H it stores, one H per group of
        equal fronts, padding included (``cholesky.Cholesky.stored``);
        ``factor_fronts``, its fronts; ``factor_groups``, the groups of
        equal fronts it keeps one H for, a front equal to no other of its
        piece counting as one (``cholesky.Cholesky.n_groups``); and
        ``backward_error_max``, the worst normwise backward error of its
        Poisson solves.  All are 0 before the first solve."""
        solvers = [self._cache[k] for k in ("dirichlet", "neumann")
                   if k in self._cache]
        factors = [s.factor for s in solvers]
        return {"factor_nnz": sum(f.nnz for f in factors),
                "factor_entries": sum(f.stored for f in factors),
                "factor_fronts": sum(len(f.size) for f in factors),
                "factor_groups": sum(f.n_groups for f in factors),
                "backward_error_max": max(
                    (s.backward_error_max for s in solvers), default=0.0)}

    def once(self, key, compute):
        """compute(), computed once per level for each key; arrays come
        back read-only."""
        if key not in self._cache:
            value = compute()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            self._cache[key] = value
        return self._cache[key]

    def load(self, f) -> np.ndarray:
        """The P1 load vector of the source ``f``, read-only."""
        return self.once(("load", f), lambda: fem.assemble_load(self.mesh, f))

    def quadrature(self, fn, *bases: SingularBasis):
        """fn(mesh, *bases), computed once per level for each set of equal
        bases; arrays come back read-only."""
        return self.once((fn, *bases), lambda: fn(self.mesh, *bases))

    def singular_loads(self, bases: list[SingularBasis]):
        """The loads of lap(chi*s) and of chi*s of each of a corner's bases,
        as two lists: one ``corner_loads`` pass over every basis on the
        ``root`` mesh, restricted to this mesh, each load kept as
        ``quadrature(load_singular, basis)`` and
        ``quadrature(load_chi_s, basis)`` return it."""
        if any((load_singular, b) not in self._cache for b in bases):
            root = self.root
            if root is self:
                loads = corner_loads(self.mesh, bases)
            else:
                loads = [restrict(root.mesh, rows, self.mesh)
                         for rows in root.singular_loads(bases)]
            for fn, rows in zip((load_singular, load_chi_s), loads):
                rows.flags.writeable = False
                for basis, row in zip(bases, rows):
                    self._cache.setdefault((fn, basis), row)
        return ([self.quadrature(load_singular, b) for b in bases],
                [self.quadrature(load_chi_s, b) for b in bases])


@dataclass
class ModifiedSolveResult:
    """Result of every formulation; the naive solve leaves ``zeta_h`` and
    ``coefficients`` empty.  ``diagnostics`` holds the level's
    ``LevelContext.record()`` and, for a corrected solve, the Gram
    system's."""

    w_h: np.ndarray
    u_h: np.ndarray
    zeta_h: list[np.ndarray]
    coefficients: np.ndarray
    diagnostics: dict


def _singular_setup(domain: PolygonDomain, cutoff: CutoffSpec | None
                    ) -> list[SingularBasis]:
    """The corrective basis of the domain; errors on multiple singular
    vertices and on R >= the corner's ``clearance``, warns when the
    contributor is not the largest angle."""
    d_perp, contributing = perp_dimension(domain)
    if not contributing:
        return []
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
            "interior angle", stacklevel=5
        )
    R, reach = (cutoff or CutoffSpec()).R, clearance(domain, domain.vertices[j])
    if R >= reach:      # chi*s would break the boundary condition there
        raise ValueError(
            f"cutoff radius {R:g} reaches the clearance {reach:.6g} of singular "
            f"vertex {j}; choose --cutoff-radius below {reach:.6g}")
    return corner_bases(domain, j, cutoff)


def _mixed_solve(ctx: LevelContext, f, bases: list[SingularBasis],
                 n_used: int | None = None) -> ModifiedSolveResult:
    """The four steps every formulation shares, correcting with the first
    ``n_used`` (all by default) of the corner's ``bases``; an empty
    ``bases`` gives the naive solve.  The domain picks the Poisson solve:
    the Dirichlet-reduced one when the boundary has a Dirichlet part, else
    the mass-mean-zero one, which rejects an incompatible source with
    ``CompatibilityError``.  The solves for w (keyed on the source ``f``)
    and for each zeta (keyed on its basis) are kept on the level, so
    another formulation on it reuses them."""
    neumann = not ctx.mesh.domain.has_dirichlet()
    poisson = ctx.solve_neumann if neumann else ctx.solve_dirichlet
    # Step 1
    w = ctx.once(("w", f), lambda: poisson(ctx.load(f)))
    # Step 2
    lap_loads, chi_s_loads = ctx.singular_loads(bases)
    bases, chi_s_loads = bases[:n_used], chi_s_loads[:n_used]
    zetas = [ctx.once(("zeta", basis), lambda lap=lap: poisson(lap))
             for basis, lap in zip(bases, lap_loads)]
    # Step 3: Gram system for the projection coefficients
    coeffs, diagnostics = np.zeros(0), {}
    if bases:
        coeffs, diagnostics = _gram_solve(ctx, w, bases, zetas, chi_s_loads)
    # Step 4
    rhs = ctx.mass @ (w - sum(c * z for c, z in zip(coeffs, zetas)))
    rhs -= sum(c * bs for c, bs in zip(coeffs, chi_s_loads))
    u = poisson(rhs)
    diagnostics.update(ctx.record())
    return ModifiedSolveResult(w, u, zetas, coeffs, diagnostics)


def _gram_solve(ctx, w, bases, zetas, chi_s_loads):
    """Projection coefficients, and as diagnostics the Gram matrix,
    right-hand side, determinant, 1-norm condition number, relative residual
    and, on a pure-Neumann level, ``xi_mean`` from the M products of zetas."""
    k = len(bases)
    m_zetas = [ctx.mass @ z for z in zetas]
    gram = np.empty((k, k))
    for a in range(k):
        for b in range(a, k):
            val = float(zetas[a] @ m_zetas[b])
            val += float(zetas[a] @ chi_s_loads[b])
            val += float(zetas[b] @ chi_s_loads[a])
            val += ctx.root.quadrature(inner_chi_s_pair, bases[a], bases[b])
            gram[a, b] = gram[b, a] = val
    rhs = np.array([float(w @ mz) + float(w @ bs)
                    for mz, bs in zip(m_zetas, chi_s_loads)])
    coeffs, diagnostics = _gram_coefficients(gram, rhs)
    diagnostics = {"gram": gram, "gram_rhs": rhs, **diagnostics}
    if not ctx.mesh.domain.has_dirichlet():
        diagnostics["xi_mean"] = float(m_zetas[0].sum() + chi_s_loads[0].sum())
    return coeffs, diagnostics


def _gram_coefficients(gram, rhs):
    """Solve the SPD Gram system by its Cholesky factor L, through
    L^-1 (the two routines the Poisson factor already uses): raises
    ``SolveError`` unless ``gram`` is positive definite with
    det = prod(diag(L))^2 at least ``GRAM_DET_RTOL`` times the product of
    its diagonal.  Returns the coefficients and the determinant, the
    1-norm condition number and the relative residual."""
    try:
        L = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise SolveError("Gram matrix not positive definite") from None
    det = float(np.prod(np.diag(L)) ** 2)
    scale = float(np.prod(np.diag(gram)))
    if det < GRAM_DET_RTOL * max(scale, 1e-300):
        raise SolveError(f"Gram matrix numerically singular (det = {det:.3e})")
    L_inv = np.linalg.inv(L)
    coeffs = L_inv.T @ (L_inv @ rhs)
    cond = float(np.linalg.norm(gram, 1) * np.linalg.norm(L_inv.T @ L_inv, 1))
    residual = float(np.linalg.norm(gram @ coeffs - rhs)
                     / max(np.linalg.norm(rhs), 1e-300))
    return coeffs, {"gram_det": det, "gram_cond": cond,
                    "gram_residual": residual}


def solve_naive(ctx: LevelContext, f) -> ModifiedSolveResult:
    """Two chained Poisson solves (no correction)."""
    return _mixed_solve(ctx, f, [])


def solve_modified(ctx: LevelContext, f, cutoff: CutoffSpec | None = None,
                   truncate_basis: int | None = None) -> ModifiedSolveResult:
    """Corrected mixed solve.

    ``truncate_basis`` artificially limits the number of singular functions
    used (reproducing the under-corrected variant); default uses all.  The
    corner's bases are set up once per hierarchy, on ``ctx.root``.
    """
    bases = ctx.root.once(
        ("bases", cutoff), lambda: _singular_setup(ctx.mesh.domain, cutoff))
    res = _mixed_solve(ctx, f, bases, truncate_basis)
    res.diagnostics["d_perp"] = len(bases)
    return res


def solve_modified_neumann(ctx: LevelContext, f,
                           cutoff: CutoffSpec | None = None
                           ) -> ModifiedSolveResult:
    """``solve_modified`` restricted to the pure-Neumann problem."""
    if ctx.mesh.domain.has_dirichlet():
        raise ValueError("pure-Neumann solver requires all edges Neumann")
    return solve_modified(ctx, f, cutoff)
