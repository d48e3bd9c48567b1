"""P1 assembly, boundary conditions, Krylov solves, and discrete norms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import TriMesh


class SolveError(RuntimeError):
    """Iterative solve failed to reach the requested tolerance."""


@dataclass(frozen=True)
class LinearSolveOptions:
    tolerance: float = 1e-10
    max_iterations: int = 20000
    preconditioner: str = "incomplete-factorization"  # or "none"

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.preconditioner not in ("none", "incomplete-factorization"):
            raise ValueError(f"unknown preconditioner {self.preconditioner!r}")


def _tri_geometry(mesh: TriMesh):
    p = mesh.nodes[mesh.triangles]          # (T, 3, 2)
    # edge vectors opposite each local node
    e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
    area = 0.5 * (e[:, 2, 0] * (-e[:, 1, 1]) - e[:, 2, 1] * (-e[:, 1, 0]))
    return p, e, area


def assemble_stiffness(mesh: TriMesh) -> sp.csr_matrix:
    """Exact P1 stiffness matrix (gradient inner products per triangle)."""
    _, e, area = _tri_geometry(mesh)
    if np.any(area <= 0):
        raise ValueError("degenerate or inverted triangle")
    # grad(phi_i) = rot90(e_i) / (2A); K_ij = (e_i . e_j) / (4A)
    K = np.einsum("tia,tja->tij", e, e) / (4.0 * area)[:, None, None]
    return _scatter(mesh, K)


def assemble_mass(mesh: TriMesh) -> sp.csr_matrix:
    """Exact P1 mass matrix: (A/12) * [[2,1,1],[1,2,1],[1,1,2]] per triangle."""
    _, _, area = _tri_geometry(mesh)
    if np.any(area <= 0):
        raise ValueError("degenerate or inverted triangle")
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    M = area[:, None, None] * local[None, :, :]
    return _scatter(mesh, M)


def _scatter(mesh: TriMesh, local: np.ndarray) -> sp.csr_matrix:
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    A = sp.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes)
    )
    return A.tocsr()


# Interior 3-point rule on the reference triangle: degree-2 exact, with no
# points on the edges so sources jumping across mesh lines are sampled on
# the correct side of each triangle.
_INTERIOR3_BARY = np.array([[2 / 3, 1 / 6, 1 / 6],
                            [1 / 6, 2 / 3, 1 / 6],
                            [1 / 6, 1 / 6, 2 / 3]])
_INTERIOR3_W = np.array([1 / 3, 1 / 3, 1 / 3])


def assemble_load(mesh: TriMesh, f, quad=None) -> np.ndarray:
    """Load vector (f, phi_i) with a per-triangle barycentric rule.

    ``f`` maps an (n, 2) point array to values.  The default rule is
    degree-2 exact and strictly interior, hence also exact for sources
    constant on each triangle (such as the piecewise-quadrant source on
    grid meshes).  ``quad`` overrides the rule as (bary_points, weights).
    """
    bary, w = quad if quad is not None else (_INTERIOR3_BARY, _INTERIOR3_W)
    p, _, area = _tri_geometry(mesh)
    b = np.zeros(mesh.n_nodes)
    for lam, wk in zip(bary, w):
        pts = np.einsum("i,tia->ta", lam, p)
        fv = np.asarray(f(pts), dtype=float)
        contrib = (wk * area)[:, None] * fv[:, None] * lam[None, :]
        np.add.at(b, mesh.triangles, contrib)
    return b


def apply_dirichlet(A: sp.csr_matrix, b: np.ndarray, dirichlet_mask: np.ndarray):
    """Eliminate constrained rows/columns (homogeneous data).

    Returns (A_reduced, b_reduced, free_indices).
    """
    mask = np.asarray(dirichlet_mask, dtype=bool)
    free = np.flatnonzero(~mask)
    if len(free) == 0:
        raise ValueError("all nodes are constrained")
    A_red = A[free][:, free].tocsr()
    return A_red, np.asarray(b, dtype=float)[free], free


def _incomplete_cholesky(A: sp.csr_matrix) -> sp.csc_matrix:
    """Zero-fill incomplete Cholesky factor L (lower triangular, sparsity
    pattern of tril(A)) with A ~ L L^T.  Raises on pivot breakdown."""
    L = sp.tril(A.tocsc(), format="csc")
    indptr, indices, data = L.indptr, L.indices, L.data
    n = A.shape[0]
    for k in range(n):
        lo, hi = indptr[k], indptr[k + 1]
        if indices[lo] != k or data[lo] <= 0:
            raise SolveError(f"incomplete factorization broke down at row {k}")
        d = np.sqrt(data[lo])
        data[lo] = d
        data[lo + 1:hi] /= d
        col_rows = indices[lo + 1:hi]
        col_vals = data[lo + 1:hi]
        for t, i in enumerate(col_rows):
            ilo, ihi = indptr[i], indptr[i + 1]
            # subtract the rank-one update on the retained pattern of column i
            pos = ilo + np.searchsorted(indices[ilo:ihi], col_rows[t:])
            ok = (pos < ihi) & (indices[np.minimum(pos, ihi - 1)] == col_rows[t:])
            data[pos[ok]] -= col_vals[t] * col_vals[t:][ok]
    return sp.csc_matrix((data, indices, indptr), shape=A.shape)


def _ic_operator(A: sp.csr_matrix) -> spla.LinearOperator:
    L = _incomplete_cholesky(A)
    Lt = L.T.tocsc()
    lsolve = spla.splu(L, permc_spec="NATURAL",
                       options={"SymmetricMode": False}).solve
    usolve = spla.splu(Lt, permc_spec="NATURAL").solve

    def apply(v):
        return usolve(lsolve(v))

    return spla.LinearOperator(A.shape, apply)


def _make_preconditioner(A: sp.csr_matrix, options: LinearSolveOptions):
    if options.preconditioner == "none":
        return None
    return _ic_operator(A)


def solve_spd(A: sp.csr_matrix, b: np.ndarray, options: LinearSolveOptions | None = None,
              precond=None) -> np.ndarray:
    """Preconditioned CG for an SPD system to relative residual tolerance."""
    options = options or LinearSolveOptions()
    b = np.asarray(b, dtype=float)
    if not np.any(b):
        return np.zeros_like(b)
    if A.shape[0] == 1:
        return b / A[0, 0]
    M = precond if precond is not None else _make_preconditioner(A, options)
    x, info = spla.cg(A, b, rtol=options.tolerance, atol=0.0,
                      maxiter=options.max_iterations, M=M)
    res = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    if info != 0 and res > options.tolerance * 10:
        raise SolveError(
            f"CG did not converge in {options.max_iterations} iterations "
            f"(relative residual {res:.3e})"
        )
    return x


def make_mean_zero_preconditioner(A: sp.csr_matrix, M_mass: sp.csr_matrix,
                                  options: LinearSolveOptions):
    """Preconditioner for the singular (pure-Neumann) stiffness: incomplete
    factorization of the mass-shifted operator, which is SPD."""
    if options.preconditioner == "none":
        return None
    shift = A.diagonal().mean() / M_mass.diagonal().mean() * 1e-3
    return _ic_operator((A + shift * M_mass).tocsr())


def solve_mean_zero(A: sp.csr_matrix, M_mass: sp.csr_matrix, b: np.ndarray,
                    options: LinearSolveOptions | None = None, precond=None) -> np.ndarray:
    """CG on the pure-Neumann stiffness (kernel = constants).

    Requires a compatible right-hand side (components sum to zero); the
    result is normalized to zero discrete mean against the mass matrix.
    """
    options = options or LinearSolveOptions()
    b = np.asarray(b, dtype=float)
    total = abs(b.sum())
    norm_b = np.linalg.norm(b)
    if norm_b == 0:
        return np.zeros_like(b)
    if total > 1e-10 * norm_b:
        raise SolveError(
            f"incompatible right-hand side: |sum| = {total:.3e} vs 1e-10*|b| "
            f"= {1e-10 * norm_b:.3e}"
        )
    n = A.shape[0]
    b = b - b.sum() / n  # clean the roundoff component along the kernel
    M = precond if precond is not None else make_mean_zero_preconditioner(A, M_mass, options)

    def project(v):
        return v - v.sum() / n

    if M is not None:
        inner = M
        M = spla.LinearOperator(A.shape, lambda v: project(inner @ v))
    x, info = spla.cg(A, b, rtol=options.tolerance, atol=0.0,
                      maxiter=options.max_iterations, M=M)
    res = np.linalg.norm(b - A @ x) / norm_b
    if info != 0 and res > options.tolerance * 10:
        raise SolveError(
            f"mean-zero CG did not converge (relative residual {res:.3e})"
        )
    ones = np.ones(n)
    m1 = M_mass @ ones
    x = x - (m1 @ x) / (m1 @ ones)
    return x


def h1_seminorm_diff(v1: np.ndarray, v2: np.ndarray, stiffness: sp.csr_matrix) -> float:
    """sqrt(d^T A d) for d = v1 - v2 on a common mesh."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    if v1.shape != v2.shape or len(v1) != stiffness.shape[0]:
        raise ValueError("dimension mismatch")
    d = v1 - v2
    return float(np.sqrt(max(d @ (stiffness @ d), 0.0)))


def linf_diff(v1: np.ndarray, v2: np.ndarray) -> float:
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    if v1.shape != v2.shape:
        raise ValueError(f"vectors differ in shape: {v1.shape} vs {v2.shape}")
    return float(np.max(np.abs(v1 - v2))) if v1.size else 0.0
