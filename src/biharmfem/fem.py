"""P1 assembly, direct Poisson solves, and discrete norms.

A Poisson solve factors the stiffness once, restricted to its unknowns
(the free nodes, or every node with a mean-zero border) and eliminated in
their nested-dissection order, with SuperLU on the diagonal (no pivoting).
It takes and returns full-length nodal vectors and checks the relative
residual of every solve on the unknowns' rows."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import TriMesh


class SolveError(RuntimeError):
    """A linear solve failed its residual or compatibility check."""


def assemble_stiffness(mesh: TriMesh) -> sp.csr_matrix:
    """Exact P1 stiffness matrix (gradient inner products per triangle)."""
    e, area = mesh.triangle_geometry()
    # grad(phi_i) = rot90(e_i) / (2A); K_ij = (e_i . e_j) / (4A)
    K = np.matmul(e, e.transpose(0, 2, 1))
    del e
    K /= (4.0 * area)[:, None, None]
    return _scatter(mesh, K)


def assemble_mass(mesh: TriMesh) -> sp.csr_matrix:
    """Exact P1 mass matrix: (A/12) * [[2,1,1],[1,2,1],[1,1,2]] per triangle."""
    area = mesh.triangle_geometry()[1]
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return _scatter(mesh, area[:, None, None] * local)


def _scatter(mesh: TriMesh, local: np.ndarray) -> sp.csr_matrix:
    # int32 indices: scipy would copy int64 ones to int32
    rows = np.repeat(mesh.triangles.astype(np.int32), 3, axis=1).ravel()
    cols = rows.reshape(-1, 3, 3).transpose(0, 2, 1).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)),
                         shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()


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
    area = mesh.triangle_geometry()[1]
    pts = np.einsum("qi,tia->tqa", bary, mesh.nodes[mesh.triangles])
    fv = np.asarray(f(pts.reshape(-1, 2)), dtype=float).reshape(len(area), -1)
    contrib = (fv * (w * area[:, None])) @ bary     # (T, 3)
    return np.bincount(mesh.triangles.ravel(), contrib.ravel(),
                       minlength=mesh.n_nodes)


class DirectSolver:
    """x = solver(b) for the sparse symmetric matrix A, from one LU factor.

    ``order`` lists the unknowns, a subset of A's rows, in elimination
    order: for a mesh matrix the free nodes in ``mesh.nested_dissection``
    order, or every node on a pure-Neumann level.  SuperLU factors
    A[order][:, order] in that order on its diagonal: A is SPD on the
    unknowns, so no pivoting is needed.  Vectors are full-length; the
    solution is zero off ``order`` and the right-hand side is read on it.
    With ``mass`` M, A is the pure-Neumann stiffness (kernel = constants),
    ``order`` holds every node and the factor is of the bordered matrix
    [[A, M 1], [(M 1)^T, 0]]: a compatible right-hand side (components sum
    to zero) gives multiplier 0 and the solution with zero discrete mean
    against M; an incompatible one is rejected.  The border is ordered just
    before A's last node, not last: A alone is singular, so after all of
    A's nodes the last pivot would be roundoff.

    Every solve must reach the relative residual ``tol`` on the rows of
    ``order``; ``lu`` is the factor and ``residual_max`` the worst relative
    residual so far.
    """

    def __init__(self, A: sp.csr_matrix, tol: float, order: np.ndarray,
                 mass: sp.csr_matrix | None = None):
        self.A, self.tol, self.mean_zero = A, tol, mass is not None
        self.residual_max = 0.0
        n = A.shape[0]
        K, self._order = A, np.asarray(order)
        if len(self._order) == 0:
            raise ValueError("all nodes are constrained")
        self._unknown = np.zeros(n, dtype=bool)
        self._unknown[self._order] = True
        if self.mean_zero:
            m1 = (mass @ np.ones(n))[:, None]
            K = sp.bmat([[A, m1], [m1.T, None]])
            self._order = np.concatenate([self._order[:-1], [n],
                                          self._order[-1:]])
        K = sp.csr_matrix(K)[self._order][:, self._order].tocsc()
        self.lu = spla.splu(K, permc_spec="NATURAL", diag_pivot_thresh=0,
                            options={"SymmetricMode": True})

    def __call__(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        n = self.A.shape[0]
        rhs = b
        if self.mean_zero:
            norm_b = np.linalg.norm(b)
            total = abs(b.sum())
            if total > 1e-10 * norm_b:
                raise SolveError(
                    f"incompatible right-hand side: |sum| = {total:.3e} vs "
                    f"1e-10*|b| = {1e-10 * norm_b:.3e}"
                )
            b = b - b.sum() / n  # clean the roundoff component along the kernel
            rhs = np.append(b, 0.0)
        x = np.zeros(len(rhs))
        x[self._order] = self.lu.solve(rhs[self._order])
        x = x[:n]
        norm_b = np.linalg.norm(b[self._unknown])
        res = np.linalg.norm((b - self.A @ x)[self._unknown])
        if not res <= self.tol * norm_b:
            what = "mean-zero solve" if self.mean_zero else "direct solve"
            raise SolveError(f"{what} relative residual {res / norm_b:.3e} "
                             f"exceeds the tolerance {self.tol:.3e}")
        self.residual_max = max(self.residual_max,
                                float(res / norm_b) if norm_b else 0.0)
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
