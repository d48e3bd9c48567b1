"""P1 assembly, direct Poisson solves, and discrete norms.

A matrix is kept as its diagonal and one value per mesh edge
(``EdgeMatrix``), so A @ x is two gathers and two ``np.bincount`` calls.
A Poisson solve factors the stiffness once, restricted to its unknowns
(the free nodes, or every node but one grounded node on a pure-Neumann
level), by a multifrontal Cholesky over the level's nested-dissection tree
(``cholesky.Cholesky``).  It takes and returns full-length nodal vectors
and checks the normwise backward error of every solve on the unknowns'
rows."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cholesky import Cholesky
from .mesh import TriMesh


class SolveError(RuntimeError):
    """A linear solve failed its residual, compatibility or
    positive-definiteness check."""


class CompatibilityError(SolveError, ValueError):
    """A pure-Neumann right-hand side does not sum to zero: the source
    does not integrate to 0."""


@dataclass(frozen=True)
class EdgeMatrix:
    """A symmetric matrix with the pattern of a graph: its ``diag`` and
    the value ``off[k]`` of the pair of entries (i, j) and (j, i) for the
    edge ``(i, j) = ends[:, k]``."""

    diag: np.ndarray    # (N,)
    ends: np.ndarray    # (2, E)
    off: np.ndarray     # (E,)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.diag), len(self.diag)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        i, j = self.ends
        n = len(self.diag)
        return (self.diag * x + np.bincount(i, self.off * x[j], n)
                + np.bincount(j, self.off * x[i], n))


def assemble_stiffness(mesh: TriMesh) -> EdgeMatrix:
    """Exact P1 stiffness matrix (gradient inner products per triangle)."""
    area = mesh.areas

    def entries(shift):
        # grad(phi_i) = rot90(e_i) / (2A); K_ij = (e_i . e_j) / (4A), here
        # for (i, j) = (k, k + shift), with one coordinate of the edge
        # vectors formed at a time
        K = np.empty((len(area), 3))
        for axis in range(2):
            e = mesh.edge_vectors(axis)
            for k in range(3):
                if axis:
                    K[:, k] += e[:, k] * e[:, (k + shift) % 3]
                else:
                    np.multiply(e[:, k], e[:, (k + shift) % 3], out=K[:, k])
            del e
        K /= 4.0 * area[:, None]
        return K

    return _edge_sums(mesh, entries)


def assemble_mass(mesh: TriMesh) -> EdgeMatrix:
    """Exact P1 mass matrix: (A/12) * [[2,1,1],[1,2,1],[1,1,2]] per triangle."""
    area = mesh.areas
    return _edge_sums(mesh,
                      lambda shift: np.repeat(area * ((2 - shift) / 12.0), 3))


def _edge_sums(mesh: TriMesh, entries) -> EdgeMatrix:
    """Sum element matrices onto the mesh's nodes and edges, one
    ``np.bincount`` each: ``entries(0)`` gives the (T, 3) diagonal entries
    of every triangle, ``entries(1)`` those of its local pairs (0, 1),
    (1, 2), (2, 0), which its edges (ab, bc, ca) take."""
    edges, tri_edges, _ = mesh.edge_table
    diag = np.bincount(mesh.triangles.ravel(), entries(0).ravel(),
                       mesh.n_nodes)
    off = np.bincount(tri_edges.ravel(), entries(1).ravel(), len(edges))
    return EdgeMatrix(diag, edges.T, off)


# Interior 3-point rule on the reference triangle: degree-2 exact, with no
# points on the edges so sources jumping across mesh lines are sampled on
# the correct side of each triangle.
_INTERIOR3_BARY = np.array([[2 / 3, 1 / 6, 1 / 6],
                            [1 / 6, 2 / 3, 1 / 6],
                            [1 / 6, 1 / 6, 2 / 3]])
_INTERIOR3_W = np.array([1 / 3, 1 / 3, 1 / 3])


def assemble_load(mesh: TriMesh, f) -> np.ndarray:
    """Load vector (f, phi_i) with a per-triangle barycentric rule.

    ``f`` maps an (n, 2) point array to values.  The rule is degree-2
    exact and strictly interior, hence also exact for sources constant on
    each triangle (such as the piecewise-quadrant source on grid meshes).
    """
    bary, w = _INTERIOR3_BARY, _INTERIOR3_W
    area = mesh.areas
    tri = mesh.triangles
    pts = np.empty((len(tri), len(bary), 2))
    for d in range(2):      # one coordinate at a time: no (T, 3, 2) gather
        np.matmul(mesh.nodes[:, d][tri], bary.T, out=pts[:, :, d])
    fv = np.asarray(f(pts.reshape(-1, 2)), dtype=float).reshape(len(area), -1)
    contrib = (fv * (w * area[:, None])) @ bary     # (T, 3)
    return np.bincount(tri.ravel(), contrib.ravel(), minlength=mesh.n_nodes)


class DirectSolver:
    """x = solver(b) for the symmetric matrix A, from one Cholesky factor.

    ``order`` lists the unknowns, a subset of A's rows, in elimination
    order, and ``box`` their nested-dissection boxes: for a mesh matrix,
    ``mesh.nested_dissection`` of the free nodes, or of every node on a
    pure-Neumann level.  A must be positive definite on the unknowns; a
    factor that meets a non-positive pivot raises ``SolveError``.  Vectors
    are full-length; the solution is zero off ``order`` and the right-hand
    side is read on it.  With ``mass`` M, A is the pure-Neumann stiffness
    (kernel = constants) and ``order`` holds every node: the last one in
    the order is grounded (its value fixed at 0, which leaves the rest
    positive definite), and the solution is shifted to zero discrete mean
    against M.  A compatible right-hand side (components sum to zero)
    meets the grounded row as well; one whose sum exceeds 1e-10 of its
    2-norm raises ``CompatibilityError``.

    Every solve must reach the normwise backward error ``tol`` on the
    unknowns' rows, ||b - Ax||_inf <= tol * (||A||_inf ||x||_inf +
    ||b||_inf), with A restricted to the unknowns; ``factor`` is the
    Cholesky factor and ``backward_error_max`` the worst backward error so
    far.
    """

    def __init__(self, A: EdgeMatrix, tol: float, order: np.ndarray,
                 box: np.ndarray, mass: EdgeMatrix | None = None):
        self.A, self.tol = A, tol
        self.backward_error_max = 0.0
        n = A.shape[0]
        if len(order) == 0:
            raise ValueError("all nodes are constrained")
        self._unknown = np.zeros(n, dtype=bool)
        self._unknown[order] = True
        self._norm_A = _norm_on(A, self._unknown)
        self._m1 = None if mass is None else mass @ np.ones(n)
        if mass is not None:
            order, box = order[:-1], box[:-1]
        self._order = order
        try:
            self.factor = Cholesky(_lower_entries(A, order), box)
        except np.linalg.LinAlgError as err:
            raise SolveError(f"matrix is not positive definite on the "
                             f"unknowns ({err})") from None

    def __call__(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        n = self.A.shape[0]
        if self._m1 is not None:
            total = b.sum()
            if abs(total) > 1e-10 * np.linalg.norm(b):
                raise CompatibilityError(
                    f"incompatible right-hand side: it sums to {total:.3e}, "
                    f"above 1e-10 of its norm; a pure-Neumann source must "
                    f"integrate to 0")
            b = b - total / n   # clean the roundoff component along the kernel
        x = np.zeros(n)
        x[self._order] = self.factor.solve(b[self._order])
        if self._m1 is not None:
            x -= (self._m1 @ x) / self._m1.sum()
        res = np.abs(b - self.A @ x)[self._unknown].max()
        scale = self._norm_A * np.abs(x).max() + np.abs(b[self._unknown]).max()
        error = float(res / scale) if scale else 0.0
        if not error <= self.tol:
            what = "direct solve" if self._m1 is None else "mean-zero solve"
            raise SolveError(f"{what} backward error {error:.3e} "
                             f"exceeds the tolerance {self.tol:.3e}")
        self.backward_error_max = max(self.backward_error_max, error)
        return x


def _norm_on(A: EdgeMatrix, rows: np.ndarray) -> float:
    """||A||_inf of A restricted to the rows and columns where ``rows``
    is True."""
    i, j = A.ends
    off = np.where(rows[i] & rows[j], np.abs(A.off), 0.0)
    n = len(A.diag)
    return float((np.abs(A.diag) + np.bincount(i, off, n)
                  + np.bincount(j, off, n))[rows].max())


def _lower_entries(A: EdgeMatrix, order: np.ndarray):
    """The nonzero entries of A[order][:, order] on and below the
    diagonal, as rows, columns and values: an exactly zero coupling (the
    hypotenuse of a right triangle pair) makes no entry; a list, which
    ``Cholesky`` empties."""
    pos = np.full(len(A.diag), -1)
    pos[order] = np.arange(len(order))
    i, j = pos[A.ends]
    keep = np.flatnonzero((i >= 0) & (j >= 0) & (A.off != 0))
    i, j = i[keep], j[keep]
    diag = np.arange(len(order))
    return [np.concatenate([diag, np.maximum(i, j)]),
            np.concatenate([diag, np.minimum(i, j)]),
            np.concatenate([A.diag[order], A.off[keep]])]


def h1_seminorm_diff(v1: np.ndarray, v2: np.ndarray, stiffness: EdgeMatrix) -> float:
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
