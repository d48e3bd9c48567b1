"""Reference Poisson solver, kept as a differential-test oracle for
``fem.DirectSolver``: the SuperLU factor it replaced.

It factors A[order][:, order] of a scipy matrix in the given elimination
order with every pivot on the diagonal.  With ``mass`` M it solves the
pure-Neumann system through the bordered matrix [[A, M 1], [(M 1)^T, 0]],
whose multiplier is 0 for a compatible right-hand side; the border is
ordered just before A's last node, since A alone is singular.  Vectors are
full-length, with zeros off ``order``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def to_scipy(A) -> sp.csr_matrix:
    """An ``fem.EdgeMatrix`` as a scipy CSR matrix."""
    n = len(A.diag)
    i, j = A.ends
    d = np.arange(n)
    return sp.coo_matrix((np.concatenate([A.diag, A.off, A.off]),
                          (np.concatenate([d, i, j]), np.concatenate([d, j, i]))),
                         shape=(n, n)).tocsr()


class SuperLUSolver:
    """x = solver(b) from one SuperLU factor of the scipy matrix A."""

    def __init__(self, A, order, mass=None):
        self.A, self.mean_zero = sp.csr_matrix(A), mass is not None
        n = A.shape[0]
        K, self._order = self.A, np.asarray(order)
        if self.mean_zero:
            m1 = (mass @ np.ones(n))[:, None]
            K = sp.bmat([[self.A, m1], [m1.T, None]])
            self._order = np.concatenate([self._order[:-1], [n],
                                          self._order[-1:]])
        K = sp.csr_matrix(K)[self._order][:, self._order].tocsc()
        self.lu = spla.splu(K, permc_spec="NATURAL", diag_pivot_thresh=0,
                            options={"SymmetricMode": True})

    def __call__(self, b):
        b = np.asarray(b, dtype=float)
        n = self.A.shape[0]
        rhs = np.append(b - b.sum() / n, 0.0) if self.mean_zero else b
        x = np.zeros(len(rhs))
        x[self._order] = self.lu.solve(rhs[self._order])
        return x[:n]
