"""The Gauss-Legendre rule that Tricomi's nodes and Newton's method
replaced in ``singular._legendre_rule``, kept as a differential-test
oracle: the nodes are the eigenvalues of the symmetric tridiagonal Jacobi
matrix (Golub & Welsch 1969), refined by one Newton step on P_n, with the
same weights, symmetrisation and scaling as the program's rule."""

import numpy as np


def jacobi_rule(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))

    def derivative(x):      # P_n'(x), from P_n and P_(n-1) by recurrence
        p0, p1 = np.ones_like(x), x
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))

    p, dp = derivative(x)
    x = x - p / dp
    dp = derivative(x)[1]
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return x, w * (2.0 / w.sum())
