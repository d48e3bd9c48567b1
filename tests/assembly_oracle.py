"""Reference P1 assembly, kept as a differential-test oracle for
``fem.assemble_stiffness``, ``fem.assemble_mass`` and ``fem.assemble_load``.

It builds every element matrix with ``np.einsum`` from the stacked
triangle corners, scatters them through a COO matrix with int64 indices,
and adds the load one quadrature point at a time with ``np.add.at``.
``stacked_load`` is the load as it was formed before its quadrature points
were taken one coordinate at a time: the same sums, so the same bits.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from biharmfem.fem import _INTERIOR3_BARY, _INTERIOR3_W


def _tri_geometry(mesh):
    p = mesh.nodes[mesh.triangles]          # (T, 3, 2)
    # edge vectors opposite each local node
    e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
    area = 0.5 * (e[:, 2, 0] * (-e[:, 1, 1]) - e[:, 2, 1] * (-e[:, 1, 0]))
    return p, e, area


def assemble_stiffness(mesh):
    _, e, area = _tri_geometry(mesh)
    if np.any(area <= 0):
        raise ValueError("degenerate or inverted triangle")
    K = np.einsum("tia,tja->tij", e, e) / (4.0 * area)[:, None, None]
    return _scatter(mesh, K)


def assemble_mass(mesh):
    _, _, area = _tri_geometry(mesh)
    if np.any(area <= 0):
        raise ValueError("degenerate or inverted triangle")
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    M = area[:, None, None] * local[None, :, :]
    return _scatter(mesh, M)


def _scatter(mesh, local):
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    A = sp.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes)
    )
    return A.tocsr()


def assemble_load(mesh, f):
    bary, w = _INTERIOR3_BARY, _INTERIOR3_W
    p, _, area = _tri_geometry(mesh)
    b = np.zeros(mesh.n_nodes)
    for lam, wk in zip(bary, w):
        pts = np.einsum("i,tia->ta", lam, p)
        fv = np.asarray(f(pts), dtype=float)
        contrib = (wk * area)[:, None] * fv[:, None] * lam[None, :]
        np.add.at(b, mesh.triangles, contrib)
    return b


def stacked_load(mesh, f):
    bary, w = _INTERIOR3_BARY, _INTERIOR3_W
    area = mesh.areas
    pts = bary @ mesh.nodes[mesh.triangles]         # (T, q, 2)
    fv = np.asarray(f(pts.reshape(-1, 2)), dtype=float).reshape(len(area), -1)
    contrib = (fv * (w * area[:, None])) @ bary     # (T, 3)
    return np.bincount(mesh.triangles.ravel(), contrib.ravel(),
                       minlength=mesh.n_nodes)
