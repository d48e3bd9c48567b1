"""Reference factor loop, kept as a differential-test oracle for
``cholesky.Cholesky``: the depth loop and ``_front`` as they were before
each update matrix S was freed once its parent had extended it and
before each depth's fronts were padded per size class.

Here every depth pads its fronts to its largest, keeps its pending
(S, U, parent) groups until the depth ends, a chunked depth takes its
children by boolean copies, the extend-add indexes each group of
children at once, and H21 and S are formed through temporaries.  The
fronts, nnz and update sets must come out the same; the padding and the
order of the extend-adds move H by roundoff.
"""

from __future__ import annotations

import numpy as np

from biharmfem import cholesky
from biharmfem.cholesky import LEAF_DEPTHS, _depth, _distinct, _parents


class FrontOracle:
    """The fronts of ``Cholesky([rows, cols, vals], box)``: ``groups`` (the
    (index, H) of each call of ``_front``), ``u`` and ``nnz``, with the
    module's ``CHUNK`` read when it is built."""

    def __init__(self, rows, cols, vals, box):
        n = self.n = len(box)
        dep = _depth(box)
        cut = max(int(dep.max()) - LEAF_DEPTHS, 0)
        key = box >> np.maximum(dep - cut, 0)
        self.starts = np.flatnonzero(np.diff(key, prepend=0))
        size = self.size = np.diff(self.starts, append=n)
        owner = self.owner = np.repeat(np.arange(len(size)), size)
        parent = _parents(key[self.starts])
        depth = _depth(key[self.starts])
        top = int(depth.max())
        col_depth = depth[owner[cols]].astype(np.int8)
        up_depth = np.where(parent >= 0, depth[parent], -1)
        self.groups, self.u = [], np.zeros(len(size), dtype=np.int64)
        pending = [[] for _ in range(top + 1)]
        for d in range(top, -1, -1):
            fronts = np.flatnonzero(depth == d)
            if not len(fronts):
                continue
            mine = np.flatnonzero(col_depth == d)
            f = owner[cols[mine]]
            keys = np.concatenate([f * n + rows[mine]]
                                  + [(up[:, None] * n + U)[U < n]
                                     for _, U, up in pending[d]])
            u_keys = _distinct(keys[owner[keys % n] != keys // n])
            del keys
            u_front, u_node = np.divmod(u_keys, n)
            m = size[fronts].max() + np.bincount(u_front).max(initial=0)
            k = min(len(fronts),
                    -(-len(fronts) * m * m // cholesky.CHUNK))
            chunks = np.array_split(fronts, k) if k > 1 else [fronts]
            for chunk in chunks:
                part, kids = mine, pending[d]
                if len(chunks) > 1:
                    lo, hi = chunk[0], chunk[-1]
                    part = mine[(f >= lo) & (f <= hi)]
                    kids = [(S[sel], U[sel], up[sel]) for S, U, up in kids
                            for sel in [(up >= lo) & (up <= hi)]]
                S, U = self._front(chunk, u_keys, u_front, u_node, rows[part],
                                   cols[part], vals[part], kids)
                to = up_depth[chunk]
                if to.min() == to.max() >= 0:
                    pending[to[0]].append((S, U, parent[chunk]))
                    continue
                for t in np.flatnonzero(np.bincount(to + 1)) - 1:
                    if t >= 0:
                        go = to == t
                        pending[t].append((S[go], U[go], parent[chunk[go]]))
            pending[d] = []
        self.nnz = int((size * (size + 1) // 2 + self.u * size).sum())

    def _front(self, fronts, u_keys, u_front, u_node, rows, cols, vals,
               children):
        n, nf, starts, owner = self.n, len(fronts), self.starts, self.owner
        p = self.size[fronts]
        first = np.searchsorted(u_front, fronts)
        u = self.u[fronts] = np.searchsorted(u_front, fronts, side="right") - first
        pm, um = p.max(), u.max()
        m = pm + um
        local = np.zeros(len(starts), dtype=np.int64)
        local[fronts] = np.arange(nf)

        def slot(f, x):
            return np.where(owner[x] == f, x - starts[f],
                            pm + np.searchsorted(u_keys, f * n + x)
                            - first[local[f]])

        F = np.zeros((nf, m, m))
        flat = F.reshape(-1)
        f = owner[cols]
        flat[(local[f] * m + slot(f, rows)) * m + cols - starts[f]] = vals
        pad = np.arange(pm) >= p[:, None]
        g, j = pad.nonzero()
        F[g, j, j] = 1.0
        for S, U, up in children:
            loc, real = np.zeros_like(U), U < n
            loc[real] = slot(up.repeat(U.shape[1]).reshape(U.shape)[real],
                             U[real])
            base = (local[up] * m * m)[:, None, None]
            np.add.at(flat, (base + loc[:, :, None] * m + loc[:, None, :]).ravel(),
                      S.ravel())
        L_inv = np.linalg.inv(np.linalg.cholesky(F[:, :pm, :pm]))
        F21 = F[:, pm:, :pm]
        H = np.empty((nf, pm, m))
        H[:, :, :pm] = np.matmul(L_inv.transpose(0, 2, 1), L_inv)
        H[:, :, pm:] = -np.matmul(H[:, :, :pm], F21.transpose(0, 2, 1))
        S = F[:, pm:, pm:] + np.matmul(F21, H[:, :, pm:])
        index = np.full((nf, m), n)
        index[:, :pm] = np.where(pad, n, starts[fronts, None] + np.arange(pm))
        index[:, pm:][np.arange(um) < u[:, None]] = \
            u_node[first[0]:first[-1] + u[-1]]
        self.groups.append((index, H))
        return S, index[:, pm:]
