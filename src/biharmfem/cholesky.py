"""Multifrontal Cholesky factor over a nested-dissection tree.

The unknowns come in elimination order, each with the box of
``mesh.nested_dissection`` whose separator holds it.  A front is one
separator, or, ``LEAF_DEPTHS`` levels above the deepest box, a whole box
with everything below it (a leaf); a front's parent is the front of the
nearest ancestor box.  Its pivots P are a contiguous run of the order,
and its update set U, the later unknowns its columns of L reach, is the
union of its own entries' rows and its children's update sets, less its
pivots (nested dissection: George 1973; multifrontal method: Duff & Reid
1983).

The factor loops over the tree's depths, deepest first, never over
single fronts, and forms each depth's update sets from its fronts' own
entries and the U each child passes up with its S: there is no separate
symbolic phase.  The fronts of one depth are padded to a common size (a
padded pivot carries a 1 on the diagonal) and go through one stacked
``np.linalg.cholesky`` and stacked ``matmul``, in chunks of at most
``CHUNK`` front entries.  With the front [[F11, F21^T], [F21, F22]]
(F22 holds the children's updates extended to U), a front keeps
H = W [I, -F21^T] with W = F11^-1, and passes S = F22 - F21 W F21^T to
its parent.  H21 = -W F21^T is written straight into H, and F22 is
added into S = F21 H21 in place.  A child's S lives only until its
parent has extended it: the extend-add takes each group of children off
the pending list and indexes it a block of children at a time, and a
chunked depth hands each chunk a slice of every group and drops a group
once no later chunk needs it.  A solve is two sweeps of batched
matrix-vector products:
forward b_U += H_U^T b_P, deepest first; backward x_P = H [b_P; x_U],
root first.
"""

from __future__ import annotations

import numpy as np

# Each depth costs about a hundred numpy calls whatever its size, so the
# deepest box levels merge into leaves; larger leaves would add fill.
# CHUNK bounds the front entries factored at once, and so the factor's
# transient memory; the extend-add indexes at most CHUNK // 64 update
# entries at once.
LEAF_DEPTHS = 2
CHUNK = 1 << 21


def _depth(keys: np.ndarray) -> np.ndarray:
    """The depth of each box key: its bit length less one."""
    return np.frexp(keys.astype(float))[1] - 1


class Cholesky:
    """A = L L^T of a symmetric positive definite matrix, kept front by
    front; ``solve`` applies A^-1.

    ``rows``, ``cols`` and ``vals`` are A's distinct entries on and below
    the diagonal (rows >= cols) in elimination order.  ``box`` holds each
    unknown's nested-dissection box as a key with a leading 1 bit (a child
    box is 2 * key + side).  ``nnz`` counts the nonzeros of L, its
    diagonal included.  Raises ``np.linalg.LinAlgError`` if A is not
    positive definite."""

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
        # the depth of each entry's front: each depth picks its own entries
        # from those handed in, with no sorted copy of them
        col_depth = depth[owner[cols]].astype(np.int8)
        up_depth = np.where(parent >= 0, depth[parent], -1)
        self.groups, self.u = [], np.zeros(len(size), dtype=np.int64)
        # the (S, U, parent) of the fronts whose parent lies at each depth
        pending = [[] for _ in range(top + 1)]
        for d in range(top, -1, -1):
            fronts = np.flatnonzero(depth == d)
            if not len(fronts):
                continue
            mine = np.flatnonzero(col_depth == d)
            f = owner[cols[mine]]
            # update-set keys front * n + unknown: the rows of the fronts'
            # own entries and of their children's U, less the rows they
            # pivot; U's padding n is masked out on U itself, since the key
            # up * n + n would read as (up + 1) * n + 0
            keys = np.concatenate([f * n + rows[mine]]
                                  + [(up[:, None] * n + U)[U < n]
                                     for _, U, up in pending[d]])
            u_keys = _distinct(keys[owner[keys % n] != keys // n])
            del keys
            u_front, u_node = np.divmod(u_keys, n)
            m = size[fronts].max() + np.bincount(u_front).max(initial=0)
            k = min(len(fronts), -(-len(fronts) * m * m // CHUNK))
            chunks = np.array_split(fronts, k) if k > 1 else [fronts]
            for chunk in chunks:
                part, kids = mine, pending[d]
                if len(chunks) > 1:
                    # a group's parents ascend (the subtrees of one depth
                    # are disjoint runs of the order), so a chunk takes one
                    # slice of each; a group left with no later parent is
                    # dropped, and its slices free it as they are extended
                    lo, hi = chunk[0], chunk[-1]
                    part = mine[(f >= lo) & (f <= hi)]
                    assert all((np.diff(up) >= 0).all() for _, _, up in kids)
                    kids = [(S[a:b], U[a:b], up[a:b]) for S, U, up in kids
                            for a, b in [np.searchsorted(up, (lo, hi + 1))]]
                    pending[d] = [g for g in pending[d] if g[2][-1] > hi]
                S, U = self._front(chunk, u_keys, u_front, u_node, rows[part],
                                   cols[part], vals[part], kids)
                to = up_depth[chunk]
                if to.min() == to.max() >= 0:
                    pending[to[0]].append((S, U, parent[chunk]))
                else:
                    for t in np.flatnonzero(np.bincount(to + 1)) - 1:
                        if t >= 0:
                            go = to == t
                            pending[t].append((S[go], U[go], parent[chunk[go]]))
                del S, U
        self.nnz = int((size * (size + 1) // 2 + self.u * size).sum())

    def _front(self, fronts, u_keys, u_front, u_node, rows, cols, vals,
               children):
        """Factor some fronts of one depth, given their entries and their
        children's (S, U, parent); return their own S and U, padded with
        n."""
        n, nf, starts, owner = self.n, len(fronts), self.starts, self.owner
        p = self.size[fronts]
        first = np.searchsorted(u_front, fronts)
        u = self.u[fronts] = np.searchsorted(u_front, fronts, side="right") - first
        pm, um = p.max(), u.max()
        m = pm + um
        local = np.zeros(len(starts), dtype=np.int64)
        local[fronts] = np.arange(nf)

        def slot(f, x):
            """The row of unknown x in the front f."""
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
        while children:
            # taken off the list, each group is freed once extended; its
            # indices are formed a block of children at a time.  The
            # padding of S is exact zeros: add it anywhere
            S, U, up = children.pop(0)
            loc, real = np.zeros_like(U), U < n
            loc[real] = slot(up.repeat(U.shape[1]).reshape(U.shape)[real],
                             U[real])
            base = local[up] * m * m
            step = max(1, (CHUNK >> 6) // max(U.shape[1] ** 2, 1))
            for i in range(0, len(S), step):
                at = slice(i, i + step)
                np.add.at(flat, (base[at, None, None] + loc[at, :, None] * m
                                 + loc[at, None, :]).ravel(), S[at].ravel())
            del S, U
        L_inv = np.linalg.inv(np.linalg.cholesky(F[:, :pm, :pm]))
        F21 = F[:, pm:, :pm]
        H = np.empty((nf, pm, m))
        H[:, :, :pm] = np.matmul(L_inv.transpose(0, 2, 1), L_inv)
        H21 = H[:, :, pm:]
        np.negative(np.matmul(H[:, :, :pm], F21.transpose(0, 2, 1), out=H21),
                    out=H21)
        S = F21 @ H21
        S += F[:, pm:, pm:]
        index = np.full((nf, m), n)
        index[:, :pm] = np.where(pad, n, starts[fronts, None] + np.arange(pm))
        index[:, pm:][np.arange(um) < u[:, None]] = \
            u_node[first[0]:first[-1] + u[-1]]
        self.groups.append((index, H))
        return S, index[:, pm:]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b, in elimination order; the padding reads and writes the
        zero at x[n] through zero entries of H (or the identity)."""
        x = np.append(np.asarray(b, dtype=float), 0.0)
        for index, H in self.groups:
            pm = H.shape[1]
            np.add.at(x, index[:, pm:],
                      np.matmul(x[index[:, :pm]][:, None, :], H[:, :, pm:])[:, 0])
        for index, H in reversed(self.groups):
            x[index[:, :H.shape[1]]] = np.matmul(H, x[index][:, :, None])[:, :, 0]
        return x[:self.n]


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys, sorted (``np.unique`` hashes integers, many
    times slower)."""
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _parents(keys: np.ndarray) -> np.ndarray:
    """The index of each front's parent among ``keys``, the front of its
    nearest ancestor box (-1 for none); one round per missing ancestor."""
    order = np.argsort(keys)
    ranked = keys[order]
    parent = np.full(len(keys), -1)
    todo, up = np.arange(len(keys)), keys >> 1
    while len(todo):
        todo = todo[up[todo] > 0]
        at = np.minimum(np.searchsorted(ranked, up[todo]), len(keys) - 1)
        hit = ranked[at] == up[todo]
        parent[todo[hit]] = order[at[hit]]
        todo = todo[~hit]
        up[todo] >>= 1
    return parent
