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
symbolic phase.  It sorts A's entries once by their front's depth and
frees each depth's share once that depth is factored.  A depth is split
once: into size classes by front size p + u (fronts of one size form a
class, and a class merges into the next larger one when padding it up
costs fewer than ``CHUNK >> 7`` front entries), each cut into pieces of
at most ``CHUNK`` entries at the depth's largest front.  The fronts of a
piece are padded to its largest p and u (a padded pivot carries a 1 on
the diagonal) and go through one stacked ``np.linalg.cholesky`` and
stacked ``matmul``.  With the front [[F11, F21^T], [F21, F22]] (F22
holds the children's updates extended to U), a front keeps H = W [I,
-F21^T] with W = F11^-1, and passes S = F22 - F21 W F21^T to its
parent.  H21 = -W F21^T is written straight into H, and F22 is added
into S = F21 H21 in place.  A piece takes its children from the pending
groups by index, a block of children at a time, so no group is copied,
and a group is freed once the last piece it updates has extended it.  A
solve is two sweeps of batched matrix-vector products: forward b_U +=
H_U^T b_P, deepest first; backward x_P = H [b_P; x_U], root first.
"""

from __future__ import annotations

import numpy as np

# Each depth costs about a hundred numpy calls whatever its size, so the
# deepest box levels merge into leaves; larger leaves would add fill.
# CHUNK bounds the front entries of one piece, and so the factor's
# transient memory: a piece holds at most CHUNK // m**2 fronts, m the
# depth's largest p + u.  The extend-add indexes at most CHUNK // 64
# update entries at once.  A size class merges into the next larger one
# when that pads fewer than CHUNK // 128 entries: less than one more
# class's numpy calls would cost.
LEAF_DEPTHS = 2
CHUNK = 1 << 21


def _depth(keys: np.ndarray) -> np.ndarray:
    """The depth of each box key: its bit length less one."""
    return np.frexp(keys.astype(float))[1] - 1


class Cholesky:
    """A = L L^T of a symmetric positive definite matrix, kept front by
    front; ``solve`` applies A^-1.

    ``entries`` is a list [rows, cols, vals] of A's distinct entries on and
    below the diagonal (rows >= cols) in elimination order; the factor
    takes the arrays out of it and leaves it empty, so that each depth's
    share of them is freed once that depth is factored.  ``box`` holds
    each unknown's nested-dissection box as a key with a leading 1 bit (a
    child box is 2 * key + side).  ``nnz`` counts the nonzeros of L, its
    diagonal included, and ``stored`` the entries of H kept, padding
    included.  Raises ``np.linalg.LinAlgError`` if A is not positive
    definite."""

    def __init__(self, entries, box):
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
        # A's entries sorted once by their front's depth, one share per depth
        rows, cols, vals = entries
        entries.clear()
        shares = [(rows[at], cols[at], vals[at]) for at in
                  _split(depth[owner[cols]].astype(np.int8), top + 1)]
        del rows, cols, vals
        up_depth = np.where(parent >= 0, depth[parent], -1)
        label = np.zeros(len(size), dtype=np.int64)
        self.groups, self.u = [], np.zeros(len(size), dtype=np.int64)
        # the (S, U, parent) of the fronts whose parent lies at each depth
        pending = [[] for _ in range(top + 1)]
        for d in range(top, -1, -1):
            rows, cols, vals = shares.pop()
            fronts = np.flatnonzero(depth == d)
            if not len(fronts):
                continue
            f = owner[cols]
            # update-set keys front * n + unknown: the rows of the fronts'
            # own entries and of their children's U, less the rows they
            # pivot; U's padding n is masked out on U itself, since the key
            # up * n + n would read as (up + 1) * n + 0
            keys = np.concatenate([f * n + rows]
                                  + [(up[:, None] * n + U)[U < n]
                                     for _, U, up in pending[d]])
            u_keys = _distinct(keys[owner[keys % n] != keys // n])
            del keys
            u_front, u_node = np.divmod(u_keys, n)
            u = self.u[fronts] = (np.searchsorted(u_front, fronts, side="right")
                                  - np.searchsorted(u_front, fronts))
            # size classes over the whole depth, cut into runs of at most
            # CHUNK // m**2 fronts; each piece takes its own entries, and its
            # children by their positions in the groups: a group is freed
            # once the last piece it updates has extended it
            m = size[fronts].max() + u.max()
            cap = max(1, CHUNK // (m * m))
            label[fronts], nc = _classes(size[fronts], u)
            pieces = ([fronts] if nc == 1 else
                      [fronts[at] for at in _split(label[fronts], nc)])
            if len(fronts) > cap:
                pieces = [run for cls in pieces
                          for run in np.array_split(cls, -(-len(cls) // cap))]
                nc = len(pieces)
                for c, piece in enumerate(pieces):
                    label[piece] = c
            kids, pending[d] = pending[d], []
            if nc == 1:
                children, mine = [[(*g, None) for g in kids]], [slice(None)]
            else:
                parts = [(g, _split(label[g[2]], nc)) for g in kids]
                children = [[(*g, at[c]) for g, at in parts if len(at[c])]
                            for c in range(nc)]
                mine = _split(label[f], nc)
                del parts
            del kids
            for piece, e, kin in zip(pieces, mine, children):
                S, U = self._front(piece, u_keys, u_front, u_node, rows[e],
                                   cols[e], vals[e], kin)
                to = up_depth[piece]
                if to.min() == to.max() >= 0:
                    pending[to[0]].append((S, U, parent[piece]))
                else:
                    for t in np.flatnonzero(np.bincount(to + 1)) - 1:
                        if t >= 0:
                            go = to == t
                            pending[t].append((S[go], U[go],
                                               parent[piece[go]]))
                del S, U
            del rows, cols, vals, f
        self.nnz = int((size * (size + 1) // 2 + self.u * size).sum())
        self.stored = sum(H.size for _, H in self.groups)

    def _front(self, fronts, u_keys, u_front, u_node, rows, cols, vals,
               children):
        """Factor one piece of a size class of one depth, given its entries
        and its children as (S, U, parent, positions in the group, or None
        for the whole group); return its fronts' S and U, padded with n."""
        n, nf, starts, owner = self.n, len(fronts), self.starts, self.owner
        p, u = self.size[fronts], self.u[fronts]
        first = np.searchsorted(u_front, fronts)
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
            # taken off the list, a group is freed once its last piece has
            # extended it; its children are indexed a block at a time, and
            # one child at a time is read as a view.  The padding of S is
            # exact zeros: add it anywhere
            S, U, up, at = children.pop(0)
            if at is not None:
                U, up = U[at], up[at]
            loc, real = np.zeros_like(U), U < n
            loc[real] = slot(up.repeat(U.shape[1]).reshape(U.shape)[real],
                             U[real])
            base = local[up] * m * m
            step = max(1, (CHUNK >> 6) // max(U.shape[1] ** 2, 1))
            for i in range(0, len(up), step):
                b = i if step == 1 else slice(i, i + step)
                np.add.at(flat, (base[b, None, None] + loc[b, :, None] * m
                                 + loc[b, None, :]).ravel(),
                          (S[b] if at is None else S[at[b]]).ravel())
            del S, U
        L_inv = np.linalg.inv(np.linalg.cholesky(F[:, :pm, :pm]))
        F21 = F[:, pm:, :pm]
        H = np.empty((nf, pm, m))
        H[:, :, :pm] = np.matmul(L_inv.transpose(0, 2, 1), L_inv)
        del L_inv
        H21 = H[:, :, pm:]
        np.matmul(H[:, :, :pm], F21.transpose(0, 2, 1), out=H21)
        # not np.negative: numpy 2.4.6 on AVX-512 negates wrongly into an
        # output strided by 8 elements, which H21 is when m = 8 and u = 1
        H21 *= -1.0
        S = F21 @ H21
        S += F[:, pm:, pm:]
        index = np.full((nf, m), n)
        index[:, :pm] = np.where(pad, n, starts[fronts, None] + np.arange(pm))
        real = np.arange(um) < u[:, None]
        index[:, pm:][real] = u_node[(first[:, None] + np.arange(um))[real]]
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


def _split(labels: np.ndarray, k: int) -> list[np.ndarray]:
    """The positions of each label 0, ..., k - 1 in ``labels``, ascending:
    one stable sort (a radix sort for int8 labels), no ``np.unique``."""
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.bincount(labels, minlength=k)).tolist()
    return [order[a:b] for a, b in zip([0] + ends, ends)]


def _classes(p: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, int]:
    """Size classes of fronts with p pivots and u update rows: a class
    label for each front and the number of classes.  A class is padded to
    its largest p and u; the fronts of one size p + u start as one class,
    and a class merges into the next larger one when the padding that
    adds costs fewer than CHUNK >> 7 front entries."""
    size = p + u
    # padding all to one class costs at least the sum of the merges' costs
    if len(size) * (p.max() + u.max()) ** 2 - size @ size < CHUNK >> 7:
        return np.zeros(len(size), dtype=np.int64), 1
    order = np.argsort(size, kind="stable")
    size = size[order]
    starts = [0, *(np.flatnonzero(size[1:] != size[:-1]) + 1).tolist()]
    count = np.diff(starts + [len(size)]).tolist()
    pm = np.maximum.reduceat(p[order], starts).tolist()
    um = np.maximum.reduceat(u[order], starts).tolist()
    label = [0] * len(starts)
    c, (n0, p0, u0) = 0, (count[0], pm[0], um[0])
    for i in range(1, len(starts)):
        n1, p1, u1 = count[i], max(p0, pm[i]), max(u0, um[i])
        added = ((n0 + n1) * (p1 + u1) ** 2 - n0 * (p0 + u0) ** 2
                 - n1 * (pm[i] + um[i]) ** 2)
        if added < CHUNK >> 7:
            n0, p0, u0 = n0 + n1, p1, u1
        else:
            c, (n0, p0, u0) = c + 1, (n1, pm[i], um[i])
        label[i] = c
    out = np.empty(len(size), dtype=np.int64)
    out[order] = np.repeat(label, count)
    return out, c + 1


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
