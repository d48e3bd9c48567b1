"""Reference update sets, kept as a differential-test oracle for
``cholesky.Cholesky``: the key carry that formed them before the factor
took each front's update set from its children's U.

Every entry whose row lies in a later front than its column puts its row
in the update set of its column's front.  Then, depth by depth from the
deepest, each front carries the rows of its update set that its parent
does not pivot up into its parent's update set.
"""

from __future__ import annotations

import numpy as np

from biharmfem.cholesky import LEAF_DEPTHS, _depth, _parents


def update_sets(rows, cols, box):
    """The first unknown of each front of ``Cholesky([rows, cols, vals],
    box)`` and each front's update set, as ascending unknowns."""
    n = len(box)
    dep = _depth(box)
    cut = max(int(dep.max()) - LEAF_DEPTHS, 0)
    key = box >> np.maximum(dep - cut, 0)
    starts = np.flatnonzero(np.diff(key, prepend=0))
    owner = np.repeat(np.arange(len(starts)), np.diff(starts, append=n))
    parent = _parents(key[starts])
    depth = _depth(key[starts])
    top = int(depth.max())
    reached = [[] for _ in range(top + 1)]     # keys front * n + unknown

    def reach(f, x):
        for d in np.unique(depth[f]):
            at = depth[f] == d
            reached[d].append(f[at] * n + x[at])

    col_front = owner[cols]
    cross = owner[rows] != col_front
    reach(col_front[cross], rows[cross])
    sets = [None] * len(starts)
    for d in range(top, -1, -1):
        u_keys = np.unique(np.concatenate([np.zeros(0, np.int64),
                                           *reached[d]]))
        u_front, u_node = np.divmod(u_keys, n)
        up = parent[u_front]
        carry = (up >= 0) & (owner[u_node] != up)
        reach(up[carry], u_node[carry])
        for f in np.flatnonzero(depth == d):
            sets[f] = u_node[u_front == f]
    return starts, sets
