"""The community tree as its entities' paths, plus the pair routing rule.

The tree realizes the nested preferential-attachment process: every entity
owns a root-to-leaf path of fixed depth, and the tree is the union of those
paths.  A community exists while some path passes through it, so a community
that no path reaches any more is gone without being pruned.  Community ids
come from a counter and are never recycled, so logs stay unambiguous.

A ``Path`` omits the root: entry ``l-1`` is the community at level ``l``
(levels run 1..depth).  An ordered pair (a, b) of communities sharing a
parent, together with a predicate, names one pairwise relation degree.  Two
communities sharing a parent sit at one level, so an entity pair (x, y) is
read at one level m, as ``(P[x, m-1], P[y, m-1])``; ``route_level`` is the
rule that picks m, and the only one in the package; ``route_pairs`` applies
it to any set of pairs, all of them or one entity's.  The sampler counts per
sibling pair, not per pair and predicate: one row
``[n, ones_0, ..., ones_{R-1}]`` for each occupied pair (a, b), holding the
number of entity pairs routed there and the one-count of every predicate
among them.  The rows form a plain map: nothing reads their order, and
``route_pairs`` returns its pairs sorted.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ROOT_ID",
    "Hierarchy",
    "Path",
    "PathSpec",
    "divergence_levels",
    "route_level",
    "route_pairs",
]

ROOT_ID = 0

Path = tuple[int, ...]
# A path descriptor: existing community id per level, or None meaning "branch
# new from here downward" (once None, always None).
PathSpec = tuple


class Hierarchy:
    """Read-only view of the community tree that a set of entity paths spans.

    A community's pass count is the number of paths through it.
    """

    def __init__(self, paths):
        self.paths = paths

    def to_dict(self) -> dict:
        """Nested JSON-ready tree: {id, level, pass_count, children: [...]}, children by ascending id.

        Ids only ever grow, so ascending id order is creation order.  Raises
        ``ValueError`` if the paths span no tree: a community named at two
        levels or under two parents.
        """
        paths = np.asarray(self.paths, dtype=np.int64).tolist()
        root = {"id": ROOT_ID, "level": 0, "pass_count": len(paths), "children": []}
        nodes, parent_of = {ROOT_ID: root}, {}
        for path in paths:
            parent = ROOT_ID
            for level, cid in enumerate(path, start=1):
                node = nodes.get(cid)
                if node is None:
                    node = nodes[cid] = {"id": cid, "level": level, "pass_count": 0, "children": []}
                    nodes[parent]["children"].append(node)
                    parent_of[cid] = parent
                elif node["level"] != level or parent_of[cid] != parent:
                    raise ValueError(f"community {cid} is named at two levels or under two parents")
                node["pass_count"] += 1
                parent = cid
        for node in nodes.values():
            node["children"].sort(key=lambda child: child["id"])
        return root


def divergence_levels(P: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The first level at which two paths differ, along the last axis of two broadcastable path arrays.

    Levels count from 1, and identical paths give depth + 1.  The paths must
    be paths of one tree, which agree on a prefix and nowhere below it, so
    the level is one more than the number of levels at which they agree.
    That count is taken one level column at a time, so no array of the
    broadcast shape times the depth is built.  Returns int64 of the
    broadcast shape of the leading axes.
    """
    P, q = np.asarray(P), np.asarray(q)
    div = np.ones(np.broadcast_shapes(P.shape[:-1], q.shape[:-1]), dtype=np.int64)
    for level in range(P.shape[-1]):
        div += P[..., level] == q[..., level]
    return div


def route_level(zs, zr, div, depth: int):
    """The one level at which a pair's two paths are read, at indicated levels ``zs``, ``zr``.

    The pair goes to the deepest pair of communities in one sibling group.
    When the indicated levels are equal and the paths agree above them
    (``div >= zs``), that is the indicated pair; otherwise the pair is
    coarsened to the divergence level ``div``, so equal levels give
    ``min(zs, div)``.  Identical paths (``div = depth + 1``) with unequal
    levels are read at the shallower one, ``min(zs, zr)``.  Symmetric in
    ``zs`` and ``zr``; the arguments broadcast.
    """
    return np.where(zs == zr, np.minimum(zs, div), np.where(div <= depth, div, np.minimum(zs, zr)))


def route_pairs(P: np.ndarray, zs, zr, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Route the pairs (x, y), broadcastable index arrays of the paths in ``P``, at their levels ``zs``, ``zr``.

    All pairs are ``x, y = e[:, None], e[None]``.  Pair (x, y) goes to
    ``(P[x, m-1], P[y, m-1])`` at its ``route_level`` m.  Returns the distinct
    (a, b) community pairs, K x 2 in ascending order, and the index into them.
    """
    P = np.asarray(P, dtype=np.int64)
    div = np.ones(np.broadcast_shapes(np.shape(x), np.shape(y)), dtype=np.int64)
    for column in P.T:  # divergence_levels(P[x], P[y]), gathered one level column at a time
        div += column[x] == column[y]
    m = route_level(zs, zr, div, P.shape[1]) - 1
    a, b = P[x, m], P[y, m]
    width = int(b.max(initial=0)) + 1
    keys, index = np.unique(a * width + b, return_inverse=True)
    return np.stack(np.divmod(keys, width), axis=1), index.reshape(m.shape)
