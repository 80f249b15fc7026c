"""Mutable community tree with pass counts, plus the pair routing rule.

The tree realizes the nested preferential-attachment process: every entity
owns a root-to-leaf path of fixed depth, communities track how many current
paths pass through them, and communities whose count drops to zero are pruned.
Community ids are never recycled, so logs stay unambiguous across pruning.

A ``Path`` omits the root: entry ``l-1`` is the community at level ``l``
(levels run 1..depth).  A ``SiblingKey`` (a, b, r) is an ordered pair of
communities sharing a parent, together with a predicate id; it names one
pairwise relation degree.  The sampler counts per sibling pair rather than
per key: one row ``[n, ones_0, ..., ones_{R-1}]`` for each occupied pair
(a, b), holding the number of entity pairs routed there and the one-count of
every predicate among them.  The rows form a plain map: nothing reads their
order, and ``route_pairs`` returns its pairs sorted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ROOT_ID",
    "Community",
    "Hierarchy",
    "Path",
    "PathSpec",
    "SiblingKey",
    "divergence_level",
    "coarsen",
    "divergence_levels",
    "route_levels",
    "route_pairs",
]

ROOT_ID = 0

Path = tuple[int, ...]
# A path descriptor: existing community id per level, or None meaning "branch
# new from here downward" (once None, always None).
PathSpec = tuple
SiblingKey = tuple[int, int, int]


@dataclass
class Community:
    """One tree node; ``pass_count`` is the number of current paths through it."""

    id: int
    parent: int | None
    level: int
    pass_count: int = 0
    children: list[int] = field(default_factory=list)


class Hierarchy:
    """Rooted community tree of fixed depth, single-writer mutable."""

    def __init__(self, depth: int):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth
        self._nodes: dict[int, Community] = {ROOT_ID: Community(ROOT_ID, None, 0)}
        self._next_id = 1

    def __contains__(self, community_id: int) -> bool:
        return community_id in self._nodes

    def node(self, community_id: int) -> Community:
        try:
            return self._nodes[community_id]
        except KeyError:
            raise ValueError(f"no community with id {community_id}") from None

    @property
    def num_entities(self) -> int:
        return self._nodes[ROOT_ID].pass_count

    @property
    def num_communities(self) -> int:
        """Number of non-root communities currently in the tree."""
        return len(self._nodes) - 1

    def children_of(self, community_id: int) -> list[int]:
        return list(self.node(community_id).children)

    def community_ids(self, include_root: bool = False) -> list[int]:
        return [cid for cid in self._nodes if include_root or cid != ROOT_ID]

    def pass_count(self, community_id: int) -> int:
        return self.node(community_id).pass_count

    def leaves(self) -> list[int]:
        return [c.id for c in self._nodes.values() if c.level == self.depth]

    def add_path(self, spec: PathSpec) -> Path:
        """Register one entity along ``spec`` and return the concrete path.

        ``spec`` names an existing community per level or ``None`` from some
        level downward; new communities get fresh, never-recycled ids.  The
        spec is validated in full before any count changes.
        """
        if len(spec) != self.depth:
            raise ValueError(f"path spec must have {self.depth} levels, got {len(spec)}")
        branched = False
        parent_id = ROOT_ID
        for level, want in enumerate(spec, start=1):
            if want is None:
                branched = True
                continue
            if branched:
                raise ValueError("existing community named below a new branch point")
            node = self._nodes.get(want)
            if node is None:
                raise ValueError(f"no community with id {want} at level {level}")
            if node.parent != parent_id:
                raise ValueError(f"community {want} is not a child of {parent_id}")
            parent_id = want
        parent = self._nodes[ROOT_ID]
        out = []
        for level, want in enumerate(spec, start=1):
            if want is None:
                node = Community(self._next_id, parent.id, level)
                self._nodes[node.id] = node
                parent.children.append(node.id)
                self._next_id += 1
            else:
                node = self._nodes[want]
            node.pass_count += 1
            out.append(node.id)
            parent = node
        self._nodes[ROOT_ID].pass_count += 1
        return tuple(out)

    def remove_path(self, path: Path) -> None:
        """Unregister one entity along ``path``, pruning emptied communities."""
        if len(path) != self.depth:
            raise ValueError(f"path must have {self.depth} levels, got {len(path)}")
        chain = []
        parent_id = ROOT_ID
        for level, cid in enumerate(path, start=1):
            node = self._nodes.get(cid)
            if node is None or node.parent != parent_id or node.level != level or node.pass_count < 1:
                raise RuntimeError(f"path {path} is not registered in the hierarchy")
            chain.append(node)
            parent_id = cid
        self._nodes[ROOT_ID].pass_count -= 1
        for node in chain:
            node.pass_count -= 1
        for node in reversed(chain):
            if node.pass_count == 0:
                self._nodes[node.parent].children.remove(node.id)
                del self._nodes[node.id]

    def to_dict(self) -> dict:
        """Nested JSON-ready tree: {id, level, pass_count, children: [...]}."""

        def build(cid: int) -> dict:
            node = self._nodes[cid]
            return {
                "id": node.id,
                "level": node.level,
                "pass_count": node.pass_count,
                "children": [build(c) for c in node.children],
            }

        return build(ROOT_ID)

    def validate(self) -> None:
        """Raise if any structural invariant is violated (used by tests)."""
        root = self._nodes[ROOT_ID]
        if root.level != 0 or root.parent is not None:
            raise AssertionError("root must sit at level 0 with no parent")
        reachable = set()
        stack = [ROOT_ID]
        while stack:
            cid = stack.pop()
            reachable.add(cid)
            node = self._nodes[cid]
            if cid != ROOT_ID and node.pass_count < 1:
                raise AssertionError(f"community {cid} has pass_count {node.pass_count}")
            if node.children:
                total = 0
                for child in node.children:
                    cnode = self._nodes[child]
                    if cnode.parent != cid or cnode.level != node.level + 1:
                        raise AssertionError(f"bad parent/level link at community {child}")
                    total += cnode.pass_count
                if total != node.pass_count:
                    raise AssertionError(
                        f"community {cid} pass_count {node.pass_count} != children sum {total}"
                    )
            elif cid != ROOT_ID and node.level != self.depth:
                raise AssertionError(f"internal community {cid} at level {node.level} has no children")
            stack.extend(node.children)
        if reachable != set(self._nodes):
            raise AssertionError("orphan communities present")


def divergence_level(pi: Path, pj: Path) -> int:
    """First level at which two equal-length paths differ; len+1 if identical."""
    if len(pi) != len(pj):
        raise ValueError(f"path length mismatch: {len(pi)} vs {len(pj)}")
    for idx, (a, b) in enumerate(zip(pi, pj)):
        if a != b:
            return idx + 1
    return len(pi) + 1


def coarsen(pi: Path, zi: int, pj: Path, zj: int, r: int) -> SiblingKey:
    """Map an interacting pair to the deepest community pair in one sibling group.

    When both indicated communities share a parent (same indicated level and a
    common ancestor one level up, where the level-0 parent is the root), the
    key is the pair of indicated communities.  Otherwise the pair is coarsened
    to the level where the paths diverge; for identical paths with unequal
    indicated levels the shallower indicated level is used, which keeps the
    result adjacent to the direct case.
    """
    depth = len(pi)
    if len(pj) != depth:
        raise ValueError(f"path length mismatch: {depth} vs {len(pj)}")
    if not (1 <= zi <= depth and 1 <= zj <= depth):
        raise ValueError(f"levels must lie in 1..{depth}, got ({zi}, {zj})")
    if zi == zj and (zi == 1 or pi[zi - 2] == pj[zi - 2]):
        return (pi[zi - 1], pj[zj - 1], r)
    d = divergence_level(pi, pj)
    if d > depth:
        d = min(zi, zj)
    return (pi[d - 1], pj[d - 1], r)


def divergence_levels(P: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``divergence_level`` along the last axis of two broadcastable path arrays."""
    neq = np.asarray(P) != np.asarray(q)
    return np.where(neq.any(axis=-1), neq.argmax(axis=-1) + 1, neq.shape[-1] + 1)


def route_levels(zs, zr, div, depth: int):
    """Vectorised ``coarsen``: the levels at which a pair's two paths are read.

    ``zs``, ``zr`` (indicated levels) and ``div`` (divergence levels) broadcast.
    """
    direct = (zs == zr) & (div > zs - 1)
    fallback = np.where(div <= depth, div, np.minimum(zs, zr))
    return np.where(direct, zs, fallback), np.where(direct, zr, fallback)


def route_pairs(P: np.ndarray, Zs: np.ndarray, Zr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Route all ordered pairs of the E paths in ``P`` at E x E levels ``Zs``, ``Zr``.

    Returns the distinct (a, b) community pairs, K x 2 in ascending order,
    and the E x E index into them.
    """
    P = np.asarray(P, dtype=np.int64)
    ls, lr = route_levels(Zs, Zr, divergence_levels(P[:, None, :], P[None, :, :]), P.shape[1])
    rows = np.arange(len(P))
    a = P[rows[:, None], ls - 1].ravel()
    b = P[rows[None, :], lr - 1].ravel()
    width = int(b.max(initial=0)) + 1
    keys, index = np.unique(a * width + b, return_inverse=True)
    return np.stack(np.divmod(keys, width), axis=1), index.reshape(len(P), len(P))
