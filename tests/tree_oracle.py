"""The mutable community tree the sampler used to keep beside its paths, kept as a test oracle.

``Hierarchy`` registers and removes paths one at a time, mints fresh ids from
its own counter and prunes communities whose pass count drops to zero;
``sample_ncrp_path`` seats one entity on it.  Tests compare the sampler's
path array, its id counter and the tree it derives from the paths against
this object graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hiersbm.hierarchy import ROOT_ID, Path, PathSpec
from hiersbm.synth import sample_crp_table


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


def sample_ncrp_path(h: Hierarchy, gamma: float, rng: np.random.Generator) -> Path:
    """Draw one path level by level and register it in the tree.

    At each level the entity joins an existing child with probability
    proportional to its pass count or opens a new branch with weight gamma;
    a new branch at level l implies fresh singleton communities down to the
    bottom, taken with probability one.
    """
    spec: list = []
    current: int | None = 0  # root; None encodes "already on a fresh branch"
    for _ in range(h.depth):
        if current is None:
            spec.append(None)
            continue
        counts = {c: h.pass_count(c) for c in h.children_of(current)}
        choice = sample_crp_table(counts, gamma, rng)
        spec.append(choice)
        current = choice
    return h.add_path(tuple(spec))


def tree_of(paths, depth: int, next_id: int) -> Hierarchy:
    """The oracle tree that holds ``paths`` under their own ids and mints from ``next_id`` on.

    A parent's id is below its children's, so adding the communities in
    ascending id order puts every child list in creation order.
    """
    rows = np.asarray(paths, dtype=np.int64).reshape(-1, depth).tolist()
    links = {cid: (parent, level) for path in rows for level, (parent, cid) in enumerate(zip([ROOT_ID, *path], path), 1)}
    h = Hierarchy(depth)
    for cid in sorted(links):
        parent, level = links[cid]
        h._nodes[cid] = Community(cid, parent, level)
        h._nodes[parent].children.append(cid)
    for path in rows:
        for cid in (ROOT_ID, *path):
            h._nodes[cid].pass_count += 1
    h._next_id = next_id
    h.validate()
    return h
