"""The scalar pair-routing rule, kept as the test oracle of ``hierarchy.route_level`` and ``route_pairs``.

``coarsen`` routes one entity pair and one predicate to the relation degree
that governs it, the key (a, b, r) of two communities sharing a parent, by
following the model's deepest-sibling rule on the two paths one level at a
time; ``divergence_level`` is the scalar form of
``hierarchy.divergence_levels``.
"""

from __future__ import annotations

from hiersbm.hierarchy import Path

SiblingKey = tuple[int, int, int]


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
