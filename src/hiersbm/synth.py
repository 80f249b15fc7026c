"""Forward sampling of the generative process and synthetic benchmark data.

All operations take an explicit numpy ``Generator`` and are deterministic per
seed; callers may parallelize across independently seeded generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from .hierarchy import ROOT_ID, Path, route_pairs
from .kgraph import KnowledgeGraph, TripleParseError
from .stats import Hyperparameters

__all__ = [
    "StickDraw",
    "LatentState",
    "GroundTruth",
    "sample_crp_table",
    "sample_ncrp_paths",
    "stick_weights",
    "sample_stick",
    "forward_generate",
    "generate_sbt",
    "save_ground_truth",
    "load_ground_truth",
]


@dataclass
class StickDraw:
    """Stick-breaking draw: Beta break points and the truncated level weights.

    ``weights`` is renormalized to sum to one after truncation; the raw
    (untruncated) weights are ``breaks[l] * prod(1 - breaks[:l])``.
    """

    breaks: np.ndarray
    weights: np.ndarray


@dataclass
class LatentState:
    """Every latent variable drawn during one forward simulation."""

    paths: list[Path]
    memberships: list[StickDraw]
    indicators: np.ndarray  # |E| x |E| x 2, sender then receiver level
    relations: dict[tuple[int, int, int], float]


@dataclass
class GroundTruth:
    """Per-entity cluster label at every level, labels refining downward."""

    entity_labels: list[str]
    assignments: list[tuple[Hashable, ...]]

    @property
    def depth(self) -> int:
        return len(self.assignments[0]) if self.assignments else 0

    def level(self, l: int) -> dict[str, Hashable]:
        if not 1 <= l <= self.depth:
            raise ValueError(f"level must lie in 1..{self.depth}")
        return {e: a[l - 1] for e, a in zip(self.entity_labels, self.assignments)}


def sample_crp_table(counts: Mapping, gamma: float, rng: np.random.Generator):
    """Seat one patron: an existing table key, or ``None`` for a new table.

    Existing table ``m`` is chosen with probability ``counts[m] / (n + gamma)``
    where ``n`` is the total patron count, a new table with ``gamma / (n + gamma)``.
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    if any(c < 0 for c in counts.values()):
        raise ValueError("table counts must be >= 0")
    n = sum(counts.values())
    u = rng.random() * (n + gamma)
    acc = 0.0
    for table, c in counts.items():
        acc += c
        if u < acc:
            return table
    return None


def sample_ncrp_paths(n: int, depth: int, gamma: float, rng: np.random.Generator) -> list[Path]:
    """Seat n entities one after another on the nested CRP and return their paths.

    At each level an entity joins an existing child with probability
    proportional to its pass count or opens a new branch with weight gamma;
    a new branch at level l implies fresh singleton communities down to the
    bottom, taken with probability one and without a draw.  New communities
    get ids 1, 2, ... in the order they open, top down along a path.
    """
    children: dict[int, dict[int, int]] = {ROOT_ID: {}}  # child pass counts per community, in creation order
    next_id = ROOT_ID + 1
    paths = []
    for _ in range(n):
        path, node, branched = [], ROOT_ID, False
        for _ in range(depth):
            counts = children[node]
            node = None if branched else sample_crp_table(counts, gamma, rng)
            if node is None:  # a new branch, with fresh communities below it
                branched = True
                node, next_id = next_id, next_id + 1
                children[node] = {}
                counts[node] = 0
            counts[node] += 1
            path.append(node)
        paths.append(tuple(path))
    return paths


def stick_weights(breaks: Sequence[float]) -> np.ndarray:
    """Raw stick fragments: w[l] = breaks[l] * prod(1 - breaks[:l])."""
    breaks = np.asarray(breaks, dtype=np.float64)
    if np.any((breaks <= 0) | (breaks >= 1)):
        raise ValueError("break points must lie in (0, 1)")
    remainder = np.concatenate([[1.0], np.cumprod(1.0 - breaks)[:-1]])
    return breaks * remainder


def sample_stick(hyper: Hyperparameters, rng: np.random.Generator) -> StickDraw:
    """Draw level-membership weights from ``hyper.level_breaks``, truncated to ``depth`` and renormalized.

    A break with b = 0 is 1 without a draw; the others are drawn in level order.
    """
    hyper.validate()
    a, b, _ = np.array(hyper.level_breaks).T
    breaks = np.ones(hyper.depth)
    drawn = b > 0
    breaks[drawn] = rng.beta(a[drawn], b[drawn])
    # Guard against degenerate float draws at the support edge.
    breaks = np.clip(breaks, 1e-300, 1.0 - 1e-16)
    raw = stick_weights(breaks)
    return StickDraw(breaks=breaks, weights=raw / raw.sum())


def forward_generate(
    hyper: Hyperparameters,
    num_entities: int,
    num_predicates: int,
    rng: np.random.Generator,
) -> tuple[KnowledgeGraph, LatentState]:
    """Run the full generative process and return the graph plus all latents.

    Paths and level memberships are drawn per entity, relation degrees per
    same-sibling-group community pair and predicate, then two level indicators
    and one Bernoulli value per ordered entity pair (self-pairs included) and
    predicate.  Level memberships are ``sample_stick`` draws, from the stick or
    the finite Dirichlet as ``hyper`` says.
    """
    hyper.validate()
    if num_entities < 1 or num_predicates < 1:
        raise ValueError("need at least one entity and one predicate")
    depth = hyper.depth
    paths = sample_ncrp_paths(num_entities, depth, hyper.gamma, rng)
    memberships = [sample_stick(hyper, rng) for _ in range(num_entities)]

    children: dict[int, set[int]] = {}
    for path in paths:
        for parent, child in zip((ROOT_ID, *path), path):
            children.setdefault(parent, set()).add(child)
    relations: dict[tuple[int, int, int], float] = {}
    for parent in sorted(children):
        siblings = sorted(children[parent])
        for p in siblings:
            for q in siblings:
                for r in range(num_predicates):
                    relations[(p, q, r)] = float(rng.beta(hyper.lam, hyper.eta))

    indicators = np.empty((num_entities, num_entities, 2), dtype=np.int64)
    for i in range(num_entities):
        cum_i = np.cumsum(memberships[i].weights)
        indicators[i, :, 0] = np.searchsorted(cum_i, rng.random(num_entities)) + 1
    for j in range(num_entities):
        cum_j = np.cumsum(memberships[j].weights)
        indicators[:, j, 1] = np.searchsorted(cum_j, rng.random(num_entities)) + 1
    np.clip(indicators, 1, depth, out=indicators)

    e = np.arange(num_entities)
    pairs, index = route_pairs(paths, indicators[:, :, 0], indicators[:, :, 1], e[:, None], e[None])
    theta = np.array([[relations[(a, b, r)] for r in range(num_predicates)] for a, b in pairs.tolist()])
    # one uniform per (i, j, r) in row-major order, the stream of a per-cell loop
    draws = rng.random((num_entities, num_entities, num_predicates)) < theta[index]

    kg = KnowledgeGraph(
        entities={f"e{i}": i for i in range(num_entities)},
        predicates={f"r{r}": r for r in range(num_predicates)},
        triples=np.argwhere(draws),
    )
    return kg, LatentState(paths, memberships, indicators, relations)


def generate_sbt(
    depth: int,
    entities_per_leaf: int,
    level_probs: Sequence[float],
    num_predicates: int,
    rng: np.random.Generator,
) -> tuple[KnowledgeGraph, GroundTruth]:
    """Synthetic benchmark over a full binary tree of communities.

    Entities are spread evenly over the ``2**depth`` leaves.  For every
    ordered entity pair (self-pairs included) and predicate, a triple is
    emitted with probability one when both entities share a leaf and with
    ``level_probs[k]`` when their lowest common ancestor sits at level ``k``.
    Ground truth records each entity's ancestor community per level, using
    heap ids over the binary tree.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if entities_per_leaf < 1:
        raise ValueError("entities_per_leaf must be >= 1")
    if num_predicates < 1:
        raise ValueError("num_predicates must be >= 1")
    probs = np.asarray(level_probs, dtype=np.float64)
    if probs.shape != (depth,):
        raise ValueError(f"level_probs must have {depth} entries, got {probs.shape}")
    if not np.all((probs >= 0) & (probs <= 1)):  # NaN fails both comparisons
        raise ValueError("level_probs entries must lie in [0, 1]")

    leaves = 2 ** depth
    n = leaves * entities_per_leaf
    leaf_idx = np.arange(n) // entities_per_leaf

    xor = leaf_idx[:, None] ^ leaf_idx[None, :]
    # lca level = depth - (index of highest differing bit + 1); same leaf -> depth
    highest_bit = np.zeros_like(xor)
    v = xor.copy()
    while np.any(v):
        nz = v > 0
        highest_bit[nz] += 1
        v >>= 1
    lca_level = depth - highest_bit
    pair_prob = np.where(xor == 0, 1.0, probs[np.minimum(lca_level, depth - 1)])

    draws = rng.random((n, n, num_predicates)) < pair_prob[:, :, None]

    kg = KnowledgeGraph(
        entities={f"e{i}": i for i in range(n)},
        predicates={f"r{r}": r for r in range(num_predicates)},
        triples=np.argwhere(draws),
    )
    assignments = []
    for i in range(n):
        anc = []
        for l in range(1, depth + 1):
            idx = int(leaf_idx[i]) >> (depth - l)
            anc.append((1 << l) - 1 + idx)  # heap id of the level-l ancestor
        assignments.append(tuple(anc))
    truth = GroundTruth(entity_labels=kg.entity_labels, assignments=assignments)
    return kg, truth


def save_ground_truth(truth: GroundTruth, path) -> None:
    """Write ``entity<TAB>level<TAB>cluster-label`` rows for every level."""
    with open(path, "w", encoding="utf-8") as fh:
        for entity, assignment in zip(truth.entity_labels, truth.assignments):
            for l, label in enumerate(assignment, start=1):
                fh.write(f"{entity}\t{l}\t{label}\n")


def load_ground_truth(path) -> GroundTruth:
    """Parse the label TSV; labels are kept as opaque strings.

    A repeated (entity, level) line must repeat its label: an identical
    repeat is accepted, as a duplicate triple is, and a different label
    raises ``TripleParseError`` naming the line.
    """
    per_entity: dict[str, dict[int, str]] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise TripleParseError(path, line_no, f"expected 3 tab-separated fields, got {len(fields)}")
            entity, level_s, label = fields
            try:
                level = int(level_s)
            except ValueError:
                raise TripleParseError(path, line_no, f"level {level_s!r} is not an integer") from None
            if level < 1:
                raise TripleParseError(path, line_no, f"level must be >= 1, got {level}")
            labels = per_entity.setdefault(entity, {})
            if labels.setdefault(level, label) != label:
                raise TripleParseError(
                    path, line_no, f"entity {entity!r} has labels {labels[level]!r} and {label!r} at level {level}"
                )
    if not per_entity:
        return GroundTruth(entity_labels=[], assignments=[])
    depth = max(max(levels) for levels in per_entity.values())
    entity_labels = list(per_entity)
    assignments = []
    for entity in entity_labels:
        levels = per_entity[entity]
        missing = [l for l in range(1, depth + 1) if l not in levels]
        if missing:
            raise ValueError(f"entity {entity!r} is missing labels for levels {missing}")
        assignments.append(tuple(levels[l] for l in range(1, depth + 1)))
    return GroundTruth(entity_labels=entity_labels, assignments=assignments)

