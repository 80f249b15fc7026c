"""Benchmark inputs: planted hierarchical graphs generated from a seed.

The generators here are the benchmark's own and do not call ``hiersbm.synth``,
so a change to the program's generator cannot change a workload.  Each returns
a boolean adjacency tensor ``adj[subject, object, predicate]`` and one tuple of
ground-truth cluster labels per entity, shallowest level first.  The writers
emit triples sorted by (subject, predicate, object) id and truth rows sorted by
entity then level, so the files depend only on the seed.
"""

from __future__ import annotations

import numpy as np


def binary_tree_graph(depth: int, per_leaf: int, level_probs, predicates: int, seed: int):
    """The paper's synthetic binary tree (SBT).

    Entities sit evenly on the ``2**depth`` leaves of a full binary tree.  An
    ordered pair (self-pairs included) carries each predicate with
    probability one when both entities share a leaf, and otherwise with
    ``level_probs[k]``, where ``k`` is the level of their lowest common
    ancestor (0 is the root).  Level-``l`` labels are heap ids of the
    ancestor at that level.
    """
    probs = np.asarray(level_probs, dtype=np.float64)
    if probs.shape != (depth,):
        raise ValueError(f"need {depth} level probabilities, got {probs.shape}")
    n = per_leaf << depth
    leaf = np.arange(n) // per_leaf
    diff = leaf[:, None] ^ leaf[None, :]
    lca = depth - np.ceil(np.log2(diff + 1)).astype(np.int64)  # bit length of the xor
    p = np.where(diff == 0, 1.0, probs[np.minimum(lca, depth - 1)])
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n, predicates)) < p[:, :, None]
    truth = [tuple((1 << l) - 1 + (int(leaf[i]) >> (depth - l)) for l in range(1, depth + 1)) for i in range(n)]
    return adj, truth


def wide_graph(groups: int, subgroups: int, per_subgroup: int, predicates: int, seed: int,
               shape=(0.3, 6.0)):
    """A sparse graph with many predicates over a two-level planted tree.

    Every ordered pair of sibling communities gets one density per predicate,
    drawn from ``Beta(*shape)``: top-level groups pair with each other, and
    the subgroups of one group pair with each other.  An entity pair inside
    one group uses the density of its two subgroups, a pair across groups the
    density of its two groups.  Labels are the group id and the global
    subgroup id.
    """
    n = groups * subgroups * per_subgroup
    sub = np.arange(n) // per_subgroup
    top = sub // subgroups
    rng = np.random.default_rng(seed)
    top_dens = rng.beta(*shape, size=(groups, groups, predicates))
    sub_dens = rng.beta(*shape, size=(groups, subgroups, subgroups, predicates))
    local = sub % subgroups
    within = sub_dens[top[:, None], local[:, None], local[None, :]]
    across = top_dens[top[:, None], top[None, :]]
    p = np.where((top[:, None] == top[None, :])[:, :, None], within, across)
    adj = rng.random((n, n, predicates)) < p
    incident = adj.any(axis=(1, 2)) | adj.any(axis=(0, 2))
    if not incident.all():
        raise ValueError(f"seed {seed} leaves entities without triples: {np.flatnonzero(~incident)}")
    truth = [(int(top[i]), int(sub[i])) for i in range(n)]
    return adj, truth


def write_triples(adj: np.ndarray, path) -> int:
    """Write ``e<i> TAB r<r> TAB e<j>`` lines; returns the number of triples."""
    rows = np.argwhere(adj.transpose(0, 2, 1))  # (subject, predicate, object), sorted
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"e{i}\tr{r}\te{j}\n" for i, r, j in rows.tolist())
    return len(rows)


def write_truth(truth, path) -> None:
    """Write ``e<i> TAB level TAB label`` rows, levels starting at 1."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, labels in enumerate(truth):
            fh.writelines(f"e{i}\t{l}\t{label}\n" for l, label in enumerate(labels, start=1))
