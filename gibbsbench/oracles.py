"""Reference computations the benchmark checks the program against.

Each oracle is written from the model's definitions, not from the program's
code, and uses only numpy: pair routing follows the deepest-sibling rule in
the docstring of ``hiersbm.hierarchy.coarsen`` without calling it, relation
means are recounted from the graph, and the agreement index counts pairs.
None of them runs inside a timed block.
"""

from __future__ import annotations

import math

import numpy as np


def route(paths: np.ndarray, zs: np.ndarray, zr: np.ndarray):
    """Sibling-pair communities (a[i, j], b[i, j]) of every ordered entity pair.

    ``paths[i]`` lists entity i's communities from level 1 down; ``zs`` and
    ``zr`` hold the sender's and the receiver's indicated levels (1-based).
    When both levels are equal and the two paths agree one level above them
    (the root counts as agreeing), the pair is the two indicated communities.
    Otherwise both sides move to the level where the paths first differ, or
    to the shallower indicated level when the paths are identical.
    """
    paths = np.asarray(paths, dtype=np.int64)
    depth = paths.shape[1]
    same = paths[:, None, :] == paths[None, :, :]
    shared = np.cumprod(same, axis=2).sum(axis=2)  # length of the common prefix
    direct = (zs == zr) & (shared >= zs - 1)
    split = np.where(shared < depth, shared + 1, np.minimum(zs, zr))
    ls = np.where(direct, zs, split)
    lr = np.where(direct, zr, split)
    rows = np.arange(len(paths))
    return paths[rows[:, None], ls - 1], paths[rows[None, :], lr - 1]


def _routed(paths, indicators: np.ndarray, adj: np.ndarray):
    """Distinct routed (a, b) keys, each pair's key index, ones per key and predicate, pairs per key."""
    a, b = route(paths, indicators[:, :, 0], indicators[:, :, 1])
    keys, inverse = np.unique(np.stack([a.ravel(), b.ravel()], axis=1), axis=0, return_inverse=True)
    inverse = inverse.ravel()
    pairs = np.bincount(inverse, minlength=len(keys))
    ones = np.stack(
        [np.bincount(inverse, weights=adj[:, :, r].ravel().astype(np.float64), minlength=len(keys))
         for r in range(adj.shape[2])],
        axis=1,
    )
    return keys, inverse.reshape(a.shape), ones.astype(np.int64), pairs


def relation_counts(paths, indicators: np.ndarray, adj: np.ndarray) -> dict:
    """(ones, zeros) per (a, b, predicate) over all routed ordered pairs.

    ``adj[i, j, r]`` is the graph in the same entity order as ``paths``.
    """
    keys, _, ones, pairs = _routed(paths, indicators, adj)
    return {
        (ka, kb, r): (one, total - one)
        for (ka, kb), row, total in zip(keys.tolist(), ones.tolist(), pairs.tolist())
        for r, one in enumerate(row)
    }


def relation_means(counts: dict, lam: float, eta: float) -> dict:
    """Posterior mean of each relation degree under its Beta(lam, eta) prior."""
    return {key: (ones + lam) / (ones + zeros + lam + eta) for key, (ones, zeros) in counts.items()}


def edge_probabilities(paths, indicators: np.ndarray, adj: np.ndarray, lam: float, eta: float) -> np.ndarray:
    """Posterior-mean probability of every (i, j, r), read at the pair's routed key."""
    _, index, ones, pairs = _routed(paths, indicators, adj)
    means = (ones + lam) / (pairs[:, None] + lam + eta)
    return means[index]


def pass_count_errors(tree: dict, paths) -> list[str]:
    """Nodes whose ``pass_count`` differs from the number of paths through them."""
    through: dict[int, int] = {}
    for path in paths:
        for community in path:
            through[community] = through.get(community, 0) + 1
    errors = []
    seen = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        want = len(paths) if node["level"] == 0 else through.get(node["id"], 0)
        if node["pass_count"] != want:
            errors.append(f"community {node['id']}: pass_count {node['pass_count']}, paths {want}")
        seen.add(node["id"])
        stack.extend(node["children"])
    missing = sorted(set(through) - seen)
    if missing:
        errors.append(f"path communities missing from the tree: {missing}")
    return errors


def pair_ari(labels: dict, truth: dict) -> float:
    """Adjusted Rand index from the four pair counts (Hubert and Arabie 1985)."""
    items = sorted(labels)
    both = left = right = 0
    for x in range(len(items)):
        for y in range(x + 1, len(items)):
            p = labels[items[x]] == labels[items[y]]
            t = truth[items[x]] == truth[items[y]]
            both += p and t
            left += p
            right += t
    pairs = math.comb(len(items), 2)
    expected = left * right / pairs if pairs else 0.0
    top = (left + right) / 2
    if top == expected:
        return 1.0 if both == left == right else 0.0
    return (both - expected) / (top - expected)


def pair_classes(truth: list[tuple]):
    """Masks of ordered pairs sharing a leaf, sibling leaves, and other pairs.

    ``truth[i]`` holds entity i's labels from level 1 to the leaf level.
    """
    leaf = np.array([t[-1] for t in truth])
    parent = np.array([t[-2] for t in truth])
    same_leaf = leaf[:, None] == leaf[None, :]
    same_parent = parent[:, None] == parent[None, :]
    return same_leaf, same_parent & ~same_leaf, ~same_parent


def ordering_holds(probs: np.ndarray, truth: list[tuple]) -> tuple[bool, list[float]]:
    """Whether mean edge probability falls from within-leaf to sibling to cross pairs."""
    mean = probs.mean(axis=2)
    within, sibling, cross = (float(mean[m].mean()) for m in pair_classes(truth))
    return within > sibling > cross, [within, sibling, cross]


def consensus_ok(matrix: np.ndarray) -> bool:
    """A co-clustering matrix is symmetric and has ones on its diagonal."""
    return bool(np.array_equal(matrix, matrix.T) and np.all(np.diag(matrix) == 1.0))
