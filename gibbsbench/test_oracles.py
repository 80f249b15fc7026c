"""Hand-worked cases for each oracle the benchmark checks the program against.

Run with ``python3 -m pytest gibbsbench``.
"""

import numpy as np
import pytest

import oracles

# depth-2 tree: communities 1 and 2 under the root, 3 and 4 under 1, 5 under 2
PATHS = [(1, 3), (1, 4), (2, 5)]


@pytest.mark.parametrize("i, j, zs, zr, want", [
    (0, 1, 2, 2, (3, 4)),  # same level, common parent 1: the indicated pair
    (0, 1, 1, 1, (1, 1)),  # level 1 always has the root as common parent
    (0, 1, 2, 1, (3, 4)),  # unequal levels: where the paths first differ (level 2)
    (0, 2, 2, 2, (1, 2)),  # no common parent at level 1: where the paths differ (level 1)
    (0, 0, 2, 1, (1, 1)),  # identical paths, unequal levels: the shallower level
    (0, 0, 2, 2, (3, 3)),  # identical paths, equal levels: the indicated pair
])
def test_route(i, j, zs, zr, want):
    z_s = np.ones((3, 3), dtype=np.int64)
    z_r = np.ones((3, 3), dtype=np.int64)
    z_s[i, j], z_r[i, j] = zs, zr
    a, b = oracles.route(PATHS, z_s, z_r)
    assert (a[i, j], b[i, j]) == want


def test_relation_counts_means_and_edge_probabilities():
    # depth 1: e0 and e1 in community 1, e2 in community 2; one predicate
    paths = [(1,), (1,), (2,)]
    indicators = np.ones((3, 3, 2), dtype=np.int64)
    adj = np.zeros((3, 3, 1), dtype=bool)
    adj[0, 2, 0] = True  # e0 -> e2; e1 -> e2 is absent, and both route to (1, 2)
    adj[0, 1, 0] = True
    counts = oracles.relation_counts(paths, indicators, adj)
    assert counts == {(1, 1, 0): (1, 3), (1, 2, 0): (1, 1), (2, 1, 0): (0, 2), (2, 2, 0): (0, 1)}
    means = oracles.relation_means(counts, 1.0, 1.0)
    assert means == {(1, 1, 0): 2 / 6, (1, 2, 0): 2 / 4, (2, 1, 0): 1 / 4, (2, 2, 0): 1 / 3}
    probs = oracles.edge_probabilities(paths, indicators, adj, 1.0, 1.0)
    want = [[2 / 6, 2 / 6, 2 / 4], [2 / 6, 2 / 6, 2 / 4], [1 / 4, 1 / 4, 1 / 3]]
    assert np.array_equal(probs[:, :, 0], np.array(want))


def _node(cid, level, count, children=()):
    return {"id": cid, "level": level, "pass_count": count, "children": list(children)}


def test_pass_count_errors():
    good = _node(0, 0, 3, [_node(1, 1, 2, [_node(3, 2, 1), _node(4, 2, 1)]), _node(2, 1, 1, [_node(5, 2, 1)])])
    assert oracles.pass_count_errors(good, PATHS) == []
    off = _node(0, 0, 3, [_node(1, 1, 3, [_node(3, 2, 1), _node(4, 2, 1)]), _node(2, 1, 1, [_node(5, 2, 1)])])
    assert oracles.pass_count_errors(off, PATHS) == ["community 1: pass_count 3, paths 2"]
    missing = _node(0, 0, 3, [_node(1, 1, 2, [_node(3, 2, 1), _node(4, 2, 1)])])
    assert oracles.pass_count_errors(missing, PATHS) == ["path communities missing from the tree: [2, 5]"]


def test_pair_ari():
    labels = dict(a=1, b=1, c=2, d=2)
    # pairs: ab together in both, cd together only in the labels, the rest apart in both
    assert oracles.pair_ari(labels, dict(a=1, b=1, c=2, d=3)) == pytest.approx(4 / 7, abs=1e-15)
    # expected agreement equals the observed one
    assert oracles.pair_ari(labels, dict(a=7, b=7, c=7, d=8)) == 0.0
    assert oracles.pair_ari(labels, dict(a="x", b="x", c="y", d="y")) == 1.0
    assert oracles.pair_ari(dict(a=1, b=2), dict(a=5, b=6)) == 1.0  # both all singletons


def test_ordering_holds():
    truth = [(1, 3), (1, 3), (1, 4), (2, 5)]
    same_leaf, sibling, cross = oracles.pair_classes(truth)
    assert same_leaf[0, 1] and sibling[0, 2] and sibling[2, 1] and cross[3, 0] and cross[0, 3]
    probs = np.where(same_leaf, 0.9, np.where(sibling, 0.5, 0.1))[:, :, None]
    ordered, levels = oracles.ordering_holds(probs, truth)
    assert ordered and levels == pytest.approx([0.9, 0.5, 0.1], abs=1e-15)
    assert not oracles.ordering_holds(1 - probs, truth)[0]


def test_consensus_ok():
    assert oracles.consensus_ok(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert not oracles.consensus_ok(np.array([[1.0, 0.5], [0.4, 1.0]]))
    assert not oracles.consensus_ok(np.array([[1.0, 0.5], [0.5, 0.5]]))
