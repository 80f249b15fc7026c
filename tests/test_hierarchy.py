import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiersbm import hierarchy
from hiersbm.hierarchy import ROOT_ID, divergence_levels, route_level, route_pairs
from hiersbm.kgraph import KnowledgeGraph
from hiersbm.sampler import SamplerState
from hiersbm.stats import Hyperparameters
from hiersbm.synth import sample_ncrp_paths
from routing_oracle import coarsen, divergence_level
from tree_oracle import Hierarchy


def build_toy_tree():
    """Depth-2 tree: two level-1 branches, three leaves, six entities.

    Occupancy: b1 holds 2 entities in one leaf; b2 holds 4 entities split 3/1
    over two leaves.
    """
    h = Hierarchy(2)
    p0 = h.add_path((None, None))          # b1 -> leaf A
    b1, leaf_a = p0
    h.add_path((b1, leaf_a))
    p1 = h.add_path((None, None))          # b2 -> leaf B
    b2, leaf_b = p1
    h.add_path((b2, leaf_b))
    h.add_path((b2, leaf_b))
    p2 = h.add_path((b2, None))            # b2 -> leaf C
    leaf_c = p2[1]
    return h, dict(b1=b1, b2=b2, leaf_a=leaf_a, leaf_b=leaf_b, leaf_c=leaf_c)


class TestAddRemove:
    def test_counts_after_build(self):
        h, ids = build_toy_tree()
        assert h.num_entities == 6
        assert h.pass_count(ids["b1"]) == 2
        assert h.pass_count(ids["b2"]) == 4
        assert h.pass_count(ids["leaf_b"]) == 3
        assert h.pass_count(ids["leaf_c"]) == 1
        h.validate()

    def test_remove_prunes_singleton(self):
        h, ids = build_toy_tree()
        h.remove_path((ids["b2"], ids["leaf_c"]))
        assert ids["leaf_c"] not in h
        assert h.pass_count(ids["b2"]) == 3
        h.validate()

    def test_remove_last_entity_leaves_root(self):
        h = Hierarchy(3)
        path = h.add_path((None, None, None))
        h.remove_path(path)
        assert h.num_communities == 0
        assert h.num_entities == 0
        h.validate()

    def test_remove_then_readd_restores_counts(self):
        h, ids = build_toy_tree()
        before = {c: h.pass_count(c) for c in h.community_ids()}
        path = (ids["b2"], ids["leaf_b"])
        h.remove_path(path)
        h.add_path(path)
        after = {c: h.pass_count(c) for c in h.community_ids()}
        assert before == after

    def test_new_branch_makes_fresh_singletons(self):
        h, ids = build_toy_tree()
        path = h.add_path((None, None))
        assert h.pass_count(path[0]) == 1
        assert h.pass_count(path[1]) == 1
        assert h.node(path[1]).parent == path[0]

    def test_ids_never_reused(self):
        h = Hierarchy(2)
        first = h.add_path((None, None))
        h.remove_path(first)
        second = h.add_path((None, None))
        assert set(first).isdisjoint(second)

    def test_unregistered_path_rejected(self):
        h, ids = build_toy_tree()
        with pytest.raises(RuntimeError):
            h.remove_path((ids["b1"], ids["leaf_b"]))  # leaf_b is under b2

    def test_bad_specs_rejected(self):
        h, ids = build_toy_tree()
        with pytest.raises(ValueError):
            h.add_path((ids["b1"],))  # wrong length
        with pytest.raises(ValueError):
            h.add_path((ids["b1"], ids["leaf_b"]))  # not a child
        with pytest.raises(ValueError):
            h.add_path((None, ids["leaf_a"]))  # existing under new

    def test_rejected_spec_leaves_counts_untouched(self):
        h, ids = build_toy_tree()
        before = {c: h.pass_count(c) for c in h.community_ids(include_root=True)}
        with pytest.raises(ValueError):
            h.add_path((ids["b1"], ids["leaf_b"]))
        after = {c: h.pass_count(c) for c in h.community_ids(include_root=True)}
        assert before == after
        h.validate()

    def test_random_interleaving_keeps_invariants(self):
        rng = np.random.default_rng(3)
        h = Hierarchy(3)
        registered = []
        for step in range(300):
            if registered and rng.random() < 0.45:
                idx = int(rng.integers(len(registered)))
                h.remove_path(registered.pop(idx))
            else:
                spec = []
                node = ROOT_ID
                for _ in range(3):
                    kids = h.children_of(node) if node is not None else []
                    if kids and rng.random() < 0.7:
                        node = kids[int(rng.integers(len(kids)))]
                        spec.append(node)
                    else:
                        node = None
                        spec.append(None)
                registered.append(h.add_path(tuple(spec)))
            h.validate()
        leaf_total = sum(h.pass_count(c) for c in h.leaves())
        assert leaf_total == len(registered) == h.num_entities


def test_path_view_matches_the_tree_oracle():
    # the tree the live paths span is the oracle's tree after its pruning,
    # children in creation order, the empty tree included
    rng = np.random.default_rng(8)
    for depth in (1, 2, 3):
        h = Hierarchy(depth)
        registered = []
        for step in range(200):
            assert hierarchy.Hierarchy(registered).to_dict() == h.to_dict()
            if registered and rng.random() < 0.5:
                h.remove_path(registered.pop(int(rng.integers(len(registered)))))
            else:
                spec = []
                node = ROOT_ID
                for _ in range(depth):
                    kids = h.children_of(node) if node is not None else []
                    if kids and rng.random() < 0.6:
                        node = kids[int(rng.integers(len(kids)))]
                        spec.append(node)
                    else:
                        node = None
                        spec.append(None)
                registered.append(h.add_path(tuple(spec)))
    assert hierarchy.Hierarchy([]).to_dict() == Hierarchy(2).to_dict()


@pytest.mark.parametrize("paths", [[(1, 2), (2, 3)], [(1, 3), (2, 3)], [(0, 1)]])
def test_paths_that_span_no_tree_are_rejected(paths):
    # an id at two levels, an id under two parents, the root's id below the root
    with pytest.raises(ValueError, match="two levels or under two parents"):
        hierarchy.Hierarchy(paths).to_dict()


class TestSerialization:
    def test_to_dict_shape(self):
        h, ids = build_toy_tree()
        doc = h.to_dict()
        assert doc["id"] == ROOT_ID
        assert doc["level"] == 0
        assert doc["pass_count"] == 6
        level1 = {child["id"]: child for child in doc["children"]}
        assert level1[ids["b2"]]["pass_count"] == 4
        assert {c["id"] for c in level1[ids["b2"]]["children"]} == {ids["leaf_b"], ids["leaf_c"]}


class TestDivergence:
    def test_diverge_at_first_level(self):
        assert divergence_level((1, 3), (2, 5)) == 1

    def test_diverge_at_second_level(self):
        assert divergence_level((1, 3), (1, 4)) == 2

    def test_identical_sentinel(self):
        assert divergence_level((1, 3), (1, 3)) == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            divergence_level((1,), (1, 2))


class TestCoarsen:
    # paths mirroring a two-branch tree: persons (1,[3|4]) and places (2,5)
    BRAD = (1, 3)
    DEPP = (1, 3)
    TRUMP = (1, 4)
    CANADA = (2, 5)

    def test_same_leaf_direct(self):
        assert coarsen(self.BRAD, 2, self.DEPP, 2, 0) == (3, 3, 0)

    def test_sibling_leaves_direct(self):
        assert coarsen(self.BRAD, 2, self.TRUMP, 2, 0) == (3, 4, 0)

    def test_cross_branch_divergence(self):
        for zi in (1, 2):
            for zj in (1, 2):
                if zi == zj == 1:
                    continue  # direct at the root's children
                assert coarsen(self.BRAD, zi, self.CANADA, zj, 1) == (1, 2, 1)

    def test_level_one_pair_is_direct(self):
        assert coarsen(self.BRAD, 1, self.CANADA, 1, 2) == (1, 2, 2)

    def test_identical_paths_mixed_levels(self):
        # shallower indicated level wins; continuous with the direct case
        assert coarsen(self.CANADA, 1, self.CANADA, 2, 0) == (2, 2, 0)
        assert coarsen(self.CANADA, 2, self.CANADA, 1, 0) == (2, 2, 0)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            coarsen(self.BRAD, 0, self.DEPP, 1, 0)
        with pytest.raises(ValueError):
            coarsen(self.BRAD, 1, self.DEPP, 3, 0)
        with pytest.raises(ValueError):
            coarsen((1,), 1, (1, 2), 1, 0)


@st.composite
def tree_and_paths(draw):
    """A random depth-L tree encoded directly as a pool of paths."""
    depth = draw(st.integers(min_value=1, max_value=4))
    n_paths = draw(st.integers(min_value=1, max_value=6))
    h = Hierarchy(depth)
    paths = []
    for _ in range(n_paths):
        spec = []
        node = ROOT_ID
        for _ in range(depth):
            kids = h.children_of(node) if node is not None else []
            if kids and draw(st.booleans()):
                node = kids[draw(st.integers(min_value=0, max_value=len(kids) - 1))]
                spec.append(node)
            else:
                node = None
                spec.append(None)
        paths.append(h.add_path(tuple(spec)))
    pi = draw(st.sampled_from(paths))
    pj = draw(st.sampled_from(paths))
    zi = draw(st.integers(min_value=1, max_value=depth))
    zj = draw(st.integers(min_value=1, max_value=depth))
    return h, pi, zi, pj, zj


@settings(max_examples=200, deadline=None)
@given(tree_and_paths())
def test_coarsen_result_shares_a_parent(case):
    h, pi, zi, pj, zj = case
    a, b, _ = coarsen(pi, zi, pj, zj, 0)
    assert h.node(a).parent == h.node(b).parent


@settings(max_examples=200, deadline=None)
@given(tree_and_paths())
def test_coarsen_symmetric_under_swap(case):
    _, pi, zi, pj, zj = case
    a, b, r = coarsen(pi, zi, pj, zj, 1)
    b2, a2, r2 = coarsen(pj, zj, pi, zi, 1)
    assert (a, b, r) == (a2, b2, r2)


def leaf_paths(h, node=ROOT_ID, prefix=()):
    kids = h.children_of(node)
    if not kids:
        return [prefix] if prefix else []
    return [p for kid in kids for p in leaf_paths(h, kid, prefix + (kid,))]


@st.composite
def pool_and_indicators(draw):
    """A pool of paths (repeats allowed) from a random tree, with random indicator pairs."""
    h, *_ = draw(tree_and_paths())
    pool = draw(st.lists(st.sampled_from(leaf_paths(h)), min_size=1, max_size=7))
    n = len(pool)
    flat = draw(st.lists(st.integers(min_value=1, max_value=h.depth), min_size=2 * n * n, max_size=2 * n * n))
    return pool, np.array(flat, dtype=np.int64).reshape(n, n, 2)


@settings(max_examples=200, deadline=None)
@given(pool_and_indicators())
def test_route_pairs_matches_coarsen(case):
    pool, Z = case
    e = np.arange(len(pool))
    pairs, index = route_pairs(np.array(pool), Z[:, :, 0], Z[:, :, 1], e[:, None], e[None])
    seen = set()
    for i, pi in enumerate(pool):
        for j, pj in enumerate(pool):
            a, b, _ = coarsen(pi, int(Z[i, j, 0]), pj, int(Z[i, j, 1]), 0)
            assert tuple(pairs[index[i, j]]) == (a, b)
            seen.add((a, b))
    assert len(pairs) == len(seen)  # each pair once


@settings(max_examples=200, deadline=None)
@given(pool_and_indicators(), st.data())
def test_route_pairs_routes_any_subset_of_pairs(case, data):
    # a subset of the pairs, in any order and with repeats, routes as the scalar rule and as all pairs do
    pool, Z = case
    n = len(pool)
    x = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=12)), dtype=np.int64)
    y = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=len(x), max_size=len(x))), dtype=np.int64)
    P = np.array(pool)
    pairs, index = route_pairs(P, Z[x, y, 0], Z[x, y, 1], x, y)
    e = np.arange(n)
    all_pairs, all_index = route_pairs(P, Z[:, :, 0], Z[:, :, 1], e[:, None], e[None])
    assert index.shape == x.shape
    assert len(pairs) == len({tuple(k) for k in pairs[index].tolist()})  # only the keys the subset reaches
    for k, (i, j) in enumerate(zip(x.tolist(), y.tolist())):
        a, b, _ = coarsen(pool[i], int(Z[i, j, 0]), pool[j], int(Z[i, j, 1]), 0)
        assert tuple(pairs[index[k]]) == (a, b) == tuple(all_pairs[all_index[i, j]])


@settings(max_examples=200, deadline=None)
@given(pool_and_indicators())
def test_divergence_levels_match_divergence_level(case):
    pool, _ = case
    P = np.array(pool)
    for q in pool:
        assert divergence_levels(P, np.array(q)).tolist() == [divergence_level(p, q) for p in pool]


@st.composite
def ncrp_paths(draw):
    """Paths of 1..12 entities seated on a nested CRP of depth 1..5, as an int64 array."""
    depth = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=12))
    gamma = draw(st.sampled_from([0.3, 1.0, 5.0]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return np.array(sample_ncrp_paths(n, depth, gamma, np.random.default_rng(seed)), dtype=np.int64)


def assert_divergence(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(st.one_of(ncrp_paths(), pool_and_indicators().map(lambda case: np.array(case[0], dtype=np.int64))), st.data())
def test_divergence_levels_in_every_form_the_package_calls(P, data):
    n, depth = P.shape
    oracle = np.array([[divergence_level(tuple(p), tuple(q)) for q in P.tolist()] for p in P.tolist()], dtype=np.int64)
    # all pairs, as the constructor, the read-outs and the level pass route them
    assert_divergence(divergence_levels(P[:, None], P[None]), oracle)
    assert_divergence(divergence_levels(P[:, None, :], P[None, :, :]), oracle)
    # one entity's 2n - 1 pairs, gathered as a path move gathers them
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    others = np.flatnonzero(np.arange(n) != i)
    x = np.concatenate([np.full(n - 1, i), others, [i]])
    y = np.concatenate([others, np.full(n - 1, i), [i]])
    assert_divergence(divergence_levels(P[x], P[y]), oracle[x, y])
    # two single paths, as a level move reads them
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert_divergence(divergence_levels(P[i], P[j]), oracle[i, j])
    # identical paths give depth + 1
    assert_divergence(divergence_levels(P, P), np.full(n, depth + 1))
    assert_divergence(divergence_levels(P[i], P[i]), np.int64(depth + 1))
    # the leading axes broadcast: every path against one
    assert_divergence(divergence_levels(P, P[j]), oracle[:, j])


@pytest.mark.parametrize("depth", range(1, 6))
def test_route_level_is_the_one_level_coarsen_reads(depth):
    # two paths that share levels 1..d-1 and differ from level d on (identical at d = depth + 1);
    # their ids are distinct across levels, so a community names its level
    kg = KnowledgeGraph({"e0": 0}, {"r0": 0}, [])
    hyper = Hyperparameters(gamma=1.0, mu=0.5, sigma=1.0, lam=1.0, eta=1.0, depth=depth)
    state = SamplerState(kg, hyper, np.random.default_rng(0), [range(1, depth + 1)], np.ones((1, 1, 2)))
    levels = range(1, depth + 1)
    for d in range(1, depth + 2):
        pi = tuple(levels)
        pj = tuple(c if c < d else 100 + c for c in pi)
        assert divergence_level(pi, pj) == d
        for zs in levels:
            for zr in levels:
                a, b, _ = coarsen(pi, zs, pj, zr, 0)
                m = pi.index(a) + 1
                assert b == pj[m - 1]  # both paths are read at one level
                assert route_level(zs, zr, d, depth) == m
                assert route_level(zr, zs, d, depth) == m
        for other in levels:
            routes, key_of = state._level_cell(d, other)
            for z in levels:
                # a sender move to z against receiver ``other``, and a receiver move against sender ``other``
                assert routes[key_of[z - 1]] == route_level(z, other, d, depth) == route_level(other, z, d, depth)
