import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiersbm import synth
from hiersbm.metrics import ari, clusters_at_level, evaluate_sample, nmi
from hiersbm.sampler import PosteriorSample
from hiersbm.synth import GroundTruth


def brute_force_ari(c, truth):
    """Pair-enumeration reference: count agreements over all entity pairs."""
    entities = sorted(c)
    same_both = same_c = same_t = total = 0
    for a, b in itertools.combinations(entities, 2):
        total += 1
        in_c = c[a] == c[b]
        in_t = truth[a] == truth[b]
        same_c += in_c
        same_t += in_t
        same_both += in_c and in_t
    if total == 0:
        return 1.0
    expected = same_c * same_t / total
    max_index = (same_c + same_t) / 2
    if max_index == expected:
        # degenerate only when both partitions are trivial; 1.0 iff identical
        return 1.0 if same_c == same_both and same_t == same_both else 0.0
    return (same_both - expected) / (max_index - expected)


def contingency_nmi(c, truth):
    """Direct contingency-table evaluation of the normalized score."""
    n = len(c)
    joint = Counter((c[e], truth[e]) for e in c)
    left = Counter(c.values())
    right = Counter(truth.values())
    h1 = -sum(v / n * math.log(v / n) for v in left.values())
    h2 = -sum(v / n * math.log(v / n) for v in right.values())
    if h1 == 0 and h2 == 0:
        return 0.0
    mi = sum(v / n * math.log(n * v / (left[a] * right[b])) for (a, b), v in joint.items())
    return mi / ((h1 + h2) / 2)


def as_partition(c):
    """The partition a labeling induces: the set of its entity groups, whatever the labels."""
    groups = {}
    for entity, label in c.items():
        groups.setdefault(label, set()).add(entity)
    return frozenset(frozenset(g) for g in groups.values())


def formula_ari(c, truth):
    """ARI as computed before identity was read from the contingency table, with ``as_partition`` deciding it."""
    if as_partition(c) == as_partition(truth):
        return 1.0
    n = len(c)
    joint = Counter((c[e], truth[e]) for e in c)
    left, right = Counter(c.values()), Counter(truth.values())
    sum_joint = sum(math.comb(v, 2) for v in joint.values())
    sum_left = sum(math.comb(v, 2) for v in left.values())
    sum_right = sum(math.comb(v, 2) for v in right.values())
    total = math.comb(n, 2)
    if total == 0:
        return 1.0
    expected = sum_left * sum_right / total
    max_index = (sum_left + sum_right) / 2.0
    if max_index == expected:
        return 0.0
    return (sum_joint - expected) / (max_index - expected)


def formula_nmi(c, truth):
    """NMI as computed before identity was read from the contingency table, with ``as_partition`` deciding it."""
    n = len(c)
    joint = Counter((c[e], truth[e]) for e in c)
    left, right = Counter(c.values()), Counter(truth.values())
    entropy = lambda sizes: -sum((v / n) * math.log(v / n) for v in sizes.values() if v)
    h_left, h_right = entropy(left), entropy(right)
    if h_left == 0.0 and h_right == 0.0:
        return 0.0
    if as_partition(c) == as_partition(truth):
        return 1.0
    mi = 0.0
    for (a, b), v in joint.items():
        mi += (v / n) * math.log(n * v / (left[a] * right[b]))
    return min(max(mi / ((h_left + h_right) / 2.0), 0.0), 1.0)


def labeling(groups):
    out = {}
    for label, members in enumerate(groups):
        for m in members:
            out[m] = label
    return out


class TestAri:
    def test_identical_is_exactly_one(self):
        c = labeling([{1, 2}, {3, 4, 5}])
        assert ari(c, dict(c)) == 1.0

    def test_relabeled_identical_is_exactly_one(self):
        c = labeling([{1, 2}, {3}])
        t = {1: "x", 2: "x", 3: "y"}
        assert ari(c, t) == 1.0

    def test_single_cluster_vs_split_is_zero(self):
        c = {e: 0 for e in range(4)}
        t = labeling([{0, 1}, {2, 3}])
        assert ari(c, t) == 0.0

    def test_matches_pair_enumeration(self):
        c = labeling([{1, 2}, {3, 4, 5}])
        t = labeling([{1, 2, 3}, {4, 5}])
        assert ari(c, t) == pytest.approx(brute_force_ari(c, t), abs=1e-12)

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ari({1: 0}, {2: 0})

    def test_can_be_negative(self):
        c = labeling([{0, 1}, {2, 3}])
        t = labeling([{0, 2}, {1, 3}])
        value = ari(c, t)
        assert value == pytest.approx(brute_force_ari(c, t), abs=1e-12)
        assert value < 0


class TestNmi:
    def test_identical_nontrivial_is_exactly_one(self):
        c = labeling([{1, 2}, {3, 4}])
        assert nmi(c, dict(c)) == 1.0

    def test_single_cluster_is_zero(self):
        c = {e: "only" for e in range(5)}
        t = labeling([{0, 1, 2}, {3, 4}])
        assert nmi(c, t) == 0.0

    def test_both_trivial_defined_as_zero(self):
        c = {e: "a" for e in range(3)}
        t = {e: "b" for e in range(3)}
        assert nmi(c, t) == 0.0

    def test_matches_contingency_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = {e: int(v) for e, v in enumerate(rng.integers(0, 3, size=6))}
            t = {e: int(v) for e, v in enumerate(rng.integers(0, 3, size=6))}
            assert nmi(c, t) == pytest.approx(contingency_nmi(c, t), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            c = {e: int(v) for e, v in enumerate(rng.integers(0, 4, size=7))}
            t = {e: int(v) for e, v in enumerate(rng.integers(0, 4, size=7))}
            assert 0.0 <= nmi(c, t) <= 1.0


@st.composite
def clustering_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    c = {e: draw(st.integers(min_value=0, max_value=3)) for e in range(n)}
    t = {e: draw(st.integers(min_value=0, max_value=3)) for e in range(n)}
    return c, t


@settings(max_examples=150, deadline=None)
@given(clustering_pairs())
def test_metrics_symmetric(pair):
    c, t = pair
    assert ari(c, t) == pytest.approx(ari(t, c), abs=1e-12)
    assert nmi(c, t) == pytest.approx(nmi(t, c), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(clustering_pairs(), st.permutations(range(4)))
def test_metrics_invariant_under_relabeling(pair, perm):
    c, t = pair
    c2 = {e: perm[v] for e, v in c.items()}
    assert ari(c2, t) == pytest.approx(ari(c, t), abs=1e-12)
    assert nmi(c2, t) == pytest.approx(nmi(c, t), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(clustering_pairs())
def test_ari_one_iff_identical(pair):
    c, t = pair
    value = ari(c, t)
    assert value <= 1.0
    assert (value == 1.0) == (as_partition(c) == as_partition(t))


@st.composite
def labeling_pairs(draw):
    """Two labelings of 1..9 entities: random, a relabelled copy, one cluster or all singletons on either side."""
    n = draw(st.integers(min_value=1, max_value=9))
    entities = [f"e{k}" for k in range(n)]

    def side(other=None):
        kind = draw(st.sampled_from(["random", "copy", "one", "singletons"] if other else ["random", "one", "singletons"]))
        if kind == "copy":  # the other side's partition under new labels, in another key order
            labels = list(dict.fromkeys(other.values()))
            names = draw(st.permutations(range(n)))
            return {e: ("L", names[labels.index(other[e])]) for e in draw(st.permutations(entities))}
        if kind == "one":
            return {e: "all" for e in entities}
        if kind == "singletons":
            return {e: k for k, e in enumerate(entities)}
        return {e: draw(st.integers(min_value=0, max_value=3)) for e in entities}

    c = side()
    return c, side(c)


@settings(max_examples=400, deadline=None)
@given(labeling_pairs(), st.booleans())
def test_identity_from_the_table_is_the_partition_rule(pair, swap):
    c, t = pair[::-1] if swap else pair
    if as_partition(c) == as_partition(t):
        assert ari(c, t) == 1.0
        assert nmi(c, t) == (0.0 if len(set(c.values())) == 1 else 1.0)  # two single clusters carry no information
    assert ari(c, t) == formula_ari(c, t)  # bit for bit
    assert nmi(c, t) == formula_nmi(c, t)


def test_identity_edge_cases():
    one = {"a": 0}
    assert ari(one, {"a": 5}) == 1.0 and nmi(one, {"a": 5}) == 0.0  # n = 1
    singles = {e: e for e in "abcd"}
    assert ari(singles, {e: e.upper() for e in "abcd"}) == 1.0
    assert nmi(singles, {e: e.upper() for e in "abcd"}) == 1.0
    # as many cells as labels on one side only is not identity
    split = {"a": 0, "b": 0, "c": 1, "d": 1}
    coarse = {e: "x" for e in "abcd"}
    assert ari(split, coarse) == formula_ari(split, coarse) == 0.0


def toy_sample():
    """Two level-1 branches: persons (two leaves) and places (one leaf)."""
    labels = [
        "Brad Pitt", "Johnny Depp", "Michael Smith",
        "Donald Trump", "Joe Biden", "John Doe",
        "Canada", "Europe", "Germany", "Pacific Ocean",
    ]
    paths = [
        (1, 3), (1, 3), (1, 3),
        (1, 4), (1, 4), (1, 4),
        (2, 5), (2, 5), (2, 5), (2, 5),
    ]
    return PosteriorSample(
        iteration=1, log_likelihood=-1.0, entity_labels=labels, paths=paths,
        indicators=np.ones((len(paths), len(paths), 2), dtype=np.int64),
    )


class TestClustersAtLevel:
    def test_level_one_splits_branches(self):
        sample = toy_sample()
        got = clusters_at_level(sample, 1)
        assert got["Brad Pitt"] == got["John Doe"] == 1
        assert got["Canada"] == got["Europe"] == 2
        assert len(set(got.values())) == 2

    def test_level_two_splits_leaves(self):
        got = clusters_at_level(toy_sample(), 2)
        assert len(set(got.values())) == 3
        assert got["Brad Pitt"] == got["Johnny Depp"] == 3
        assert got["Donald Trump"] == 4
        assert got["Canada"] == 5

    def test_single_path_single_cluster(self):
        sample = PosteriorSample(
            iteration=0, log_likelihood=0.0, entity_labels=["a", "b"], paths=[(7, 9), (7, 9)],
            indicators=np.full((2, 2, 2), 2),
        )
        for level in (1, 2):
            assert len(set(clusters_at_level(sample, level).values())) == 1

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            clusters_at_level(toy_sample(), 0)
        with pytest.raises(ValueError):
            clusters_at_level(toy_sample(), 3)


class TestEvaluateSample:
    def _truth_from_sample(self):
        sample = toy_sample()
        return GroundTruth(
            entity_labels=list(sample.entity_labels),
            assignments=[tuple(p) for p in sample.paths],
        )

    def test_perfect_recovery_scores_one(self):
        sample = toy_sample()
        result = evaluate_sample(sample, self._truth_from_sample())
        assert all(s.ari == 1.0 and s.nmi == 1.0 for s in result.levels)
        assert result.overall_ari == 1.0 and result.overall_nmi == 1.0

    def test_scrambled_bottom_keeps_top(self):
        sample = toy_sample()
        truth = self._truth_from_sample()
        scrambled = [(a[0], i % 3 + 100) for i, a in enumerate(truth.assignments)]
        result = evaluate_sample(sample, GroundTruth(truth.entity_labels, scrambled))
        assert result.levels[0].ari == 1.0
        assert result.levels[1].ari < 1.0

    def test_missing_entity_named(self):
        sample = toy_sample()
        truth = self._truth_from_sample()
        short = GroundTruth(truth.entity_labels[:-1], truth.assignments[:-1])
        with pytest.raises(ValueError, match="Pacific Ocean"):
            evaluate_sample(sample, short)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 10), st.integers(0, 3), st.integers(0, 2**32 - 1), st.data())
    def test_level_scores_are_ari_and_nmi_of_the_level_clusterings(self, depth, n, extra, seed, data):
        # the truth may hold more entities than the sample, in another order, and more or fewer levels
        rng = np.random.default_rng(seed)
        labels = [f"e{k}" for k in range(n)]
        sample = PosteriorSample(
            iteration=1, log_likelihood=-1.0, entity_labels=labels,
            paths=synth.sample_ncrp_paths(n, depth, 1.0, rng),
            indicators=np.ones((n, n, 2), dtype=np.int64),
        )
        truth_depth = data.draw(st.integers(1, 4))
        truth_labels = data.draw(st.permutations(labels + [f"x{k}" for k in range(extra)]))
        truth = GroundTruth(truth_labels, [tuple(int(v) for v in rng.integers(0, 3, truth_depth)) for _ in truth_labels])
        result = evaluate_sample(sample, truth)
        assert len(result.levels) == min(depth, truth_depth)
        for score in result.levels:
            predicted = clusters_at_level(sample, score.level)
            reference = truth.level(score.level)
            reference = {e: reference[e] for e in predicted}
            assert score.ari == ari(predicted, reference)
            assert score.nmi == nmi(predicted, reference)

    def test_json_and_table_outputs(self):
        result = evaluate_sample(toy_sample(), self._truth_from_sample())
        doc = result.to_json_dict()
        assert {row["level"] for row in doc["levels"]} == {1, 2}
        assert set(doc["overall"]) == {"ari", "nmi"}
        table = result.to_text_table()
        assert "Overall" in table and "ARI" in table
