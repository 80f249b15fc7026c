import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import simpson
from scipy.special import betaln, gammaln

from hiersbm import stats
from hiersbm.hierarchy import ROOT_ID, PathSpec
from hiersbm.stats import (
    Hyperparameters,
    Schedule,
    level_log_likelihood,
    level_log_marginal,
    level_prior,
    log_beta_fn,
    log_evidence_terms,
)
from tree_oracle import Hierarchy

GRID = np.linspace(0.0, 1.0, 10001)


class TestDistributionHelpers:
    def test_log_beta_unit(self):
        assert log_beta_fn(1, 1) == pytest.approx(0.0, abs=1e-14)


class TestPathLogLikelihoodDelta:
    """``log_evidence_terms`` on ``[n, ones]`` rows: the evidence change of adding one row to another."""

    def test_single_positive_observation(self):
        delta = log_evidence_terms([[0, 0]], [[1, 1]], 1.0, 1.0)[0]
        assert delta == pytest.approx(math.log(0.5), rel=1e-12)

    def test_empty_contribution(self):
        assert log_evidence_terms([[7, 5]], [[0, 0]], 1.0, 1.0).tolist() == [0.0]

    def test_matches_quadrature(self):
        # integer shapes keep the integrand polynomial, within the grid rule's reach
        rng = np.random.default_rng(1)
        x = GRID
        for _ in range(25):
            keys = [("a",), ("b",), ("c",)][: int(rng.integers(1, 4))]
            lam, eta = (float(v) for v in rng.integers(1, 4, size=2))
            base = {k: (int(rng.integers(0, 8)), int(rng.integers(0, 8))) for k in keys}
            contrib = {k: (int(rng.integers(0, 5)), int(rng.integers(0, 5))) for k in keys}
            expected = 1.0
            for k in keys:
                b1, b0 = base[k]
                c1, c0 = contrib[k]
                prior = x ** (b1 + lam - 1) * (1 - x) ** (b0 + eta - 1)
                prior /= simpson(prior, x=x)
                expected *= simpson(x**c1 * (1 - x) ** c0 * prior, x=x)
            rows = [[b1 + b0, b1] for b1, b0 in base.values()]
            added = [[c1 + c0, c1] for c1, c0 in contrib.values()]
            got = math.exp(log_evidence_terms(rows, added, lam, eta).sum())
            assert got == pytest.approx(expected, rel=1e-5)


@pytest.mark.parametrize("lam,eta", [(1.0, 1.0), (0.9, 1.1), (2.5, 0.3)])
def test_table_evidence_matches_betaln(lam, eta):
    """``log_evidence_terms`` from log-gamma tables against scipy's betaln, counts up to E² = 160 000.

    The tables sum log-gammas as large as lgamma(160 001) ~ 1.8e6, whose
    rounding (~2e-10) no sum of them can undo; so the error is measured
    against the largest log-gamma of a row, lgamma(n + lam + eta).  Balanced
    rows, whose evidence is of that size, then agree within 1e-12 relative.
    """
    rng = np.random.default_rng(4)
    R = 2
    n = rng.integers(0, 160_001, 400)
    n[:40] = 160_000
    ones = (rng.random((400, R)) * (n[:, None] + 1)).astype(np.int64)
    ones[:20] = 0  # one-sided rows, at the largest count
    ones[20:40] = n[20:40, None]
    base = np.column_stack([n, ones])
    added = rng.integers(0, 3, (400, 1 + R))
    added[:, 0] = added[:, 1:].max(axis=1) + rng.integers(0, 3, 400)
    zeros_b = np.zeros_like(base)
    b1, b0 = ones, n[:, None] - ones
    c1, c0 = added[:, 1:], added[:, :1] - added[:, 1:]
    cases = [
        (zeros_b, base, betaln(b1 + lam, b0 + eta) - betaln(lam, eta)),
        (base, added, betaln(b1 + c1 + lam, b0 + c0 + eta) - betaln(b1 + lam, b0 + eta)),
    ]
    scale = np.maximum(1.0, gammaln(n + added[:, 0] + lam + eta))
    for b, c, want in cases:
        got = log_evidence_terms(b, c, lam, eta)
        assert np.max(np.abs(got - want.sum(axis=1)) / scale) < 1e-12
    balanced = np.abs(ones / np.maximum(n[:, None], 1) - 0.5).max(axis=1) < 0.3
    got, want = log_evidence_terms(zeros_b, base, lam, eta), cases[0][2].sum(axis=1)
    assert np.max(np.abs(got - want)[balanced] / np.abs(want[balanced])) < 1e-12


@pytest.mark.parametrize("lam", [0.5, 0.9, 1.0, 1.1])
@pytest.mark.parametrize("eta", [0.5, 0.9, 1.0, 1.1])
def test_log_gamma_tables_match_gammaln(lam, eta, monkeypatch):
    """The tables' ``math.lgamma`` rows against scipy's gammaln, counts past 10^5.

    Two log-gamma implementations, each within about 2 ulps of the true
    value, differ by up to 4: the tolerance is 4 machine epsilons relative to
    max(1, |value|), the scale near the zeros of log-gamma at 1 and 2.
    """
    monkeypatch.setattr(stats, "_LOG_GAMMA", {})
    table = stats._log_gamma_tables(lam, eta, 120_000)
    assert table.shape[0] == 3 and table.shape[1] > 120_000
    k = np.arange(table.shape[1], dtype=np.float64)
    want = gammaln(np.stack([k + lam, k + eta, k + (lam + eta)]))
    assert np.all(np.abs(table - want) <= 4 * np.finfo(np.float64).eps * np.maximum(1.0, np.abs(want)))


def test_log_gamma_table_grown_in_steps_equals_one_built_at_its_size(monkeypatch):
    monkeypatch.setattr(stats, "_LOG_GAMMA", {})
    for top in (10, 100, 5_000, 130_000):
        grown = stats._log_gamma_tables(0.9, 1.1, top)
        assert grown.shape[1] > top and not grown.flags.writeable
    monkeypatch.setattr(stats, "_LOG_GAMMA", {})
    once = stats._log_gamma_tables(0.9, 1.1, grown.shape[1] - 1)
    assert once.shape == grown.shape and once.tobytes() == grown.tobytes()


def test_path_delta_insertion_order_exchangeable():
    """Summed attachment deltas rebuild the same total in any entity order."""
    rng = np.random.default_rng(5)
    n, lam, eta = 5, 0.8, 1.3
    graph = rng.random((n, n)) < 0.5
    cluster = rng.integers(0, 2, size=n)  # route pairs by endpoint clusters

    def pair_key(i, j):
        return (int(cluster[i]), int(cluster[j]))

    def add_pair(rows, x, y):
        n, ones = rows.get(pair_key(x, y), (0, 0))
        rows[pair_key(x, y)] = (n + 1, ones + int(graph[x, y]))

    def insert_order_total(order):
        counts = {}  # [n, ones] per key
        total = 0.0
        placed = []
        for e in order:
            contrib = {}
            new_pairs = [(e, s) for s in placed] + [(s, e) for s in placed] + [(e, e)]
            for x, y in new_pairs:
                add_pair(contrib, x, y)
            base = [counts.get(key, (0, 0)) for key in contrib]
            total += log_evidence_terms(base, list(contrib.values()), lam, eta).sum()
            for key, (n_add, ones_add) in contrib.items():
                n_base, ones_base = counts.get(key, (0, 0))
                counts[key] = (n_base + n_add, ones_base + ones_add)
            placed.append(e)
        return total

    forward = insert_order_total(list(range(n)))
    shuffled = insert_order_total([3, 0, 4, 1, 2])
    assert forward == pytest.approx(shuffled, abs=1e-9)

    # and both equal the direct evaluation over the final counts
    final = {}
    for i in range(n):
        for j in range(n):
            add_pair(final, i, j)
    rows = list(final.values())
    direct = log_evidence_terms(np.zeros((len(rows), 2), dtype=np.int64), rows, lam, eta).sum()
    assert forward == pytest.approx(direct, abs=1e-9)


class TestLevelLikelihood:
    def test_single_predicate_one(self):
        assert math.exp(level_log_likelihood([1], [5, 2], False, 1.0, 1.0)) == pytest.approx(3 / 7)

    def test_prior_predictive(self):
        assert math.exp(level_log_likelihood([0], [0, 0], False, 1.0, 1.0)) == pytest.approx(0.5)

    def test_product_over_predicates(self):
        got = math.exp(level_log_likelihood([1, 0], [5, 2, 2], False, 1.0, 1.0))
        assert got == pytest.approx((3 / 7) * (4 / 7))

    def test_matches_gamma_ratio_form(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            g = rng.integers(0, 2, size=n).tolist()
            counts = [(int(rng.integers(0, 50)), int(rng.integers(0, 50))) for _ in range(n)]
            lam, eta = rng.uniform(0.2, 4.0, size=2)
            expected = 1.0
            for gv, (o, z) in zip(g, counts):
                num = (
                    math.lgamma(o + gv + lam)
                    + math.lgamma(z + (1 - gv) + eta)
                    + math.lgamma(o + z + lam + eta)
                )
                den = (
                    math.lgamma(o + z + 1 + lam + eta)
                    + math.lgamma(o + lam)
                    + math.lgamma(z + eta)
                )
                expected *= math.exp(num - den)
            got = math.exp(
                sum(level_log_likelihood([gv], [o + z, o], False, lam, eta) for gv, (o, z) in zip(g, counts))
            )
            assert got == pytest.approx(expected, rel=1e-12)
            assert 0 < got <= 1

    @pytest.mark.parametrize("own", [False, True])
    def test_own_and_other_keys_are_the_evidence_change(self, own):
        # the pair joins n pairs with ``ones``; at its own key the row already holds it
        rng = np.random.default_rng(12)
        lam, eta = 0.9, 1.1
        for _ in range(300):
            R = int(rng.integers(1, 40))
            g = rng.integers(0, 2, R).tolist()
            n = int(rng.integers(0, 60))
            ones = [int(rng.integers(0, n + 1)) for _ in range(R)]
            row = [n + 1, *(k + v for k, v in zip(ones, g))] if own else [n, *ones]
            want = log_evidence_terms([[n, *ones]], [[1, *g]], lam, eta)[0]
            assert level_log_likelihood(g, row, own, lam, eta) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("own", [False, True])
    def test_equals_the_log_loop_where_n_plus_eta_is_exact(self, own):
        # the tables read log((n - k) + eta) where the loop read log((n + eta) - k): equal at eta = 1
        def log_loop(g, ones, n, lam, eta):
            log = math.log
            zeros_eta = n + eta
            out = 0.0
            for v, k in zip(g, ones):
                out += log(k + lam) if v else log(zeros_eta - k)
            return out - len(g) * log(n + lam + eta)

        rng = np.random.default_rng(13)
        for _ in range(300):
            R = int(rng.integers(1, 40))
            g = rng.integers(0, 2, R).tolist()
            n = int(rng.integers(0, 200))
            ones = [int(rng.integers(0, n + 1)) for _ in range(R)]
            lam = float(rng.uniform(0.1, 3.0))
            row = [n + 1, *(k + v for k, v in zip(ones, g))] if own else [n, *ones]
            assert level_log_likelihood(g, row, own, lam, 1.0) == log_loop(g, ones, n, lam, 1.0)


def stick_hyper(hist, mu, sigma):
    return Hyperparameters(gamma=1.0, mu=mu, sigma=sigma, lam=1.0, eta=1.0, depth=len(hist))


def dirichlet_hyper(hist, alpha):
    return Hyperparameters(
        gamma=1.0, mu=0.5, sigma=1.0, lam=1.0, eta=1.0, depth=len(hist),
        level_prior_mode="dirichlet", alpha=tuple(alpha),
    )


def stick_prior(hist, mu, sigma):
    return np.asarray(level_prior(hist, stick_hyper(hist, mu, sigma)))


def dirichlet_prior(hist, alpha):
    return np.asarray(level_prior(hist, dirichlet_hyper(hist, alpha)))


class TestStickLevelPrior:
    def test_zero_counts_geometric(self):
        out = stick_prior([0, 0, 0, 0], 0.25, 2.0)
        raw = np.array([0.25 * 0.75**k for k in range(4)])
        assert np.allclose(out, raw / raw.sum(), atol=1e-12)

    def test_symmetric_zero_counts_values(self):
        out = stick_prior([0, 0, 0], 0.5, 1.0)
        assert np.allclose(out, [4 / 7, 2 / 7, 1 / 7], atol=1e-12)

    def test_concentrates_on_heavy_level(self):
        out = stick_prior([0, 1000, 0], 0.5, 1.0)
        assert out[1] > 0.99

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Hyperparameters(gamma=1.0, mu=0.0, sigma=1.0, lam=1.0, eta=1.0, depth=2).validate()


class TestDirichletLevelPrior:
    def test_uniform_on_zero_counts(self):
        out = dirichlet_prior([0, 0, 0], [1.0, 1.0, 1.0])
        assert np.allclose(out, 1 / 3)

    def test_counts_shift(self):
        out = dirichlet_prior([2, 0], [1.0, 1.0])
        assert np.allclose(out, [3 / 4, 1 / 4])

    def test_large_count_dominates(self):
        out = dirichlet_prior([10000, 0, 0], [0.5, 0.5, 0.5])
        assert out[0] > 0.999


def stick_weights_oracle(hist, mu, sigma):
    """The stick's predictive level weights, written for the stick alone and truncated to ``len(hist)``."""
    ms = mu * sigma
    rs = (1.0 - mu) * sigma
    below = sum(hist)
    raw = []
    carry = 1.0
    for n_l in hist:
        below -= n_l
        denom = sigma + n_l + below
        raw.append(carry * (ms + n_l) / denom)
        carry *= (rs + below) / denom
    total = sum(raw)
    return [w / total for w in raw]


def stick_log_marginal_oracle(hist, mu, sigma):
    """The stick's collapsed log marginal, one Beta break per level."""
    if len(hist) == 1:
        return 0.0
    ms = mu * sigma
    rs = (1.0 - mu) * sigma
    base = log_beta_fn(ms, rs)
    out = 0.0
    deeper = 0
    for n_l in reversed(hist):
        if n_l or deeper:
            out += log_beta_fn(ms + n_l, rs + deeper) - base
        deeper += n_l
    return out


def dirichlet_prior_oracle(hist, alpha):
    """Dirichlet-multinomial predictive: (alpha_l + n_l) / (sum(alpha) + N)."""
    post = [a + h for a, h in zip(alpha, hist)]
    total = sum(post)
    return [p / total for p in post]


def dirichlet_log_marginal_oracle(hist, alpha):
    """Dirichlet-multinomial log marginal of one sequence with counts ``hist``."""
    total_alpha = float(sum(alpha))
    out = math.lgamma(total_alpha) - math.lgamma(total_alpha + sum(hist))
    for a, n_l in zip(alpha, hist):
        out += math.lgamma(a + n_l) - math.lgamma(a)
    return out


@settings(max_examples=300, deadline=None)
@given(
    hist=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=6),
    mu=st.floats(min_value=0.01, max_value=0.99),
    sigma=st.floats(min_value=0.01, max_value=100.0),
    alpha=st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=6, max_size=6),
)
@example(hist=[0, 0, 0], mu=0.2, sigma=1.5, alpha=[1.0] * 6)  # mu*sigma + (1-mu)*sigma != sigma shows in these weights
def test_level_prior_is_one_generalized_dirichlet(hist, mu, sigma, alpha):
    """``level_prior`` and ``level_log_marginal`` against formulas written for each mode alone.

    The stick's are the same arithmetic, so they must be equal.  The
    Dirichlet's telescoped products agree within 1e-12 relative; its log
    marginal is a sum of log-gammas as large as lgamma(sum(alpha) + N), whose
    rounding no sum of them can undo, so its error is measured against that.
    """
    alpha = tuple(alpha[: len(hist)])
    stick = stick_hyper(hist, mu, sigma)
    assert level_prior(hist, stick) == stick_weights_oracle(hist, mu, sigma)
    assert level_log_marginal(hist, stick) == stick_log_marginal_oracle(hist, mu, sigma)
    diri = dirichlet_hyper(hist, alpha)
    np.testing.assert_allclose(level_prior(hist, diri), dirichlet_prior_oracle(hist, alpha), rtol=1e-12, atol=0)
    want = dirichlet_log_marginal_oracle(hist, alpha)
    scale = max(1.0, abs(want), math.lgamma(sum(alpha) + sum(hist)))
    assert abs(level_log_marginal(hist, diri) - want) <= 1e-12 * scale


@settings(max_examples=150, deadline=None)
@given(
    hist=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=6),
    mu=st.floats(min_value=0.05, max_value=0.95),
    sigma=st.floats(min_value=0.1, max_value=10.0),
)
def test_level_priors_positive_and_normalized(hist, mu, sigma):
    stick = stick_prior(hist, mu, sigma)
    diri = dirichlet_prior(hist, [sigma] * len(hist))
    for vec in (stick, diri):
        assert np.all(vec > 0)
        assert abs(vec.sum() - 1.0) < 1e-12


def ncrp_path_prior(h: Hierarchy, gamma: float) -> dict[PathSpec, float]:
    """Prior probability of every candidate path through the current tree; oracle of the path move.

    Candidates are all existing full paths plus a "branch new" option beneath
    the root and every internal community, in the order of a depth-first walk
    (children in the tree's order, a community's new branch after them).  A
    fresh branch continues to the bottom with probability one (a new community
    has no competing children), so the probabilities sum to one.
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    depth = h.depth
    node = h.node
    out: dict[PathSpec, float] = {}

    def descend(community, prefix: tuple, prob: float) -> None:
        level = len(prefix)
        if level == depth:
            out[prefix] = prob
            return
        denom = community.pass_count + gamma
        for cid in community.children:
            child = node(cid)
            descend(child, prefix + (cid,), prob * child.pass_count / denom)
        out[prefix + (None,) * (depth - level)] = prob * gamma / denom

    descend(node(ROOT_ID), (), 1.0)
    return out


class TestNcrpPathPrior:
    def test_empty_tree_single_candidate(self):
        h = Hierarchy(3)
        prior = ncrp_path_prior(h, 1.0)
        assert prior == {(None, None, None): pytest.approx(1.0)}

    def test_toy_occupancy_probabilities(self):
        # level-1 branches with 2 and 4 entities; the 2-branch holds one leaf of 2
        gamma = 0.5
        h = Hierarchy(2)
        b1, leaf_a = h.add_path((None, None))
        h.add_path((b1, leaf_a))
        b2, leaf_b = h.add_path((None, None))
        h.add_path((b2, leaf_b))
        h.add_path((b2, leaf_b))
        leaf_c = h.add_path((b2, None))[1]
        prior = ncrp_path_prior(h, gamma)
        assert prior[(b1, leaf_a)] == pytest.approx((2 / (6 + gamma)) * (2 / (2 + gamma)))
        assert prior[(b2, leaf_b)] == pytest.approx((4 / (6 + gamma)) * (3 / (4 + gamma)))
        assert prior[(b2, leaf_c)] == pytest.approx((4 / (6 + gamma)) * (1 / (4 + gamma)))
        assert prior[(b1, None)] == pytest.approx((2 / (6 + gamma)) * (gamma / (2 + gamma)))
        assert prior[(None, None)] == pytest.approx(gamma / (6 + gamma))

    def test_probabilities_sum_to_one_on_random_trees(self):
        rng = np.random.default_rng(9)
        for trial in range(30):
            depth = int(rng.integers(1, 5))
            h = Hierarchy(depth)
            for _ in range(int(rng.integers(1, 12))):
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
                h.add_path(tuple(spec))
            prior = ncrp_path_prior(h, float(rng.uniform(0.1, 3.0)))
            assert abs(sum(prior.values()) - 1.0) < 1e-12


class TestHyperparameters:
    def _valid(self, **overrides):
        base = dict(gamma=1.0, mu=0.5, sigma=1.0, lam=1.0, eta=1.0, depth=3)
        base.update(overrides)
        return Hyperparameters(**base)

    def test_valid_passes(self):
        self._valid().validate()

    @pytest.mark.parametrize(
        "field,value",
        [("gamma", 0.0), ("mu", 1.0), ("mu", 0.0), ("sigma", -1.0), ("lam", 0.0), ("eta", 0.0), ("depth", 0), ("depth", 256)],
    )
    def test_bounds_rejected(self, field, value):
        with pytest.raises(ValueError):
            self._valid(**{field: value}).validate()

    @pytest.mark.parametrize("field", ["gamma", "sigma", "lam", "eta"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 1e308])  # 1e308: finite, but its log-gamma is not
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            self._valid(**{field: value}).validate()

    @pytest.mark.parametrize(
        "alpha", [(math.nan, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, -math.inf), (2e305, 2e305, 1.0)]
    )
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            self._valid(level_prior_mode="dirichlet", alpha=alpha).validate()

    def test_log_gamma_overflow_of_lam_plus_eta_rejected(self):
        # lam and eta each have a finite log-gamma, their sum does not
        with pytest.raises(ValueError, match="^lam \\+ eta must be finite"):
            self._valid(lam=2e305, eta=2e305).validate()

    def test_largest_priors_with_finite_log_gamma_pass(self):
        self._valid(gamma=1e305, sigma=1e305, lam=1e305, eta=1e305).validate()

    def test_dirichlet_mode_requires_alpha(self):
        with pytest.raises(ValueError):
            self._valid(level_prior_mode="dirichlet").validate()
        self._valid(level_prior_mode="dirichlet", alpha=(1.0, 1.0, 1.0)).validate()

    def test_schedule_budget(self):
        Schedule(iterations=230, burn_in=200, lag=3, final_samples=10, seed=0).validate()
        with pytest.raises(ValueError):
            Schedule(iterations=229, burn_in=200, lag=3, final_samples=10, seed=0).validate()
        with pytest.raises(ValueError):
            Schedule(iterations=10, burn_in=20, lag=1, final_samples=1, seed=0).validate()
