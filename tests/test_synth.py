import hashlib
import math

import numpy as np
import pytest

import tree_oracle
from hiersbm.hierarchy import Hierarchy
from hiersbm.kgraph import TripleParseError
from hiersbm.stats import Hyperparameters
from hiersbm.synth import (
    forward_generate,
    generate_sbt,
    load_ground_truth,
    sample_crp_table,
    sample_ncrp_paths,
    sample_stick,
    save_ground_truth,
    stick_weights,
)
from test_kgraph import triple_set


def level_hyper(depth, mu=0.5, sigma=1.0, **mode):
    return Hyperparameters(gamma=1.0, mu=mu, sigma=sigma, lam=1.0, eta=1.0, depth=depth, **mode)


class TestCrp:
    def test_empty_restaurant_always_new(self):
        rng = np.random.default_rng(0)
        assert all(sample_crp_table({}, 1.0, rng) is None for _ in range(20))

    def test_gamma_bounds(self):
        with pytest.raises(ValueError):
            sample_crp_table({"t": 1}, 0.0, np.random.default_rng(0))

    def test_seating_frequencies_match_closed_form(self):
        # occupancy 3/1/2 with n=6: p = (3, 1, 2, gamma) / (6 + gamma)
        gamma = 1.0
        counts = {"t0": 3, "t1": 1, "t2": 2}
        rng = np.random.default_rng(123)
        draws = 100_000
        hits = {"t0": 0, "t1": 0, "t2": 0, None: 0}
        for _ in range(draws):
            hits[sample_crp_table(counts, gamma, rng)] += 1
        expect = {"t0": 3 / 7, "t1": 1 / 7, "t2": 2 / 7, None: 1 / 7}
        for key, p in expect.items():
            se = math.sqrt(p * (1 - p) / draws)
            assert abs(hits[key] / draws - p) < 3 * se

    def test_table_count_grows_slowly(self):
        # occupied-table count should grow like log(n), far below linear
        gamma = 1.0
        totals = {}
        for n in (100, 1000):
            acc = 0
            for seed in range(1000):
                rng = np.random.default_rng(seed)
                counts = {}
                for _ in range(n):
                    pick = sample_crp_table(counts, gamma, rng)
                    if pick is None:
                        pick = len(counts)
                        counts[pick] = 0
                    counts[pick] += 1
                acc += len(counts)
            totals[n] = acc / 1000
        assert totals[1000] / totals[100] < 4.0


class TestNcrpPath:
    def test_empty_tree_gives_fresh_chain(self):
        assert sample_ncrp_paths(1, 3, 1.0, np.random.default_rng(0)) == [(1, 2, 3)]

    def test_registration_accumulates(self):
        paths = sample_ncrp_paths(50, 2, 0.5, np.random.default_rng(4))
        assert len(paths) == 50
        assert Hierarchy(paths).to_dict()["pass_count"] == 50
        ids = sorted({c for path in paths for c in path})
        assert ids == list(range(1, len(ids) + 1))  # minted in order, none skipped


@pytest.mark.parametrize("depth", [1, 2, 4])
@pytest.mark.parametrize("gamma", [0.3, 1.0, 5.0])
def test_sample_ncrp_paths_matches_the_tree_oracle(depth, gamma):
    # draw for draw the seating of one entity at a time on the mutable tree
    for seed in range(5):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        paths = sample_ncrp_paths(30, depth, gamma, rng)
        h = tree_oracle.Hierarchy(depth)
        assert paths == [tree_oracle.sample_ncrp_path(h, gamma, oracle_rng) for _ in range(30)]
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert Hierarchy(paths).to_dict() == h.to_dict()


def test_forward_generate_relation_draws_match_the_tree_oracle():
    # relation degrees are drawn parent by parent in ascending id order, each
    # sibling group in the mutable tree's child order
    n, num_predicates = 12, 2
    for depth in (1, 2, 3):
        hyper = Hyperparameters(gamma=1.5, mu=0.5, sigma=1.0, lam=0.7, eta=1.3, depth=depth)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            h = tree_oracle.Hierarchy(depth)
            paths = [tree_oracle.sample_ncrp_path(h, hyper.gamma, rng) for _ in range(n)]
            for _ in range(n):
                sample_stick(hyper, rng)
            want = {}
            for parent in sorted(c for c in h.community_ids(include_root=True) if h.children_of(c)):
                siblings = h.children_of(parent)
                for p in siblings:
                    for q in siblings:
                        for r in range(num_predicates):
                            want[(p, q, r)] = float(rng.beta(hyper.lam, hyper.eta))
            _, latent = forward_generate(hyper, n, num_predicates, np.random.default_rng(seed))
            assert latent.paths == paths
            assert list(latent.relations.items()) == list(want.items())


class TestStick:
    def test_fixed_breaks_weights(self):
        raw = stick_weights([0.125, 0.25, 0.5])
        assert np.allclose(raw, [0.125, 0.21875, 0.328125], atol=1e-12)

    def test_first_break_near_one_takes_everything(self):
        eps = 1e-9
        raw = stick_weights([1 - eps, 0.5, 0.5])
        assert raw[0] == pytest.approx(1.0, abs=1e-8)
        assert raw[1:].sum() == pytest.approx(0.0, abs=1e-8)

    def test_raw_weights_leave_positive_remainder(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            draw = sample_stick(level_hyper(4, 0.3, 2.0), rng)
            raw = stick_weights(draw.breaks)
            assert np.all(raw > 0)
            assert raw.sum() < 1.0

    def test_truncated_weights_normalized(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            draw = sample_stick(level_hyper(5, 0.7, 0.5), rng)
            assert abs(draw.weights.sum() - 1.0) < 1e-12

    def test_parameter_bounds(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_stick(level_hyper(3, mu=0.0), rng)
        with pytest.raises(ValueError):
            sample_stick(level_hyper(3, sigma=0.0), rng)
        with pytest.raises(ValueError):
            sample_stick(level_hyper(0), rng)
        with pytest.raises(ValueError):
            sample_stick(level_hyper(3, level_prior_mode="dirichlet", alpha=(1.0, 0.0, 1.0)), rng)

    def test_dirichlet_draws_match_the_dirichlet(self):
        # the breaks of a generalized Dirichlet with b_l = alpha_{l+1} + ... give Dirichlet(alpha) weights
        alpha = np.array([0.5, 1.0, 2.0])
        hyper = level_hyper(3, level_prior_mode="dirichlet", alpha=tuple(alpha))
        rng = np.random.default_rng(3)
        draws = 20_000
        w = np.array([sample_stick(hyper, rng).weights for _ in range(draws)])
        total = alpha.sum()
        mean = alpha / total
        var = mean * (1 - mean) / (total + 1)
        centred = (w - w.mean(axis=0)) ** 2
        assert np.all(np.abs(w.mean(axis=0) - mean) < 4 * np.sqrt(var / draws))
        assert np.all(np.abs(centred.mean(axis=0) - var) < 4 * centred.std(axis=0) / math.sqrt(draws))


class TestForwardGenerate:
    def _hyper(self, **overrides):
        base = dict(gamma=1.0, mu=0.5, sigma=1.0, lam=1.0, eta=1.0, depth=2)
        base.update(overrides)
        return Hyperparameters(**base)

    def test_huge_lam_gives_complete_graph(self):
        kg, _ = forward_generate(self._hyper(lam=1e7), 5, 2, np.random.default_rng(0))
        assert len(kg.triples) == 5 * 5 * 2

    def test_huge_eta_gives_empty_graph(self):
        kg, _ = forward_generate(self._hyper(eta=1e7), 5, 2, np.random.default_rng(0))
        assert len(kg.triples) == 0

    def test_single_entity_mean_density(self):
        # one self-pair per predicate; expected triple rate is lam/(lam+eta)
        lam, eta = 2.0, 1.0
        rng = np.random.default_rng(5)
        hits = 0
        runs = 3000
        for _ in range(runs):
            kg, _ = forward_generate(self._hyper(lam=lam, eta=eta), 1, 1, rng)
            hits += len(kg.triples)
        p = lam / (lam + eta)
        se = math.sqrt(p * (1 - p) / runs)
        # the relation degree itself is Beta distributed, so allow its spread too
        spread = math.sqrt(lam * eta / ((lam + eta) ** 2 * (lam + eta + 1)) / runs)
        assert abs(hits / runs - p) < 3 * (se + spread)

    def test_single_community_edge_density(self):
        # tiny gamma collapses everyone onto one path; density -> lam/(lam+eta)
        lam, eta = 1.0, 2.0
        rng = np.random.default_rng(6)
        densities = []
        runs = 400
        for _ in range(runs):
            kg, latent = forward_generate(
                self._hyper(gamma=1e-9, depth=1, lam=lam, eta=eta), 6, 1, rng
            )
            assert len({latent.paths[i] for i in range(6)}) == 1
            densities.append(len(kg.triples) / 36)
        mean = float(np.mean(densities))
        se = float(np.std(densities, ddof=1) / math.sqrt(runs))
        assert abs(mean - lam / (lam + eta)) < 3 * se

    def test_dirichlet_level_prior_is_drawn(self):
        # the Dirichlet puts about 99.98 % of the level mass on level 1 here
        hyper = self._hyper(depth=3, level_prior_mode="dirichlet", alpha=(100.0, 0.01, 0.01))
        _, latent = forward_generate(hyper, 30, 1, np.random.default_rng(0))
        assert np.mean(latent.indicators == 1) >= 0.99

    @pytest.mark.parametrize("seed,want", enumerate([
        "22629cd45eda44fba47a2405866d1c5d34b119523d15888ab1acf24838e95136",
        "db2e7363769c4d7d7403c86f187fd4e64ac9edaedc2db95bed9a8da093c859c6",
        "bc6d72da75033f4b7673d192781909b9487373b4b20b4976ef9aeb4fab14860e",
    ]))
    def test_fixed_seed_stick_draws_are_pinned(self, seed, want):
        # stick-mode outputs byte for byte: a Beta draw per level reads the same stream as one of size depth
        hyper = self._hyper(gamma=1.5, mu=0.2, sigma=1.5, lam=0.7, eta=1.3, depth=3)
        kg, latent = forward_generate(hyper, 12, 2, np.random.default_rng(seed))
        digest = hashlib.sha256()
        for part in (kg.triples, np.array(latent.paths), latent.indicators,
                     *(m.breaks for m in latent.memberships), *(m.weights for m in latent.memberships),
                     np.array([(*key, value) for key, value in latent.relations.items()])):
            digest.update(np.ascontiguousarray(part).tobytes())
        assert digest.hexdigest() == want

    def test_latent_state_consistency(self):
        kg, latent = forward_generate(self._hyper(depth=3), 8, 2, np.random.default_rng(7))
        assert len(latent.paths) == 8
        assert latent.indicators.shape == (8, 8, 2)
        assert np.all((latent.indicators >= 1) & (latent.indicators <= 3))
        tree_oracle.tree_of(latent.paths, 3, 1 + max(map(max, latent.paths)))  # validates the tree
        parent = {c: p for path in latent.paths for p, c in zip((0, *path), path)}
        assert all(parent[a] == parent[b] for (a, b, _r) in latent.relations)


class TestGenerateSbt:
    def test_paper_scale_shape(self):
        kg, truth = generate_sbt(4, 25, [0.0, 0.1, 0.4, 0.6], 2, np.random.default_rng(0))
        assert kg.num_entities == 400
        assert kg.num_predicates == 2
        assert len({a[-1] for a in truth.assignments}) == 16

    def test_triple_count_calibration(self):
        # analytic expectation 56000, sd ~147; each draw stays within 4 sd
        for seed in range(5):
            kg, _ = generate_sbt(4, 25, [0.0, 0.1, 0.4, 0.6], 2, np.random.default_rng(seed))
            assert abs(len(kg.triples) - 56000) < 600

    def test_zero_probs_single_entity_leaves(self):
        kg, _ = generate_sbt(2, 1, [0.0, 0.0], 3, np.random.default_rng(1))
        assert triple_set(kg) == {(i, i, r) for i in range(4) for r in range(3)}

    def test_same_seed_reproducible(self):
        a, _ = generate_sbt(3, 4, [0.1, 0.2, 0.3], 2, np.random.default_rng(42))
        b, _ = generate_sbt(3, 4, [0.1, 0.2, 0.3], 2, np.random.default_rng(42))
        assert triple_set(a) == triple_set(b)

    def test_truth_refines_downward(self):
        _, truth = generate_sbt(4, 3, [0.0, 0.1, 0.4, 0.6], 1, np.random.default_rng(2))
        for l in range(2, truth.depth + 1):
            parent_of = {}
            for a in truth.assignments:  # each level-l cluster maps into one level-(l-1) cluster
                assert parent_of.setdefault(a[l - 1], a[l - 2]) == a[l - 2]

    def test_bad_probs_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_sbt(3, 5, [0.1, 0.2], 2, rng)
        with pytest.raises(ValueError):
            generate_sbt(3, 5, [0.1, 0.2, 1.5], 2, rng)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="level_probs"):
                generate_sbt(2, 2, [bad, 0.2], 1, rng)


def test_ground_truth_round_trip(tmp_path):
    _, truth = generate_sbt(3, 2, [0.0, 0.1, 0.4], 1, np.random.default_rng(3))
    path = tmp_path / "truth.tsv"
    save_ground_truth(truth, path)
    again = load_ground_truth(path)
    assert again.depth == truth.depth
    want = {e: tuple(str(c) for c in a) for e, a in zip(truth.entity_labels, truth.assignments)}
    got = dict(zip(again.entity_labels, again.assignments))
    assert got == want


def test_ground_truth_repeat_must_repeat_its_label(tmp_path):
    path = tmp_path / "truth.tsv"
    path.write_text("e0\t1\ta\ne0\t2\tb\ne1\t1\ta\ne1\t2\tc\ne0\t2\tb\n", encoding="utf-8")
    again = load_ground_truth(path)  # an identical repeat is accepted
    assert again.entity_labels == ["e0", "e1"] and again.assignments == [("a", "b"), ("a", "c")]
    path.write_text("e0\t1\ta\ne0\t2\tb\ne1\t1\ta\ne1\t2\tc\ne0\t1\tz\n", encoding="utf-8")
    with pytest.raises(TripleParseError, match=r"truth\.tsv:5: .*'e0'.*'a' and 'z' at level 1") as info:
        load_ground_truth(path)
    assert info.value.line_no == 5
