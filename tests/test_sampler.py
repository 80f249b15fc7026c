import copy
import math
import multiprocessing
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiersbm import sampler, synth
from hiersbm.hierarchy import coarsen
from hiersbm.kgraph import KnowledgeGraph, degree_table
from hiersbm.sampler import (
    aggregate,
    audit_counts,
    complete_log_likelihood,
    entity_level_mode,
    gibbs_iteration,
    init_state,
    level_conditional,
    load_sample_json,
    path_conditional,
    recover_community_relations,
    run,
    sample_level_indicator,
    sample_path,
    take_sample,
    write_sample_json,
    write_trace_csv,
)
from hiersbm.stats import Hyperparameters, Schedule


def random_kg(n_entities, n_predicates, density, seed):
    rng = np.random.default_rng(seed)
    triples = {
        (i, j, r)
        for i in range(n_entities)
        for j in range(n_entities)
        for r in range(n_predicates)
        if rng.random() < density
    }
    return KnowledgeGraph(
        {f"e{i}": i for i in range(n_entities)},
        {f"r{r}": r for r in range(n_predicates)},
        triples,
    )


def hyper_with(depth=2, schedule=None, **overrides):
    base = dict(gamma=0.8, mu=0.45, sigma=1.2, lam=0.9, eta=1.1, depth=depth, schedule=schedule)
    base.update(overrides)
    return Hyperparameters(**base)


def joint_log_likelihood(kg, hyper, paths, Z):
    """From-scratch collapsed joint; independent oracle for the conditionals."""
    n, n_pred, depth = kg.num_entities, kg.num_predicates, hyper.depth
    lam, eta = hyper.lam, hyper.eta
    counts = {}
    for i in range(n):
        for j in range(n):
            zi, zj = int(Z[i, j, 0]), int(Z[i, j, 1])
            for r in range(n_pred):
                key = coarsen(paths[i], zi, paths[j], zj, r)
                entry = counts.setdefault(key, [0, 0])
                entry[0 if kg.adjacency_value(i, j, r) else 1] += 1
    base = math.lgamma(lam) + math.lgamma(eta) - math.lgamma(lam + eta)
    total = 0.0
    for ones, zeros in counts.values():
        total += math.lgamma(ones + lam) + math.lgamma(zeros + eta) - math.lgamma(ones + zeros + lam + eta) - base
    node_counts = {}
    for e in range(n):
        parent_n = e
        for l in range(depth):
            c = paths[e][l]
            nc = node_counts.get(c, 0)
            total += math.log((nc if nc else hyper.gamma) / (parent_n + hyper.gamma))
            node_counts[c] = nc + 1
            parent_n = nc
    if depth > 1:
        hist = [0] * (depth + 1)
        for v in Z.ravel():
            hist[int(v)] += 1
        if hyper.level_prior_mode == "stick":
            ms, rs = hyper.mu * hyper.sigma, (1 - hyper.mu) * hyper.sigma
            b0 = math.lgamma(ms) + math.lgamma(rs) - math.lgamma(ms + rs)
            deeper = 0
            for l in range(depth, 0, -1):
                n_l = hist[l]
                if n_l or deeper:
                    total += math.lgamma(ms + n_l) + math.lgamma(rs + deeper) - math.lgamma(ms + n_l + rs + deeper) - b0
                deeper += n_l
        else:
            alpha = hyper.alpha
            total_alpha = float(sum(alpha))
            total += math.lgamma(total_alpha) - math.lgamma(total_alpha + sum(hist[1:]))
            for l in range(1, depth + 1):
                total += math.lgamma(alpha[l - 1] + hist[l]) - math.lgamma(alpha[l - 1])
    return total


def oracle_path_candidates(paths_minus, depth):
    prefixes = {()}
    for p in paths_minus:
        for k in range(1, depth + 1):
            prefixes.add(tuple(p[:k]))
    out = set()
    for pre in prefixes:
        out.add(pre + (None,) * (depth - len(pre)) if len(pre) < depth else pre)
    return out


class TestInitState:
    def test_smallest_state(self):
        kg = KnowledgeGraph({"a": 0}, {"p": 0}, set())
        state = init_state(kg, hyper_with(depth=1), np.random.default_rng(0))
        assert state.Z.shape == (1, 1, 2)
        assert audit_counts(state).ok

    def test_tiny_gamma_shares_one_path(self):
        kg = random_kg(6, 1, 0.3, 0)
        state = init_state(kg, hyper_with(gamma=1e-12), np.random.default_rng(1))
        assert len({tuple(row) for row in state.P.tolist()}) == 1

    def test_audit_passes_on_random_graphs(self):
        for seed in range(3):
            kg = random_kg(5, 2, 0.4, seed)
            state = init_state(kg, hyper_with(), np.random.default_rng(seed))
            report = audit_counts(state)
            assert report.ok, report.message

    def test_incident_histogram_totals(self):
        kg = random_kg(5, 1, 0.5, 3)
        state = init_state(kg, hyper_with(), np.random.default_rng(3))
        assert sum(state.ghist) == 2 * 5 * 5


class TestLevelIndicatorMove:
    def test_single_level_is_noop(self):
        kg = random_kg(3, 1, 0.5, 0)
        state = init_state(kg, hyper_with(depth=1), np.random.default_rng(0))
        before = state.Z.copy()
        sample_level_indicator(state, 0, 1, 0)
        assert np.array_equal(state.Z, before)
        assert np.allclose(level_conditional(state, 0, 1, 0), [1.0])

    def test_conditional_matches_joint_enumeration(self):
        kg = random_kg(3, 2, 0.5, 7)
        hyper = hyper_with(depth=2)
        state = init_state(kg, hyper, np.random.default_rng(2))
        deg = degree_table(kg)
        for _ in range(2):
            gibbs_iteration(state, deg)
        paths = [tuple(int(c) for c in row) for row in state.P]
        for i in range(3):
            for j in range(3):
                for d in range(2):
                    got = level_conditional(state, i, j, d)
                    lls = []
                    for l in (1, 2):
                        z2 = state.Z.copy()
                        z2[i, j, d] = l
                        lls.append(joint_log_likelihood(kg, hyper, paths, z2))
                    lls = np.array(lls)
                    want = np.exp(lls - lls.max())
                    want /= want.sum()
                    assert np.max(np.abs(got - want)) < 1e-9

    def test_dirichlet_mode_conditionals_and_audit(self):
        kg = random_kg(3, 1, 0.5, 13)
        hyper = hyper_with(depth=2, level_prior_mode="dirichlet", alpha=(0.7, 1.4))
        state = init_state(kg, hyper, np.random.default_rng(13))
        deg = degree_table(kg)
        for _ in range(3):
            gibbs_iteration(state, deg)
        assert audit_counts(state).ok
        paths = [tuple(int(c) for c in row) for row in state.P]
        for i in range(3):
            for j in range(3):
                for d in range(2):
                    got = level_conditional(state, i, j, d)
                    lls = []
                    for l in (1, 2):
                        z2 = state.Z.copy()
                        z2[i, j, d] = l
                        lls.append(joint_log_likelihood(kg, hyper, paths, z2))
                    lls = np.array(lls)
                    want = np.exp(lls - lls.max())
                    want /= want.sum()
                    assert np.max(np.abs(got - want)) < 1e-9
        specs, got = path_conditional(state, 0)
        lls = []
        for spec in specs:
            fresh = 10**6
            cand = []
            for c in spec:
                cand.append(fresh if c is None else c)
                fresh += 1
            trial = list(paths)
            trial[0] = tuple(cand)
            lls.append(joint_log_likelihood(kg, hyper, trial, state.Z))
        lls = np.array(lls)
        want = np.exp(lls - lls.max())
        want /= want.sum()
        assert np.max(np.abs(got - want)) < 1e-9

    def test_empirical_frequencies_match_conditional(self):
        kg = random_kg(2, 1, 0.7, 4)
        state = init_state(kg, hyper_with(depth=2), np.random.default_rng(6))
        baseline = int(state.Z[0, 1, 0])
        want = level_conditional(state, 0, 1, 0)
        draws = 20000
        hits = np.zeros(2)
        for _ in range(draws):
            sample_level_indicator(state, 0, 1, 0)
            hits[int(state.Z[0, 1, 0]) - 1] += 1
            # restore the conditioning state before the next draw
            state.Z[0, 1, 0] = baseline
            state._recount_relations_into(state.rel)
            state._recount_level_hist_into(state.ghist)
        assert audit_counts(state).ok
        freq = hits / draws
        for k in range(2):
            se = math.sqrt(want[k] * (1 - want[k]) / draws)
            assert abs(freq[k] - want[k]) < 4 * se + 1e-12


class TestPathMove:
    def test_single_entity_posterior_equals_prior(self):
        kg = KnowledgeGraph({"a": 0}, {"p": 0}, {(0, 0, 0)})
        state = init_state(kg, hyper_with(depth=1), np.random.default_rng(0))
        specs, probs = path_conditional(state, 0)
        assert list(specs) == [(None,)]
        assert probs[0] == pytest.approx(1.0)

    def test_conditional_matches_joint_enumeration(self):
        kg = random_kg(3, 1, 0.5, 11)
        hyper = hyper_with(depth=2)
        state = init_state(kg, hyper, np.random.default_rng(3))
        deg = degree_table(kg)
        for _ in range(2):
            gibbs_iteration(state, deg)
        paths = [tuple(int(c) for c in row) for row in state.P]
        for i in range(3):
            specs, got = path_conditional(state, i)
            minus = [p for k, p in enumerate(paths) if k != i]
            assert set(specs) == oracle_path_candidates(minus, 2)
            lls = []
            for spec in specs:
                fresh = 10**6
                cand = []
                for c in spec:
                    cand.append(fresh if c is None else c)
                    fresh += 1
                trial = list(paths)
                trial[i] = tuple(cand)
                lls.append(joint_log_likelihood(kg, hyper, trial, state.Z))
            lls = np.array(lls)
            want = np.exp(lls - lls.max())
            want /= want.sum()
            assert np.max(np.abs(got - want)) < 1e-9

    def test_move_keeps_counts_and_tree_sound(self):
        kg = random_kg(5, 2, 0.4, 5)
        state = init_state(kg, hyper_with(depth=3), np.random.default_rng(5))
        for i in [0, 3, 1, 4, 2, 0]:
            sample_path(state, i)
            state.h.validate()
        report = audit_counts(state)
        assert report.ok, report.message

    def test_conditional_probe_leaves_state_unchanged(self):
        # on this graph some removals prune a child that is not its parent's
        # last one, and some empty a row of rel
        kg = random_kg(8, 2, 0.5, 1)
        state = init_state(kg, hyper_with(depth=3), np.random.default_rng(1))
        deg = degree_table(kg)
        twin = copy.deepcopy(state, {id(kg): kg})
        paths_before = state.P.copy()
        tree_before = state.h.to_dict()
        rel_before = [(k, list(v)) for k, v in state.rel.items()]
        ghist_before = list(state.ghist)
        for i in range(state.E):
            path_conditional(state, i)
            for j in range(state.E):
                for d in (0, 1):
                    level_conditional(state, i, j, d)
        assert np.array_equal(state.P, paths_before)
        assert state.h.to_dict() == tree_before
        assert [(k, list(v)) for k, v in state.rel.items()] == rel_before
        assert state.ghist == ghist_before
        assert audit_counts(state).ok
        gibbs_iteration(state, deg)
        gibbs_iteration(twin, deg)
        assert np.array_equal(state.P, twin.P)
        assert np.array_equal(state.Z, twin.Z)
        assert state.trace == twin.trace


def enumerated_path_conditional(kg, hyper, paths, Z, i, specs):
    """Normalised joint over the candidate specs for entity i, new communities given unused ids."""
    lls = []
    for spec in specs:
        fresh = iter(range(10**6, 10**6 + len(spec)))
        trial = list(paths)
        trial[i] = tuple(next(fresh) if c is None else c for c in spec)
        lls.append(joint_log_likelihood(kg, hyper, trial, Z))
    lls = np.array(lls)
    want = np.exp(lls - lls.max())
    return want / want.sum()


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(2, 7),
    n_pred=st.integers(1, 3),
    depth=st.integers(1, 4),
    density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    sweeps=st.integers(0, 2),
    seed=st.integers(0, 999),
)
def test_path_conditional_matches_enumeration_at_depth(n, n_pred, depth, density, sweeps, seed):
    # deep trees and shared leaves reach every routing case of the path scorer,
    # the same-leaf pairs with unequal indicators included
    kg = random_kg(n, n_pred, density, seed)
    hyper = hyper_with(depth=depth)
    state = init_state(kg, hyper, np.random.default_rng(seed))
    deg = degree_table(kg)
    for _ in range(sweeps):
        gibbs_iteration(state, deg)
    paths = [tuple(int(c) for c in row) for row in state.P]
    for i in range(n):
        specs, got = path_conditional(state, i)
        minus = [p for k, p in enumerate(paths) if k != i]
        assert set(specs) == oracle_path_candidates(minus, depth)
        want = enumerated_path_conditional(kg, hyper, paths, state.Z, i, specs)
        assert np.max(np.abs(got - want)) < 1e-9


class TestGibbsIteration:
    def test_full_sampling_probability_touches_everything(self):
        from hiersbm.kgraph import DegreeTable

        kg = random_kg(4, 1, 0.9, 1)
        state = init_state(kg, hyper_with(depth=2), np.random.default_rng(2))
        deg = DegreeTable(degree=np.zeros(4, dtype=np.int64), sampling_prob=np.ones(4))
        before = state.path_resamples.copy()
        gibbs_iteration(state, deg)
        assert np.all(state.path_resamples - before == 1)
        assert state.iteration == 1
        assert len(state.trace) == 1

    def test_resample_frequency_proportional_to_probability(self):
        kg = KnowledgeGraph(
            {"a": 0, "b": 1, "c": 2},
            {"p": 0, "q": 1},
            {(1, 1, 0), (2, 2, 0), (2, 2, 1)},  # degrees 0, 2, 4
        )
        deg = degree_table(kg)
        assert deg.sampling_prob.tolist() == [1 / 3, 2 / 3, 1.0]
        state = init_state(kg, hyper_with(depth=2), np.random.default_rng(4))
        iters = 3000
        for _ in range(iters):
            gibbs_iteration(state, deg)
        freq = state.path_resamples / iters
        for k, s in enumerate(deg.sampling_prob):
            se = math.sqrt(s * (1 - s) / iters)
            assert abs(freq[k] - s) < 4 * se + 1e-9

    def test_audit_after_every_move(self):
        kg = random_kg(5, 2, 0.4, 21)
        state = init_state(kg, hyper_with(depth=3), np.random.default_rng(21))
        rng = np.random.default_rng(99)
        for _ in range(60):
            if rng.random() < 0.4:
                sample_path(state, int(rng.integers(5)))
            else:
                sample_level_indicator(
                    state, int(rng.integers(5)), int(rng.integers(5)), int(rng.integers(2))
                )
            report = audit_counts(state)
            assert report.ok, report.message
            state.h.validate()

    def test_audit_after_long_run(self):
        kg = random_kg(6, 2, 0.35, 9)
        state = init_state(kg, hyper_with(depth=3), np.random.default_rng(9))
        deg = degree_table(kg)
        for _ in range(30):
            gibbs_iteration(state, deg)
        report = audit_counts(state)
        assert report.ok, report.message
        state.h.validate()

    def test_audit_detects_perturbation(self):
        kg = random_kg(4, 1, 0.5, 10)
        state = init_state(kg, hyper_with(depth=2), np.random.default_rng(10))
        key = next(iter(state.rel))
        state.rel[key][0] += 1
        report = audit_counts(state)
        assert not report.ok
        assert str(key) in report.message


@st.composite
def chains_and_moves(draw):
    """A small random graph and state seed, plus a sequence of path and level moves."""
    n = draw(st.integers(1, 5))
    kg = random_kg(n, draw(st.integers(1, 3)), draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])), draw(st.integers(0, 999)))
    hyper = hyper_with(depth=draw(st.integers(1, 3)))
    move = st.tuples(st.booleans(), st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 1))
    return kg, hyper, draw(st.integers(0, 999)), draw(st.lists(move, min_size=1, max_size=10))


def apply_move(state, move):
    is_path, i, j, direction = move
    if is_path:
        sample_path(state, i)
    else:
        sample_level_indicator(state, i, j, direction)


@settings(max_examples=100, deadline=None)
@given(chains_and_moves())
def test_counts_exact_and_log_likelihood_finite_after_every_move(case):
    kg, hyper, seed, moves = case
    state = init_state(kg, hyper, np.random.default_rng(seed))
    for move in moves:
        apply_move(state, move)
        report = audit_counts(state)
        assert report.ok, report.message
        assert len(state.rel) == len(sampler._routed_counts(state.P, state.Z, state.G)[0])
        assert math.isfinite(complete_log_likelihood(state))


@settings(max_examples=100, deadline=None)
@given(chains_and_moves(), st.randoms(use_true_random=False))
def test_log_likelihood_invariant_to_entity_relabeling(case, random):
    kg, hyper, seed, moves = case
    state = init_state(kg, hyper, np.random.default_rng(seed))
    for move in moves:
        apply_move(state, move)
    n = state.E
    perm = list(range(n))
    random.shuffle(perm)  # new entity k is old entity perm[k]
    new_id = {old: k for k, old in enumerate(perm)}
    renamed = KnowledgeGraph(
        {f"e{k}": k for k in range(n)},
        {f"r{r}": r for r in range(state.R)},
        {(new_id[i], new_id[j], r) for i, j, r in kg.triples},
    )
    other = init_state(renamed, hyper, np.random.default_rng(seed))
    other.P[:] = state.P[perm]
    other.Z[:] = state.Z[np.ix_(perm, perm)]
    other._recount_relations_into(other.rel)
    other._recount_level_hist_into(other.ghist)
    assert complete_log_likelihood(other) == pytest.approx(complete_log_likelihood(state), rel=1e-12, abs=1e-12)


class TestCompleteLogLikelihood:
    def test_empty_graph_single_entity(self):
        lam, eta = 0.9, 1.1
        kg = KnowledgeGraph({"a": 0}, {"p": 0, "q": 1}, set())
        state = init_state(kg, hyper_with(depth=1, lam=lam, eta=eta), np.random.default_rng(0))
        want = 2 * (
            math.lgamma(lam) + math.lgamma(1 + eta) - math.lgamma(1 + lam + eta)
            - (math.lgamma(lam) + math.lgamma(eta) - math.lgamma(lam + eta))
        )
        assert complete_log_likelihood(state) == pytest.approx(want, rel=1e-12)

    def test_invariant_to_community_relabeling(self):
        kg = random_kg(4, 1, 0.5, 12)
        hyper = hyper_with(depth=2)
        state = init_state(kg, hyper, np.random.default_rng(1))
        paths = [tuple(int(c) for c in row) for row in state.P]
        relabel = {c: c + 1000 for p in paths for c in p}
        renamed = [tuple(relabel[c] for c in p) for p in paths]
        want = joint_log_likelihood(kg, hyper, renamed, state.Z)
        assert complete_log_likelihood(state) == pytest.approx(want, rel=1e-12)

    def test_matches_from_scratch_oracle(self):
        for seed in range(4):
            kg = random_kg(4, 2, 0.45, seed)
            hyper = hyper_with(depth=2)
            state = init_state(kg, hyper, np.random.default_rng(seed))
            deg = degree_table(kg)
            for _ in range(3):
                gibbs_iteration(state, deg)
            paths = [tuple(int(c) for c in row) for row in state.P]
            want = joint_log_likelihood(kg, hyper, paths, state.Z)
            assert complete_log_likelihood(state) == pytest.approx(want, rel=1e-9)


class TestRunAndAggregate:
    def _schedule(self, **overrides):
        base = dict(iterations=6, burn_in=2, lag=2, final_samples=2, seed=3)
        base.update(overrides)
        return Schedule(**base)

    def test_snapshot_schedule(self):
        kg = random_kg(4, 1, 0.5, 0)
        samples, trace = run(kg, hyper_with(schedule=self._schedule(iterations=2, burn_in=0, lag=1, final_samples=2)))
        assert [s.iteration for s in samples] == [1, 2]
        assert trace[0][0] == 0 and trace[-1][0] == 2
        assert len(trace) == 3

    def test_lagged_collection(self):
        kg = random_kg(4, 1, 0.5, 1)
        samples, trace = run(kg, hyper_with(schedule=self._schedule()))
        assert [s.iteration for s in samples] == [4, 6]

    def test_paper_style_schedule_arithmetic(self):
        sched = Schedule(iterations=230, burn_in=200, lag=3, final_samples=10, seed=0)
        sched.validate()
        collected = [
            it
            for it in range(1, sched.iterations + 1)
            if it > sched.burn_in and (it - sched.burn_in) % sched.lag == 0
        ][: sched.final_samples]
        assert collected[-1] == 230 and len(collected) == 10

    def test_determinism(self):
        kg = random_kg(5, 2, 0.4, 2)
        h = hyper_with(schedule=self._schedule())
        s1, t1 = run(kg, h)
        s2, t2 = run(kg, h)
        assert t1 == t2
        assert [s.paths for s in s1] == [s.paths for s in s2]
        assert [s.levels for s in s1] == [s.levels for s in s2]

    def test_run_chains_same_for_any_worker_count(self, monkeypatch):
        kg = random_kg(6, 2, 0.4, 5)
        h = hyper_with(depth=3, schedule=self._schedule(chains=3, seed=20))
        monkeypatch.setattr(sampler, "usable_cpus", lambda: 1)
        serial = list(sampler.run_chains(kg, h))
        monkeypatch.setattr(sampler, "usable_cpus", lambda: 2)
        pooled = list(sampler.run_chains(kg, h))
        assert len(serial) == len(pooled) == 3
        for chain, ((s1, t1), (s2, t2)) in enumerate(zip(serial, pooled)):
            assert t1 == t2
            assert t1 == run(kg, hyper_with(depth=3, schedule=self._schedule(seed=20 + chain)))[1]
            assert [s.paths for s in s1] == [s.paths for s in s2]
            assert [s.tree for s in s1] == [s.tree for s in s2]
            for a, b in zip(s1, s2):
                assert np.array_equal(a.indicators, b.indicators)
        assert serial[0][1] != serial[1][1]  # each chain has its own seed

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_run_chains_names_failed_chain(self, monkeypatch, cpus):
        def fail(kg, hyper):
            raise RuntimeError(f"seed {hyper.schedule.seed} failed")

        monkeypatch.setattr(sampler, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(sampler, "run", fail)
        kg = random_kg(4, 1, 0.5, 6)
        with pytest.raises(sampler.ChainError, match=r"chain 0 failed: RuntimeError: seed 3 failed"):
            list(sampler.run_chains(kg, hyper_with(schedule=self._schedule(chains=2))))
        assert multiprocessing.active_children() == []

    def test_aggregate_single_sample(self):
        kg = random_kg(4, 1, 0.5, 3)
        samples, _ = run(kg, hyper_with(schedule=self._schedule(final_samples=1)))
        point, consensus = aggregate(samples)
        assert point is samples[0]
        assert set(np.unique(consensus)) <= {0.0, 1.0}

    def test_aggregate_disagreement_frequency(self):
        kg = random_kg(3, 1, 0.5, 4)
        state = init_state(kg, hyper_with(depth=2), np.random.default_rng(4))
        a = take_sample(state)
        sample_path(state, 0)
        while tuple(state.P[0]) == a.paths[0]:
            sample_path(state, 0)
        b = take_sample(state)
        point, consensus = aggregate([a, b])
        assert point.log_likelihood == max(a.log_likelihood, b.log_likelihood)
        moved = consensus[:, 0, 1:]
        assert np.all((moved == 0.0) | (moved == 0.5) | (moved == 1.0))

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


def plain_level_modes(Z, depth):
    """Each entity's most frequent level over row e and column e of Z, the self pair once."""
    n = len(Z)
    modes = []
    for e in range(n):
        counts = [0] * (depth + 1)
        for j in range(n):
            for d in (0, 1):
                counts[int(Z[e, j, d])] += 1
                if j != e:
                    counts[int(Z[j, e, d])] += 1
        best = 1
        for level in range(2, depth + 1):
            if counts[level] > counts[best]:  # ties stay with the shallower level
                best = level
        modes.append(best)
    return modes


@settings(max_examples=100, deadline=None)
@given(chains_and_moves())
def test_sample_levels_are_incident_indicator_modes(case):
    kg, hyper, seed, moves = case
    state = init_state(kg, hyper, np.random.default_rng(seed))
    for move in moves:
        apply_move(state, move)
    assert take_sample(state).levels == plain_level_modes(state.Z, hyper.depth)


class TestReadouts:
    def test_recover_prior_mean_on_empty_key(self):
        kg = KnowledgeGraph({"a": 0}, {"p": 0}, set())
        state = init_state(kg, hyper_with(depth=1, lam=2.0, eta=1.0), np.random.default_rng(0))
        means = recover_community_relations(state, 2.0, 1.0)
        (key, value), = means.items()
        assert value == pytest.approx((0 + 2.0) / (1 + 2.0 + 1.0))

    def test_recover_counts_substitution(self):
        kg = random_kg(4, 1, 0.6, 6)
        state = init_state(kg, hyper_with(depth=2), np.random.default_rng(6))
        means = recover_community_relations(state, 1.0, 1.0)
        for (a, b, r), value in means.items():
            n, *ones = state.rel[(a, b)]
            assert value == pytest.approx((ones[r] + 1) / (n + 2))

    def test_entity_level_mode(self):
        kg = random_kg(1, 1, 1.0, 0)
        state = init_state(kg, hyper_with(depth=2), np.random.default_rng(1))
        state.Z[:] = 2
        assert entity_level_mode(state, 0) == 2
        # ties break toward the shallower level
        state.Z[0, 0, 0] = 1
        assert entity_level_mode(state, 0) == 1


class TestPersistence:
    def test_trace_csv_format(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv([(0, -1.5), (1, -1.25)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,log_likelihood"
        assert lines[1] == "0,-1.5"

    def test_sample_json_round_trip(self, tmp_path):
        kg = random_kg(4, 1, 0.5, 5)
        state = init_state(kg, hyper_with(depth=2), np.random.default_rng(5))
        state.trace.append((0, complete_log_likelihood(state)))
        sample = take_sample(state)
        path = tmp_path / "sample.json"
        write_sample_json(sample, path)
        again = load_sample_json(path)
        assert again == sample

    def test_indicators_file_round_trip(self, tmp_path):
        kg = random_kg(4, 1, 0.5, 5)
        state = init_state(kg, hyper_with(depth=3), np.random.default_rng(5))
        state.trace.append((0, complete_log_likelihood(state)))
        sample = take_sample(state)
        path = tmp_path / "sample.json"
        written = write_sample_json(sample, path)
        assert written == [path, tmp_path / "sample.indicators.npy"]
        assert np.load(written[1]).dtype == np.uint8
        assert np.array_equal(load_sample_json(path).indicators, sample.indicators)
        np.save(written[1], sample.indicators[:2].astype(np.uint8))
        with pytest.raises(ValueError, match="shape"):
            load_sample_json(path)


@pytest.mark.parametrize("level", [0, 4])
def test_indicators_outside_levels_rejected(tmp_path, level):
    kg = random_kg(3, 1, 0.5, 5)
    state = init_state(kg, hyper_with(depth=3), np.random.default_rng(5))
    state.trace.append((0, complete_log_likelihood(state)))
    path = tmp_path / "sample.json"
    written = write_sample_json(take_sample(state), path)
    bad = state.Z.astype(np.uint8)
    bad[2, 0, 1] = level
    np.save(written[1], bad)
    with pytest.raises(ValueError, match="outside 1..3"):
        load_sample_json(path)


def test_per_iteration_cost_scales_subcubically():
    # wall-time slope on log-log axes across growing graphs stays below 3.5
    times = []
    sizes = []
    for per_leaf in (6, 12, 25):
        kg, _ = synth.generate_sbt(3, per_leaf, [0.1, 0.4, 0.6], 2, np.random.default_rng(0))
        hyper = hyper_with(depth=3)
        state = init_state(kg, hyper, np.random.default_rng(0))
        deg = degree_table(kg)
        gibbs_iteration(state, deg)  # warm-up
        t0 = time.perf_counter()
        for _ in range(2):
            gibbs_iteration(state, deg)
        times.append((time.perf_counter() - t0) / 2)
        sizes.append(kg.num_entities)
    slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    assert slope <= 3.5, f"per-iteration scaling slope {slope:.2f}"
