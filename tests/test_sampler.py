import bisect
import copy
import hashlib
import itertools
import json
import math
import multiprocessing
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hiersbm import sampler, stats, synth
from hiersbm.hierarchy import divergence_levels
from hiersbm.kgraph import KnowledgeGraph, degree_table
from hiersbm.sampler import (
    SamplerState,
    aggregate,
    audit_counts,
    complete_log_likelihood,
    gibbs_iteration,
    init_state,
    level_conditional,
    load_sample_json,
    path_conditional,
    predicted_edge_probabilities,
    recover_community_relations,
    relations_from_sample,
    run,
    sample_level_indicator,
    sample_path,
    take_sample,
    write_sample_json,
    write_trace_csv,
)
from hiersbm.stats import Hyperparameters, Schedule
from routing_oracle import coarsen
from test_kgraph import triple_set
from test_stats import ncrp_path_prior
from tree_oracle import tree_of


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
    present = triple_set(kg)
    counts = {}
    for i in range(n):
        for j in range(n):
            zi, zj = int(Z[i, j, 0]), int(Z[i, j, 1])
            for r in range(n_pred):
                key = coarsen(paths[i], zi, paths[j], zj, r)
                entry = counts.setdefault(key, [0, 0])
                entry[0 if (i, j, r) in present else 1] += 1
    base = math.lgamma(lam) + math.lgamma(eta) - math.lgamma(lam + eta)
    total = 0.0
    for ones, zeros in counts.values():
        total += math.lgamma(ones + lam) + math.lgamma(zeros + eta) - math.lgamma(ones + zeros + lam + eta) - base
    total += seating_log_prob(paths, hyper.gamma)
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


def seating_log_prob(paths, gamma):
    """nCRP log probability of the paths, seating the entities one at a time in id order."""
    total = 0.0
    node_counts = {}
    for e, path in enumerate(paths):
        parent_n = e
        for c in path:
            nc = node_counts.get(c, 0)
            total += math.log((nc if nc else gamma) / (parent_n + gamma))
            node_counts[c] = nc + 1
            parent_n = nc
    return total


def oracle_key(state, i, j):
    """The sibling pair ``hierarchy.coarsen`` routes pair (i, j) to at its current indicators."""
    pi, pj = (tuple(state.P[e].tolist()) for e in (i, j))
    return coarsen(pi, int(state.Z[i, j, 0]), pj, int(state.Z[i, j, 1]), 0)[:2]


def pair_apply(state, x, y, sign, key):
    """Add or remove pair (x, y)'s counts at the sibling pair ``key`` in place, one predicate's one at a time."""
    row = state.rel.setdefault(key, [0] * (state.R + 1))
    row[0] += sign
    for r in np.flatnonzero(state.G[x, y]).tolist():
        row[r + 1] += sign
    if not row[0]:
        del state.rel[key]


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
        assert not state.G.flags.writeable
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

    @pytest.mark.parametrize("entities,predicates,message", [
        ({}, {"p": 0}, "at least one entity"),
        ({"a": 0}, {}, "at least one predicate"),
    ])
    def test_empty_graph_rejected(self, entities, predicates, message):
        with pytest.raises(ValueError, match=message):
            init_state(KnowledgeGraph(entities, predicates, set()), hyper_with(), np.random.default_rng(0))

    @pytest.mark.parametrize(
        "change", ["paths of another depth", "indicators of another size", "level 0", "level 4", "id 0"]
    )
    def test_assignment_that_does_not_fit_rejected(self, change):
        kg = random_kg(3, 1, 0.5, 0)
        hyper = hyper_with(depth=3)
        state = init_state(kg, hyper, np.random.default_rng(0))
        P, Z = state.P, state.Z
        if change == "paths of another depth":
            P = P[:, :2]
        elif change == "indicators of another size":
            Z = Z[:2, :2]
        elif change == "id 0":
            P = np.where(P == P[0, 0], 0, P)
        else:
            Z = np.where(Z == Z[1, 2, 0], int(change[-1]), Z)
        with pytest.raises(ValueError, match="do not fit|ids >= 1 and indicators levels in 1..3"):
            SamplerState(kg, hyper, state.rng, P, Z)

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

    def test_counts_match_a_removal_then_a_re_addition(self):
        kg = random_kg(6, 2, 0.5, 2)
        state = init_state(kg, hyper_with(depth=3), np.random.default_rng(2))
        for i in range(6):
            for j in range(6):
                for d in (0, 1):
                    twin = copy.deepcopy(state, {id(kg): kg})
                    sample_level_indicator(state, i, j, d)
                    pair_apply(twin, i, j, -1, oracle_key(twin, i, j))
                    twin.Z[i, j, d] = state.Z[i, j, d]
                    pair_apply(twin, i, j, +1, oracle_key(twin, i, j))
                    assert state.rel == twin.rel
        assert audit_counts(state).ok

    @pytest.mark.parametrize("mode", [{}, dict(level_prior_mode="dirichlet", alpha=(0.6, 1.3, 0.9))])
    def test_pair_diverging_at_level_one_draws_from_the_level_prior(self, mode):
        # every level routes such a pair to its top-level sibling key, so the
        # predictive likelihood cancels and the conditional is the prior alone
        kg = random_kg(6, 2, 0.5, 3)
        hyper = hyper_with(depth=3, gamma=50.0, **mode)
        state = init_state(kg, hyper, np.random.default_rng(3))
        pairs = np.argwhere(divergence_levels(state.P[:, None], state.P[None]) == 1)
        assert len(pairs)
        for i, j in pairs.tolist():
            for d in (0, 1):
                hist = state.ghist[1:]
                hist[int(state.Z[i, j, d]) - 1] -= 1
                want = np.array(stats.level_prior(hist, hyper))
                got = level_conditional(state, i, j, d)
                assert np.max(np.abs(got - want / want.sum())) < 1e-12
                rows = {k: list(v) for k, v in state.rel.items()}
                sample_level_indicator(state, i, j, d)
                assert state.rel == rows
        assert audit_counts(state).ok

    def test_empirical_frequencies_match_conditional(self):
        kg = random_kg(2, 1, 0.7, 4)
        state = init_state(kg, hyper_with(depth=2), np.random.default_rng(6))
        Z = state.Z.copy()
        baseline = int(Z[0, 1, 0])
        want = level_conditional(state, 0, 1, 0)
        draws = 20000
        hits = np.zeros(2)
        for _ in range(draws):
            sample_level_indicator(state, 0, 1, 0)
            hits[int(state.Z[0, 1, 0]) - 1] += 1
            assert Z[0, 1, 0] == baseline  # the move wrote the state's own copy of Z
            # the conditioning state again, for the next draw
            state = SamplerState(kg, state.hyper, state.rng, state.P, Z)
        assert audit_counts(state).ok
        freq = hits / draws
        for k in range(2):
            se = math.sqrt(want[k] * (1 - want[k]) / draws)
            assert abs(freq[k] - want[k]) < 4 * se + 1e-12

    @pytest.mark.parametrize("memo_entries", [None, 2])
    @pytest.mark.parametrize("mode", [{}, dict(level_prior_mode="dirichlet", alpha=(0.6, 1.3, 0.9, 2.0))])
    def test_memoised_prior_is_the_level_prior_of_the_left_out_histogram(self, mode, memo_entries, monkeypatch):
        # a sweep's pass memoises priors under a code of the left-out histogram: every prior it
        # builds must be the level prior of that histogram, exactly, and every prior a one-key
        # move draws from must come from a histogram one indicator short of the current one
        from hiersbm.kgraph import DegreeTable

        kg = random_kg(6, 2, 0.4, 8)
        hyper = hyper_with(depth=4, **mode)
        L = hyper.depth
        deg = DegreeTable(degree=np.zeros(6, dtype=np.int64), sampling_prob=np.ones(6))
        if memo_entries:  # a memo emptied every few entries
            monkeypatch.setattr(sampler, "PRIOR_MEMO", memo_entries * L)
        built = {}  # id of an entry's running sums -> (entry, the histogram it was built from)
        fresh = set()  # entries built for the move under way
        build = SamplerState._level_prior

        def checked_build(state, cur):
            entry = build(state, cur)
            hist = state.ghist[1:]
            hist[cur - 1] -= 1
            want = stats.level_prior(hist, hyper)
            assert entry == (want, list(itertools.accumulate(want)), sum(want), [math.log(p) for p in want])
            built[id(entry[1])] = entry, hist
            fresh.add(id(entry[1]))
            return entry

        reads, hits = [], []

        def checked_draw(cums, x):
            _, hist = built[id(cums)]
            gap = [now - then for now, then in zip(state.ghist[1:], hist)]
            assert sorted(gap) == [0] * (L - 1) + [1]
            reads.append(gap.index(1) + 1)
            hits.append(id(cums) not in fresh)
            fresh.clear()
            return bisect.bisect_right(cums, x)

        monkeypatch.setattr(SamplerState, "_level_prior", checked_build)
        monkeypatch.setattr(sampler, "bisect_right", checked_draw)
        flips = np.random.default_rng(9)
        state = init_state(kg, hyper, np.random.default_rng(8))
        for _ in range(6):
            # random flips, then a sweep with every gate open
            Z = state.Z.copy()
            for i, j, d in flips.integers(0, [6, 6, 2], size=(20, 3)):
                Z[i, j, d] = flips.integers(1, L + 1)
            state = SamplerState(kg, hyper, state.rng, state.P, Z)
            gibbs_iteration(state, deg)
        assert sum(hits) > 50  # draws from priors built for earlier moves
        assert set(reads) == set(range(1, L + 1))  # moves left out indicators at every level
        assert audit_counts(state).ok

    def test_a_deep_tree_builds_only_the_level_cells_it_reads(self):
        # an eager table of every (divergence, other level) cell grows as depth³: 427 MB at depth 255
        from hiersbm.kgraph import DegreeTable

        kg = KnowledgeGraph({"a": 0, "b": 1}, {"r": 0}, {(0, 1, 0), (1, 1, 0)})
        deg = DegreeTable(degree=np.zeros(2, dtype=np.int64), sampling_prob=np.ones(2))
        tracemalloc.start()
        try:
            state = init_state(kg, hyper_with(depth=255), np.random.default_rng(0))
            gibbs_iteration(state, deg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert len(state._level_cells) <= 8
        assert audit_counts(state).ok


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
        rel_before = {k: list(v) for k, v in state.rel.items()}
        ghist_before = list(state.ghist)
        for i in range(state.E):
            path_conditional(state, i)
            for j in range(state.E):
                for d in (0, 1):
                    level_conditional(state, i, j, d)
        assert np.array_equal(state.P, paths_before)
        assert state.h.to_dict() == tree_before
        assert state.rel == rel_before
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


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    n_pred=st.integers(1, 3),
    depth=st.integers(1, 4),
    density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    sweeps=st.integers(0, 2),
    seed=st.integers(0, 999),
)
def test_path_candidates_come_in_the_oracle_order(n, n_pred, depth, density, sweeps, seed):
    kg = random_kg(n, n_pred, density, seed)
    hyper = hyper_with(depth=depth)
    state = init_state(kg, hyper, np.random.default_rng(seed))
    deg = degree_table(kg)
    for _ in range(sweeps):
        gibbs_iteration(state, deg)
    for i in range(n):
        specs, _ = path_conditional(state, i)
        pruned = tree_of(np.delete(state.P, i, axis=0), depth, state.next_id)
        assert specs == list(ncrp_path_prior(pruned, hyper.gamma))


def reference_sweep(state, tree, degrees):
    """``gibbs_iteration`` written move by move, as an oracle of its order and its RNG stream.

    Each open gate in (i, j, direction) order calls ``sample_level_indicator``;
    each open path move draws over the candidates in ``ncrp_path_prior``'s
    order, with the probabilities ``path_conditional`` gives each spec, and
    moves the path on the oracle ``tree``, which prunes and mints the ids.
    """
    E, s, rng = state.E, degrees.sampling_prob, state.rng
    gates = rng.random((E, E, 2))
    for i in range(E):
        for j in range(E):
            if gates[i, j, 0] < s[i]:
                sample_level_indicator(state, i, j, 0)
            if gates[i, j, 1] < s[j]:
                sample_level_indicator(state, i, j, 1)
    path_gates = rng.random(E)
    for i in range(E):
        if path_gates[i] < s[i]:
            prob = dict(zip(*path_conditional(state, i)))
            pairs = state._entity_pairs(i)
            state._entity_pairs_apply(pairs, -1)
            tree.remove_path(tuple(int(c) for c in state.P[i]))
            specs = list(ncrp_path_prior(tree, state.hyper.gamma))
            u = rng.random() * sum(prob[spec] for spec in specs)
            cum = np.cumsum([prob[spec] for spec in specs])
            state.P[i] = tree.add_path(specs[min(int(np.sum(cum <= u)), len(specs) - 1)])
            state.next_id = tree._next_id
            state._entity_pairs_apply(pairs, +1)
    state.iteration += 1
    state.trace.append((state.iteration, complete_log_likelihood(state)))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 8),
    n_pred=st.integers(1, 3),
    depth=st.integers(1, 4),
    density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    sweeps=st.integers(1, 3),
    seed=st.integers(0, 999),
    dirichlet=st.booleans(),
)
def test_sweep_equals_a_move_by_move_reference(n, n_pred, depth, density, sweeps, seed, dirichlet):
    from hiersbm.kgraph import DegreeTable

    kg = random_kg(n, n_pred, density, seed)
    mode = dict(level_prior_mode="dirichlet", alpha=tuple(0.5 + 0.3 * l for l in range(depth))) if dirichlet else {}
    state = init_state(kg, hyper_with(depth=depth, **mode), np.random.default_rng(seed))
    # sampling probabilities below 1, so that some gates stay closed
    prob = np.random.default_rng(seed + 1).uniform(0.2, 0.9, n)
    deg = DegreeTable(degree=np.zeros(n, dtype=np.int64), sampling_prob=prob)
    twin = copy.deepcopy(state, {id(kg): kg})
    tree = tree_of(twin.P, depth, twin.next_id)
    for _ in range(sweeps):
        gibbs_iteration(state, deg)
        reference_sweep(twin, tree, deg)
    assert np.array_equal(state.P, twin.P)
    assert state.next_id == twin.next_id
    assert state.h.to_dict() == tree.to_dict()
    assert np.array_equal(state.Z, twin.Z)
    assert state.rel == twin.rel
    assert state.ghist == twin.ghist
    assert state.rng.bit_generator.state == twin.rng.bit_generator.state
    assert state.trace == twin.trace


def enumerated_level_conditional(kg, hyper, paths, Z, i, j, d):
    """Normalised joint over the levels of indicator d of pair (i, j)."""
    lls = []
    for l in range(1, hyper.depth + 1):
        trial = Z.copy()
        trial[i, j, d] = l
        lls.append(joint_log_likelihood(kg, hyper, paths, trial))
    lls = np.array(lls)
    want = np.exp(lls - lls.max())
    return want / want.sum()


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(2, 5),
    n_pred=st.integers(1, 3),
    depth=st.integers(1, 4),
    density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    sweeps=st.integers(0, 2),
    seed=st.integers(0, 999),
    dirichlet=st.booleans(),
)
@example(n=4, n_pred=2, depth=4, density=0.7, sweeps=2, seed=3, dirichlet=True)
def test_level_conditional_matches_enumeration_at_depth(n, n_pred, depth, density, sweeps, seed, dirichlet):
    # same-leaf pairs route their L levels to up to L distinct keys, the
    # pair's own key among them
    kg = random_kg(n, n_pred, density, seed)
    mode = dict(level_prior_mode="dirichlet", alpha=tuple(0.5 + 0.3 * l for l in range(depth))) if dirichlet else {}
    hyper = hyper_with(depth=depth, **mode)
    state = init_state(kg, hyper, np.random.default_rng(seed))
    deg = degree_table(kg)
    for _ in range(sweeps):
        gibbs_iteration(state, deg)
    paths = [tuple(int(c) for c in row) for row in state.P]
    for i in range(n):
        for j in range(n):
            for d in (0, 1):
                got = level_conditional(state, i, j, d)
                want = enumerated_level_conditional(kg, hyper, paths, state.Z, i, j, d)
                assert np.max(np.abs(got - want)) < 1e-9


def count_path_moves(monkeypatch, n):
    """Count ``gibbs_iteration``'s path moves per entity, through a patched ``sampler.sample_path``."""
    calls = np.zeros(n, dtype=np.int64)
    move = sampler.sample_path

    def counted(state, i):
        calls[i] += 1
        move(state, i)

    monkeypatch.setattr(sampler, "sample_path", counted)
    return calls


class TestGibbsIteration:
    def test_full_sampling_probability_touches_everything(self, monkeypatch):
        from hiersbm.kgraph import DegreeTable

        kg = random_kg(4, 1, 0.9, 1)
        state = init_state(kg, hyper_with(depth=2), np.random.default_rng(2))
        deg = DegreeTable(degree=np.zeros(4, dtype=np.int64), sampling_prob=np.ones(4))
        calls = count_path_moves(monkeypatch, 4)
        gibbs_iteration(state, deg)
        assert calls.tolist() == [1, 1, 1, 1]
        assert state.iteration == 1
        assert len(state.trace) == 1

    def test_single_level_draws_the_gates_and_moves_no_indicator(self, monkeypatch):
        from hiersbm.kgraph import DegreeTable

        kg = random_kg(4, 1, 0.5, 3)
        state = init_state(kg, hyper_with(depth=1), np.random.default_rng(3))
        deg = DegreeTable(degree=np.zeros(4, dtype=np.int64), sampling_prob=np.ones(4))
        moves = []
        monkeypatch.setattr(sampler, "_level_pass", lambda *args: moves.append(args))
        twin = copy.deepcopy(state.rng)
        gibbs_iteration(state, deg)
        assert moves == []
        # the stream still holds the 2E² indicator gates, then E path gates and one draw per path move
        twin.random((4, 4, 2))
        twin.random(4)
        twin.random(4)
        assert twin.bit_generator.state == state.rng.bit_generator.state

    def test_resample_frequency_proportional_to_probability(self, monkeypatch):
        kg = KnowledgeGraph(
            {"a": 0, "b": 1, "c": 2},
            {"p": 0, "q": 1},
            {(1, 1, 0), (2, 2, 0), (2, 2, 1)},  # degrees 0, 2, 4
        )
        deg = degree_table(kg)
        assert deg.sampling_prob.tolist() == [1 / 3, 2 / 3, 1.0]
        state = init_state(kg, hyper_with(depth=2), np.random.default_rng(4))
        calls = count_path_moves(monkeypatch, 3)
        iters = 3000
        for _ in range(iters):
            gibbs_iteration(state, deg)
        freq = calls / iters
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

    def test_audit_after_long_run(self):
        kg = random_kg(6, 2, 0.35, 9)
        state = init_state(kg, hyper_with(depth=3), np.random.default_rng(9))
        deg = degree_table(kg)
        for _ in range(30):
            gibbs_iteration(state, deg)
        report = audit_counts(state)
        assert report.ok, report.message

    def test_audit_detects_perturbation(self):
        kg = random_kg(4, 1, 0.5, 10)
        state = init_state(kg, hyper_with(depth=2), np.random.default_rng(10))
        key = next(iter(state.rel))
        state.rel[key][0] += 1
        report = audit_counts(state)
        assert not report.ok
        assert str(key) in report.message
        state.rel[key][0] -= 1
        # another leaf's path written without its counts
        path = state.P[0].copy()
        state.P[0] = next(p for p in state.P if (p != path).any())
        report = audit_counts(state)
        assert not report.ok
        assert "relation counts differ" in report.message
        state.P[0] = path
        assert audit_counts(state).ok
        state.Z[1, 0, 1] = 0
        report = audit_counts(state)
        assert not report.ok
        assert "builds no state" in report.message

    @pytest.mark.parametrize("row,message", [
        ("aac", "two levels or under two parents"),  # community a at levels 1 and 2
        ("nbc", "two levels or under two parents"),  # community b under a and under n
        ("abn", "not below next_id"),
    ])
    def test_audit_detects_a_broken_tree(self, row, message):
        kg = random_kg(4, 1, 0.5, 10)
        state = init_state(kg, hyper_with(depth=3, gamma=0.01), np.random.default_rng(10))
        a, b, c = state.P[0].tolist()
        assert (state.P == (a, b, c)).all()  # one shared path (a, b, c); n is the next id
        ids = dict(a=a, b=b, c=c, n=state.next_id)
        state.P[0] = [ids[k] for k in row]
        report = audit_counts(state)
        assert not report.ok
        assert message in report.message


def test_sampler_never_reuses_an_id_after_pruning():
    kg = random_kg(6, 2, 0.4, 3)
    state = init_state(kg, hyper_with(depth=3, gamma=3.0), np.random.default_rng(3))
    ever = set(state.P.ravel().tolist())
    pruned = 0
    for step in range(120):
        before, next_id = set(state.P.ravel().tolist()), state.next_id
        sample_path(state, step % state.E)
        now = set(state.P.ravel().tolist())
        assert now - before == set(range(next_id, state.next_id))  # new communities take the next ids
        assert not (now - before) & ever
        pruned += len(before - now)
        ever |= now
    assert pruned > 0


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
        fresh = SamplerState(kg, hyper, state.rng, state.P, state.Z)
        assert fresh.rel == state.rel  # no row left at zero pairs
        assert fresh.ghist == state.ghist
        assert complete_log_likelihood(fresh) == complete_log_likelihood(state)
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
    other = SamplerState(renamed, hyper, np.random.default_rng(seed), state.P[perm], state.Z[np.ix_(perm, perm)])
    assert complete_log_likelihood(other) == complete_log_likelihood(state)


@settings(max_examples=100, deadline=None)
@given(chains_and_moves())
def test_log_likelihood_invariant_to_row_order(case):
    kg, hyper, seed, moves = case
    state = init_state(kg, hyper, np.random.default_rng(seed))
    for move in moves:
        apply_move(state, move)
    want = complete_log_likelihood(state)
    state.rel = dict(reversed(list(state.rel.items())))
    assert complete_log_likelihood(state) == want


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 8),
    depth=st.integers(1, 4),
    gamma=st.sampled_from([0.05, 0.8, 3.0, 40.0]),
    seed=st.integers(0, 999),
    moves=st.lists(st.integers(0, 7), max_size=8),
)
def test_tree_term_matches_sequential_seating(n, depth, gamma, seed, moves):
    kg = random_kg(n, 1, 0.5, seed)
    state = init_state(kg, hyper_with(depth=depth, gamma=gamma), np.random.default_rng(seed))
    for i in moves:
        sample_path(state, i % n)
    # with one empty count row and an empty level histogram, only the tree term is left
    state.rel = {(0, 0): [0, 0]}
    state.ghist = [0] * (depth + 1)
    want = seating_log_prob(state.P.tolist(), gamma)
    assert complete_log_likelihood(state) == pytest.approx(want, rel=1e-12, abs=1e-12)


def pairwise_apply(state, i, sign):
    """Entity i's pairs one at a time, each at its ``coarsen`` key, the self pair once."""
    for j in range(state.E):
        pair_apply(state, i, j, sign, oracle_key(state, i, j))
        if j != i:
            pair_apply(state, j, i, sign, oracle_key(state, j, i))


def move_entity(state, i, pick, redraw):
    """Give entity i, out of the counts, the ``pick``-th candidate path and fresh indicators in row and column i."""
    tree = tree_of(np.delete(state.P, i, axis=0), state.L, state.next_id)
    specs = list(ncrp_path_prior(tree, state.hyper.gamma))
    state.P[i] = tree.add_path(specs[pick % len(specs)])
    state.next_id = tree._next_id
    state.Z[i, :] = redraw[0]
    state.Z[:, i] = redraw[1]
    state.ghist = SamplerState(state.kg, state.hyper, state.rng, state.P, state.Z).ghist


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 8),
    n_pred=st.integers(1, 3),
    depth=st.integers(1, 4),
    density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    seed=st.integers(0, 999),
    moves=st.lists(st.integers(0, 7), max_size=6),
    pick=st.integers(0, 50),
)
def test_batched_entity_update_matches_pairwise_updates(n, n_pred, depth, density, seed, moves, pick):
    kg = random_kg(n, n_pred, density, seed)
    state = init_state(kg, hyper_with(depth=depth), np.random.default_rng(seed))
    for i in moves:
        sample_path(state, i % n)
    rng = np.random.default_rng(seed + 1)
    for i in sorted({0, n - 1}):
        twin = copy.deepcopy(state, {id(kg): kg})
        pairs = state._entity_pairs(i)
        state._entity_pairs_apply(pairs, -1)
        pairwise_apply(twin, i, -1)
        assert state.rel == twin.rel
        redraw = rng.integers(1, depth + 1, (2, n, 2))
        for s in (state, twin):
            move_entity(s, i, pick, redraw)
        state._entity_pairs_apply(pairs, +1)
        pairwise_apply(twin, i, +1)
        assert state.rel == twin.rel
        report = audit_counts(state)
        assert report.ok, report.message


# A fixed-seed chain after 4 sweeps, recorded at commit 9615bed: the SHA-256 of
# the JSON of its paths, indicators and tree (integers, so no math library
# moves it), and its log-likelihood trace.  A change that fails this test
# changes fixed-seed outputs and must say so.
PINNED_CHAIN_SHA256 = "c1a3a7edb7035e421a184a8d728870a55e4ed4e19b258fa042ce1497064e3c54"
PINNED_CHAIN_TRACE = [-3385.338382446309, -3340.31584539396, -3243.43118093675, -3103.4270839634405, -3090.4928291598767]


def test_fixed_seed_chain_is_pinned():
    kg, _ = synth.generate_sbt(3, 4, [0.1, 0.4, 0.6], 2, np.random.default_rng(5))
    hyper = Hyperparameters(gamma=3.0, mu=0.5, sigma=1.0, lam=1.0, eta=1.0, depth=3)
    state = init_state(kg, hyper, np.random.default_rng(0))
    deg = degree_table(kg)
    state.trace.append((0, complete_log_likelihood(state)))
    for _ in range(4):
        gibbs_iteration(state, deg)
    doc = json.dumps([state.P.tolist(), state.Z.tolist(), state.h.to_dict()], sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == PINNED_CHAIN_SHA256
    assert [ll for _, ll in state.trace] == pytest.approx(PINNED_CHAIN_TRACE, rel=0, abs=1e-9)


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

    def test_readouts_on_a_permuted_superset_graph(self):
        # the sample's 7 entities sit among 12 graph entities in another id order
        small = random_kg(7, 3, 0.3, 11)
        state = init_state(small, hyper_with(depth=3), np.random.default_rng(11))
        deg = degree_table(small)
        for _ in range(3):
            gibbs_iteration(state, deg)
        sample = take_sample(state)
        rng = np.random.default_rng(12)
        labels = [f"e{k}" for k in rng.permutation(12)]  # e7..e11 are not in the sample
        big_id = {label: k for k, label in enumerate(labels)}
        ones = {(big_id[f"e{i}"], big_id[f"e{j}"], r) for i, j, r in triple_set(small)}
        ones |= {(i, j, r) for i, j, r in rng.integers(0, [12, 12, 3], size=(60, 3)).tolist()
                 if not {labels[i], labels[j]} <= set(sample.entity_labels)}
        big = KnowledgeGraph(big_id, small.predicates, ones)

        # per-pair recount: route every (i, j, r) of the sample with coarsen, look it up in the big graph
        n, lam, eta = len(sample.paths), 0.7, 1.3
        gid = [big_id[label] for label in sample.entity_labels]
        counts, key_of = {}, {}
        for i in range(n):
            for j in range(n):
                zs, zr = sample.indicators[i, j]
                for r in range(3):
                    key = key_of[i, j, r] = coarsen(sample.paths[i], int(zs), sample.paths[j], int(zr), r)
                    entry = counts.setdefault(key, [0, 0])
                    entry[0] += 1
                    entry[1] += (gid[i], gid[j], r) in ones
        want = {key: (k + lam) / (total + lam + eta) for key, (total, k) in counts.items()}
        assert relations_from_sample(sample, big, lam, eta) == want
        probs = predicted_edge_probabilities(sample, big, lam, eta)
        assert probs.shape == (n, n, 3)
        assert probs.tolist() == [[[want[key_of[i, j, r]] for r in range(3)] for j in range(n)] for i in range(n)]

    def test_readouts_reject_repeated_labels(self):
        kg = random_kg(3, 1, 0.5, 0)
        sample = take_sample(init_state(kg, hyper_with(depth=2), np.random.default_rng(0)))
        twice = replace(sample, entity_labels=["e0", "e1", "e0"])
        for readout in (relations_from_sample, predicted_edge_probabilities):
            with pytest.raises(ValueError, match="repeat"):
                readout(twice, kg, 1.0, 1.0)

    def test_sample_level_is_indicator_mode(self):
        kg = random_kg(1, 1, 1.0, 0)
        state = init_state(kg, hyper_with(depth=2), np.random.default_rng(1))
        state.Z[:] = 2
        assert take_sample(state).levels == [2]
        # ties break toward the shallower level
        state.Z[0, 0, 0] = 1
        assert take_sample(state).levels == [1]


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

    def test_loaded_sample_rebuilds_the_chain_state(self, tmp_path):
        kg = random_kg(6, 2, 0.4, 7)
        hyper = hyper_with(depth=3)
        state = init_state(kg, hyper, np.random.default_rng(7))
        deg = degree_table(kg)
        for _ in range(3):
            gibbs_iteration(state, deg)
        path = tmp_path / "sample.json"
        write_sample_json(take_sample(state), path)
        loaded = load_sample_json(path)
        rebuilt = SamplerState(kg, hyper, np.random.default_rng(0), loaded.paths, loaded.indicators)
        assert rebuilt.rel == state.rel
        assert rebuilt.ghist == state.ghist
        assert complete_log_likelihood(rebuilt) == complete_log_likelihood(state) == loaded.log_likelihood

    @pytest.mark.parametrize("depth", [255, 256])
    def test_paths_deeper_than_a_uint8_level_rejected(self, tmp_path, depth):
        # the indicators file stores levels as uint8, so a deeper level would wrap
        sample = sampler.PosteriorSample(0, 0.0, ["a"], [tuple(range(1, depth + 1))], np.full((1, 1, 2), depth))
        path = tmp_path / "sample.json"
        write_sample_json(sample, path)
        if depth <= stats.MAX_DEPTH:
            assert load_sample_json(path) == sample
        else:
            with pytest.raises(ValueError, match="256 levels, more than 255"):
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
