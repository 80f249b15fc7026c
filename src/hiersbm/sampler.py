"""Collapsed Gibbs engine: chain state, resampling moves, schedule, aggregation.

The chain state keeps only what the moves read.  Its incremental sufficient
statistics are one count row per occupied sibling pair of communities,
``rel[(a, b)] = [n, ones_0, ..., ones_{R-1}]`` (the number of entity pairs
routed there, then the one-count of each predicate among them), and one pooled
level-indicator histogram ``ghist``, which the level prior reads.  Each
entity's level mode is worked out from the indicators when a sample is taken.
Every move removes the affected contributions, scores candidates against the
remainder with the collapsed formulas and the level model in ``stats``, then
reinstates the chosen configuration; ``audit_counts`` compares the incremental
statistics against a from-scratch recount.  Candidate scoring runs in log
space with log-sum-exp normalization, since candidate likelihood spreads
exceed float range on dense graphs.

A path move scores all of its candidates in one pass over the tree.  Under a
candidate path, each of the entity's pairs lands on a sibling key of one node
of that path or on the node's diagonal key, so the collapsed evidence is a sum
of per-node terms (the sibling keys a node shares with the other children of
its parent, and its diagonal key), computed once per move in one batched
``stats.log_evidence_terms`` call.  An existing leaf scores the sum along its
path, corrected at the diagonal keys that other entities on that leaf reach;
a new branch below community p scores p's path sum plus one sibling term for
the children of p it would join.

``level_conditional`` and ``path_conditional`` return a move's exact
conditional without making the move: they remove and score on a copy of the
state, so the state they are given is never written.

One chain owns one state exclusively; the full conditionals are sequential,
so there is no intra-chain parallelism.  Independent chains differ only in
their seeds; ``run_chains`` runs them in parallel worker processes and yields
their results in chain order.
"""

from __future__ import annotations

import copy
import json
import math
import multiprocessing
import os
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path as FsPath

import numpy as np
from scipy.special import logsumexp

from . import stats, synth
from .hierarchy import ROOT_ID, Hierarchy, Path, PathSpec, divergence_levels, route_levels, route_pairs
from .kgraph import DegreeTable, KnowledgeGraph, degree_table
from .stats import Hyperparameters

__all__ = [
    "SamplerState",
    "PosteriorSample",
    "AuditReport",
    "Trace",
    "init_state",
    "sample_level_indicator",
    "sample_path",
    "level_conditional",
    "path_conditional",
    "gibbs_iteration",
    "complete_log_likelihood",
    "run",
    "run_chains",
    "ChainError",
    "take_sample",
    "aggregate",
    "recover_community_relations",
    "relations_from_sample",
    "predicted_edge_probabilities",
    "entity_level_mode",
    "audit_counts",
    "write_trace_csv",
    "write_sample_json",
    "load_sample_json",
    "sample_to_dict",
]

Trace = list  # list of (iteration, complete log-likelihood) pairs

SENDER = 0
RECEIVER = 1


@dataclass(frozen=True)
class PosteriorSample:
    """Immutable snapshot of one retained Gibbs sample.

    ``indicators`` is the E x E x 2 level-indicator tensor that readouts route
    pairs by.  On disk it is a uint8 ``<stem>.indicators.npy`` beside the JSON
    file; a sample loaded without that file has None, and readouts then fall
    back to per-entity level modes.
    """

    iteration: int
    log_likelihood: float
    tree: dict
    entity_labels: list[str]
    paths: list[Path]
    levels: list[int]
    indicators: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    message: str = ""


class SamplerState:
    """Mutable Markov-chain state over entity paths and level indicators."""

    def __init__(self, kg: KnowledgeGraph, hyper: Hyperparameters, rng: np.random.Generator):
        hyper.validate()
        if kg.num_entities < 1:
            raise ValueError("graph must have at least one entity")
        if kg.num_predicates < 1:
            raise ValueError("graph must have at least one predicate")
        self.kg = kg
        self.hyper = hyper
        self.rng = rng
        self.E = kg.num_entities
        self.R = kg.num_predicates
        self.L = hyper.depth
        self._set_graph(kg.dense_tensor())

        # Paths from the bare tree prior, entities seated in id order.
        self.h = Hierarchy(self.L)
        self.P = np.empty((self.E, self.L), dtype=np.int64)
        for i in range(self.E):
            self.P[i] = synth.sample_ncrp_path(self.h, hyper.gamma, rng)
        self.D = divergence_levels(self.P[:, None, :], self.P[None, :, :])
        # _route_table[d][zs][zr] -> (sender level, receiver level); index 0 unused
        z = np.arange(self.L + 1)
        ls, lr = route_levels(z[:, None], z[None, :], np.arange(self.L + 2)[:, None, None], self.L)
        self._route_table = [
            [list(zip(*rows)) for rows in zip(*planes)] for planes in zip(ls.tolist(), lr.tolist())
        ]

        # Indicators i.i.d. from the zero-count level prior.
        cum = np.cumsum(stats.level_prior([0] * self.L, hyper))
        self.Z = (np.searchsorted(cum, self.rng.random((self.E, self.E, 2))) + 1).astype(np.int64)
        np.clip(self.Z, 1, self.L, out=self.Z)

        self.rel: dict[tuple[int, int], list[int]] = {}
        self._recount_relations_into(self.rel)
        self.ghist = [0] * (self.L + 1)
        self._recount_level_hist_into(self.ghist)

        self.iteration = 0
        self.trace: Trace = []
        self.path_resamples = np.zeros(self.E, dtype=np.int64)

    def _set_graph(self, G: np.ndarray) -> None:
        """Install the E x E x R uint8 graph as bytes, pair (x, y) at (x*E + y)*R; the caller recounts.

        ``G`` is a read-only view of those bytes, so the state holds one copy.
        """
        self._g = G.tobytes()
        self.G = np.frombuffer(self._g, dtype=np.uint8).reshape(G.shape)

    # -- routing ---------------------------------------------------------

    def _refresh_divergence_row(self, i: int) -> None:
        d = divergence_levels(self.P, self.P[i])
        self.D[i, :] = d
        self.D[:, i] = d

    def _route(self, i: int, j: int, zi: int, zj: int) -> tuple[int, int]:
        """Sibling-key community pair for one interaction at levels (zi, zj)."""
        ls, lr = self._route_table[self.D[i, j]][zi][zj]
        return int(self.P[i, ls - 1]), int(self.P[j, lr - 1])

    # -- incremental counts ----------------------------------------------

    def _pair_apply(self, x: int, y: int, sign: int) -> None:
        """Add or remove the (x, y) pair's counts at its current route."""
        key = self._route(x, y, int(self.Z[x, y, SENDER]), int(self.Z[x, y, RECEIVER]))
        row = self.rel.get(key)
        if row is None:
            row = self.rel[key] = [0] * (self.R + 1)
        row[0] += sign
        g, start = self._g, (x * self.E + y) * self.R
        end = start + self.R
        r = g.find(1, start, end)  # only the pair's ones
        while r >= 0:
            row[r - start + 1] += sign
            r = g.find(1, r + 1, end)
        if not row[0]:
            del self.rel[key]

    def _entity_pairs_apply(self, i: int, sign: int) -> None:
        for j in range(self.E):
            self._pair_apply(i, j, sign)
            if j != i:
                self._pair_apply(j, i, sign)

    # -- from-scratch recounts (init and audits) ---------------------------

    def _recount_relations_into(self, out: dict) -> None:
        out.clear()
        pairs, _, ones, totals = _routed_counts(self.P, self.Z, self.G)
        out.update(zip(map(tuple, pairs.tolist()), np.column_stack([totals, ones]).tolist()))

    def _recount_level_hist_into(self, ghist: list) -> None:
        ghist[:] = np.bincount(self.Z.ravel(), minlength=self.L + 1).tolist()

    # -- conditional distributions ----------------------------------------

    def _remove_indicator_and_score(self, i: int, j: int, direction: int) -> list[float]:
        """Remove pair (i, j) and one of its indicators from the counts; return log weights over levels."""
        zi = int(self.Z[i, j, SENDER])
        zj = int(self.Z[i, j, RECEIVER])
        self._pair_apply(i, j, -1)
        self.ghist[zj if direction else zi] -= 1
        prior = stats.level_prior(self.ghist[1:], self.hyper)
        lam, eta = self.hyper.lam, self.hyper.eta
        start = (i * self.E + j) * self.R
        g = self._g[start : start + self.R]  # one predicate value per byte
        empty = [0] * (self.R + 1)
        logw = [0.0] * self.L
        for l in range(1, self.L + 1):
            key = self._route(i, j, l, zj) if direction == SENDER else self._route(i, j, zi, l)
            row = self.rel.get(key, empty)
            logw[l - 1] = math.log(prior[l - 1]) + stats.level_log_likelihood(g, row[1:], row[0], lam, eta)
        return logw

    def _remove_entity_and_score(self, i: int) -> tuple[list[PathSpec], np.ndarray]:
        """Remove entity i's pairs and path; return every candidate path and its log weight.

        Removing the path prunes emptied communities.  The candidates are the
        specs of ``ncrp_path_prior``, in its order; each log weight is the log
        prior plus the collapsed evidence of all of the entity's interactions
        (both directions, all predicates, the self pair once) routed under the
        candidate at the current indicators.  That evidence is a sum of
        per-node terms along the candidate path (``_path_node_scores``): an
        existing leaf scores its path sum, and a new branch below community p
        scores p's path sum plus one term for the siblings it would join.
        """
        self._entity_pairs_apply(i, -1)
        self.h.remove_path(tuple(int(c) for c in self.P[i]))
        prior = stats.ncrp_path_prior(self.h, self.hyper.gamma)
        leaf_score, new_score = self._path_node_scores(i)
        logw = np.empty(len(prior))
        for k, (spec, p) in enumerate(prior.items()):
            if spec[-1] is not None:
                score = leaf_score[spec[-1]]
            else:
                branch = spec.index(None)
                score = new_score[spec[branch - 1] if branch else ROOT_ID]
            logw[k] = math.log(p) + score
        return list(prior), logw

    def _path_node_scores(self, i: int) -> tuple[dict[int, float], dict[int, float]]:
        """Collapsed evidence of entity i's pairs under every candidate path, from per-node sums.

        Entity i is out of the counts and the tree.  Take a candidate path c
        and another entity j whose path leaves c at level d (L+1 on a shared
        leaf).  Pair (i, j) goes to the sibling key (c_d, P[j]_d) unless its
        indicators are equal at some z < d, which sends it to the diagonal key
        (c_z, c_z), or d = L+1 and they differ, which sends it to (c_m, c_m)
        at m = min(zs, zr); pair (j, i) routes alike to (P[j]_d, c_d).  The
        self pair goes to (c_m, c_m).  No two of these keys coincide, so the
        evidence is one term per node of c: the sibling keys it shares with
        the other children of its parent, and its diagonal key.

        Returns two dicts by community id: the score of the community as an
        existing leaf (read for leaves only), and the score of a new branch
        below it, the root included.
        """
        L, R = self.L, self.R
        others = np.flatnonzero(np.arange(self.E) != i)
        nodes, Q = np.unique(self.P[others], return_inverse=True)
        Q = Q.reshape(len(others), L)  # community index per other entity and level
        N = len(nodes)
        level = np.zeros(N + 1, dtype=np.int64)  # index N is the root, at level 0
        level[Q] = np.arange(1, L + 1)
        parent = np.full(N, N)
        parent[Q[:, 1:]] = Q[:, :-1]

        # rows [1, g_0, ..., g_{R-1}] of pairs (i, j) and (j, i), j in others, and of the self pair
        W = np.ones((2, len(others), R + 1))
        W[0, :, 1:] = self.G[i, others]
        W[1, :, 1:] = self.G[others, i]
        zs = np.stack([self.Z[i, others, SENDER], self.Z[others, i, SENDER]])
        zr = np.stack([self.Z[i, others, RECEIVER], self.Z[others, i, RECEIVER]])
        eq = zs == zr
        own = np.ones((1, R + 1))
        own[0, 1:] = self.G[i, i]
        m = int(self.Z[i, i].min())

        # S[0, s], S[1, s]: rows that reach sibling s at its level undiverted, out and in
        keep = ~(eq[:, :, None] & (zs[:, :, None] < np.arange(1, L + 1)))
        at = (np.arange(2)[:, None, None] * N + Q)[keep]
        S = _sum_rows(at, np.broadcast_to(W[:, :, None, :], keep.shape + (R + 1,))[keep], 2 * N).reshape(2, N, R + 1)
        # diagonal rows: equal indicators at x's level under x, and the self pair at level m
        j = np.broadcast_to(np.arange(len(others)), eq.shape)
        diag_rows = _sum_rows(Q[j, zs - 1][eq], W[eq], N)
        diag_rows[level[:N] == m] += own[0]
        # same-leaf rows with unequal indicators, keyed by (leaf, diagonal node at the smaller level)
        split = ~eq
        fix_keys, fix_at = np.unique(
            Q[j[split], L - 1] * N + Q[j[split], np.minimum(zs, zr)[split] - 1], return_inverse=True
        )
        fix_leaf, fix_node = np.divmod(fix_keys, N)
        fix_rows = diag_rows[fix_node] + _sum_rows(fix_at, W[split], len(fix_keys))

        # ordered sibling pairs (a, b), a != b
        order = np.argsort(parent, kind="stable")
        by_parent = parent[order]
        first = np.searchsorted(by_parent, by_parent)
        size = np.searchsorted(by_parent, by_parent, side="right") - first
        a = np.repeat(np.arange(N), size)
        b = first[a] + np.arange(len(a)) - np.repeat(np.cumsum(size) - size, size)
        a, b = order[a[a != b]], order[b[a != b]]

        # one evidence term per row: base counts at the key plus the rows the entity adds there
        ids = nodes.tolist()
        empty = [0] * (R + 1)
        rel = self.rel
        pair_keys = zip(nodes[a].tolist(), nodes[b].tolist())
        pair_base = np.array([rel.get(k, empty) for k in pair_keys], dtype=np.float64).reshape(-1, R + 1)
        diag_base = np.array([rel.get((x, x), empty) for x in ids], dtype=np.float64).reshape(-1, R + 1)
        base = np.concatenate([pair_base, pair_base, diag_base, np.zeros((2 * N + 1, R + 1)), diag_base[fix_node]])
        added = np.concatenate([S[0, b], S[1, a], diag_rows, S[0], S[1], own, fix_rows])
        b1, c1 = base[:, 1:], added[:, 1:]
        t = stats.log_evidence_terms(b1, base[:, :1] - b1, c1, added[:, :1] - c1, self.hyper.lam, self.hyper.eta)
        out_ab, in_ab, diag, new_out, new_in, new_own, fixed = np.split(
            t.sum(axis=-1), np.cumsum([len(a), len(a), N, N, N, 1])
        )

        # (a, b) serves candidate node a against sibling b's pairs (i, j),
        # and candidate node b against sibling a's pairs (j, i)
        node_term = np.bincount(a, out_ab, N) + np.bincount(b, in_ab, N) + diag
        prefix = np.zeros(N + 1)
        prefix[Q] = np.cumsum(node_term[Q], axis=1)
        leaf_score = prefix[:N] + np.bincount(fix_leaf, fixed - diag[fix_node], N)
        new_score = prefix + np.bincount(parent, new_out + new_in, N + 1) + np.where(level < m, new_own, 0.0)
        return dict(zip(ids, leaf_score.tolist())), dict(zip(ids + [ROOT_ID], new_score.tolist()))


def _routed_counts(P: np.ndarray, Z: np.ndarray, G: np.ndarray):
    """Route every pair of ``P`` at indicators ``Z`` and count ``G`` per sibling pair.

    Returns ``route_pairs``' K pairs and E x E index, the K x R one-counts and
    the K totals; keys (a, b, r) thus come in the order a loop over (i, j, r)
    first meets them.
    """
    pairs, index = route_pairs(P, Z[:, :, SENDER], Z[:, :, RECEIVER])
    K, R = len(pairs), G.shape[2]
    flat = index.ravel()
    totals = np.bincount(flat, minlength=K)
    keys = (flat[:, None] * R + np.arange(R)).ravel()
    ones = np.bincount(keys, weights=G.reshape(-1), minlength=K * R).astype(np.int64).reshape(K, R)
    return pairs, index, ones, totals


def _sum_rows(index: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """Sum the rows of ``rows`` into ``size`` bins by ``index``."""
    out = np.zeros((size, rows.shape[-1]))
    np.add.at(out, index, rows)
    return out


def _categorical_from_logs(rng: np.random.Generator, logw) -> int:
    m = max(logw)
    w = [math.exp(v - m) for v in logw]
    u = rng.random() * sum(w)
    acc = 0.0
    for k, v in enumerate(w):
        acc += v
        if u < acc:
            return k
    return len(w) - 1


# -- public operations -----------------------------------------------------


def init_state(kg: KnowledgeGraph, hyper: Hyperparameters, rng: np.random.Generator) -> SamplerState:
    """Draw paths and indicators from their priors and build counts from scratch."""
    return SamplerState(kg, hyper, rng)


def sample_level_indicator(state: SamplerState, i: int, j: int, direction: int) -> None:
    """Resample one level indicator of the ordered pair (i, j) in place.

    ``direction`` 0 resamples the sender's level, 1 the receiver's.  The
    indicator's pair contribution and histogram entry are removed, a level is
    drawn from prior times predictive likelihood, and counts are reinstated.
    """
    if state.L == 1:
        return
    logw = state._remove_indicator_and_score(i, j, direction)
    new = _categorical_from_logs(state.rng, logw) + 1
    state.Z[i, j, direction] = new
    state.ghist[new] += 1
    state._pair_apply(i, j, +1)


def _probe_copy(state: SamplerState) -> SamplerState:
    return copy.deepcopy(state, {id(state.kg): state.kg})  # the graph is never written


def _normalized(logw) -> np.ndarray:
    w = np.exp(np.asarray(logw) - logsumexp(logw))
    return w / w.sum()


def level_conditional(state: SamplerState, i: int, j: int, direction: int) -> np.ndarray:
    """Exact conditional distribution of one indicator, over levels 1..L.

    The indicator is removed and its levels scored on a copy of the state, as
    ``sample_level_indicator`` would; the state passed in is never written.
    """
    if state.L == 1:
        return np.ones(1)
    return _normalized(_probe_copy(state)._remove_indicator_and_score(i, j, direction))


def sample_path(state: SamplerState, i: int) -> None:
    """Resample entity i's path in place.

    The entity's pair contributions and path are removed (pruning emptied
    communities), every candidate continuation of the remaining tree is scored
    by prior times collapsed likelihood, and the chosen path is materialized
    with fresh ids for any new branch.
    """
    specs, logw = state._remove_entity_and_score(i)
    choice = _categorical_from_logs(state.rng, logw)
    state.P[i] = state.h.add_path(specs[choice])
    state._refresh_divergence_row(i)
    state._entity_pairs_apply(i, +1)
    state.path_resamples[i] += 1


def path_conditional(state: SamplerState, i: int) -> tuple[list[PathSpec], np.ndarray]:
    """Candidate path specs and their exact conditional probabilities.

    The entity is removed and the candidates scored on a copy of the state, as
    ``sample_path`` would, so the specs name the copy's tree after pruning;
    the state passed in is never written.
    """
    specs, logw = _probe_copy(state)._remove_entity_and_score(i)
    return specs, _normalized(logw)


def gibbs_iteration(state: SamplerState, degrees: DegreeTable) -> None:
    """One sweep: degree-gated indicator updates, then degree-gated path updates.

    For each ordered pair (i, j) the sender indicator is resampled with
    probability ``s_i`` and the receiver indicator with ``s_j``; each entity's
    path is then resampled with probability ``s_i``.  Appends one trace entry.
    """
    E = state.E
    s = degrees.sampling_prob
    gates = state.rng.random((E, E, 2))
    for i in range(E):
        s_i = s[i]
        gate_row = gates[i]
        for j in range(E):
            if gate_row[j, 0] < s_i:
                sample_level_indicator(state, i, j, SENDER)
            if gate_row[j, 1] < s[j]:
                sample_level_indicator(state, i, j, RECEIVER)
    path_gates = state.rng.random(E)
    for i in range(E):
        if path_gates[i] < s[i]:
            sample_path(state, i)
    state.iteration += 1
    state.trace.append((state.iteration, complete_log_likelihood(state)))


def complete_log_likelihood(state: SamplerState) -> float:
    """Joint log density of the graph and the uncollapsed latents.

    Three terms: the collapsed Bernoulli-Beta evidence of all routed pair
    counts, the sequential tree-construction probability of the paths, and the
    collapsed level-indicator marginal (pooled over the indicator histogram;
    exactly zero when the tree has a single level).  All three are functions
    of counts only, so the value is invariant to entity and id relabeling.
    """
    hyper = state.hyper
    rows = np.array(list(state.rel.values()), dtype=np.float64)
    ones = rows[:, 1:]
    total = stats.log_evidence_delta(0, 0, ones, rows[:, :1] - ones, hyper.lam, hyper.eta)

    gamma = hyper.gamma
    counts: dict[int, int] = {}
    for e in range(state.E):
        parent_n = e
        for l in range(state.L):
            c = int(state.P[e, l])
            nc = counts.get(c, 0)
            total += math.log((nc if nc else gamma) / (parent_n + gamma))
            counts[c] = nc + 1
            parent_n = nc

    total += stats.level_log_marginal(state.ghist[1:], hyper)
    return total


def run(kg: KnowledgeGraph, hyper: Hyperparameters) -> tuple[list[PosteriorSample], Trace]:
    """Run one chain: init, burn-in, then collect lagged samples.

    The trace records the initialization value at iteration 0 plus one entry
    per completed iteration.  Samples are collected after ``burn_in`` at every
    ``lag``-th iteration until ``final_samples`` snapshots are stored.
    """
    hyper.validate()
    if hyper.schedule is None:
        raise ValueError("hyperparameters must carry a schedule")
    sched = hyper.schedule
    rng = np.random.default_rng(sched.seed)
    state = init_state(kg, hyper, rng)
    degrees = degree_table(kg)
    state.trace.append((0, complete_log_likelihood(state)))
    samples: list[PosteriorSample] = []
    while state.iteration < sched.iterations:
        gibbs_iteration(state, degrees)
        done = state.iteration - sched.burn_in
        if done > 0 and done % sched.lag == 0 and len(samples) < sched.final_samples:
            samples.append(take_sample(state))
    return samples, state.trace


class ChainError(RuntimeError):
    """A chain of ``run_chains`` raised, or the worker process running it died."""


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chain(job: tuple[KnowledgeGraph, Hyperparameters]) -> tuple[list[PosteriorSample], Trace]:
    """``run`` on one job; a worker unpickles this by name and looks ``run`` up in its own module."""
    return run(*job)


def _in_chain_order(results) -> Iterator[tuple[list[PosteriorSample], Trace]]:
    chain = 0
    try:
        for result in results:
            yield result
            chain += 1
    except BrokenProcessPool as exc:
        raise ChainError(f"a worker process died before chain {chain} returned") from exc
    except Exception as exc:
        raise ChainError(f"chain {chain} failed: {type(exc).__name__}: {exc}") from exc


def _pooled(jobs, workers: int) -> Iterator[tuple[list[PosteriorSample], Trace]]:
    fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if fork else None)
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        yield from _in_chain_order(pool.map(_run_chain, jobs))


def run_chains(kg: KnowledgeGraph, hyper: Hyperparameters) -> Iterator[tuple[list[PosteriorSample], Trace]]:
    """Run ``schedule.chains`` independent chains and yield their results in chain order.

    Chain k is ``run`` with schedule seed ``seed + k`` and ``chains=1``, so
    its samples and trace do not depend on how many workers run the chains:
    ``usable_cpus()``, capped at the number of chains.  With more than one
    worker the chains run in a process pool that ends with the iteration;
    it forks where the platform can, so the workers need not import numpy
    and scipy again.  One worker runs the same per-chain function in this
    process.  Each result is yielded once it and every chain before it have
    ended.  A chain that raises, or a worker that dies, ends the iteration
    with ``ChainError`` at that chain's turn; the pool cancels only the
    chains it has not yet queued for a worker (it queues up to workers + 1
    at once) and waits for the rest to end before the error leaves it.
    """
    hyper.validate()
    if hyper.schedule is None:
        raise ValueError("hyperparameters must carry a schedule")
    sched = hyper.schedule
    jobs = [
        (kg, replace(hyper, schedule=replace(sched, chains=1, seed=sched.seed + k)))
        for k in range(sched.chains)
    ]
    workers = min(sched.chains, usable_cpus())
    if workers <= 1:
        return _in_chain_order(map(_run_chain, jobs))
    return _pooled(jobs, workers)


def take_sample(state: SamplerState) -> PosteriorSample:
    ll = state.trace[-1][1] if state.trace else complete_log_likelihood(state)
    return PosteriorSample(
        iteration=state.iteration,
        log_likelihood=float(ll),
        tree=state.h.to_dict(),
        entity_labels=list(state.kg.entity_labels),
        paths=[tuple(int(c) for c in row) for row in state.P],
        levels=_level_modes(state.Z, state.L),
        indicators=state.Z.copy(),
    )


def aggregate(samples: list[PosteriorSample]) -> tuple[PosteriorSample, np.ndarray]:
    """Maximum-likelihood point estimate plus per-level co-clustering consensus.

    ``consensus[l-1, i, j]`` is the fraction of samples in which entities i
    and j share their path prefix down to level l; unlike community ids, this
    statistic is comparable across samples with different trees.
    """
    if not samples:
        raise ValueError("aggregate requires at least one sample")
    best = max(samples, key=lambda s: s.log_likelihood)
    n = len(samples[0].entity_labels)
    depth = len(samples[0].paths[0]) if n else 0
    consensus = np.zeros((depth, n, n))
    for s in samples:
        paths = np.asarray(s.paths, dtype=np.int64)
        for l in range(depth):
            lab = paths[:, l]
            consensus[l] += lab[:, None] == lab[None, :]
    consensus /= len(samples)
    return best, consensus


def recover_community_relations(state: SamplerState, lam: float, eta: float) -> dict:
    """Posterior-mean relation degree for every occupied sibling pair (a, b) and predicate r."""
    return {
        (a, b, r): (ones + lam) / (row[0] + lam + eta)
        for (a, b), row in state.rel.items()
        for r, ones in enumerate(row[1:])
    }


def _level_modes(Z: np.ndarray, L: int) -> list[int]:
    """Each entity's mode over its incident indicators, ties toward the shallower level.

    Entity e's indicators are both of every pair in row e and column e of
    ``Z``, the self pair counted once; its bins are e*(L+1) + level.
    """
    E, L1 = len(Z), L + 1
    idx = np.arange(E)
    own = idx[:, None] * L1
    bins = (own[:, :, None] + Z, own.T[:, :, None] + Z, own + Z[idx, idx])
    row, col, diag = (np.bincount(b.ravel(), minlength=E * L1) for b in bins)
    return ((row + col - diag).reshape(E, L1)[:, 1:].argmax(axis=1) + 1).tolist()


def entity_level_mode(state: SamplerState, i: int) -> int:
    """Mode of entity i's incident level indicators, ties toward the shallower level."""
    return _level_modes(state.Z, state.L)[i]


def audit_counts(state: SamplerState) -> AuditReport:
    """Compare incremental statistics against a from-scratch recount."""
    fresh: dict = {}
    state._recount_relations_into(fresh)
    empty = [0] * (state.R + 1)
    for key in sorted(set(fresh) | set(state.rel)):
        want = fresh.get(key, empty)
        have = state.rel.get(key, empty)
        if want != have:
            return AuditReport(False, f"relation counts differ at pair {key}: recount {want}, incremental {have}")
    ghist = [0] * (state.L + 1)
    state._recount_level_hist_into(ghist)
    if ghist != state.ghist:
        return AuditReport(False, f"global level histogram differs: recount {ghist}, incremental {state.ghist}")
    return AuditReport(True)


# -- sample readouts ---------------------------------------------------------


def _sample_means(sample: PosteriorSample, kg: KnowledgeGraph, lam: float, eta: float):
    """Routed pairs, their E x E index and the K x R posterior means of a sample."""
    missing = [lab for lab in sample.entity_labels if lab not in kg.entities]
    if missing:
        raise ValueError(f"sample entities missing from the graph: {missing}")
    gid = [kg.entities[lab] for lab in sample.entity_labels]
    n, R = len(gid), kg.num_predicates
    if n == 0:
        return np.empty((0, 2), dtype=np.int64), np.empty((0, 0), dtype=np.int64), np.empty((0, R))
    if sample.indicators is not None:
        Z = sample.indicators
    else:
        levels = np.asarray(sample.levels, dtype=np.int64)
        Z = np.stack(np.broadcast_arrays(levels[:, None], levels[None, :]), axis=2)
    pairs, index, ones, totals = _routed_counts(sample.paths, Z, kg.dense_tensor()[np.ix_(gid, gid)])
    return pairs, index, (ones + lam) / (totals[:, None] + lam + eta)


def relations_from_sample(sample: PosteriorSample, kg: KnowledgeGraph, lam: float, eta: float) -> dict:
    """Posterior-mean relation degrees reconstructed from a stored sample.

    Every ordered pair is routed through the sample's paths at its recorded
    level indicators (falling back to per-entity level modes when the sample
    has none); counts come from the graph.
    """
    pairs, _, means = _sample_means(sample, kg, lam, eta)
    return {
        (a, b, r): value
        for (a, b), row in zip(pairs.tolist(), means.tolist())
        for r, value in enumerate(row)
    }


def predicted_edge_probabilities(
    sample: PosteriorSample, kg: KnowledgeGraph, lam: float, eta: float
) -> np.ndarray:
    """Posterior-mean edge probability for every (i, j, r), routed as above."""
    _, index, means = _sample_means(sample, kg, lam, eta)
    return means[index]


# -- persistence -------------------------------------------------------------


def write_trace_csv(trace: Trace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iter,log_likelihood\n")
        for it, ll in trace:
            fh.write(f"{it},{ll!r}\n")


def sample_to_dict(sample: PosteriorSample) -> dict:
    return {
        "iteration": sample.iteration,
        "log_likelihood": sample.log_likelihood,
        "tree": sample.tree,
        "entities": [
            {"label": lab, "path": list(path), "level": level}
            for lab, path, level in zip(sample.entity_labels, sample.paths, sample.levels)
        ],
    }


def _indicators_path(path) -> FsPath:
    return FsPath(path).with_suffix(".indicators.npy")


def write_sample_json(sample: PosteriorSample, path) -> list[FsPath]:
    """Write the sample as JSON, and its indicators (if any) beside it; return the files."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sample_to_dict(sample), fh, indent=2, sort_keys=True)
        fh.write("\n")
    written = [FsPath(path)]
    if sample.indicators is not None:
        written.append(_indicators_path(path))
        np.save(written[-1], sample.indicators.astype(np.uint8))
    return written


def load_sample_json(path) -> PosteriorSample:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    entities = doc["entities"]
    n = len(entities)
    paths = [tuple(e["path"]) for e in entities]
    levels = [int(e["level"]) for e in entities]
    depth = len(paths[0]) if paths else 0
    for e, entity_path, level in zip(entities, paths, levels):
        if len(entity_path) != depth:
            raise ValueError(f"entity {e['label']!r} has a path of length {len(entity_path)}, expected {depth}")
        if not 1 <= level <= depth:
            raise ValueError(f"entity {e['label']!r} has level {level}, outside 1..{depth}")
    indicators = None
    if _indicators_path(path).exists():
        indicators = np.load(_indicators_path(path)).astype(np.int64)
        if indicators.shape != (n, n, 2):
            raise ValueError(f"indicators file has shape {indicators.shape}, expected {(n, n, 2)}")
        if n and not 1 <= indicators.min() <= indicators.max() <= depth:
            raise ValueError(f"indicators file holds levels outside 1..{depth}")
    return PosteriorSample(
        iteration=int(doc["iteration"]),
        log_likelihood=float(doc["log_likelihood"]),
        tree=doc["tree"],
        entity_labels=[e["label"] for e in entities],
        paths=paths,
        levels=levels,
        indicators=indicators,
    )
