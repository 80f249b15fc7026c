"""Collapsed Gibbs engine: chain state, resampling moves, schedule, aggregation.

A state is a function of the graph and its assignment, the paths ``P`` and
the level indicators ``Z``: ``SamplerState(kg, hyper, rng, P, Z)`` builds the
state of any assignment, and ``init_state`` draws one from the prior.

The chain state keeps only what the moves read.  The entity paths ``P`` are
the whole community tree: a community exists while some path passes through
it, new communities take their ids from the counter ``next_id``, and ids are
never reused.  ``h`` derives the tree from ``P`` when it is read.  The
incremental sufficient statistics are one count row per occupied sibling pair
of communities, ``rel[(a, b)] = [n, ones_0, ..., ones_{R-1}]`` (the number of
entity pairs routed there, then the one-count of each predicate among them),
and one pooled level-indicator histogram ``ghist``, which the level prior
reads.  After the constructor, ``SamplerState._add_rows`` alone writes
``rel``; the graph is held once, as the read-only tensor ``G``.  ``rel`` is a
plain map: no move or read-out depends on the order of its rows, and
``complete_log_likelihood`` adds its terms with ``math.fsum``, exactly
rounded, so the value is a function of the counts alone.  A stored sample is
an assignment too; its tree and level modes are derived when read.  Every move
scores its candidates with the collapsed formulas and the level model in
``stats``, against the counts with the moved contributions left out, and then
writes the chosen configuration; ``audit_counts`` compares the incremental
statistics with those of the state rebuilt from ``P`` and ``Z``.  Candidate
scoring runs in log space, and the log weights are shifted so that the largest
is 0 before they are exponentiated, since candidate likelihood spreads exceed
float range on dense graphs.

A sweep's level pass finds the open gates with one array comparison, in
(i, j, direction) order, draws all their uniforms in one call (the same
numbers as one draw per move), and takes the paths' E x E divergence levels
once, since no level move changes a path.  ``_level_pass`` then runs all the
moves in one loop over ``Z`` and ``P`` read as lists, and writes ``Z`` back
once.  A level move only reads the counts while it scores.  In most moves
every level routes the pair to one sibling key; the predictive likelihood is
then the same at every level and cancels, so the move draws from the level
prior alone, with the indicator left out of the histogram.  The pass
memoises that prior, with its running sums, its sum and its logs, under an
integer code of the leave-one-out histogram (its counts as the digits of a
base-(2E² + 1) number), so a move whose histogram recurs draws with one
``bisect``; the memo holds at most ``PRIOR_MEMO`` levels and ends with the
pass, so a state held between sweeps keeps none of it.  Otherwise the move
leaves the pair and the indicator out in the arithmetic and scores one
predictive likelihood per distinct key, from the log lists in ``stats``.
The levels a pair is read at, per divergence level and other indicator, are
worked out on first read and kept.  A move writes the counts only when the
drawn level routes the pair to another key: one ``_add_rows`` call moves its
``[1, g]`` row.

A path move reads the entity's 2E - 1 pairs and their graph rows once, takes
them out of the counts (one ``route_pairs`` call and one ``_add_rows`` call),
scores all of its candidates in one pass over the tree the other entities'
paths span, as arrays, then writes the chosen path and adds the
pairs back the same way.  The scorer reads each pair's ``route_level`` at
every level where a candidate can leave the other entity's path.  Under a
candidate, each pair lands on a sibling key of one node of that path or on the
node's diagonal key, so the collapsed evidence is a sum of per-node terms (the
sibling keys a node shares with the other children of its parent, and its
diagonal key), computed once per move in one batched
``stats.log_evidence_terms`` call.  The log nCRP prior is a sum of per-node
terms too, from the pass counts.  An existing leaf scores the sum along its
path, corrected at the diagonal keys that other entities on that leaf reach; a
new branch below community p scores p's path sum plus one sibling term for the
children of p it would join.  The candidates are ordered as a depth-first walk
of the tree (children by ascending id, a community's new branch after its
children) by one sort of their padded paths, and one uniform picks among them;
the chosen row's new levels take the next ids, top down.

``level_conditional`` and ``path_conditional`` return a move's exact
conditional without making the move, so the paths, indicators and counts of
the state they are given are never written: the level probe reads the level
pass's scorer (``_level_prior`` and ``_level_log_weights``), and the path
probe removes and scores on a state built from the same assignment.

One chain owns one state exclusively; the full conditionals are sequential,
so there is no intra-chain parallelism.  Independent chains differ only in
their seeds; ``run_chains`` runs them in parallel worker processes and yields
their results in chain order.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
from bisect import bisect_right
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, chain
from operator import mul
from pathlib import Path as FsPath

import numpy as np

from . import stats, synth
from .hierarchy import Hierarchy, Path, PathSpec, divergence_levels, route_level, route_pairs
from .kgraph import DegreeTable, KnowledgeGraph, degree_table
from .stats import MAX_DEPTH, Hyperparameters

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
    "audit_counts",
    "write_trace_csv",
    "write_sample_json",
    "load_sample_json",
    "sample_to_dict",
]

Trace = list  # list of (iteration, complete log-likelihood) pairs

SENDER = 0
RECEIVER = 1
NEW = np.iinfo(np.int64).max  # a path move's candidate row holds this where it branches new
PRIOR_MEMO = 256  # levels of leave-one-out priors (entries x depth) a level pass keeps before it empties its memo
MAX_ID = 2**31 - 1  # the largest community id a stored sample may hold: ``route_pairs`` packs two ids into one int64


@dataclass(frozen=True)
class PosteriorSample:
    """Immutable snapshot of one retained Gibbs sample: its assignment, the paths and the level indicators.

    ``indicators`` is the E x E x 2 level-indicator tensor that every readout
    routes pairs by; on disk it is a uint8 ``<stem>.indicators.npy`` beside
    the JSON file.  The tree the paths span and each entity's level mode are
    derived from the assignment when first read.
    """

    iteration: int
    log_likelihood: float
    entity_labels: list[str]
    paths: list[Path]
    indicators: np.ndarray = field(compare=False, repr=False)

    @cached_property
    def tree(self) -> dict:
        """The community tree the paths span, as ``Hierarchy.to_dict`` nests it."""
        return Hierarchy(self.paths).to_dict()

    @cached_property
    def levels(self) -> list[int]:
        """Each entity's mode over its incident indicators, ties toward the shallower level."""
        return _level_modes(self.indicators)


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    message: str = ""


class SamplerState:
    """Mutable Markov-chain state of one assignment of entity paths and level indicators.

    It copies ``paths`` (E x depth community ids >= 1) and ``Z`` (E x E x 2
    levels in 1..depth), so the caller's arrays are never written, and builds
    the rest from them and the graph: read-only ``G``, ``rel`` (which only
    ``_add_rows`` writes after that), ``ghist`` and ``next_id = max(paths) + 1``.
    The moves draw from ``rng`` and work out the paths' divergence levels where
    they read them, and ``_level_cells`` keeps the routing cells the level
    moves have read.  The paths are taken to span a tree; ``audit_counts``
    checks that.
    """

    def __init__(self, kg: KnowledgeGraph, hyper: Hyperparameters, rng: np.random.Generator, paths, Z):
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
        self.P = np.array(paths, dtype=np.int64)
        self.Z = np.array(Z, dtype=np.int64)
        if self.P.shape != (self.E, self.L) or self.Z.shape != (self.E, self.E, 2):
            raise ValueError(
                f"paths of shape {self.P.shape} and indicators of shape {self.Z.shape} do not fit "
                f"{self.E} entities at depth {self.L}"
            )
        if self.P.min() < 1 or not 1 <= self.Z.min() <= self.Z.max() <= self.L:
            raise ValueError(f"paths must hold community ids >= 1 and indicators levels in 1..{self.L}")

        self.G = kg.dense_tensor()
        self.G.flags.writeable = False

        self.next_id = int(self.P.max()) + 1
        self._level_cells: dict[int, tuple[list[int], list[int]]] = {}  # see _level_cell

        pairs, _, ones, totals = _routed_counts(self.P, self.Z, kg.triples, self.R)
        self.rel: dict[tuple[int, int], list[int]] = dict(
            zip(map(tuple, pairs.tolist()), np.column_stack([totals, ones]).tolist())
        )
        self.ghist = np.bincount(self.Z.ravel(), minlength=self.L + 1).tolist()

        self.iteration = 0
        self.trace: Trace = []

    @property
    def h(self) -> Hierarchy:
        """The community tree, a view of the paths."""
        return Hierarchy(self.P)

    # -- incremental counts ----------------------------------------------

    def _add_rows(self, keys, deltas) -> None:
        """Add each delta row to its sibling key's ``rel`` row, as a new list; drop a row left with no pairs."""
        rel, empty = self.rel, [0] * (self.R + 1)
        for key, delta in zip(keys, deltas):
            row = [c + v for c, v in zip(rel.get(key, empty), delta)]
            if row[0]:
                rel[key] = row
            else:
                del rel[key]

    def _entity_pairs(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entity i's 2E - 1 pairs (x, y) and their ``[1, g...]`` rows: (i, j), then (j, i) over j != i, then (i, i)."""
        others = np.flatnonzero(np.arange(self.E) != i)
        mine = np.full(len(others), i)
        x, y = np.concatenate([mine, others, [i]]), np.concatenate([others, mine, [i]])
        return x, y, np.column_stack([np.ones(len(x), dtype=np.int64), self.G[x, y]])

    def _entity_pairs_apply(self, pairs: tuple, sign: int) -> None:
        """Add or remove ``_entity_pairs``' rows: routed by ``route_pairs``, summed per sibling key, written by ``_add_rows``."""
        x, y, rows = pairs
        keys, index = route_pairs(self.P, self.Z[x, y, SENDER], self.Z[x, y, RECEIVER], x, y)
        self._add_rows(map(tuple, keys.tolist()), (sign * _sum_rows(index, rows, len(keys))).tolist())

    # -- conditional distributions ----------------------------------------

    def _level_cell(self, div: int, other: int) -> tuple[list[int], list[int]]:
        """The levels a pair diverging at ``div`` is read at, against the other indicator at ``other``.

        Returns the distinct ``route_level`` values over levels 1..L of the
        moving indicator, in first-appearance order, and each level's index
        among them; either direction, since ``route_level`` is symmetric.
        Built on first read and kept under ``div * (L + 1) + other``, so a
        state holds only the cells its moves meet.
        """
        key = div * (self.L + 1) + other
        cell = self._level_cells.get(key)
        if cell is None:
            routes = route_level(np.arange(1, self.L + 1), other, div, self.L)
            cell = self._level_cells[key] = _by_route(routes.tolist())
        return cell

    def _level_prior(self, cur: int) -> tuple[list[float], list[float], float, list[float]]:
        """``stats.level_prior`` of the histogram with one indicator at level ``cur`` left out.

        Returns the prior, its running sums, its ``sum`` and its logs (-inf
        where it is 0): what a level move reads of it.
        """
        hist = self.ghist[1:]
        hist[cur - 1] -= 1
        prior = stats.level_prior(hist, self.hyper)
        logs = [math.log(p) if p > 0 else -math.inf for p in prior]
        return prior, list(accumulate(prior)), sum(prior), logs

    def _level_log_weights(
        self, i: int, j: int, Pi: list[int], Pj: list[int], cur: int, cell: tuple, logs: list[float]
    ) -> tuple[list[float], list[tuple], list[int]]:
        """Log weights of levels 1..L of an indicator of pair (i, j) whose levels reach two or more sibling keys.

        ``Pi`` and ``Pj`` are the pair's paths, ``cur`` the indicator's level,
        ``cell`` its ``_level_cell`` and ``logs`` its leave-one-out log prior.
        Each key scores one ``level_log_likelihood``, the pair's own key with
        the pair left out in the arithmetic; a level's log weight is its log
        prior plus its key's.  Also returns the keys and the pair's graph row
        ``G[i, j]``, which a move that changes key writes.
        """
        routes, key_of = cell
        keys = [(Pi[m - 1], Pj[m - 1]) for m in routes]
        own = key_of[cur - 1]
        g = self.G[i, j].tolist()
        rel, empty = self.rel, [0] * (self.R + 1)
        lam, eta = self.hyper.lam, self.hyper.eta
        lls = [stats.level_log_likelihood(g, rel.get(key, empty), k == own, lam, eta) for k, key in enumerate(keys)]
        return [lp + lls[k] for lp, k in zip(logs, key_of)], keys, g

    def _path_node_scores(self, i: int, pairs: tuple) -> tuple[np.ndarray, np.ndarray]:
        """Candidate paths of entity i and their log weights, from per-node sums along each path.

        ``pairs`` are ``_entity_pairs(i)``, and entity i must be out of the
        counts.  Its path is not read: the candidates continue the tree the
        other entities' paths span, so a community that only entity i passes
        through is no candidate.  Each candidate is a row of community ids,
        ``NEW`` from the level where it branches new; the rows come in the
        order of a depth-first walk of the tree, children by ascending id and
        a community's new branch after its children.  Each log weight is the
        log nCRP prior plus the collapsed evidence of all of the entity's
        interactions (both directions, all predicates, the self pair once)
        routed under the candidate at the current indicators.

        Take a candidate path c and another entity j whose path leaves c at
        level d (L+1 on j's leaf).  ``route_level`` gives, for every d at once,
        the level M(d) <= d a pair of i and j is read at: at M(d) = d the
        sibling key of c_d and P[j]_d, below d the diagonal key of the node
        both paths share there.  A pair is in that node's diagonal term, P[j]
        at M(L+1), when every candidate through the node reads it there, and
        otherwise in a correction on j's leaf.  The self pair lands on
        (c_m, c_m), m its level at d = L+1.  No two of these keys coincide, so
        the evidence is one term per node of c: the sibling keys it shares
        with the other children of its parent, and its diagonal key.  The log
        nCRP prior is a sum along c too: log n_x / (n_parent + gamma) per node
        x, from the other entities' pass counts, and log gamma / (n_p + gamma)
        where c branches new below community p.  Prefix sums down the tree
        then score every existing leaf and every new branch at once.
        """
        L, R = self.L, self.R
        x, y, rows = pairs
        n = self.E - 1  # the other entities are y[:n], in ascending order
        nodes, Q = np.unique(self.P[y[:n]], return_inverse=True)
        Q = Q.reshape(n, L)  # community index per other entity and level
        N = len(nodes)
        level = np.zeros(N + 1, dtype=np.int64)  # index N is the root, at level 0
        level[Q] = np.arange(1, L + 1)
        parent = np.full(N, N)
        parent[Q[:, 1:]] = Q[:, :-1]

        # M[p, d-1]: the level pair p is read at if the candidate leaves its other entity's path at d
        d = np.arange(1, L + 2)
        M = route_level(self.Z[x, y, SENDER][:, None], self.Z[x, y, RECEIVER][:, None], d, L)
        m, own, M, W = M[-1, L], rows[-1:], M[:-1], rows[:-1]  # the self pair apart
        j = np.tile(np.arange(n), 2)  # each pair's other entity, as a row of Q

        # S[0, s], S[1, s]: rows that reach sibling s at its level, out and in
        keep = M[:, :L] == d[:L]
        at = (np.repeat([0, N], n)[:, None] + Q[j])[keep]
        S = _sum_rows(at, np.broadcast_to(W[:, None, :], keep.shape + (R + 1,))[keep], 2 * N).reshape(2, N, R + 1)
        # diagonal rows: pairs that every candidate through their node reads there, and the self pair
        node = Q[j, M[:, L] - 1]
        diag = np.all((M == M[:, L:]) | (d <= M[:, L:]), axis=1)
        diag_rows = _sum_rows(node[diag], W[diag], N)
        diag_rows[level[:N] == m] += own
        # the other pairs reach their node's diagonal only on j's leaf: keyed by (leaf, node)
        split = ~diag
        fix_keys, fix_at = np.unique(Q[j[split], L - 1] * N + node[split], return_inverse=True)
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
        pair_base = _rows([rel.get(k, empty) for k in pair_keys], R + 1)
        diag_base = _rows([rel.get((x, x), empty) for x in ids], R + 1)
        no_counts = np.zeros((2 * N + 1, R + 1), dtype=np.int64)  # a new branch's keys hold none
        base = np.concatenate([pair_base, pair_base, diag_base, no_counts, diag_base[fix_node]])
        added = np.concatenate([S[0, b], S[1, a], diag_rows, S[0], S[1], own, fix_rows])
        t = stats.log_evidence_terms(base, added, self.hyper.lam, self.hyper.eta)
        out_ab, in_ab, diag, new_out, new_in, new_own, fixed = np.split(t, np.cumsum([len(a), len(a), N, N, N, 1]))

        # (a, b) serves candidate node a against sibling b's pairs (i, j),
        # and candidate node b against sibling a's pairs (j, i)
        node_term = np.bincount(a, out_ab, N) + np.bincount(b, in_ab, N) + diag
        # nCRP prior: pass counts of the other entities, the root's at index N
        npass = np.append(np.bincount(Q.ravel(), minlength=N), n)
        log_denom = np.log(npass + self.hyper.gamma)
        node_term += np.log(npass[:N]) - log_denom[parent]
        prefix = np.zeros(N + 1)
        prefix[Q] = np.cumsum(node_term[Q], axis=1)
        leaf_score = prefix[:N] + np.bincount(fix_leaf, fixed - diag[fix_node], N)
        new_score = prefix + np.bincount(parent, new_out + new_in, N + 1) + np.where(level < m, new_own, 0.0)
        new_score += math.log(self.hyper.gamma) - log_denom

        # candidates: every leaf, and a new branch below the root and below every
        # community above the leaves; row x of ``prefix_ids`` is x's path, then NEW
        through = np.empty(N, dtype=np.int64)  # an entity whose path passes x
        through[Q] = np.arange(n)[:, None]
        prefix_ids = np.full((N + 1, L), NEW)
        prefix_ids[:N] = np.where(np.arange(L) < level[:N, None], nodes[Q[through]], NEW)
        leaves, inner = np.flatnonzero(level == L), np.flatnonzero(level < L)
        paths = prefix_ids[np.concatenate([leaves, inner])]
        walk = np.lexsort(paths.T[::-1])  # NEW sorts after every id, so a new branch follows the children
        return paths[walk], np.concatenate([leaf_score[leaves], new_score[inner]])[walk]


def _routed_counts(P: np.ndarray, Z: np.ndarray, triples: np.ndarray, R: int):
    """Route every pair of ``P`` at indicators ``Z`` and count the graph's ones per sibling pair.

    ``triples`` holds the graph's ones as (subject, object, predicate) rows,
    subjects and objects indexing the rows of ``P``, each cell at most once;
    ``R`` is the number of predicates.  One all-pairs ``route_pairs`` call
    routes in O(E^2), and one ``bincount`` of ``index[s, o] * R + r`` counts
    the ones in O(T), so no E x E x R array is read.  Returns the K pairs
    (sorted), the E x E index, the K x R one-counts and the K totals.
    """
    e = np.arange(len(P))
    pairs, index = route_pairs(P, Z[:, :, SENDER], Z[:, :, RECEIVER], e[:, None], e[None])
    K = len(pairs)
    s, o, r = triples.T
    ones = np.bincount(index[s, o] * R + r, minlength=K * R).reshape(K, R)
    totals = np.bincount(index.ravel(), minlength=K)
    return pairs, index, ones, totals


def _by_route(routes: list) -> tuple[list, list[int]]:
    """The distinct entries of ``routes`` in first-appearance order, and each entry's index among them."""
    distinct = list(dict.fromkeys(routes))
    return distinct, [distinct.index(r) for r in routes]


def _rows(rows: list[list[int]], width: int) -> np.ndarray:
    """The integer lists ``rows``, each ``width`` long, as one int64 array (faster than ``np.array``)."""
    return np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=len(rows) * width).reshape(-1, width)


def _sum_rows(index: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """Sum the integer rows of ``rows`` into ``size`` bins by ``index``."""
    C = rows.shape[-1]
    cells = (index[:, None] * C + np.arange(C)).ravel()
    return np.bincount(cells, rows.ravel(), size * C).astype(np.int64).reshape(size, C)


def _weights_from_logs(logw) -> list[float]:
    """Linear weights proportional to ``exp(logw)``, the largest exactly 1."""
    m = max(logw)
    return [math.exp(v - m) for v in logw]


def _categorical(u: float, w: list[float]) -> int:
    """The index that uniform ``u`` picks with probability proportional to the non-negative weights ``w``.

    The first index whose running sum exceeds ``u`` times the total.
    """
    u *= sum(w)
    acc = 0.0
    for k, v in enumerate(w):
        acc += v
        if u < acc:
            return k
    return len(w) - 1


def _spec(path: np.ndarray) -> PathSpec:
    """The spec of a candidate row: its ids, None for NEW."""
    return tuple(None if c == NEW else c for c in path.tolist())


# -- public operations -----------------------------------------------------


def init_state(kg: KnowledgeGraph, hyper: Hyperparameters, rng: np.random.Generator) -> SamplerState:
    """The state of an assignment drawn from the prior.

    The paths are seated on the nested CRP in entity order, then every
    indicator is drawn i.i.d. from the zero-count level prior with one
    ``rng.random((E, E, 2))`` call; ``SamplerState`` builds the rest.
    """
    hyper.validate()
    paths = synth.sample_ncrp_paths(kg.num_entities, hyper.depth, hyper.gamma, rng)
    cum = np.cumsum(stats.level_prior([0] * hyper.depth, hyper))
    Z = np.searchsorted(cum, rng.random((kg.num_entities, kg.num_entities, 2))) + 1
    np.clip(Z, 1, hyper.depth, out=Z)
    return SamplerState(kg, hyper, rng, paths, Z)


def _level_pass(state: SamplerState, moves: list[int], uniforms: list[float], divs: list[int]) -> None:
    """Resample the level indicators ``moves`` in order, in place; move k reads ``uniforms[k]``.

    Each move is a flat index (i * E + j) * 2 + direction into ``Z``, and
    ``divs[k]`` is the level at which pair (i, j)'s paths diverge; no level
    move changes a path.  The pass reads ``Z`` and ``P`` as lists and writes
    ``Z`` back once at the end.  It memoises ``_level_prior`` under the
    leave-one-out histogram's code, its counts as the digits of a
    base-(2E² + 1) number (every count is smaller), which it keeps up to date
    as levels change; the memo is emptied when its entries hold
    ``PRIOR_MEMO`` levels, and it ends with the pass.  A move whose levels
    all route the pair to one key draws from that prior alone: the first
    level whose running sum exceeds ``u`` times the prior's ``sum``, as
    ``_categorical`` picks.  Otherwise it draws from ``_level_log_weights``.
    It writes the counts only when the drawn level routes the pair to
    another key: one ``_add_rows`` call moves its ``[1, g]`` row.
    """
    E, L = state.E, state.L
    Z = state.Z.ravel().tolist()
    P = state.P.tolist()
    ghist, cells = state.ghist, state._level_cells
    powers = [(2 * E * E + 1) ** l for l in range(L)]
    code = sum(map(mul, ghist[1:], powers))
    priors: dict[int, tuple] = {}
    for m, u, div in zip(moves, uniforms, divs):
        cur, other = Z[m], Z[m ^ 1]
        left_out = code - powers[cur - 1]
        entry = priors.get(left_out)
        if entry is None:
            if len(priors) * L >= PRIOR_MEMO:
                priors.clear()
            entry = priors[left_out] = state._level_prior(cur)
        prior, cums, total, logs = entry
        cell = cells.get(div * (L + 1) + other) or state._level_cell(div, other)
        if len(cell[0]) == 1:
            new = bisect_right(cums, u * total) + 1
            if new > L:
                new = L
        else:
            i, j = divmod(m >> 1, E)
            logw, keys, g = state._level_log_weights(i, j, P[i], P[j], cur, cell, logs)
            new = _categorical(u, _weights_from_logs(logw)) + 1
        if new == cur:
            continue
        Z[m] = new
        ghist[cur] -= 1
        ghist[new] += 1
        code += powers[new - 1] - powers[cur - 1]
        key_of = cell[1]
        was, now = key_of[cur - 1], key_of[new - 1]
        if now != was:
            row = [1, *g]
            state._add_rows((keys[was], keys[now]), ([-v for v in row], row))
    state.Z[...] = np.reshape(Z, state.Z.shape)


def sample_level_indicator(state: SamplerState, i: int, j: int, direction: int) -> None:
    """Resample one level indicator of the ordered pair (i, j) in place: ``_level_pass`` on one move.

    ``direction`` 0 resamples the sender's level, 1 the receiver's.  A level
    is drawn from prior times predictive likelihood, both read with the
    indicator and its pair left out of the counts; when every level routes
    the pair to one sibling key the likelihood cancels and the prior alone is
    drawn from.  The pair's counts are written only when the drawn level
    routes it to another sibling key.  The draw reads one uniform from the
    state's generator, as each move of ``gibbs_iteration``'s level pass does.
    """
    if state.L > 1:
        div = int(divergence_levels(state.P[i], state.P[j]))
        _level_pass(state, [(i * state.E + j) * 2 + direction], [state.rng.random()], [div])


def _normalized(w) -> np.ndarray:
    w = np.asarray(w)
    return w / w.sum()


def level_conditional(state: SamplerState, i: int, j: int, direction: int) -> np.ndarray:
    """Exact conditional distribution of one indicator, over levels 1..L.

    The levels are scored as ``_level_pass`` scores them, from
    ``_level_prior`` and ``_level_log_weights``, which write no count, path
    or indicator of the state passed in.
    """
    if state.L == 1:
        return np.ones(1)
    cur, other = state.Z.item(i, j, direction), state.Z.item(i, j, 1 - direction)
    prior, _, _, logs = state._level_prior(cur)
    cell = state._level_cell(int(divergence_levels(state.P[i], state.P[j])), other)
    if len(cell[0]) == 1:
        return _normalized(prior)
    Pi, Pj = state.P[i].tolist(), state.P[j].tolist()
    return _normalized(_weights_from_logs(state._level_log_weights(i, j, Pi, Pj, cur, cell, logs)[0]))


def sample_path(state: SamplerState, i: int) -> None:
    """Resample entity i's path in place.

    The entity's pair contributions are removed, every candidate continuation
    of the tree the other entities' paths span is scored by prior times
    collapsed likelihood, one uniform picks a candidate, and the chosen row is
    written to the entity's path, each ``NEW`` level taking the next id, top
    down.  A community no path passes through any more is gone; its id is
    never used again.
    """
    pairs = state._entity_pairs(i)
    state._entity_pairs_apply(pairs, -1)
    paths, logw = state._path_node_scores(i, pairs)
    path = paths[_categorical(state.rng.random(), np.exp(logw - logw.max()).tolist())]
    new = np.flatnonzero(path == NEW)
    path[new] = state.next_id + np.arange(len(new))
    state.next_id += len(new)
    state.P[i] = path
    state._entity_pairs_apply(pairs, +1)


def path_conditional(state: SamplerState, i: int) -> tuple[list[PathSpec], np.ndarray]:
    """Candidate path specs and their exact conditional probabilities.

    The entity is removed and the candidates scored, as ``sample_path`` would,
    on a probe built from the state's paths and indicators, so the specs name
    communities of the other entities' paths; the state passed in is never
    written.
    """
    probe = SamplerState(state.kg, state.hyper, state.rng, state.P, state.Z)
    pairs = probe._entity_pairs(i)
    probe._entity_pairs_apply(pairs, -1)
    paths, logw = probe._path_node_scores(i, pairs)
    return [_spec(p) for p in paths], _normalized(np.exp(logw - logw.max()))


def gibbs_iteration(state: SamplerState, degrees: DegreeTable) -> None:
    """One sweep: degree-gated indicator updates, then degree-gated path updates.

    For each ordered pair (i, j) the sender indicator is resampled with
    probability ``s_i`` and the receiver indicator with ``s_j``; each entity's
    path is then resampled with probability ``s_i``.  Appends one trace entry.

    The level pass draws all 2E² gates, finds the open ones in (i, j,
    direction) order, and draws their uniforms in one call, which yields the
    same numbers as one draw per move; one ``_level_pass`` call then runs the
    moves, each reading its own.  So the stream is the one that
    ``sample_level_indicator`` called on each open gate in that order would
    read.
    """
    E = state.E
    s = degrees.sampling_prob
    gates = state.rng.random((E, E, 2))  # drawn at any depth, so depth 1 keeps the RNG stream
    if state.L > 1:  # a single level leaves no indicator to move
        thresholds = np.stack(np.broadcast_arrays(s[:, None], s[None, :]), axis=2)
        moves = np.flatnonzero(gates < thresholds)
        uniforms = state.rng.random(len(moves)).tolist()
        div = divergence_levels(state.P[:, None, :], state.P[None, :, :])  # no level move changes a path
        _level_pass(state, moves.tolist(), uniforms, div.ravel()[moves >> 1].tolist())
    path_gates = state.rng.random(E)
    for i in range(E):
        if path_gates[i] < s[i]:
            sample_path(state, i)
    state.iteration += 1
    state.trace.append((state.iteration, complete_log_likelihood(state)))


def complete_log_likelihood(state: SamplerState) -> float:
    """Joint log density of the graph and the uncollapsed latents.

    Three terms: the collapsed Bernoulli-Beta evidence of each sibling pair's
    count row, the nCRP probability of the tree, and the collapsed
    level-indicator marginal (pooled over the indicator histogram; exactly
    zero when the tree has a single level).  The nCRP is exchangeable, so its
    term is a product over parents p with children c and pass counts n,
    gamma^K Gamma(gamma) prod_c Gamma(n_c) / Gamma(n_p + gamma), read from the
    pass counts of the communities (ids are unique across levels) and of the
    root, E.  Every term is a function of counts alone, and ``math.fsum``
    adds them exactly rounded, so the value does not depend on entity or
    community ids, nor on the order of ``rel``'s rows.
    """
    hyper = state.hyper
    rows = np.array(list(state.rel.values()), dtype=np.int64)
    evidence = stats.log_evidence_terms(np.zeros_like(rows), rows, hyper.lam, hyper.eta)

    gamma, lgamma = hyper.gamma, math.lgamma
    log_gamma, lgamma_gamma = math.log(gamma), lgamma(gamma)
    passes = np.unique(state.P, return_counts=True)[1].tolist()
    parents = np.unique(state.P[:, :-1], return_counts=True)[1].tolist() + [state.E]
    tree = [lgamma(n) + log_gamma for n in passes] + [lgamma_gamma - lgamma(n + gamma) for n in parents]

    level = stats.level_log_marginal(state.ghist[1:], hyper)
    return math.fsum(chain(evidence.tolist(), tree, [level]))


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
    again.  One worker runs the same per-chain function in this process.
    Each result is yielded once it and every chain before it have ended.  A
    chain that raises, or a worker that dies, ends the iteration with
    ``ChainError`` at that chain's turn; the pool cancels only the chains it
    has not yet queued for a worker (it queues up to workers + 1 at once)
    and waits for the rest to end before the error leaves it.
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
    """The state's assignment, copied: its paths and indicators, with its last traced log-likelihood."""
    ll = state.trace[-1][1] if state.trace else complete_log_likelihood(state)
    return PosteriorSample(
        iteration=state.iteration,
        log_likelihood=float(ll),
        entity_labels=list(state.kg.entity_labels),
        paths=[tuple(int(c) for c in row) for row in state.P],
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
    """Posterior-mean relation degree per occupied sibling pair (a, b) and predicate r: ``take_sample(state)``'s."""
    return relations_from_sample(take_sample(state), state.kg, lam, eta)


def _level_modes(Z: np.ndarray) -> list[int]:
    """Each entity's mode over its incident indicators, ties toward the shallower level.

    Entity e's indicators are both of every pair in row e and column e of
    ``Z``, the self pair counted once; its bins are e*(L+1) + level, L = max(Z).
    """
    E, L1 = len(Z), int(Z.max(initial=1)) + 1
    idx = np.arange(E)
    own = idx[:, None] * L1
    bins = (own[:, :, None] + Z, own.T[:, :, None] + Z, own + Z[idx, idx])
    row, col, diag = (np.bincount(b.ravel(), minlength=E * L1) for b in bins)
    return ((row + col - diag).reshape(E, L1)[:, 1:].argmax(axis=1) + 1).tolist()


def audit_counts(state: SamplerState) -> AuditReport:
    """Check the tree the paths span, then compare the incremental state with one rebuilt from its assignment.

    Each community must sit at one level under one parent, and every id must
    lie below ``next_id``.  The count rows ``rel`` and the level histogram
    ``ghist`` must equal those of ``SamplerState`` built from the state's
    paths and indicators.
    """
    try:
        state.h.to_dict()
    except ValueError as exc:
        return AuditReport(False, f"paths span no tree: {exc}")
    if state.P.max() >= state.next_id:
        return AuditReport(False, f"community {state.P.max()} is not below next_id {state.next_id}")
    try:
        fresh = SamplerState(state.kg, state.hyper, state.rng, state.P, state.Z)
    except ValueError as exc:
        return AuditReport(False, f"the assignment builds no state: {exc}")
    empty = [0] * (state.R + 1)
    for key in sorted(set(fresh.rel) | set(state.rel)):
        want = fresh.rel.get(key, empty)
        have = state.rel.get(key, empty)
        if want != have:
            return AuditReport(False, f"relation counts differ at pair {key}: recount {want}, incremental {have}")
    if fresh.ghist != state.ghist:
        return AuditReport(False, f"global level histogram differs: recount {fresh.ghist}, incremental {state.ghist}")
    return AuditReport(True)


# -- sample readouts ---------------------------------------------------------


def _sample_means(sample: PosteriorSample, kg: KnowledgeGraph, lam: float, eta: float):
    """Pairs routed at a sample's stored indicators, their E x E index and the K x R posterior means.

    The graph's entities may be a superset of the sample's, in any order: the
    ones among the sample's entities are counted at their sample positions.
    """
    missing = [lab for lab in sample.entity_labels if lab not in kg.entities]
    if missing:
        raise ValueError(f"sample entities missing from the graph: {missing}")
    gid = [kg.entities[lab] for lab in sample.entity_labels]
    n, R = len(gid), kg.num_predicates
    if len(set(gid)) < n:
        raise ValueError("sample entity labels repeat")
    if n == 0:
        return np.empty((0, 2), dtype=np.int64), np.empty((0, 0), dtype=np.int64), np.empty((0, R))
    at = np.full(kg.num_entities, -1)  # sample position of each graph entity, -1 if not in the sample
    at[gid] = np.arange(n)
    s, o = at[kg.triples[:, 0]], at[kg.triples[:, 1]]
    inside = (s >= 0) & (o >= 0)
    cells = np.column_stack([s[inside], o[inside], kg.triples[inside, 2]])
    pairs, index, ones, totals = _routed_counts(sample.paths, sample.indicators, cells, R)
    return pairs, index, (ones + lam) / (totals[:, None] + lam + eta)


def relations_from_sample(sample: PosteriorSample, kg: KnowledgeGraph, lam: float, eta: float) -> dict:
    """Posterior-mean relation degrees reconstructed from a stored sample.

    Every ordered pair is routed through the sample's paths at its stored
    level indicators; counts come from the graph.
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
    """Write the sample as JSON and its indicators beside it; return both files."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sample_to_dict(sample), fh, indent=2, sort_keys=True)
        fh.write("\n")
    indicators_path = _indicators_path(path)
    np.save(indicators_path, sample.indicators.astype(np.uint8))
    return [FsPath(path), indicators_path]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_sample_json(path) -> PosteriorSample:
    """Read a sample that ``write_sample_json`` wrote: the JSON file and the indicators file beside it.

    Raises ``ValueError`` for files that hold no such sample: JSON too deep
    to parse or of the wrong shape, paths of unequal length or of more than
    ``MAX_DEPTH`` levels, a missing indicators file or one that holds no .npy
    array of E x E x 2 levels in 1..depth, or a tree or an entity level other
    than the one derived from the paths and indicators.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"sample {path} is nested too deeply to read") from exc
    if not (isinstance(doc, dict) and isinstance(doc.get("entities"), list) and _is_int(doc.get("iteration"))
            and isinstance(doc.get("log_likelihood"), (int, float))):
        raise ValueError('a sample is a JSON object with an integer "iteration", a "log_likelihood" and an "entities" list')
    entities = doc["entities"]
    for e in entities:
        if not (isinstance(e, dict) and isinstance(e.get("label"), str) and _is_int(e.get("level"))
                and isinstance(e.get("path"), list) and all(_is_int(c) and 0 < c <= MAX_ID for c in e["path"])):
            raise ValueError(
                f"sample entity {e!r} needs a string label, an integer level and a path of community ids in 1..{MAX_ID}"
            )
    n = len(entities)
    paths = [tuple(e["path"]) for e in entities]
    depth = len(paths[0]) if paths else 0
    if depth > MAX_DEPTH:
        raise ValueError(f"sample paths have {depth} levels, more than {MAX_DEPTH}")
    for e, entity_path in zip(entities, paths):
        if len(entity_path) != depth:
            raise ValueError(f"entity {e['label']!r} has a path of length {len(entity_path)}, expected {depth}")
    indicators_path = _indicators_path(path)
    try:
        with open(indicators_path, "rb") as fh:
            indicators = np.lib.format.read_array(fh).astype(np.int64)
    except FileNotFoundError as exc:
        raise ValueError(f"indicators file {indicators_path} is missing") from exc
    except ValueError as exc:  # empty, not .npy, truncated, or object data
        raise ValueError(f"indicators file {indicators_path} holds no .npy array: {exc}") from exc
    if indicators.shape != (n, n, 2):
        raise ValueError(f"indicators file has shape {indicators.shape}, expected {(n, n, 2)}")
    if n and not 1 <= indicators.min() <= indicators.max() <= depth:
        raise ValueError(f"indicators file holds levels outside 1..{depth}")
    sample = PosteriorSample(
        iteration=doc["iteration"],
        log_likelihood=float(doc["log_likelihood"]),
        entity_labels=[e["label"] for e in entities],
        paths=paths,
        indicators=indicators,
    )
    if doc.get("tree") != sample.tree:
        raise ValueError("the sample's tree is not the tree its entity paths span")
    for e, level in zip(entities, sample.levels):
        if e["level"] != level:
            raise ValueError(f"entity {e['label']!r} has level {e['level']}, not its indicators' mode {level}")
    return sample
