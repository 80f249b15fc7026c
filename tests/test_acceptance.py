"""Acceptance suite: one test per release criterion, each printing a verdict line.

Criteria 5, 6 and 8 share one set of five fitted chains on the reduced
synthetic benchmark (depth 3, 10 entities per leaf, 80 entities, ancestor
probabilities 0.1/0.4/0.6, two predicates, 100 iterations per chain), so the
fixture is module-scoped.  The full-size benchmark reproduction is a separate
opt-in test under ``--run-slow``.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import simpson

from hiersbm import metrics, sampler, synth
from hiersbm.cli import main as cli_main
from hiersbm.kgraph import KnowledgeGraph, degree_table
from hiersbm.sampler import (
    aggregate,
    audit_counts,
    gibbs_iteration,
    init_state,
    level_conditional,
    path_conditional,
    predicted_edge_probabilities,
    run_chains,
)
from hiersbm.stats import (
    Hyperparameters,
    Schedule,
    beta_posterior,
    level_log_likelihood,
    log_beta_fn,
    path_log_likelihood_delta,
)

from test_sampler import joint_log_likelihood, oracle_path_candidates, random_kg


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: closed-form marginalization against numerical quadrature
# ---------------------------------------------------------------------------


def test_criterion_1_marginalization_oracles():
    started = time.time()
    grid = np.linspace(0.0, 1.0, 10001)
    rng = np.random.default_rng(101)
    worst_posterior = 0.0
    worst_delta = 0.0
    for _ in range(100):
        ones, zeros = (int(v) for v in rng.integers(0, 10, size=2))
        lam, eta = (float(v) for v in rng.integers(1, 4, size=2))
        # posterior shapes against the normalized integrand on a grid
        a, b = beta_posterior(ones, zeros, lam, eta)
        integrand = grid ** (ones + lam - 1) * (1 - grid) ** (zeros + eta - 1)
        norm = simpson(integrand, x=grid)
        inner = grid[1:-1]
        density = np.exp((a - 1) * np.log(inner) + (b - 1) * np.log(1 - inner) - log_beta_fn(a, b))
        err = np.max(np.abs(integrand[1:-1] / norm - density)) / np.max(density)
        worst_posterior = max(worst_posterior, float(err))

        # one-entity attachment delta against quadrature of the same integrand
        c1, c0 = (int(v) for v in rng.integers(0, 6, size=2))
        prior = grid ** (ones + lam - 1) * (1 - grid) ** (zeros + eta - 1)
        prior = prior / simpson(prior, x=grid)
        want = simpson(grid**c1 * (1 - grid) ** c0 * prior, x=grid)
        got = math.exp(
            path_log_likelihood_delta({"k": (ones, zeros)}, {"k": (c1, c0)}, lam, eta)
        )
        worst_delta = max(worst_delta, abs(got - want) / want)

    worst_level = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        g = rng.integers(0, 2, size=n).tolist()
        counts = [(int(rng.integers(0, 60)), int(rng.integers(0, 60))) for _ in range(n)]
        lam, eta = (float(v) for v in rng.uniform(0.3, 4.0, size=2))
        gamma_form = 1.0
        for gv, (o, z) in zip(g, counts):
            num = math.lgamma(o + gv + lam) + math.lgamma(z + (1 - gv) + eta) + math.lgamma(o + z + lam + eta)
            den = math.lgamma(o + z + 1 + lam + eta) + math.lgamma(o + lam) + math.lgamma(z + eta)
            gamma_form *= math.exp(num - den)
        simplified = math.exp(
            sum(level_log_likelihood([gv], [o], o + z, lam, eta) for gv, (o, z) in zip(g, counts))
        )
        worst_level = max(worst_level, abs(simplified - gamma_form) / gamma_form)

    elapsed = time.time() - started
    ok = worst_posterior < 1e-5 and worst_delta < 1e-5 and worst_level < 1e-12 and elapsed < 10
    report(
        "criterion 1: marginalization vs quadrature",
        ok,
        f"posterior err {worst_posterior:.2e}, delta err {worst_delta:.2e}, "
        f"level err {worst_level:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: sampling distributions equal brute-force joint enumeration
# ---------------------------------------------------------------------------


def test_criterion_2_exact_conditionals():
    started = time.time()
    worst = 0.0
    cases = 0
    for n_entities in (2, 3, 4):
        for depth in (1, 2):
            for n_pred in (1, 2):
                for seed in (0, 1):
                    kg = random_kg(n_entities, n_pred, 0.5, 100 * n_entities + 10 * depth + seed)
                    hyper = Hyperparameters(
                        gamma=0.8, mu=0.45, sigma=1.2, lam=0.9, eta=1.1, depth=depth
                    )
                    state = init_state(kg, hyper, np.random.default_rng(seed))
                    deg = degree_table(kg)
                    gibbs_iteration(state, deg)
                    paths = [tuple(int(c) for c in row) for row in state.P]

                    for i in range(n_entities):
                        specs, got = path_conditional(state, i)
                        minus = [p for k, p in enumerate(paths) if k != i]
                        assert set(specs) == oracle_path_candidates(minus, depth)
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
                        worst = max(worst, float(np.max(np.abs(got - want))))
                        cases += 1

                    if depth > 1:
                        for i in range(n_entities):
                            for j in range(n_entities):
                                for d in (0, 1):
                                    got = level_conditional(state, i, j, d)
                                    lls = []
                                    for l in range(1, depth + 1):
                                        z2 = state.Z.copy()
                                        z2[i, j, d] = l
                                        lls.append(joint_log_likelihood(kg, hyper, paths, z2))
                                    lls = np.array(lls)
                                    want = np.exp(lls - lls.max())
                                    want /= want.sum()
                                    worst = max(worst, float(np.max(np.abs(got - want))))
                                    cases += 1
    elapsed = time.time() - started
    ok = worst < 1e-9 and elapsed < 60
    report(
        "criterion 2: conditionals vs joint enumeration",
        ok,
        f"{cases} conditionals, worst abs deviation {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3: incremental counts equal a from-scratch recount after 200 sweeps
# ---------------------------------------------------------------------------


def test_criterion_3_count_audit():
    started = time.time()
    kg = random_kg(10, 2, 0.3, 33)
    hyper = Hyperparameters(gamma=1.0, mu=0.5, sigma=1.0, lam=1.0, eta=1.0, depth=3)
    state = init_state(kg, hyper, np.random.default_rng(33))
    deg = degree_table(kg)
    for _ in range(200):
        gibbs_iteration(state, deg)
    rep = audit_counts(state)
    state.h.validate()
    elapsed = time.time() - started
    ok = rep.ok and elapsed < 30
    report("criterion 3: count audit after 200 iterations", ok, rep.message or f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: synthetic benchmark calibration
# ---------------------------------------------------------------------------


def test_criterion_4_sbt_calibration():
    counts = []
    for seed in range(20):
        kg, _ = synth.generate_sbt(4, 25, [0.0, 0.1, 0.4, 0.6], 2, np.random.default_rng(seed))
        counts.append(len(kg.triples))
    lo, hi = 56000 - 600, 56000 + 600
    in_band = all(lo <= c <= hi for c in counts)
    reference_in_band = lo <= 55880 <= hi
    ok = in_band and reference_in_band
    report(
        "criterion 4: benchmark triple-count calibration",
        ok,
        f"20 seeds in [{lo}, {hi}]: min {min(counts)}, max {max(counts)}",
    )


# ---------------------------------------------------------------------------
# criteria 5, 6, 8 share five fitted chains on the reduced benchmark
# ---------------------------------------------------------------------------

REDUCED = dict(depth=3, per_leaf=10, probs=[0.1, 0.4, 0.6], predicates=2, seed=7)
FIT = dict(gamma=3.0, mu=0.5, sigma=1.0, lam=1.0, eta=1.0)
N_CHAINS = 5


@pytest.fixture(scope="module")
def reduced_fit():
    rng = np.random.default_rng(REDUCED["seed"])
    kg, truth = synth.generate_sbt(
        REDUCED["depth"], REDUCED["per_leaf"], REDUCED["probs"], REDUCED["predicates"], rng
    )
    hyper = Hyperparameters(
        depth=REDUCED["depth"],
        schedule=Schedule(iterations=100, burn_in=70, lag=3, final_samples=10, chains=N_CHAINS, seed=0),
        **FIT,
    )
    chains = []
    for samples, trace in run_chains(kg, hyper):
        point, consensus = aggregate(samples)
        chains.append({"trace": trace, "samples": samples, "point": point, "consensus": consensus})
    return kg, truth, chains


def test_criterion_5_likelihood_trend(reduced_fit):
    _, _, chains = reduced_fit
    improved = 0
    details = []
    for chain in chains:
        trace = chain["trace"]
        start = trace[0][1]
        tail = float(np.mean([ll for _, ll in trace[-10:]]))
        improved += tail > start
        details.append(f"{start:.0f}->{tail:.0f}")
    ok = improved >= 4
    report("criterion 5: burn-in likelihood trend", ok, f"{improved}/{N_CHAINS} improved ({'; '.join(details)})")


def test_criterion_6_clustering_recovery(reduced_fit):
    _, truth, chains = reduced_fit
    leaf_truth = truth.level(truth.depth)
    aris, nmis = [], []
    for chain in chains:
        predicted = metrics.clusters_at_level(chain["point"], REDUCED["depth"])
        reference = {e: leaf_truth[e] for e in predicted}
        aris.append(metrics.ari(predicted, reference))
        nmis.append(metrics.nmi(predicted, reference))
    med_ari = float(np.median(aris))
    med_nmi = float(np.median(nmis))
    ok = med_ari >= 0.5 and med_nmi >= 0.6
    report(
        "criterion 6: leaf-level clustering recovery",
        ok,
        f"median ARI {med_ari:.3f} (>=0.5), median NMI {med_nmi:.3f} (>=0.6)",
    )


def _pair_classes(n_entities: int, per_leaf: int, depth: int):
    leaf_idx = np.arange(n_entities) // per_leaf
    xor = leaf_idx[:, None] ^ leaf_idx[None, :]
    highest_bit = np.zeros_like(xor)
    v = xor.copy()
    while np.any(v):
        highest_bit[v > 0] += 1
        v >>= 1
    lca_level = depth - highest_bit
    same_leaf = xor == 0
    sibling_leaf = (~same_leaf) & (lca_level == depth - 1)
    cross_subtree = lca_level <= depth - 2
    return same_leaf, sibling_leaf, cross_subtree


def test_criterion_8_relation_recovery_ordering(reduced_fit):
    kg, _, chains = reduced_fit
    same_leaf, sibling_leaf, cross_subtree = _pair_classes(
        kg.num_entities, REDUCED["per_leaf"], REDUCED["depth"]
    )
    ordered = 0
    details = []
    for chain in chains:
        probs = predicted_edge_probabilities(chain["point"], kg, FIT["lam"], FIT["eta"]).mean(axis=2)
        within = float(probs[same_leaf].mean())
        sibling = float(probs[sibling_leaf].mean())
        cross = float(probs[cross_subtree].mean())
        ordered += within > sibling > cross
        details.append(f"{within:.2f}>{sibling:.2f}>{cross:.2f}")
    ok = ordered >= 4
    report(
        "criterion 8: relation recovery ordering",
        ok,
        f"{ordered}/{N_CHAINS} chains ordered ({'; '.join(details)})",
    )


# ---------------------------------------------------------------------------
# criterion 7: metric implementations against exhaustive pair oracles
# ---------------------------------------------------------------------------


def set_partitions(items):
    """All set partitions of a sequence."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in set_partitions(rest):
        for k in range(len(partial)):
            yield partial[:k] + [[first] + partial[k]] + partial[k + 1 :]
        yield [[first]] + partial


def _labels(partition):
    out = {}
    for label, block in enumerate(partition):
        for member in block:
            out[member] = label
    return out


def _oracle_pair_ari(c, truth):
    entities = sorted(c)
    both = in_c = in_t = total = 0
    for a, b in itertools.combinations(entities, 2):
        total += 1
        x = c[a] == c[b]
        y = truth[a] == truth[b]
        in_c += x
        in_t += y
        both += x and y
    if total == 0:
        return 1.0  # a single entity admits only the identical partition
    expected = in_c * in_t / total
    max_index = (in_c + in_t) / 2
    if max_index == expected:
        # degenerate only when both partitions are trivial; 1.0 iff identical
        return 1.0 if in_c == both and in_t == both else 0.0
    return (both - expected) / (max_index - expected)


def _oracle_contingency_nmi(c, truth):
    from collections import Counter

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


def test_criterion_7_metric_oracles():
    started = time.time()
    worst = 0.0
    checked = 0

    def check(c, t):
        nonlocal worst, checked
        got_ari, want_ari = metrics.ari(c, t), _oracle_pair_ari(c, t)
        got_nmi, want_nmi = metrics.nmi(c, t), _oracle_contingency_nmi(c, t)
        worst = max(worst, abs(got_ari - want_ari), abs(got_nmi - want_nmi))
        checked += 1

    # exhaustive over all partition pairs up to six elements
    for n in range(1, 7):
        parts = [_labels(p) for p in set_partitions(list(range(n)))]
        for c in parts:
            for t in parts:
                check(c, t)

    # seven and eight elements: every partition against a deterministic panel
    rng = np.random.default_rng(7)
    for n in (7, 8):
        parts = [_labels(p) for p in set_partitions(list(range(n)))]
        singletons = {e: e for e in range(n)}
        lump = {e: 0 for e in range(n)}
        for idx, c in enumerate(parts):
            panel = [c, singletons, lump]
            panel.extend(parts[int(k)] for k in rng.integers(0, len(parts), size=12))
            for t in panel:
                check(c, t)

    # pinned edge cases
    identical = _labels([[0, 1], [2, 3, 4]])
    exact_one = metrics.ari(identical, dict(identical)) == 1.0 and metrics.nmi(identical, dict(identical)) == 1.0
    lump5 = {e: 0 for e in range(4)}
    halves = _labels([[0, 1], [2, 3]])
    exact_zero = metrics.ari(lump5, halves) == 0.0 and metrics.nmi(lump5, halves) == 0.0

    elapsed = time.time() - started
    ok = worst < 1e-12 and exact_one and exact_zero and elapsed < 60
    report(
        "criterion 7: metric oracles",
        ok,
        f"{checked} pairs, worst abs deviation {worst:.2e}, edge cases exact, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 9: byte-identical refits under a fixed seed
# ---------------------------------------------------------------------------


def test_criterion_9_fit_determinism(tmp_path):
    data = tmp_path / "data"
    assert cli_main([
        "gen-sbt", "--depth", "2", "--per-leaf", "3", "--probs", "0.1", "0.4",
        "--predicates", "2", "--seed", "5", "--out-dir", str(data),
    ]) == 0
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        config = {
            "model": {"gamma": 1.0, "mu": 0.5, "sigma": 1.0, "lambda": 1.0, "eta": 1.0, "depth": 2},
            "schedule": {"iterations": 8, "burn_in": 2, "lag": 2, "final_samples": 3,
                         "chains": 2, "seed": 77},
            "io": {"input": str(data / "triples.tsv"), "output_dir": str(out)},
        }
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert cli_main(["fit", str(cfg)]) == 0
        runs.append(out)
    first, second = runs
    compared = 0
    identical = True
    for path in sorted(first.iterdir()):
        if path.name == "run_manifest.json":
            continue  # embeds the differing output paths by design
        other = second / path.name
        same = path.read_bytes() == other.read_bytes()
        identical = identical and same
        compared += 1
    report("criterion 9: fit determinism", identical and compared > 0, f"{compared} files byte-compared")


# ---------------------------------------------------------------------------
# optional full-size benchmark reproduction
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_full_benchmark_reproduction():
    rng = np.random.default_rng(7)
    kg, truth = synth.generate_sbt(4, 25, [0.0, 0.1, 0.4, 0.6], 2, rng)
    leaf_truth = truth.level(4)
    hyper = Hyperparameters(
        gamma=3.0, mu=0.5, sigma=1.0, lam=1.0, eta=1.0, depth=4,
        schedule=Schedule(iterations=230, burn_in=200, lag=3, final_samples=10, chains=3, seed=0),
    )
    aris, nmis = [], []
    for samples, _ in run_chains(kg, hyper):
        point, _ = aggregate(samples)
        predicted = metrics.clusters_at_level(point, 4)
        reference = {e: leaf_truth[e] for e in predicted}
        aris.append(metrics.ari(predicted, reference))
        nmis.append(metrics.nmi(predicted, reference))
    med_ari, med_nmi = float(np.median(aris)), float(np.median(nmis))
    report(
        "optional: full-size benchmark recovery",
        med_ari >= 0.6 and med_nmi >= 0.8,
        f"median leaf ARI {med_ari:.3f} (>=0.6), NMI {med_nmi:.3f} (>=0.8)",
    )
