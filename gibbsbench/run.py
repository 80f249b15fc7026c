"""Benchmark of the hiersbm collapsed Gibbs sampler: one workload per process.

    python3 gibbsbench/run.py --workload sbt-path-moves --seed 1 --seconds 5 --trace 0

The run builds its inputs from ``--seed``, warms a few independent chains,
and then repeats whole rounds, at least two, until ``--seconds`` have passed.
A round runs every operation of the workload once, one after another in this
process: a few set-ups from the triples file, one sweep from a copy of each
warmed chain, read-out passes over the samples those sweeps leave, and one
cold-start ``hiersbm fit`` through ``hiersbm.cli.main`` (with ``eval`` and
``relations`` on the workload that exercises the CLI).  Every timed block is
preceded by a garbage collection; no other thread or process runs beside it.
Outputs are checked against the oracles in ``oracles.py`` outside the timed
blocks.

With ``--trace 1`` the run reports per-layer metrics instead: each round is
followed by the same round with the program's public functions wrapped (see
``tracing.py``), and one such pair of rounds is enough.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import oracles
import tracing

ROOT = Path(__file__).resolve().parent.parent
FIT_SEED = 0  # the CLI fit starts from the same prior draw on every run
TOL_MEANS = 1e-12
TOL_ARI = 1e-9
MIN_ROUNDS = 2  # so that every timed unit is repeated in an untraced run
SETUPS = 5  # per round; a set-up is cheap next to a sweep


@dataclass(frozen=True)
class Workload:
    graph: object  # seed -> (adjacency, truth labels)
    model: dict  # Hyperparameters fields
    chains: int  # independent chains warmed in preparation; a round sweeps each once
    warm: int  # sweeps of each chain before its snapshot is taken
    fit: dict  # schedule of the two-chain CLI fit
    readouts: int  # read-out passes per round: more where a pass is short
    cli_readouts: bool = False  # run ``eval`` and ``relations`` on the fit
    fixed_seed: int | None = None  # used in place of --seed


SBT = dict(gamma=3.0, mu=0.5, sigma=1.0, lam=1.0, eta=1.0)
WORKLOADS = {
    # Depth-4 binary tree at 80 entities: path moves dominate a sweep.
    "sbt-path-moves": Workload(
        graph=lambda seed: inputs.binary_tree_graph(4, 5, (0.0, 0.1, 0.4, 0.6), 2, seed),
        model=dict(SBT, depth=4), chains=3, warm=1,
        fit=dict(iterations=1, burn_in=0, lag=1, final_samples=1), readouts=4,
    ),
    # 32 sparse predicates over a two-level tree at 72 entities, fitted at
    # depth 2 with a small gamma: level moves dominate, few path candidates.
    "kg-wide-levels": Workload(
        graph=lambda seed: inputs.wide_graph(4, 3, 6, 32, seed),
        model=dict(gamma=0.5, mu=0.5, sigma=1.0, lam=1.0, eta=1.0, depth=2), chains=3, warm=1,
        fit=dict(iterations=2, burn_in=0, lag=1, final_samples=2), readouts=2,
    ),
    # The acceptance fixture's graph through the CLI: fit, eval and relations.
    # It is one fixed input, so relations-exact fails the same way every run.
    "sbt-reduced-cli": Workload(
        graph=lambda seed: inputs.binary_tree_graph(3, 10, (0.1, 0.4, 0.6), 2, seed),
        model=dict(SBT, depth=3), chains=1, warm=2,
        fit=dict(iterations=7, burn_in=5, lag=1, final_samples=2), readouts=5,
        cli_readouts=True, fixed_seed=7,
    ),
}

END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "readout_s": "s", "fit_s": "s", "peak_rss_mb": "MB"}


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def state_digest(state) -> str:
    return digest(state.P, state.Z, state.h.to_dict(), state.trace)


def tree_digest(directory: Path) -> str:
    """Digest of a fit's artifacts, leaving out the manifest that names the paths."""
    names = sorted(p.name for p in directory.iterdir() if p.name != "run_manifest.json")
    return digest(*[(name, (directory / name).read_bytes()) for name in names])


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Bench:
    def __init__(self, name: str, seed: int, workdir: Path, hiersbm):
        self.name, self.wl, self.dir = name, WORKLOADS[name], workdir
        self.seed = seed if self.wl.fixed_seed is None else self.wl.fixed_seed
        self.h = hiersbm
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.notes: dict[str, str] = {}
        self.problems: list[str] = []
        self.times = {False: defaultdict(list), True: defaultdict(list)}  # keyed by traced
        self.cpu_per_wall: list[float] = []
        self.tracer: tracing.Tracer | None = None
        self.expected: dict[str, str] = {}  # digests every round must reproduce

    # -- bookkeeping -------------------------------------------------------

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok

    def same_as_before(self, key: str, value: str, what: str) -> None:
        want = self.expected.setdefault(key, value)
        self.check(value == want, f"{what} differs from the first round")

    def timed(self, phase: str, fn):
        gc.collect()
        if self.tracer:
            self.tracer.phase = phase
        start = time.perf_counter()
        out = fn()
        took = time.perf_counter() - start
        if self.tracer:
            self.tracer.phase = "check"
        return out, took

    def cli(self, *argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.h.cli.main([str(a) for a in argv])

    # -- preparation -------------------------------------------------------

    def prepare(self) -> None:
        h = self.h
        adj, truth = self.wl.graph(self.seed)
        self.dir.mkdir(parents=True)
        self.triples, self.truth_path = self.dir / "triples.tsv", self.dir / "truth.tsv"
        inputs.write_triples(adj, self.triples)
        inputs.write_truth(truth, self.truth_path)
        self.ground = h.synth.GroundTruth([f"e{i}" for i in range(len(truth))], list(truth))
        self.leaf_truth = {f"e{i}": t[-1] for i, t in enumerate(truth)}
        self.hyper = h.stats.Hyperparameters(**self.wl.model)

        self.kg = h.kgraph.load_triples(self.triples)
        order = [int(label[1:]) for label in self.kg.entity_labels]
        preds = [int(label[1:]) for label in self.kg.predicate_labels]
        self.adj = adj[np.ix_(order, order, preds)]  # in the program's id order
        self.truth_kg = [truth[i] for i in order]
        self.degrees = h.kgraph.degree_table(self.kg)

        self.snapshots = []
        for chain in range(self.wl.chains):
            state = h.sampler.init_state(self.kg, self.hyper, np.random.default_rng([self.seed, chain]))
            start_ll = h.sampler.complete_log_likelihood(state)
            for _ in range(self.wl.warm):
                h.sampler.gibbs_iteration(state, self.degrees)
            lls = [start_ll] + [ll for _, ll in state.trace]
            self.check(all(map(math.isfinite, lls)), f"chain {chain}: non-finite log-likelihood while warming: {lls}")
            self.check(lls[-1] > lls[0], f"chain {chain}: log-likelihood did not rise from the prior draw: {lls}")
            self.snapshots.append(state)

        self.fit_dir = self.dir / "fit"
        self.config = self.dir / "fit.json"
        model = {k: v for k, v in self.wl.model.items() if k != "lam"} | {"lambda": self.wl.model["lam"]}
        schedule = dict(self.wl.fit, chains=2, seed=FIT_SEED)
        self.config.write_text(json.dumps({
            "model": model, "schedule": schedule,
            "io": {"input": str(self.triples), "output_dir": str(self.fit_dir)},
        }))
        if self.wl.cli_readouts:
            self.replay_chain0(schedule)

    def copy_state(self, state):
        return copy.deepcopy(state, {id(self.kg): self.kg})  # the graph is never written

    def replay_chain0(self, schedule: dict) -> None:
        """Run the CLI's chain 0 in process; its point estimate keeps its indicators."""
        h = self.h
        sched = h.stats.Schedule(**dict(schedule, chains=1))
        samples, _ = h.sampler.run(self.kg, h.stats.Hyperparameters(**self.wl.model, schedule=sched))
        self.replay_point, _ = h.sampler.aggregate(samples)
        p = self.replay_point
        lam, eta = self.hyper.lam, self.hyper.eta
        means = oracles.relation_means(oracles.relation_counts(p.paths, p.indicators, self.adj), lam, eta)
        plab = self.kg.predicate_labels
        self.replay_means = {(f"t{a}", f"t{b}", plab[r]): v for (a, b, r), v in means.items()}
        ordered, levels = oracles.ordering_holds(
            oracles.edge_probabilities(p.paths, p.indicators, self.adj, lam, eta), self.truth_kg)
        self.check(ordered, f"relation ordering within-leaf > sibling > cross fails: {levels}")

    # -- one round ---------------------------------------------------------

    def round(self, traced: bool) -> None:
        first = not self.expected or traced and not self.times[True]
        self.setups(traced)
        samples = self.sweeps(traced, first)
        self.readout(samples, traced, first)
        self.fit(traced, first)
        if self.wl.cli_readouts:
            self.cli_readouts(first)

    def setups(self, traced: bool) -> None:
        h = self.h

        def setup():
            kg = h.kgraph.load_triples(self.triples)
            state = h.sampler.init_state(kg, self.hyper, np.random.default_rng(self.seed))
            h.kgraph.degree_table(kg)
            return state, h.sampler.complete_log_likelihood(state)

        for k in range(SETUPS):
            (state, ll), took = self.timed("setup", setup)
            self.times[traced]["setup"].append(took)
            self.attempted["setup"] += 1
            self.check(math.isfinite(ll), f"set-up log-likelihood {ll}")
            self.same_as_before("setup", state_digest(state), "set-up state")
            if k == 0:
                report, _ = self.timed("audit", lambda: h.sampler.audit_counts(state))
                self.check(report.ok, f"count audit after set-up: {report.message}")

    def sweeps(self, traced: bool, first: bool) -> list:
        h = self.h
        took_all, samples = [], []
        for k, snap in enumerate(self.snapshots):
            state = self.copy_state(snap)
            _, took = self.timed("sweep", lambda: h.sampler.gibbs_iteration(state, self.degrees))
            took_all.append(took)
            self.attempted["sweep"] += 1
            self.same_as_before(f"sweep{k}", state_digest(state), f"state after the sweep of chain {k}")
            sample = h.sampler.take_sample(state)
            samples.append(sample)
            if first:
                self.check_sample(state, sample)
        self.times[traced]["sweep"].append(statistics.fmean(took_all))
        return samples

    def check_sample(self, state, sample) -> None:
        h = self.h
        lam, eta = self.hyper.lam, self.hyper.eta
        self.check(math.isfinite(sample.log_likelihood), f"sample log-likelihood {sample.log_likelihood}")
        report = h.sampler.audit_counts(state)
        self.check(report.ok, f"count audit after a sweep: {report.message}")
        for error in oracles.pass_count_errors(sample.tree, sample.paths):
            self.check(False, f"sample tree: {error}")
        want = oracles.relation_means(
            oracles.relation_counts(sample.paths, sample.indicators, self.adj), lam, eta)
        for label, got in (
            ("recover_community_relations", h.sampler.recover_community_relations(state, lam, eta)),
            ("relations_from_sample", h.sampler.relations_from_sample(sample, self.kg, lam, eta)),
        ):
            same = got.keys() == want.keys() and all(abs(got[k] - want[k]) <= TOL_MEANS for k in want)
            self.check(same, f"{label} differs from the recounted means ({len(got)} vs {len(want)} keys)")

    def readout(self, samples: list, traced: bool, first: bool) -> None:
        h = self.h
        lam, eta = self.hyper.lam, self.hyper.eta

        def one_pass():
            _, consensus = h.sampler.aggregate(samples)
            return consensus, [
                (h.sampler.relations_from_sample(s, self.kg, lam, eta),
                 h.sampler.predicted_edge_probabilities(s, self.kg, lam, eta),
                 h.metrics.evaluate_sample(s, self.ground))
                for s in samples
            ]

        for _ in range(self.wl.readouts):
            (consensus, results), took = self.timed("readout", one_pass)
            self.times[traced]["readout"].append(took)
            self.attempted["readout"] += 1
        if not first:
            return
        self.check(all(oracles.consensus_ok(m) for m in consensus), "consensus is not symmetric with a unit diagonal")
        for sample, (_, probs, scores) in zip(samples, results):
            want = oracles.edge_probabilities(sample.paths, sample.indicators, self.adj, lam, eta)
            self.check(np.allclose(probs, want, rtol=0, atol=TOL_MEANS), "edge probabilities differ from the oracle")
            labels = {e: p[-1] for e, p in zip(sample.entity_labels, sample.paths)}
            ari = oracles.pair_ari(labels, self.leaf_truth)
            self.check(abs(scores.levels[-1].ari - ari) <= TOL_ARI, f"leaf ARI {scores.levels[-1].ari} vs oracle {ari}")

    def fit(self, traced: bool, first: bool) -> None:
        def fit():
            cpu = cpu_seconds()
            return self.cli("fit", self.config), cpu_seconds() - cpu

        shutil.rmtree(self.fit_dir, ignore_errors=True)
        (code, cpu), took = self.timed("fit", fit)
        if not traced:
            self.cpu_per_wall.append(cpu / took)
        self.times[traced]["fit"].append(took)
        self.attempted["fit"] += 1
        if not self.check(code == 0, f"hiersbm fit exited {code}"):
            return
        self.same_as_before("fit", tree_digest(self.fit_dir), "fit artifacts")
        if not first:
            return
        h = self.h
        for chain in range(2):
            lls = (self.fit_dir / f"trace_chain{chain}.csv").read_text().splitlines()[1:]
            self.check(all(math.isfinite(float(row.split(",")[1])) for row in lls), f"chain {chain} trace")
            point = h.sampler.load_sample_json(self.fit_dir / f"point_estimate_chain{chain}.json")
            for error in oracles.pass_count_errors(point.tree, point.paths):
                self.check(False, f"chain {chain} point estimate: {error}")
            for level in range(1, self.hyper.depth + 1):
                matrix = np.load(self.fit_dir / f"consensus_chain{chain}_level{level}.npy")
                self.check(oracles.consensus_ok(matrix), f"chain {chain} level {level} consensus")

    def cli_readouts(self, first: bool) -> None:
        """``eval`` and ``relations`` on chain 0's stored point estimate."""
        point_path = self.fit_dir / "point_estimate_chain0.json"
        eval_dir = self.dir / "eval"
        code = self.cli("eval", point_path, self.truth_path, "--out-dir", eval_dir)
        self.attempted["eval"] += 1
        if self.check(code == 0, f"hiersbm eval exited {code}"):
            stored = self.h.sampler.load_sample_json(point_path)
            reported = json.loads((eval_dir / "metrics.json").read_text())["levels"][-1]["ari"]
            ari = oracles.pair_ari({e: p[-1] for e, p in zip(stored.entity_labels, stored.paths)}, self.leaf_truth)
            self.check(ari >= 0.5, f"leaf ARI {ari} of the fit is below 0.5")
            self.check(abs(reported - ari) <= TOL_ARI, f"eval reports leaf ARI {reported}, pair counting {ari}")
            if first:
                self.check(stored.paths == self.replay_point.paths, "the in-process replay is not chain 0")

        csv_path = self.dir / "relations.csv"
        code = self.cli("relations", point_path, self.triples, "--out", csv_path)
        self.attempted["relations-exact"] += 1
        if not self.check(code == 0, f"hiersbm relations exited {code}"):
            return
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        got = {(a, b, r): float(v) for a, b, r, v in rows}
        want = self.replay_means
        if got.keys() != want.keys() or any(abs(got[k] - want[k]) > TOL_MEANS for k in want):
            self.failed["relations-exact"] += 1
            self.notes["relations-exact"] = (
                f"the CSV has {len(got)} relation keys, the replayed chain's sample {len(want)}")

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> dict:
        t = self.times[False]
        rss = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        values = {
            "setup_s": statistics.median(t["setup"]),
            "sweep_s": statistics.median(t["sweep"]),
            "readout_s": statistics.median(t["readout"]),
            "fit_s": statistics.median(t["fit"]),
            "peak_rss_mb": rss * 1024 / 1e6,
        }
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    def per_layer(self) -> dict:
        tr, traced = self.tracer, self.times[True]
        sweeps = len(traced["sweep"]) * self.wl.chains

        # A function the program no longer calls reads 0 rather than failing the run.
        def ms(phase, name, scale=1e3):
            span = tr.span(phase, name)
            return scale * span.total / max(span.calls, 1)

        def per(phase, name, count):
            return tr.span(phase, name).calls / count

        def size(phase, name):
            span = tr.span(phase, name)
            return span.size / max(span.calls, 1)

        def share(name):
            return tr.span("sweep", name).total / max(tr.span("sweep", "sampler.gibbs_iteration").total, 1e-9)

        gibbs = tr.span("sweep", "sampler.gibbs_iteration")
        rows = [
            ("kgraph.load_triples.ms", ms("setup", "kgraph.load_triples"), "ms"),
            ("kgraph.degree_table.ms", ms("setup", "kgraph.degree_table"), "ms"),
            ("sampler.init_state.ms", ms("setup", "sampler.init_state"), "ms"),
            ("hierarchy.coarsen.setup_calls", per("setup", "hierarchy.coarsen", len(traced["setup"])), "count"),
            ("sampler.audit_counts.ms", ms("audit", "sampler.audit_counts"), "ms"),
            ("kgraph.dense_tensor.mb", size("setup", "kgraph.dense_tensor"), "MB"),
            ("sampler.sample_path.calls", per("sweep", "sampler.sample_path", sweeps), "count"),
            ("sampler.sample_path.ms", ms("sweep", "sampler.sample_path"), "ms"),
            ("stats.ncrp_path_prior.candidates", size("sweep", "stats.ncrp_path_prior"), "count"),
            ("sampler.sample_level_indicator.calls", per("sweep", "sampler.sample_level_indicator", sweeps), "count"),
            ("sampler.sample_level_indicator.us", ms("sweep", "sampler.sample_level_indicator", 1e6), "us"),
            ("sampler.gibbs_iteration.self_ms", 1e3 * gibbs.self_time / max(gibbs.calls, 1), "ms"),
            ("sampler.complete_log_likelihood.ms", ms("sweep", "sampler.complete_log_likelihood"), "ms"),
            ("sweep.path_share", share("sampler.sample_path"), "ratio"),
            ("sweep.level_share", share("sampler.sample_level_indicator"), "ratio"),
            ("sampler.aggregate.ms", ms("readout", "sampler.aggregate"), "ms"),
            ("sampler.relations_from_sample.ms", ms("readout", "sampler.relations_from_sample"), "ms"),
            ("sampler.predicted_edge_probabilities.ms", ms("readout", "sampler.predicted_edge_probabilities"), "ms"),
            ("metrics.evaluate_sample.ms", ms("readout", "metrics.evaluate_sample"), "ms"),
            ("hierarchy.coarsen.readout_calls", per("readout", "hierarchy.coarsen", len(traced["readout"])), "count"),
            ("sampler.take_sample.ms", ms("fit", "sampler.take_sample"), "ms"),
            ("sampler.write_sample_json.ms", ms("fit", "sampler.write_sample_json"), "ms"),
            ("sampler.run.s", ms("fit", "sampler.run", 1.0), "s"),
            ("cli.fit.cpu_per_wall", statistics.median(self.cpu_per_wall), "ratio"),
            ("trace.overhead", statistics.median(traced["sweep"]) / statistics.median(self.times[False]["sweep"]), "ratio"),
        ]
        return {name: {"value": value, "unit": unit} for name, value, unit in rows}

    def targets(self) -> dict:
        h = self.h
        return {
            "kgraph.load_triples": (h.kgraph, "load_triples", None),
            "kgraph.degree_table": (h.kgraph, "degree_table", None),
            "kgraph.dense_tensor": (h.kgraph.KnowledgeGraph, "dense_tensor", lambda g: g.nbytes / 1e6),
            "hierarchy.coarsen": (h.hierarchy, "coarsen", None),
            "stats.ncrp_path_prior": (h.stats, "ncrp_path_prior", len),
            **{f"sampler.{fn}": (h.sampler, fn, None) for fn in (
                "init_state", "audit_counts", "gibbs_iteration", "sample_path", "sample_level_indicator",
                "complete_log_likelihood", "take_sample", "write_sample_json", "run", "aggregate",
                "relations_from_sample", "predicted_edge_probabilities")},
            "metrics.evaluate_sample": (h.metrics, "evaluate_sample", None),
        }

    def run(self, seconds: float, trace: bool) -> dict:
        self.prepare()
        self.tracer = tracing.Tracer() if trace else None
        start = time.perf_counter()
        rounds = 0
        while rounds < (1 if trace else MIN_ROUNDS) or time.perf_counter() - start < seconds:
            self.round(traced=False)
            if trace:
                with self.tracer.installed(self.targets()):
                    self.round(traced=True)
            rounds += 1
        ops = ", ".join(f"{op} {n}" for op, n in self.attempted.items())
        print(f"{self.name} seed {self.seed}: attempted {ops}")
        for op, n in self.failed.items():
            print(f"{self.name} seed {self.seed}: failed {op} {n} of {self.attempted[op]}: {self.notes[op]}")
        for problem in self.problems:
            print(f"incorrect: {problem}")
        return {
            "correct": not self.problems,
            "attempted": sum(self.attempted.values()),
            "failed": sum(self.failed.values()),
            "metrics": self.per_layer() if trace else self.end_to_end(),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hiersbm
        import hiersbm.cli
    except ImportError as exc:
        print(f"error: cannot import hiersbm from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(hiersbm.__file__).resolve().parent.parent != src.resolve():
        print(f"error: hiersbm was imported from {hiersbm.__file__}, not from {src}", file=sys.stderr)
        return 2

    workdir = ROOT / ".gibbsbench-out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = Bench(args.workload, args.seed, workdir, hiersbm).run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
