"""Command-line interface: dataset generation, fitting, evaluation, rendering.

Subcommands: ``gen-sbt``, ``fit``, ``eval``, ``render``, ``relations``.
Exit codes: 0 on success, 1 on usage, configuration or output errors (an
output path that cannot be written, or a standard output closed by its
reader) and on a failed chain, 2 on data errors (unparseable or empty inputs,
universe mismatches).  Every command is reproducible byte-for-byte under a
fixed seed; there is no wall-clock seeding anywhere.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path as FsPath

import numpy as np

from . import __version__, metrics, sampler, synth
from .kgraph import TripleParseError, load_triples, save_triples
from .stats import Hyperparameters, Schedule, check_priors

__all__ = ["main", "ConfigError", "build_parser"]

USAGE_ERROR = 1
DATA_ERROR = 2


class ConfigError(Exception):
    """Invalid run configuration; the message names the offending field."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hiersbm", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"hiersbm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-sbt", help="generate the synthetic binary-tree dataset")
    gen.add_argument("--depth", type=int, default=4)
    gen.add_argument("--per-leaf", type=int, default=25)
    gen.add_argument("--probs", type=float, nargs="+", default=[0.0, 0.1, 0.4, 0.6],
                     help="triple probability per ancestor level, shallowest first")
    gen.add_argument("--predicates", type=int, default=2)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-dir", type=FsPath, default=FsPath("."))

    fit = sub.add_parser("fit", help="run collapsed Gibbs chains from a JSON config")
    fit.add_argument("config", type=FsPath, help="JSON run configuration")
    fit.add_argument("--input", type=FsPath, default=None, help="override io.input")
    fit.add_argument("--output-dir", type=FsPath, default=None, help="override io.output_dir")
    fit.add_argument("--seed", type=int, default=None, help="override schedule.seed")
    fit.add_argument("--chains", type=int, default=None, help="override schedule.chains")
    fit.add_argument("--iterations", type=int, default=None, help="override schedule.iterations")

    ev = sub.add_parser("eval", help="score a stored sample against ground-truth labels")
    ev.add_argument("sample", type=FsPath)
    ev.add_argument("truth", type=FsPath)
    ev.add_argument("--out-dir", type=FsPath, default=FsPath("."))

    ren = sub.add_parser("render", help="print a stored sample's hierarchy as text")
    ren.add_argument("sample", type=FsPath)
    ren.add_argument("--max-members", type=int, default=5)

    rel = sub.add_parser("relations", help="write recovered community relations as CSV")
    rel.add_argument("sample", type=FsPath)
    rel.add_argument("triples", type=FsPath)
    rel.add_argument("--lam", type=float, default=1.0)
    rel.add_argument("--eta", type=float, default=1.0)
    rel.add_argument("--out", type=FsPath, default=FsPath("relations.csv"))
    return parser


def _config_get(doc: dict, section: str, key: str, default=None, required: bool = False):
    block = doc.get(section)
    if block is None:
        if required:
            raise ConfigError(f"missing config section {section!r}")
        block = {}
    if not isinstance(block, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    if key in block:
        return block[key]
    if required:
        raise ConfigError(f"missing config field {section}.{key}")
    return default


# model config key -> Hyperparameters field, for the required real numbers
_MODEL_FIELDS = {"gamma": "gamma", "mu": "mu", "sigma": "sigma", "lambda": "lam", "eta": "eta"}


def _config_int(name: str, value) -> int:
    """An integer config value; a boolean or a number with a fractional part is an error, not converted."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from exc


def _config_float(name: str, value) -> float:
    """A real config value: a JSON number; a boolean, a string or anything else is an error, not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc


def _load_run_config(args) -> tuple[Hyperparameters, FsPath, FsPath, dict]:
    try:
        raw = args.config.read_text(encoding="utf-8")
        doc = json.loads(raw)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("config is nested too deeply to read") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")

    model = {field: _config_get(doc, "model", key, required=True) for key, field in _MODEL_FIELDS.items()}
    depth = _config_get(doc, "model", "depth", required=True)
    level_prior_mode = _config_get(doc, "model", "level_prior_mode", default="stick")
    alpha = _config_get(doc, "model", "alpha", default=None)
    if alpha is not None and not isinstance(alpha, list):
        raise ConfigError(f"model.alpha must be a list of numbers, got {alpha!r}")
    schedule = {
        key: _config_get(doc, "schedule", key, default=1, required=key != "chains")
        for key in ("iterations", "burn_in", "lag", "final_samples", "chains", "seed")
    }
    for key in ("seed", "chains", "iterations"):
        if getattr(args, key) is not None:
            schedule[key] = getattr(args, key)
    schedule = {key: _config_int(f"schedule.{key}", value) for key, value in schedule.items()}
    depth = _config_int("model.depth", depth)
    model = {field: _config_float(f"model.{key}", model[field]) for key, field in _MODEL_FIELDS.items()}

    input_path = args.input or _config_get(doc, "io", "input", required=True)
    output_dir = args.output_dir or _config_get(doc, "io", "output_dir", required=True)
    for name, value in (("io.input", input_path), ("io.output_dir", output_dir)):
        if not isinstance(value, (str, FsPath)):
            raise ConfigError(f"{name} must be a path string, got {value!r}")

    try:
        hyper = Hyperparameters(
            **model,
            depth=depth,
            level_prior_mode=str(level_prior_mode),
            alpha=tuple(_config_float("model.alpha", a) for a in alpha) if alpha is not None else None,
            schedule=Schedule(**schedule),
        )
        hyper.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    resolved = {
        "model": {
            **{key: getattr(hyper, field) for key, field in _MODEL_FIELDS.items()},
            "depth": hyper.depth,
            "level_prior_mode": hyper.level_prior_mode,
            "alpha": list(hyper.alpha) if hyper.alpha is not None else None,
        },
        "schedule": dataclasses.asdict(hyper.schedule),
        "io": {"input": str(input_path), "output_dir": str(output_dir)},
    }
    return hyper, FsPath(input_path), FsPath(output_dir), resolved


def _write_json(doc: dict, path: FsPath) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def cmd_gen_sbt(args) -> int:
    if args.seed < 0:
        print(f"error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return USAGE_ERROR
    rng = np.random.default_rng(args.seed)
    try:
        kg, truth = synth.generate_sbt(args.depth, args.per_leaf, args.probs, args.predicates, rng)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:
        print(f"error: not enough memory for the dataset: {exc}", file=sys.stderr)
        return USAGE_ERROR
    manifest = {
        "generator": "sbt",
        "parameters": {
            "depth": args.depth,
            "entities_per_leaf": args.per_leaf,
            "level_probs": list(args.probs),
            "predicates": args.predicates,
            "seed": args.seed,
        },
        "realized": {
            "entities": kg.num_entities,
            "predicates": kg.num_predicates,
            "triples": len(kg.triples),
            "leaf_clusters": 2 ** args.depth,
        },
        "version": __version__,
    }
    out = args.out_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
        save_triples(kg, out / "triples.tsv")
        synth.save_ground_truth(truth, out / "truth.tsv")
        _write_json(manifest, out / "manifest.json")
    except OSError as exc:
        print(f"error: cannot write to {out}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(f"wrote {len(kg.triples)} triples over {kg.num_entities} entities to {out}")
    return 0


def _fit_chains(kg, hyper: Hyperparameters, output_dir: FsPath) -> list[str]:
    """Write each chain's artifacts as ``run_chains`` yields it, in chain order; return their file names."""
    output_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for chain, (samples, trace) in enumerate(sampler.run_chains(kg, hyper)):
        trace_path = output_dir / f"trace_chain{chain}.csv"
        sampler.write_trace_csv(trace, trace_path)
        outputs.append(trace_path.name)
        for k, sample in enumerate(samples):
            written = sampler.write_sample_json(sample, output_dir / f"sample_chain{chain}_{k:02d}.json")
            outputs.extend(p.name for p in written)
        point, consensus = sampler.aggregate(samples)
        written = sampler.write_sample_json(point, output_dir / f"point_estimate_chain{chain}.json")
        outputs.extend(p.name for p in written)
        for l in range(consensus.shape[0]):
            cons_path = output_dir / f"consensus_chain{chain}_level{l + 1}.npy"
            np.save(cons_path, consensus[l])
            outputs.append(cons_path.name)
    return outputs


def cmd_fit(args) -> int:
    hyper, input_path, output_dir, resolved = _load_run_config(args)
    try:
        kg = load_triples(input_path)
    except TripleParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {input_path}: {exc}", file=sys.stderr)
        return DATA_ERROR
    if kg.num_entities == 0:
        print(f"error: {input_path} holds no triples", file=sys.stderr)
        return DATA_ERROR
    sched = hyper.schedule
    try:
        outputs = _fit_chains(kg, hyper, output_dir)
    except OSError as exc:
        print(f"error: cannot write to {output_dir}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except sampler.ChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    manifest = {
        "config": resolved,
        "config_sha256": hashlib.sha256(
            json.dumps(resolved, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "chain_seeds": [sched.seed + c for c in range(sched.chains)],
        "graph": {
            "entities": kg.num_entities,
            "predicates": kg.num_predicates,
            "triples": len(kg.triples),
        },
        "outputs": outputs,
        "version": __version__,
    }
    _write_json(manifest, output_dir / "run_manifest.json")
    print(f"fit complete: {sched.chains} chain(s), outputs in {output_dir}")
    return 0


def cmd_eval(args) -> int:
    try:
        sample = sampler.load_sample_json(args.sample)
        truth = synth.load_ground_truth(args.truth)
        result = metrics.evaluate_sample(sample, truth)
    except (KeyError, ValueError, OSError) as exc:  # parse errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    table = result.to_text_table()
    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(result.to_json_dict(), args.out_dir / "metrics.json")
        (args.out_dir / "metrics.txt").write_text(table + "\n", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write to {args.out_dir}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(table)
    return 0


def cmd_render(args) -> int:
    try:
        sample = sampler.load_sample_json(args.sample)
    except (json.JSONDecodeError, KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    members: dict[int, list[str]] = {}
    for label, path, level in zip(sample.entity_labels, sample.paths, sample.levels):
        members.setdefault(path[level - 1], []).append(label)

    lines: list[str] = []

    def walk(node: dict, indent: int) -> None:
        name = "root" if node["level"] == 0 else f"t{node['id']}"
        got = members.get(node["id"], [])
        suffix = ""
        if args.max_members > 0 and got:
            shown = got[: args.max_members]
            suffix = ": " + ", ".join(shown)
            if len(got) > len(shown):
                suffix += ", ..."
        lines.append("  " * indent + name + suffix)
        for child in node["children"]:
            walk(child, indent + 1)

    walk(sample.tree, 0)
    print("\n".join(lines))
    return 0


def cmd_relations(args) -> int:
    try:
        check_priors({"--lam": args.lam, "--eta": args.eta, "--lam + --eta": args.lam + args.eta})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        sample = sampler.load_sample_json(args.sample)
        kg = load_triples(args.triples)
        means = sampler.relations_from_sample(sample, kg, args.lam, args.eta)
    except (TripleParseError, json.JSONDecodeError, KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    plab = kg.predicate_labels
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("from_community,to_community,predicate,posterior_mean\n")
            for (a, b, r), value in sorted(means.items()):
                fh.write(f"t{a},t{b},{plab[r]},{value!r}\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(f"wrote {len(means)} relation rows to {args.out}")
    return 0


_COMMANDS = {
    "gen-sbt": cmd_gen_sbt,
    "fit": cmd_fit,
    "eval": cmd_eval,
    "render": cmd_render,
    "relations": cmd_relations,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version and 2 for usage problems
        return 0 if exc.code in (0, None) else USAGE_ERROR
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so a closed reader shows here, not in the interpreter's flush at exit
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # the reader closed standard output: what is still buffered goes to devnull, so the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed before the command finished writing", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
