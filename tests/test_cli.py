import json
import multiprocessing
import os

import numpy as np
import pytest

from hiersbm import sampler
from hiersbm.cli import main
from hiersbm.kgraph import load_triples
from hiersbm.stats import Hyperparameters, Schedule


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def sbt_dir(tmp_path):
    out = tmp_path / "data"
    assert run_cli("gen-sbt", "--depth", 2, "--per-leaf", 2, "--probs", 0.1, 0.4,
                   "--predicates", 1, "--seed", 3, "--out-dir", out) == 0
    return out


def write_config(tmp_path, input_path, output_dir):
    config = {
        "model": {"gamma": 1.0, "mu": 0.5, "sigma": 1.0, "lambda": 1.0, "eta": 1.0,
                  "depth": 2, "level_prior_mode": "stick"},
        "schedule": {"iterations": 6, "burn_in": 2, "lag": 2, "final_samples": 2,
                     "chains": 1, "seed": 11},
        "io": {"input": str(input_path), "output_dir": str(output_dir)},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    return cfg


@pytest.fixture
def fit_dir(tmp_path, sbt_dir):
    assert run_cli("fit", write_config(tmp_path, sbt_dir / "triples.tsv", tmp_path / "fit")) == 0
    return tmp_path / "fit"


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "error: " in err, err
    return err


class TestGenSbt:
    def test_outputs_and_manifest(self, sbt_dir):
        manifest = json.loads((sbt_dir / "manifest.json").read_text())
        assert manifest["realized"]["entities"] == 8
        assert manifest["realized"]["leaf_clusters"] == 4
        assert (sbt_dir / "triples.tsv").exists()
        assert (sbt_dir / "truth.tsv").exists()

    def test_degenerate_tree(self, tmp_path):
        out = tmp_path / "tiny"
        assert run_cli("gen-sbt", "--depth", 1, "--per-leaf", 1, "--probs", 0.0,
                       "--predicates", 1, "--seed", 0, "--out-dir", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["realized"]["entities"] == 2
        assert manifest["realized"]["triples"] == 2  # the two self-loops

    def test_benchmark_scale_manifest(self, tmp_path):
        out = tmp_path / "bench"
        assert run_cli("gen-sbt", "--depth", 4, "--per-leaf", 25,
                       "--probs", 0.0, 0.1, 0.4, 0.6, "--predicates", 2,
                       "--seed", 1, "--out-dir", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["realized"]["entities"] == 400
        assert manifest["realized"]["leaf_clusters"] == 16
        assert abs(manifest["realized"]["triples"] - 56000) < 600

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("gen-sbt", "--depth", 2, "--per-leaf", 2, "--probs", 0.1, 0.4,
                           "--predicates", 2, "--seed", 9, "--out-dir", out) == 0
        for name in ("triples.tsv", "truth.tsv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bad_probs_usage_error(self, tmp_path):
        assert run_cli("gen-sbt", "--depth", 3, "--per-leaf", 2, "--probs", 0.1,
                       "--out-dir", tmp_path / "x") == 1


class TestFit:
    def test_outputs_present(self, fit_dir):
        names = {p.name for p in fit_dir.iterdir()}
        assert "trace_chain0.csv" in names
        assert "sample_chain0_00.json" in names
        assert "sample_chain0_01.json" in names
        assert "point_estimate_chain0.json" in names
        assert "consensus_chain0_level1.npy" in names
        assert "run_manifest.json" in names
        trace = (fit_dir / "trace_chain0.csv").read_text().splitlines()
        assert trace[0] == "iter,log_likelihood"
        assert len(trace) == 8  # header + init + 6 iterations

    def test_manifest_round_trip(self, fit_dir):
        manifest = json.loads((fit_dir / "run_manifest.json").read_text())
        assert manifest["config"]["schedule"]["seed"] == 11
        assert manifest["chain_seeds"] == [11]
        assert manifest["graph"]["entities"] == 8

    def test_bad_schedule_names_constraint(self, tmp_path, sbt_dir, capsys):
        config = {
            "model": {"gamma": 1.0, "mu": 0.5, "sigma": 1.0, "lambda": 1.0, "eta": 1.0, "depth": 2},
            "schedule": {"iterations": 5, "burn_in": 10, "lag": 1, "final_samples": 1,
                         "chains": 1, "seed": 0},
            "io": {"input": str(sbt_dir / "triples.tsv"), "output_dir": str(tmp_path / "f")},
        }
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("fit", cfg) == 1
        err = capsys.readouterr().err
        assert "burn_in" in err

    def test_missing_field_named(self, tmp_path, sbt_dir, capsys):
        config = {
            "model": {"gamma": 1.0, "mu": 0.5, "sigma": 1.0, "lambda": 1.0, "eta": 1.0, "depth": 2},
            "schedule": {"iterations": 5, "burn_in": 1, "lag": 1, "final_samples": 1, "chains": 1},
            "io": {"input": str(sbt_dir / "triples.tsv"), "output_dir": str(tmp_path / "f")},
        }
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("fit", cfg) == 1
        assert "schedule.seed" in capsys.readouterr().err

    def test_chain_fanout(self, tmp_path, sbt_dir):
        config = {
            "model": {"gamma": 1.0, "mu": 0.5, "sigma": 1.0, "lambda": 1.0, "eta": 1.0, "depth": 2},
            "schedule": {"iterations": 3, "burn_in": 1, "lag": 1, "final_samples": 1,
                         "chains": 3, "seed": 100},
            "io": {"input": str(sbt_dir / "triples.tsv"), "output_dir": str(tmp_path / "multi")},
        }
        cfg = tmp_path / "multi.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("fit", cfg) == 0
        manifest = json.loads((tmp_path / "multi" / "run_manifest.json").read_text())
        assert manifest["chain_seeds"] == [100, 101, 102]
        for chain in range(3):
            assert (tmp_path / "multi" / f"trace_chain{chain}.csv").exists()

    def test_failing_chain_ends_in_one_line(self, tmp_path, sbt_dir, monkeypatch, capsys):
        def fail(kg, hyper):
            raise RuntimeError("no convergence")

        monkeypatch.setattr(sampler, "run", fail)
        cfg = write_config(tmp_path, sbt_dir / "triples.tsv", tmp_path / "fit")
        assert run_cli("fit", cfg, "--chains", 2) == 1
        err = assert_one_line_error(capsys)
        assert "chain 0 failed: RuntimeError: no convergence" in err
        assert multiprocessing.active_children() == []

    def test_dying_worker_ends_in_one_line(self, tmp_path, sbt_dir, monkeypatch, capsys):
        def die(kg, hyper):
            os._exit(3)

        monkeypatch.setattr(sampler, "usable_cpus", lambda: 2)  # two workers, so no chain runs here
        monkeypatch.setattr(sampler, "run", die)
        cfg = write_config(tmp_path, sbt_dir / "triples.tsv", tmp_path / "fit")
        assert run_cli("fit", cfg, "--chains", 3) == 1
        err = assert_one_line_error(capsys)
        assert "worker process died" in err
        assert multiprocessing.active_children() == []

    def test_unparseable_input_data_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only\ttwo\n", encoding="utf-8")
        config = {
            "model": {"gamma": 1.0, "mu": 0.5, "sigma": 1.0, "lambda": 1.0, "eta": 1.0, "depth": 2},
            "schedule": {"iterations": 2, "burn_in": 0, "lag": 1, "final_samples": 1,
                         "chains": 1, "seed": 0},
            "io": {"input": str(bad), "output_dir": str(tmp_path / "f")},
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("fit", cfg) == 2

    def test_non_numeric_config_value(self, tmp_path, sbt_dir, capsys):
        cfg = write_config(tmp_path, sbt_dir / "triples.tsv", tmp_path / "f")
        config = json.loads(cfg.read_text())
        config["model"]["gamma"] = "many"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("fit", cfg) == 1
        assert_one_line_error(capsys)

    def test_comment_only_input_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("# only a comment\n", encoding="utf-8")
        assert run_cli("fit", write_config(tmp_path, empty, tmp_path / "f")) == 2
        assert_one_line_error(capsys)

    def test_output_dir_below_a_file(self, tmp_path, sbt_dir, capsys):
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        cfg = write_config(tmp_path, sbt_dir / "triples.tsv", afile / "sub")
        assert run_cli("fit", cfg) == 1
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("section,key,value", [("model", "depth", 2.7), ("schedule", "iterations", 6.9)])
    def test_non_integral_config_integer(self, tmp_path, sbt_dir, capsys, section, key, value):
        cfg = write_config(tmp_path, sbt_dir / "triples.tsv", tmp_path / "f")
        config = json.loads(cfg.read_text())
        config[section][key] = value
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("fit", cfg) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"{section}.{key}" in err, err
        assert not (tmp_path / "f").exists()

    def test_manifest_lists_indicator_files(self, fit_dir):
        outputs = json.loads((fit_dir / "run_manifest.json").read_text())["outputs"]
        for stem in ("sample_chain0_00", "sample_chain0_01", "point_estimate_chain0"):
            assert f"{stem}.indicators.npy" in outputs
            assert (fit_dir / f"{stem}.indicators.npy").exists()


class TestEval:
    def test_self_comparison_scores_one(self, tmp_path, fit_dir):
        sample_path = fit_dir / "point_estimate_chain0.json"
        sample = json.loads(sample_path.read_text())
        truth_path = tmp_path / "self_truth.tsv"
        with open(truth_path, "w", encoding="utf-8") as fh:
            for ent in sample["entities"]:
                for level, community in enumerate(ent["path"], start=1):
                    fh.write(f"{ent['label']}\t{level}\t{community}\n")
        out = tmp_path / "metrics"
        assert run_cli("eval", sample_path, truth_path, "--out-dir", out) == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert all(row["ari"] == 1.0 and row["nmi"] == 1.0 for row in doc["levels"])
        assert (out / "metrics.txt").read_text().strip()

    def test_missing_entity_is_data_error(self, tmp_path, fit_dir, capsys):
        sample_path = fit_dir / "point_estimate_chain0.json"
        sample = json.loads(sample_path.read_text())
        truth_path = tmp_path / "short_truth.tsv"
        with open(truth_path, "w", encoding="utf-8") as fh:
            for ent in sample["entities"][:-1]:
                for level, community in enumerate(ent["path"], start=1):
                    fh.write(f"{ent['label']}\t{level}\t{community}\n")
        assert run_cli("eval", sample_path, truth_path, "--out-dir", tmp_path / "m") == 2
        missing = sample["entities"][-1]["label"]
        assert missing in capsys.readouterr().err

    def test_out_dir_below_a_file(self, tmp_path, fit_dir, sbt_dir, capsys):
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        assert run_cli("eval", fit_dir / "point_estimate_chain0.json", sbt_dir / "truth.tsv",
                       "--out-dir", afile / "m") == 1
        assert_one_line_error(capsys)


class TestRender:
    def test_tree_text(self, fit_dir, capsys):
        assert run_cli("render", fit_dir / "point_estimate_chain0.json") == 0
        out = capsys.readouterr().out
        assert out.startswith("root")
        assert "e0" in out

    def test_structure_only(self, fit_dir, capsys):
        assert run_cli("render", fit_dir / "point_estimate_chain0.json", "--max-members", 0) == 0
        out = capsys.readouterr().out
        assert "e0" not in out
        assert "root" in out

    def test_parse_failure(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert run_cli("render", bad) == 2

    @pytest.mark.parametrize("field,value", [("level", 7), ("level", 0), ("path", [1, 2, 3])])
    def test_inconsistent_sample_is_data_error(self, tmp_path, fit_dir, sbt_dir, capsys, field, value):
        doc = json.loads((fit_dir / "point_estimate_chain0.json").read_text())
        doc["entities"][1][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        for args in (("render", bad), ("eval", bad, sbt_dir / "truth.tsv", "--out-dir", tmp_path / "m"),
                     ("relations", bad, sbt_dir / "triples.tsv", "--out", tmp_path / "r.csv")):
            assert run_cli(*args) == 2, args
            assert_one_line_error(capsys)


class TestRelations:
    def test_csv_written(self, tmp_path, fit_dir, sbt_dir):
        out = tmp_path / "relations.csv"
        assert run_cli("relations", fit_dir / "point_estimate_chain0.json",
                       sbt_dir / "triples.tsv", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "from_community,to_community,predicate,posterior_mean"
        assert len(lines) > 1
        for line in lines[1:]:
            value = float(line.rsplit(",", 1)[1])
            assert 0.0 <= value <= 1.0

    def test_empty_sample_header_only(self, tmp_path):
        sample = {
            "iteration": 0, "log_likelihood": 0.0,
            "tree": {"id": 0, "level": 0, "pass_count": 0, "children": []},
            "entities": [],
        }
        sample_path = tmp_path / "empty.json"
        sample_path.write_text(json.dumps(sample), encoding="utf-8")
        triples = tmp_path / "none.tsv"
        triples.write_text("", encoding="utf-8")
        out = tmp_path / "rel.csv"
        assert run_cli("relations", sample_path, triples, "--out", out) == 0
        assert out.read_text() == "from_community,to_community,predicate,posterior_mean\n"

    def test_csv_equals_in_process_means(self, tmp_path, fit_dir, sbt_dir):
        kg = load_triples(sbt_dir / "triples.tsv")
        hyper = Hyperparameters(gamma=1.0, mu=0.5, sigma=1.0, lam=1.0, eta=1.0, depth=2,
                                schedule=Schedule(iterations=6, burn_in=2, lag=2, final_samples=2,
                                                  chains=1, seed=11))
        point, _ = sampler.aggregate(sampler.run(kg, hyper)[0])
        want = sampler.relations_from_sample(point, kg, 0.5, 2.0)
        out = tmp_path / "relations.csv"
        assert run_cli("relations", fit_dir / "point_estimate_chain0.json", sbt_dir / "triples.tsv",
                       "--lam", 0.5, "--eta", 2.0, "--out", out) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        plab = kg.predicate_labels
        assert {(a, b, r): float(v) for a, b, r, v in rows} == {
            (f"t{a}", f"t{b}", plab[r]): v for (a, b, r), v in want.items()
        }

    @pytest.mark.parametrize("flag,value", [("--lam", -0.5), ("--eta", 0.0), ("--lam", "nan")])
    def test_invalid_prior_rejected(self, tmp_path, fit_dir, sbt_dir, capsys, flag, value):
        out = tmp_path / "rel.csv"
        assert run_cli("relations", fit_dir / "point_estimate_chain0.json", sbt_dir / "triples.tsv",
                       flag, value, "--out", out) == 1
        assert not out.exists()
        assert_one_line_error(capsys)

    def test_out_in_missing_dir(self, tmp_path, fit_dir, sbt_dir, capsys):
        out = tmp_path / "missing" / "dir" / "r.csv"
        assert run_cli("relations", fit_dir / "point_estimate_chain0.json", sbt_dir / "triples.tsv",
                       "--out", out) == 1
        assert_one_line_error(capsys)


class TestDeterminism:
    def test_manifest_config_round_trip(self, tmp_path, fit_dir):
        manifest = json.loads((fit_dir / "run_manifest.json").read_text())
        replay_cfg = dict(manifest["config"])
        replay_cfg["io"] = dict(replay_cfg["io"], output_dir=str(tmp_path / "replay"))
        cfg = tmp_path / "replay.json"
        cfg.write_text(json.dumps(replay_cfg), encoding="utf-8")
        assert run_cli("fit", cfg) == 0
        for name in ("trace_chain0.csv", "point_estimate_chain0.json"):
            assert (tmp_path / "replay" / name).read_bytes() == (fit_dir / name).read_bytes()

    def test_fit_byte_identical(self, tmp_path, sbt_dir):
        outputs = []
        for name in ("run_a", "run_b"):
            config = {
                "model": {"gamma": 1.0, "mu": 0.5, "sigma": 1.0, "lambda": 1.0, "eta": 1.0,
                          "depth": 2},
                "schedule": {"iterations": 5, "burn_in": 1, "lag": 2, "final_samples": 2,
                             "chains": 2, "seed": 21},
                "io": {"input": str(sbt_dir / "triples.tsv"), "output_dir": str(tmp_path / name)},
            }
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            assert run_cli("fit", cfg) == 0
            outputs.append(tmp_path / name)
        a, b = outputs
        for path_a in sorted(a.iterdir()):
            path_b = b / path_a.name
            if path_a.suffix in (".csv", ".json", ".npy"):
                if path_a.name == "run_manifest.json":
                    continue  # embeds the output directory path
                assert path_a.read_bytes() == path_b.read_bytes(), path_a.name


def test_usage_error_exit_code():
    assert main(["fit"]) == 1  # missing config argument
    assert main(["no-such-command"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "gen-sbt" in capsys.readouterr().out
