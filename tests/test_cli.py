import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import hiersbm
from hiersbm import sampler, synth
from hiersbm.cli import main
from hiersbm.hierarchy import Hierarchy
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


def write_sample_beside(doc, tmp_path, fit_dir):
    """Write ``doc`` as a sample JSON beside a copy of chain 0's point-estimate indicators; return its path."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "bad.indicators.npy").write_bytes((fit_dir / "point_estimate_chain0.indicators.npy").read_bytes())
    return path


def shift_ids(doc, offset):
    """The sample ``doc`` with every community id but the root's moved by ``offset``, its tree still matching."""
    def shift(node):
        return {**node, "id": node["id"] + offset if node["level"] else node["id"],
                "children": [shift(child) for child in node["children"]]}
    entities = [{**e, "path": [c + offset for c in e["path"]]} for e in doc["entities"]]
    return {**doc, "tree": shift(doc["tree"]), "entities": entities}


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

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_probs_rejected(self, tmp_path, capsys, bad):
        out = tmp_path / "x"
        assert run_cli("gen-sbt", "--depth", 2, "--per-leaf", 2, "--probs", bad, 0.2,
                       "--out-dir", out) == 1
        assert "level_probs" in assert_one_line_error(capsys)
        assert not out.exists()

    def test_out_dir_below_a_file(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        assert run_cli("gen-sbt", "--depth", 2, "--per-leaf", 2, "--probs", 0.1, 0.4,
                       "--out-dir", afile / "sub") == 1
        assert_one_line_error(capsys)

    def test_negative_seed_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_cli("gen-sbt", "--depth", 2, "--per-leaf", 2, "--probs", 0.1, 0.4,
                       "--seed", -1, "--out-dir", out) == 1
        assert "--seed" in assert_one_line_error(capsys)
        assert not out.exists()

    def test_dataset_too_large_for_memory(self, tmp_path, monkeypatch, capsys):
        # as numpy refuses the n x n array of a deep tree, allocating nothing
        def refuse(*args):
            raise MemoryError("Unable to allocate 2.00 PiB for an array")

        monkeypatch.setattr(synth, "generate_sbt", refuse)
        out = tmp_path / "x"
        assert run_cli("gen-sbt", "--depth", 2, "--per-leaf", 2, "--probs", 0.1, 0.4, "--out-dir", out) == 1
        assert "memory" in assert_one_line_error(capsys)
        assert not out.exists()


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

    @pytest.mark.parametrize("model", [
        pytest.param({"gamma": "many"}, id="gamma-many"),
        pytest.param({"gamma": True}, id="gamma-true"),
        pytest.param({"gamma": "3"}, id="gamma-numeric-string"),
        pytest.param({"level_prior_mode": "dirichlet", "alpha": "12"}, id="alpha-string"),
        pytest.param({"level_prior_mode": "dirichlet", "alpha": [1, "2"]}, id="alpha-string-entry"),
        pytest.param({"alpha": [1.0, 1.0]}, id="alpha-in-stick-mode"),
    ])
    def test_non_numeric_config_value(self, tmp_path, sbt_dir, capsys, model):
        # priors must be JSON numbers: none of these is turned into one
        cfg = write_config(tmp_path, sbt_dir / "triples.tsv", tmp_path / "f")
        config = json.loads(cfg.read_text())
        config["model"].update(model)
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("fit", cfg) == 1
        assert assert_one_line_error(capsys).startswith("config error: ")
        assert not (tmp_path / "f").exists()

    def test_depth_beyond_a_uint8_level_is_config_error(self, tmp_path, sbt_dir, capsys):
        # a stored sample keeps its levels as uint8, so deeper levels would wrap
        cfg = write_config(tmp_path, sbt_dir / "triples.tsv", tmp_path / "f")
        config = json.loads(cfg.read_text())
        config["model"]["depth"] = 256
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("fit", cfg) == 1
        err = assert_one_line_error(capsys)
        assert err.startswith("config error: ") and "255" in err, err
        assert not (tmp_path / "f").exists()

    def test_config_nested_beyond_the_recursion_limit_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("[" * 5000 + "]" * 5000, encoding="utf-8")
        assert run_cli("fit", cfg) == 1
        err = assert_one_line_error(capsys)
        assert err.startswith("config error: ") and "nested too deeply" in err, err
        assert not (tmp_path / "f").exists()

    def test_dirichlet_fit(self, tmp_path, sbt_dir):
        cfg = write_config(tmp_path, sbt_dir / "triples.tsv", tmp_path / "f")
        config = json.loads(cfg.read_text())
        config["model"].update(level_prior_mode="dirichlet", alpha=[0.7, 1.4])
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("fit", cfg) == 0
        model = json.loads((tmp_path / "f" / "run_manifest.json").read_text())["config"]["model"]
        assert (model["level_prior_mode"], model["alpha"]) == ("dirichlet", [0.7, 1.4])

    def test_comment_only_input_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("# only a comment\n", encoding="utf-8")
        assert run_cli("fit", write_config(tmp_path, empty, tmp_path / "f")) == 2
        assert_one_line_error(capsys)

    def test_non_utf8_input_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"a\tp\tb\n\xff\tp\tb\n")
        assert run_cli("fit", write_config(tmp_path, bad, tmp_path / "f")) == 2
        assert "cannot read" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("malform", ["not UTF-8", "a list", "a number as io.input"])
    def test_malformed_config_is_config_error(self, tmp_path, sbt_dir, capsys, malform):
        cfg = write_config(tmp_path, sbt_dir / "triples.tsv", tmp_path / "f")
        config = json.loads(cfg.read_text())
        if malform == "not UTF-8":
            cfg.write_bytes(cfg.read_bytes().replace(b'"stick"', b'"st\xffck"'))
        elif malform == "a list":
            cfg.write_text(json.dumps([config]), encoding="utf-8")
        else:
            config["io"]["input"] = 5
            cfg.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("fit", cfg) == 1
        assert assert_one_line_error(capsys).startswith("config error: ")
        assert not (tmp_path / "f").exists()

    @pytest.mark.parametrize("config_seed,flags", [(-1, ()), (11, ("--seed", -2))], ids=["config", "flag"])
    def test_negative_seed_is_config_error(self, tmp_path, sbt_dir, capsys, config_seed, flags):
        cfg = write_config(tmp_path, sbt_dir / "triples.tsv", tmp_path / "f")
        config = json.loads(cfg.read_text())
        config["schedule"]["seed"] = config_seed
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("fit", cfg, *flags) == 1
        err = assert_one_line_error(capsys)
        assert err.startswith("config error: ") and "schedule.seed" in err, err
        assert not (tmp_path / "f").exists()

    def test_output_dir_below_a_file(self, tmp_path, sbt_dir, capsys):
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        cfg = write_config(tmp_path, sbt_dir / "triples.tsv", afile / "sub")
        assert run_cli("fit", cfg) == 1
        assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "section,key,value", [("model", "depth", 2.7), ("schedule", "iterations", 6.9), ("schedule", "chains", True)]
    )
    def test_non_integral_config_integer(self, tmp_path, sbt_dir, capsys, section, key, value):
        cfg = write_config(tmp_path, sbt_dir / "triples.tsv", tmp_path / "f")
        config = json.loads(cfg.read_text())
        config[section][key] = value
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("fit", cfg) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"{section}.{key}" in err, err
        assert not (tmp_path / "f").exists()

    @pytest.mark.parametrize(
        "key,value", [("gamma", "Infinity"), ("lambda", "Infinity"), ("sigma", "Infinity"), ("alpha", "[NaN, 1, 1]"),
                      ("lambda", "1e308"), ("gamma", "1e308")]  # 1e308 is finite, but its log-gamma is not
    )
    def test_non_finite_prior_rejected(self, tmp_path, sbt_dir, capsys, key, value):
        cfg = write_config(tmp_path, sbt_dir / "triples.tsv", tmp_path / "f")
        config = json.loads(cfg.read_text())
        config["model"][key] = "VALUE"
        if key == "alpha":
            config["model"].update(level_prior_mode="dirichlet", depth=3)
        # json writes no Infinity or NaN on request, but it reads them
        cfg.write_text(json.dumps(config).replace('"VALUE"', value), encoding="utf-8")
        assert run_cli("fit", cfg) == 1
        err = assert_one_line_error(capsys)
        assert "finite" in err
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

    def test_conflicting_truth_label_is_data_error(self, tmp_path, fit_dir, sbt_dir, capsys):
        truth = sbt_dir / "truth.tsv"
        lines = truth.read_text(encoding="utf-8").splitlines()
        entity, level, label = lines[0].split("\t")
        repeated = tmp_path / "repeated.tsv"
        repeated.write_text("\n".join(lines + [lines[0]]) + "\n", encoding="utf-8")
        assert run_cli("eval", fit_dir / "point_estimate_chain0.json", repeated, "--out-dir", tmp_path / "same") == 0
        same = json.loads((tmp_path / "same" / "metrics.json").read_text())
        assert run_cli("eval", fit_dir / "point_estimate_chain0.json", truth, "--out-dir", tmp_path / "m") == 0
        assert same == json.loads((tmp_path / "m" / "metrics.json").read_text())
        capsys.readouterr()
        conflicting = tmp_path / "conflicting.tsv"
        conflicting.write_text("\n".join(lines + [f"{entity}\t{level}\tZZZ"]) + "\n", encoding="utf-8")
        assert run_cli("eval", fit_dir / "point_estimate_chain0.json", conflicting, "--out-dir", tmp_path / "c") == 2
        err = assert_one_line_error(capsys)
        assert f"conflicting.tsv:{len(lines) + 1}:" in err and "ZZZ" in err
        assert not (tmp_path / "c").exists()

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
        bad = write_sample_beside(doc, tmp_path, fit_dir)
        for args in (("render", bad), ("eval", bad, sbt_dir / "truth.tsv", "--out-dir", tmp_path / "m"),
                     ("relations", bad, sbt_dir / "triples.tsv", "--out", tmp_path / "r.csv")):
            assert run_cli(*args) == 2, args
            assert_one_line_error(capsys)


    @pytest.mark.parametrize("malform", [
        lambda doc: [],
        lambda doc: {**doc, "entities": ["e0", *doc["entities"][1:]]},
        lambda doc: {**doc, "entities": [{**doc["entities"][0], "path": 5}, *doc["entities"][1:]]},
        lambda doc: {**doc, "tree": {}},
        lambda doc: {**doc, "tree": Hierarchy([[c + 100 for c in e["path"]] for e in doc["entities"]]).to_dict()},
        lambda doc: shift_ids(doc, 2**62),
    ], ids=["not-an-object", "string-entity", "number-path", "empty-tree", "tree-of-other-paths", "huge-ids"])
    def test_malformed_sample_is_data_error(self, tmp_path, fit_dir, sbt_dir, capsys, malform):
        doc = json.loads((fit_dir / "point_estimate_chain0.json").read_text())
        bad = write_sample_beside(malform(doc), tmp_path, fit_dir)
        for args in (("render", bad), ("eval", bad, sbt_dir / "truth.tsv", "--out-dir", tmp_path / "m"),
                     ("relations", bad, sbt_dir / "triples.tsv", "--out", tmp_path / "r.csv")):
            assert run_cli(*args) == 2, args
            assert_one_line_error(capsys)

    def test_sample_nested_beyond_the_recursion_limit_is_data_error(self, tmp_path, sbt_dir, capsys):
        depth = 1500
        node = '{{"id": {0}, "level": {0}, "pass_count": 1, "children": ['
        tree = "".join(node.format(level) for level in range(depth + 1)) + "]}" * (depth + 1)
        entity = json.dumps({"label": "e0", "level": 1, "path": list(range(1, depth + 1))})
        bad = tmp_path / "deep.json"
        bad.write_text(f'{{"iteration": 0, "log_likelihood": 0.0, "entities": [{entity}], "tree": {tree}}}',
                       encoding="utf-8")
        np.save(tmp_path / "deep.indicators.npy", np.ones((1, 1, 2), dtype=np.uint8))
        for args in (("render", bad), ("eval", bad, sbt_dir / "truth.tsv", "--out-dir", tmp_path / "m"),
                     ("relations", bad, sbt_dir / "triples.tsv", "--out", tmp_path / "r.csv")):
            assert run_cli(*args) == 2, args
            assert_one_line_error(capsys)

    def test_level_other_than_the_indicator_mode_is_data_error(self, tmp_path, fit_dir, sbt_dir, capsys):
        doc = json.loads((fit_dir / "point_estimate_chain0.json").read_text())
        entity = doc["entities"][1]
        entity["level"] = 3 - entity["level"]  # the other level of the depth-2 fit
        bad = write_sample_beside(doc, tmp_path, fit_dir)
        for args in (("render", bad), ("eval", bad, sbt_dir / "truth.tsv", "--out-dir", tmp_path / "m"),
                     ("relations", bad, sbt_dir / "triples.tsv", "--out", tmp_path / "r.csv")):
            assert run_cli(*args) == 2, args
            err = assert_one_line_error(capsys)
            assert entity["label"] in err and "mode" in err, err

    @pytest.mark.parametrize("content", [b"", b"\x93N", None], ids=["empty", "two-bytes", "missing"])
    def test_unreadable_indicators_file_is_data_error(self, tmp_path, fit_dir, sbt_dir, capsys, content):
        point = fit_dir / "point_estimate_chain0.json"
        indicators = fit_dir / "point_estimate_chain0.indicators.npy"
        if content is None:
            indicators.unlink()
        else:
            indicators.write_bytes(content)
        for args in (("render", point), ("eval", point, sbt_dir / "truth.tsv", "--out-dir", tmp_path / "m"),
                     ("relations", point, sbt_dir / "triples.tsv", "--out", tmp_path / "r.csv")):
            assert run_cli(*args) == 2, args
            err = assert_one_line_error(capsys)
            assert "point_estimate_chain0.indicators.npy" in err and "pickled" not in err, err


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
        np.save(tmp_path / "empty.indicators.npy", np.empty((0, 0, 2), dtype=np.uint8))
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

    @pytest.mark.parametrize("flag,value", [("--lam", -0.5), ("--eta", 0.0), ("--lam", "nan"), ("--lam", 1e308)])
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


# A two-chain fit of ``gen-sbt --depth 3 --per-leaf 4 --probs 0.1 0.4 0.6
# --predicates 2 --seed 7``, recorded at commit 8f7fbac: the SHA-256 of every
# stored sample's entity paths (JSON) and of every ``*.indicators.npy`` file.
# Log-likelihoods are left out: they are exactly rounded sums, but the last
# digits of their log-gamma terms depend on the platform's math library.  A
# change that fails this test changes fixed-seed outputs and must say so.
PINNED_FIT_SHA256 = "0f582bb115637a18542bf8bdf8eba53ca0e55afcd098475386e393e8422b74c8"


def _pinned_fit(tmp_path):
    """Run the pinned two-chain fit; return its data and output directories."""
    data = tmp_path / "data"
    assert run_cli("gen-sbt", "--depth", 3, "--per-leaf", 4, "--probs", 0.1, 0.4, 0.6,
                   "--predicates", 2, "--seed", 7, "--out-dir", data) == 0
    config = {
        "model": {"gamma": 3.0, "mu": 0.5, "sigma": 1.0, "lambda": 1.0, "eta": 1.0, "depth": 3},
        "schedule": {"iterations": 8, "burn_in": 4, "lag": 2, "final_samples": 2, "chains": 2, "seed": 0},
        "io": {"input": str(data / "triples.tsv"), "output_dir": str(tmp_path / "fit")},
    }
    cfg = tmp_path / "pin.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli("fit", cfg) == 0
    return data, tmp_path / "fit"


def test_fixed_seed_fit_is_pinned(tmp_path):
    _, fit = _pinned_fit(tmp_path)
    digest = hashlib.sha256()
    for path in sorted(fit.iterdir()):
        if path.name.endswith(".indicators.npy"):
            digest.update(path.name.encode() + path.read_bytes())
        elif path.suffix == ".json" and path.name != "run_manifest.json":
            entities = json.loads(path.read_text())["entities"]
            digest.update(path.name.encode() + json.dumps([(e["label"], e["path"]) for e in entities]).encode())
    assert digest.hexdigest() == PINNED_FIT_SHA256


# The read-outs of the pinned fit's point estimates, recorded at commit
# 772f8a1: the SHA-256 of ``hiersbm eval``'s ``metrics.json`` and of
# ``hiersbm relations``' CSV, per chain.  The relation means are ratios of
# counts, and ARI is rational in counts; NMI reads ``math.log``, so a math
# library whose log rounds differently could move its last digit.
PINNED_READOUT_SHA256 = {
    "chain0": ("c6f3d25e7812ca1b3219495c5925b6161db9aafd63e457c6dc8d312a72d5f901",
               "6dcb25cc9f3e2d9146b810f8184c5a13fd6599c49369353d784ce501c47911c9"),
    "chain1": ("8d6393a2f6c726954237a1bce3b4dcd25d634adee5f6622ba7964b1c7c4a8c75",
               "aa111652fb2bf612f02f6d0814b9b4fdea357c0d2dbf34ba61ddfe9160cbda2a"),
}


def test_fixed_seed_readouts_are_pinned(tmp_path):
    data, fit = _pinned_fit(tmp_path)
    got = {}
    for chain in PINNED_READOUT_SHA256:
        sample, out = fit / f"point_estimate_{chain}.json", tmp_path / chain
        assert run_cli("eval", sample, data / "truth.tsv", "--out-dir", out) == 0
        assert run_cli("relations", sample, data / "triples.tsv", "--out", out / "relations.csv") == 0
        got[chain] = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                           for name in ("metrics.json", "relations.csv"))
    assert got == PINNED_READOUT_SHA256


def test_usage_error_exit_code():
    assert main(["fit"]) == 1  # missing config argument
    assert main(["no-such-command"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "gen-sbt" in capsys.readouterr().out


def child_env() -> dict:
    """This process's environment, with this hiersbm first on ``PYTHONPATH``."""
    src = os.path.dirname(os.path.dirname(hiersbm.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this hiersbm; return the finished process."""
    return subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("unbuffered", ["1", None])
@pytest.mark.parametrize("command", ["render", "eval"])
def test_closed_standard_output_is_one_line_and_exit_1(tmp_path, sbt_dir, fit_dir, command, unbuffered):
    # the pipe's read end is closed before the command starts; unbuffered, the command's own print fails,
    # buffered, the flush of what it printed does
    args = {"render": ["render", fit_dir / "point_estimate_chain0.json"],
            "eval": ["eval", fit_dir / "point_estimate_chain0.json", sbt_dir / "truth.tsv", "--out-dir", tmp_path / "ev"]}
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "hiersbm", *map(str, args[command])], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr


class TestRunTime:
    def test_import_loads_no_scipy(self):
        proc = run_python("import sys, hiersbm, hiersbm.cli\n"
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        # with sys.modules["scipy"] None, importing scipy or any submodule raises ImportError;
        # the fit's forked chain workers inherit the block
        script = textwrap.dedent(f"""
            import json, sys
            sys.modules["scipy"] = None
            from hiersbm.cli import main
            out = {str(tmp_path)!r}
            codes = [main(["gen-sbt", "--depth", "2", "--per-leaf", "3", "--probs", "0.1", "0.5",
                           "--predicates", "2", "--seed", "1", "--out-dir", out + "/data"])]
            config = {{"model": {{"gamma": 1.0, "mu": 0.5, "sigma": 1.0, "lambda": 1.0, "eta": 1.0, "depth": 2}},
                      "schedule": {{"iterations": 3, "burn_in": 1, "lag": 1, "final_samples": 2, "chains": 2,
                                   "seed": 0}},
                      "io": {{"input": out + "/data/triples.tsv", "output_dir": out + "/fit"}}}}
            with open(out + "/config.json", "w") as fh:
                json.dump(config, fh)
            point = out + "/fit/point_estimate_chain1.json"
            codes += [main(["fit", out + "/config.json"]),
                      main(["eval", point, out + "/data/truth.tsv", "--out-dir", out + "/eval"]),
                      main(["relations", point, out + "/data/triples.tsv", "--out", out + "/relations.csv"]),
                      main(["render", point])]
            print(codes, file=sys.stderr)
            sys.exit(max(codes))
        """)
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "[0, 0, 0, 0, 0]"
        assert (tmp_path / "eval" / "metrics.json").stat().st_size and (tmp_path / "relations.csv").stat().st_size
        assert "\nroot\n" in proc.stdout  # the rendered tree
