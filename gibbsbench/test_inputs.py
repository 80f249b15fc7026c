"""Tests of the benchmark's input generators and writers.

Run with ``python3 -m pytest gibbsbench``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs

HERE = Path(__file__).resolve().parent


def test_paper_size_binary_tree_lands_in_the_calibration_band():
    # depth 4, 25 per leaf, 0/0.1/0.4/0.6, 2 predicates: 56000 +- 600 triples
    for seed in range(20):
        adj, _ = inputs.binary_tree_graph(4, 25, (0.0, 0.1, 0.4, 0.6), 2, seed)
        assert 56000 - 600 <= int(adj.sum()) <= 56000 + 600, seed


def test_binary_tree_hand_case():
    adj, truth = inputs.binary_tree_graph(2, 1, (0.0, 1.0), 1, seed=3)
    blocks = np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], dtype=bool)
    assert np.array_equal(adj[:, :, 0], blocks)
    assert truth == [(1, 3), (1, 4), (2, 5), (2, 6)]


def test_wide_graph_shape_and_labels():
    adj, truth = inputs.wide_graph(4, 3, 10, 32, seed=1)
    assert adj.shape == (120, 120, 32)
    assert 0 < adj.mean() < 0.15
    assert truth[0] == (0, 0) and truth[29] == (0, 2) and truth[30] == (1, 3) and truth[119] == (3, 11)


def test_writers_sort_triples_and_truth(tmp_path):
    adj, truth = inputs.binary_tree_graph(2, 2, (0.2, 0.5), 2, seed=5)
    count = inputs.write_triples(adj, tmp_path / "t.tsv")
    inputs.write_truth(truth, tmp_path / "g.tsv")
    rows = [line.split("\t") for line in (tmp_path / "t.tsv").read_text().splitlines()]
    ids = [(int(s[1:]), int(p[1:]), int(o[1:])) for s, p, o in rows]
    assert count == len(ids) == int(adj.sum())
    assert ids == sorted(ids)
    assert all(adj[s, o, p] for s, p, o in ids)
    truth_rows = (tmp_path / "g.tsv").read_text().splitlines()
    assert truth_rows[:2] == ["e0\t1\t1", "e0\t2\t3"] and len(truth_rows) == 2 * len(truth)


WRITE_BOTH = """
import sys
import inputs
out = sys.argv[1]
adj, truth = inputs.binary_tree_graph(4, 10, (0.0, 0.1, 0.4, 0.6), 2, 11)
inputs.write_triples(adj, out + "/sbt_triples.tsv"); inputs.write_truth(truth, out + "/sbt_truth.tsv")
adj, truth = inputs.wide_graph(4, 3, 10, 32, 11)
inputs.write_triples(adj, out + "/wide_triples.tsv"); inputs.write_truth(truth, out + "/wide_truth.tsv")
"""


def test_files_do_not_depend_on_the_hash_seed(tmp_path):
    digests = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / hash_seed
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(HERE))
        subprocess.run([sys.executable, "-c", WRITE_BOTH, str(out)], env=env, check=True, timeout=120)
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())})
    assert len(digests[0]) == 4
    assert digests[0] == digests[1]
