import numpy as np
import pytest

from hiersbm.kgraph import (
    KnowledgeGraph,
    TripleParseError,
    degree_table,
    load_triples,
    save_triples,
)


def triple_set(kg):
    """The graph's ones as a set of (subject, object, predicate) tuples.

    ``(i, j, r) in kg.triples`` on the (T, 3) array tests elements, not rows,
    so tests that read the ones as a set read this view.
    """
    return set(map(tuple, kg.triples.tolist()))


def dense_tensor_loop(kg):
    """Reference ``dense_tensor``: one write per triple."""
    g = np.zeros((kg.num_entities, kg.num_entities, kg.num_predicates), dtype=np.uint8)
    for i, j, r in kg.triples.tolist():
        g[i, j, r] = 1
    return g


def degree_loop(kg):
    """Reference ``degree_table``: degrees one triple at a time, ranks one entity at a time."""
    degree = [0] * kg.num_entities
    for i, j, _ in kg.triples.tolist():
        degree[i] += 1
        degree[j] += 1
    prob = [(sum(d < own for d in degree) + 1) / len(degree) for own in degree]
    return degree, prob


def random_triples(n_entities, n_predicates, count, seed):
    """``count`` uniform triples as a list: repeats and self-loops included, every self-loop repeated."""
    rng = np.random.default_rng(seed)
    drawn = rng.integers(0, [n_entities, n_entities, n_predicates], size=(count, 3)).tolist()
    loops = [(i, i, r) for i, _, r in drawn[: count // 4]]
    return [tuple(t) for t in drawn] + loops + loops


# Small directed graph used throughout: three predicates, one mutual edge,
# one self-free diagonal.
TOY_LINES = [
    "e7\tr0\te6",
    "e6\tr0\te7",
    "e5\tr0\te6",
    "e7\tr1\te0",
    "e6\tr1\te1",
    "e5\tr1\te2",
    "e5\tr1\te4",
    "e0\tr2\te4",
    "e2\tr2\te3",
    "e3\tr2\te4",
]


@pytest.fixture
def toy_kg(tmp_path):
    path = tmp_path / "toy.tsv"
    path.write_text("\n".join(TOY_LINES) + "\n", encoding="utf-8")
    return load_triples(path)


class TestLoadTriples:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tp\tb\nb\tp\ta\n", encoding="utf-8")
        kg = load_triples(path)
        assert kg.num_entities == 2
        assert kg.num_predicates == 1
        assert len(kg.triples) == 2

    def test_duplicates_collapse(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tp\tb\na\tp\tb\n", encoding="utf-8")
        kg = load_triples(path)
        assert len(kg.triples) == 1

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tp\tb\na\tp\n", encoding="utf-8")
        with pytest.raises(TripleParseError) as exc:
            load_triples(path)
        assert exc.value.line_no == 2

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# header\n\na\tp\tb\n   \n", encoding="utf-8")
        kg = load_triples(path)
        assert len(kg.triples) == 1

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            load_triples(tmp_path / "missing.tsv")

    def test_first_appearance_ids(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("x\tp\ty\ny\tq\tz\n", encoding="utf-8")
        kg = load_triples(path)
        assert kg.entities == {"x": 0, "y": 1, "z": 2}
        assert kg.predicates == {"p": 0, "q": 1}


class TestAdjacency:
    def test_present_edge(self, toy_kg):
        e = toy_kg.entities
        r = toy_kg.predicates
        assert toy_kg.dense_tensor()[e["e5"], e["e6"], r["r0"]] == 1

    def test_absent_diagonal(self, toy_kg):
        e = toy_kg.entities
        r = toy_kg.predicates
        assert toy_kg.dense_tensor()[e["e0"], e["e0"], r["r0"]] == 0

    def test_empty_graph(self):
        kg = KnowledgeGraph({"a": 0}, {"p": 0}, set())
        assert kg.dense_tensor().tolist() == [[[0]]]

    def test_out_of_bounds(self):
        # the graph holds no triple outside its dictionaries, so every triple has a cell
        with pytest.raises(ValueError, match="out of dictionary bounds"):
            KnowledgeGraph({"a": 0}, {"p": 0}, {(0, 1, 0)})
        with pytest.raises(ValueError, match="out of dictionary bounds"):
            KnowledgeGraph({"a": 0}, {"p": 0}, {(0, 0, 1)})

    def test_ones_count_matches_triples(self, toy_kg):
        g = toy_kg.dense_tensor()
        assert g.shape == (toy_kg.num_entities, toy_kg.num_entities, toy_kg.num_predicates)
        assert g.dtype == np.uint8
        assert g.sum() == len(toy_kg.triples)
        assert set(map(tuple, np.argwhere(g).tolist())) == triple_set(toy_kg)


# (entities, predicates, triples drawn): sparse, dense with many repeats, one entity, and empty graphs
GRAPHS = [(9, 4, 40, 0), (5, 2, 120, 1), (1, 3, 10, 2), (6, 3, 0, 3), (1, 1, 0, 4)]


class TestTripleArray:
    @pytest.mark.parametrize("n, n_pred, count, seed", GRAPHS)
    def test_rows_are_the_sorted_distinct_triples(self, n, n_pred, count, seed):
        raw = random_triples(n, n_pred, count, seed)
        entities, predicates = {f"e{i}": i for i in range(n)}, {f"r{r}": r for r in range(n_pred)}
        for given in (raw, set(raw), np.array(raw, dtype=np.int32).reshape(-1, 3), iter(raw)):
            kg = KnowledgeGraph(entities, predicates, given)
            assert kg.triples.dtype == np.int64 and kg.triples.shape == (len(set(raw)), 3)
            assert kg.triples.tolist() == [list(t) for t in sorted(set(raw))]
            assert not kg.triples.flags.writeable

    @pytest.mark.parametrize("n, n_pred, count, seed", GRAPHS)
    def test_dense_tensor_and_degrees_match_the_loops(self, n, n_pred, count, seed):
        kg = KnowledgeGraph({f"e{i}": i for i in range(n)}, {f"r{r}": r for r in range(n_pred)},
                            random_triples(n, n_pred, count, seed))
        g = kg.dense_tensor()
        assert g.dtype == np.uint8 and np.array_equal(g, dense_tensor_loop(kg))
        table = degree_table(kg)
        degree, prob = degree_loop(kg)
        assert table.degree.dtype == np.int64 and table.degree.tolist() == degree
        assert table.sampling_prob.tolist() == prob

    def test_graph_without_entities(self):
        kg = KnowledgeGraph({}, {}, [])
        assert kg.triples.shape == (0, 3)
        assert kg.dense_tensor().shape == (0, 0, 0)

    @pytest.mark.parametrize("triples", [np.zeros((2, 2), dtype=np.int64), np.zeros(3, dtype=np.int64), [(0, 0)]])
    def test_rows_of_three_required(self, triples):
        with pytest.raises(ValueError, match="rows"):
            KnowledgeGraph({"a": 0}, {"p": 0}, triples)

    def test_negative_id_out_of_bounds(self):
        with pytest.raises(ValueError, match=r"triple \(0, -1, 0\) out of dictionary bounds"):
            KnowledgeGraph({"a": 0}, {"p": 0}, np.array([[0, 0, 0], [0, -1, 0]]))


class TestDegreeTable:
    def _kg_with_degrees(self, degrees):
        # chain self-loops on distinct predicates to hit exact degree targets
        entities = {f"e{i}": i for i in range(len(degrees))}
        predicates = {}
        triples = set()
        for i, d in enumerate(degrees):
            assert d % 2 == 0, "self-loops give even degrees"
            for k in range(d // 2):
                predicates.setdefault(f"p{i}_{k}", len(predicates))
                triples.add((i, i, predicates[f"p{i}_{k}"]))
        return KnowledgeGraph(entities, predicates, triples)

    def test_rank_formula(self):
        kg = self._kg_with_degrees([2, 4, 4, 10])
        table = degree_table(kg)
        assert table.degree.tolist() == [2, 4, 4, 10]
        assert table.sampling_prob.tolist() == [1 / 4, 2 / 4, 2 / 4, 4 / 4]

    def test_all_equal_degrees(self):
        kg = self._kg_with_degrees([2, 2, 2])
        table = degree_table(kg)
        assert np.allclose(table.sampling_prob, 1 / 3)

    def test_zero_degree_entity(self):
        kg = KnowledgeGraph({"a": 0, "b": 1}, {"p": 0}, {(1, 1, 0)})
        table = degree_table(kg)
        assert table.degree.tolist() == [0, 2]
        assert table.sampling_prob.tolist() == [1 / 2, 1.0]

    def test_empty_graph_rejected(self):
        kg = KnowledgeGraph({}, {}, set())
        with pytest.raises(ValueError):
            degree_table(kg)

    def test_monotone_in_degree(self, toy_kg):
        table = degree_table(toy_kg)
        order = np.argsort(table.degree)
        probs = table.sampling_prob[order]
        assert np.all(np.diff(probs) >= 0)
        assert np.all(table.sampling_prob > 0)
        assert np.all(table.sampling_prob <= 1)
        # equal degree implies equal probability
        by_degree = {}
        for d, s in zip(table.degree, table.sampling_prob):
            by_degree.setdefault(int(d), set()).add(float(s))
        assert all(len(v) == 1 for v in by_degree.values())

    def test_degree_sum_identity(self, toy_kg):
        table = degree_table(toy_kg)
        assert table.degree.sum() == 2 * len(toy_kg.triples)


def test_save_load_round_trip(toy_kg, tmp_path):
    path = tmp_path / "round.tsv"
    save_triples(toy_kg, path)
    again = load_triples(path)
    lab = lambda kg: {
        (kg.entity_labels[i], kg.predicate_labels[r], kg.entity_labels[j])
        for i, j, r in kg.triples.tolist()
    }
    assert lab(again) == lab(toy_kg)
    assert set(again.entities) == set(toy_kg.entities)
    assert set(again.predicates) == set(toy_kg.predicates)
