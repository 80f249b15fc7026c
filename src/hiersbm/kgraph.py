"""Knowledge graph data model, TSV ingestion and degree statistics.

A knowledge graph is held as dense entity/predicate dictionaries plus the
array of its ones: a read-only (T, 3) int64 array of (subject, object,
predicate) id rows, sorted and free of duplicates.  The binary adjacency
tensor is implicit: a row's presence means a one, absence means a zero.
Self-loops are permitted; duplicate triples collapse to one row.

Every pass over the graph is one numpy step over those rows and costs O(T):
the constructor's bounds check and duplicate removal (one sort of the packed
keys ``(s*E + o)*R + r``), the degrees (two ``bincount`` calls), and the
sampler's count of the ones per sibling pair.  Only ``dense_tensor`` pays for
all E x E x R cells; the sampler's moves read it, and no read-out does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KnowledgeGraph",
    "DegreeTable",
    "TripleParseError",
    "load_triples",
    "save_triples",
    "degree_table",
]


class TripleParseError(ValueError):
    """A TSV line could not be parsed; the message names the file and the line."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


@dataclass(eq=False)
class KnowledgeGraph:
    """Entity/predicate dictionaries plus the array of the graph's ones.

    ``entities`` and ``predicates`` map labels to dense ids assigned in
    first-appearance order.  The constructor takes ``triples`` as any
    iterable of (subject, object, predicate) id triples or any (T, 3) integer
    array, and keeps them as a read-only (T, 3) int64 array, its rows sorted
    and distinct.  Instances are treated as immutable once constructed;
    concurrent reads are safe.  Two graphs are equal only if they are the
    same object.
    """

    entities: dict[str, int]
    predicates: dict[str, int]
    triples: np.ndarray

    def __post_init__(self):
        ne, nr = len(self.entities), len(self.predicates)
        if sorted(self.entities.values()) != list(range(ne)):
            raise ValueError("entity ids must be dense 0..|E|-1")
        if sorted(self.predicates.values()) != list(range(nr)):
            raise ValueError("predicate ids must be dense 0..|R|-1")
        if ne * ne * nr >= 2**63:
            raise ValueError(f"{ne} entities and {nr} predicates have more cells than an int64 key can number")
        t = self.triples
        t = np.asarray(t if isinstance(t, np.ndarray) else list(t), dtype=np.int64)
        if t.size == 0:
            t = t.reshape(0, 3)
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError(f"triples must be (subject, object, predicate) rows, got shape {t.shape}")
        s, o, r = t.T
        bad = (s < 0) | (s >= ne) | (o < 0) | (o >= ne) | (r < 0) | (r >= nr)
        if bad.any():
            raise ValueError(f"triple {tuple(t[bad][0].tolist())} out of dictionary bounds")
        keys = np.sort((s * ne + o) * nr + r)
        keys = keys[np.diff(keys, prepend=-1) > 0]  # sorted, so a repeat follows its first copy
        subject, rest = np.divmod(keys, ne * nr)
        self.triples = np.column_stack([subject, *np.divmod(rest, nr)])
        self.triples.flags.writeable = False

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_predicates(self) -> int:
        return len(self.predicates)

    @property
    def entity_labels(self) -> list[str]:
        out = [""] * len(self.entities)
        for label, idx in self.entities.items():
            out[idx] = label
        return out

    @property
    def predicate_labels(self) -> list[str]:
        out = [""] * len(self.predicates)
        for label, idx in self.predicates.items():
            out[idx] = label
        return out

    def dense_tensor(self) -> np.ndarray:
        """The full |E| x |E| x |R| binary tensor as uint8."""
        g = np.zeros((self.num_entities, self.num_entities, self.num_predicates), dtype=np.uint8)
        g[tuple(self.triples.T)] = 1
        return g


@dataclass
class DegreeTable:
    """Per-entity degree and the derived sampling probability.

    ``degree[i]`` counts subject plus object occurrences over all triples
    (a self-loop contributes two).  ``sampling_prob[i]`` is
    ``(#entities with strictly smaller degree + 1) / |E|``, which is
    monotone in degree and strictly positive.
    """

    degree: np.ndarray
    sampling_prob: np.ndarray


def load_triples(path) -> KnowledgeGraph:
    """Parse a UTF-8 TSV file of ``subject<TAB>predicate<TAB>object`` lines.

    Lines starting with '#' and blank lines are ignored.  Ids are assigned in
    first-appearance order and collected line by line into one id array;
    duplicated lines collapse to a single triple.
    Raises :class:`TripleParseError` with the offending line number on a
    malformed line, and propagates I/O errors for unreadable files.
    """
    entities: dict[str, int] = {}
    predicates: dict[str, int] = {}
    ids: list[int] = []  # subject, object, predicate per line
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise TripleParseError(path, line_no, f"expected 3 tab-separated fields, got {len(fields)}")
            subj, pred, obj = fields
            si = entities.setdefault(subj, len(entities))
            oi = entities.setdefault(obj, len(entities))
            ri = predicates.setdefault(pred, len(predicates))
            ids += (si, oi, ri)
    return KnowledgeGraph(entities, predicates, np.array(ids, dtype=np.int64).reshape(-1, 3))


def save_triples(kg: KnowledgeGraph, path) -> None:
    """Write the graph in the TSV triple format, in the rows' (subject, object, predicate) id order."""
    elab = np.array(kg.entity_labels, dtype=object)
    plab = np.array(kg.predicate_labels, dtype=object)
    s, o, r = kg.triples.T
    lines = elab[s] + "\t" + plab[r] + "\t" + elab[o] + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines.tolist()))


def degree_table(kg: KnowledgeGraph) -> DegreeTable:
    """Degrees and degree-rank sampling probabilities for every entity."""
    n = kg.num_entities
    if n < 1:
        raise ValueError("degree_table requires at least one entity")
    degree = np.bincount(kg.triples[:, 0], minlength=n) + np.bincount(kg.triples[:, 1], minlength=n)
    order = np.sort(degree)
    smaller = np.searchsorted(order, degree, side="left")
    prob = (smaller + 1) / n
    return DegreeTable(degree=degree, sampling_prob=prob)
