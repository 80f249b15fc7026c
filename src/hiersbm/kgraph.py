"""Knowledge graph data model, TSV ingestion and degree statistics.

A knowledge graph is held as dense entity/predicate dictionaries plus a sparse
set of (subject, object, predicate) id triples.  The binary adjacency tensor is
implicit: a triple's presence means a one, absence means a zero.  Self-loops
are permitted; duplicate triples collapse under set semantics.
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
    """A TSV line did not have the expected tab-separated field count."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


@dataclass
class KnowledgeGraph:
    """Entity/predicate dictionaries plus the sparse triple set.

    ``entities`` and ``predicates`` map labels to dense ids assigned in
    first-appearance order.  Instances are treated as immutable once
    constructed; concurrent reads are safe.
    """

    entities: dict[str, int]
    predicates: dict[str, int]
    triples: set[tuple[int, int, int]]

    def __post_init__(self):
        ne, nr = len(self.entities), len(self.predicates)
        if sorted(self.entities.values()) != list(range(ne)):
            raise ValueError("entity ids must be dense 0..|E|-1")
        if sorted(self.predicates.values()) != list(range(nr)):
            raise ValueError("predicate ids must be dense 0..|R|-1")
        for i, j, r in self.triples:
            if not (0 <= i < ne and 0 <= j < ne and 0 <= r < nr):
                raise ValueError(f"triple {(i, j, r)} out of dictionary bounds")

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
        for i, j, r in self.triples:
            g[i, j, r] = 1
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
    first-appearance order; duplicated lines collapse to a single triple.
    Raises :class:`TripleParseError` with the offending line number on a
    malformed line, and propagates I/O errors for unreadable files.
    """
    entities: dict[str, int] = {}
    predicates: dict[str, int] = {}
    triples: set[tuple[int, int, int]] = set()
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
            triples.add((si, oi, ri))
    return KnowledgeGraph(entities, predicates, triples)


def save_triples(kg: KnowledgeGraph, path) -> None:
    """Write the graph in the TSV triple format, sorted by ids for stable output."""
    elab = kg.entity_labels
    plab = kg.predicate_labels
    with open(path, "w", encoding="utf-8") as fh:
        for i, j, r in sorted(kg.triples):
            fh.write(f"{elab[i]}\t{plab[r]}\t{elab[j]}\n")


def degree_table(kg: KnowledgeGraph) -> DegreeTable:
    """Degrees and degree-rank sampling probabilities for every entity."""
    n = kg.num_entities
    if n < 1:
        raise ValueError("degree_table requires at least one entity")
    degree = np.zeros(n, dtype=np.int64)
    for i, j, _ in kg.triples:
        degree[i] += 1
        degree[j] += 1
    order = np.sort(degree)
    smaller = np.searchsorted(order, degree, side="left")
    prob = (smaller + 1) / n
    return DegreeTable(degree=degree, sampling_prob=prob)
