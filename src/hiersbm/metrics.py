"""Per-level clustering extraction and partition-agreement metrics.

Both metrics are pure functions over two labelings of a shared entity
universe and are invariant to label permutation.  The pair-agreement index is
chance corrected; the mutual-information score is normalized by the
arithmetic mean of the two entropies and defined as zero when both
clusterings are trivial.

Both read one contingency table of the two labelings: the count of every
(label, label) cell and of every label on each side.  Two partitions are
equal exactly when the table has as many cells as each side has labels, for
then each label meets exactly one label of the other side; so identity
needs no other comparison.  ``evaluate_sample`` builds one table per level
and scores both metrics from it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Mapping

from .sampler import PosteriorSample
from .synth import GroundTruth

__all__ = [
    "Clustering",
    "LevelScore",
    "EvaluationResult",
    "ari",
    "nmi",
    "clusters_at_level",
    "evaluate_sample",
]

Clustering = Mapping[str, Hashable]


def _check_universe(c: Clustering, truth: Clustering) -> None:
    if set(c) != set(truth):
        missing = sorted(set(c) ^ set(truth))
        raise ValueError(f"clusterings cover different entities: {missing}")
    if not c:
        raise ValueError("clusterings must cover at least one entity")


def _contingency(c: Clustering, truth: Clustering):
    joint = Counter((c[e], truth[e]) for e in c)
    left = Counter(c.values())
    right = Counter(truth.values())
    return joint, left, right


def _identical(joint: Counter, left: Counter, right: Counter) -> bool:
    """Whether the table's two partitions are equal: each label meets exactly one label of the other side."""
    return len(joint) == len(left) == len(right)


def _ari(joint: Counter, left: Counter, right: Counter, n: int) -> float:
    if _identical(joint, left, right):
        return 1.0
    sum_joint = sum(math.comb(v, 2) for v in joint.values())
    sum_left = sum(math.comb(v, 2) for v in left.values())
    sum_right = sum(math.comb(v, 2) for v in right.values())
    total = math.comb(n, 2)
    if total == 0:
        return 1.0
    expected = sum_left * sum_right / total
    max_index = (sum_left + sum_right) / 2.0
    if max_index == expected:
        return 0.0
    return (sum_joint - expected) / (max_index - expected)


def ari(c: Clustering, truth: Clustering) -> float:
    """Chance-corrected pair-counting agreement between two partitions.

    Returns exactly 1.0 for identical partitions; a clustering that is at its
    chance expectation (e.g. one big cluster against anything) scores 0.0.
    """
    _check_universe(c, truth)
    return _ari(*_contingency(c, truth), len(c))


def _entropy(sizes: Counter, n: int) -> float:
    return -sum((v / n) * math.log(v / n) for v in sizes.values() if v)


def _nmi(joint: Counter, left: Counter, right: Counter, n: int) -> float:
    h_left = _entropy(left, n)
    h_right = _entropy(right, n)
    if h_left == 0.0 and h_right == 0.0:
        return 0.0
    if _identical(joint, left, right):
        return 1.0
    mi = 0.0
    for (a, b), v in joint.items():
        mi += (v / n) * math.log(n * v / (left[a] * right[b]))
    value = mi / ((h_left + h_right) / 2.0)
    return min(max(value, 0.0), 1.0)


def nmi(c: Clustering, truth: Clustering) -> float:
    """Mutual information normalized by the arithmetic mean of the entropies.

    Defined as 0.0 when both clusterings carry no information (single
    cluster each) and exactly 1.0 for identical non-trivial partitions.
    """
    _check_universe(c, truth)
    return _nmi(*_contingency(c, truth), len(c))


def clusters_at_level(sample: PosteriorSample, level: int) -> dict:
    """Cluster labels at one level: each entity's path community at that level.

    Every entity owns a full-depth path, so all entities are labeled at every
    level regardless of their level mode.
    """
    if not sample.paths:
        raise ValueError("sample has no entities")
    depth = len(sample.paths[0])
    if not 1 <= level <= depth:
        raise ValueError(f"level must lie in 1..{depth}, got {level}")
    return {entity: path[level - 1] for entity, path in zip(sample.entity_labels, sample.paths)}


@dataclass(frozen=True)
class LevelScore:
    level: int
    ari: float
    nmi: float


@dataclass(frozen=True)
class EvaluationResult:
    levels: list[LevelScore]
    overall_ari: float
    overall_nmi: float

    def to_json_dict(self) -> dict:
        return {
            "levels": [{"level": s.level, "ari": s.ari, "nmi": s.nmi} for s in self.levels],
            "overall": {"ari": self.overall_ari, "nmi": self.overall_nmi},
        }

    def to_text_table(self) -> str:
        rows = [("Level", "ARI", "NMI")]
        for s in self.levels:
            rows.append((str(s.level), f"{s.ari:.4f}", f"{s.nmi:.4f}"))
        rows.append(("Overall", f"{self.overall_ari:.4f}", f"{self.overall_nmi:.4f}"))
        widths = [max(len(r[k]) for r in rows) for k in range(3)]
        lines = []
        for idx, row in enumerate(rows):
            lines.append("  ".join(cell.rjust(w) if k else cell.ljust(w) for k, (cell, w) in enumerate(zip(row, widths))))
            if idx == 0 or idx == len(rows) - 2:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)


def evaluate_sample(sample: PosteriorSample, truth: GroundTruth) -> EvaluationResult:
    """Per-level and mean agreement between a sample and the ground truth.

    The overall row is the unweighted mean of the per-level scores; levels are
    those of the ground truth, which must cover every sample entity.
    """
    if truth.depth < 1:
        raise ValueError("ground truth has no levels")
    depth = min(truth.depth, len(sample.paths[0]) if sample.paths else 0)
    if depth < 1:
        raise ValueError("sample has no levels to evaluate")
    scores = []
    for level in range(1, depth + 1):
        predicted = clusters_at_level(sample, level)
        reference = truth.level(level)
        missing = sorted(e for e in predicted if e not in reference)
        if missing:
            raise ValueError(f"ground truth is missing entities at level {level}: {missing}")
        table = _contingency(predicted, {e: reference[e] for e in predicted})
        scores.append(LevelScore(level, _ari(*table, len(predicted)), _nmi(*table, len(predicted))))
    overall_ari = sum(s.ari for s in scores) / len(scores)
    overall_nmi = sum(s.nmi for s in scores) / len(scores)
    return EvaluationResult(scores, overall_ari, overall_nmi)
