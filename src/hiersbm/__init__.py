"""Hierarchical stochastic blockmodel for knowledge graphs.

The package provides the knowledge-graph data model (:mod:`hiersbm.kgraph`),
the community tree as a view of entity paths, with the pair routing rule
(:mod:`hiersbm.hierarchy`), closed-form collapsed quantities
(:mod:`hiersbm.stats`), forward simulation and synthetic datasets
(:mod:`hiersbm.synth`), the collapsed Gibbs sampler (:mod:`hiersbm.sampler`),
clustering metrics (:mod:`hiersbm.metrics`) and a command-line interface
(:mod:`hiersbm.cli`).
"""

__version__ = "0.1.0"

from .kgraph import KnowledgeGraph, DegreeTable, load_triples, degree_table
from .hierarchy import Hierarchy
from .stats import Hyperparameters, Schedule
from .synth import generate_sbt, forward_generate
from .sampler import init_state, run, aggregate
from .metrics import ari, nmi, evaluate_sample

__all__ = [
    "KnowledgeGraph",
    "DegreeTable",
    "load_triples",
    "degree_table",
    "Hierarchy",
    "Hyperparameters",
    "Schedule",
    "generate_sbt",
    "forward_generate",
    "init_state",
    "run",
    "aggregate",
    "ari",
    "nmi",
    "evaluate_sample",
    "__version__",
]
