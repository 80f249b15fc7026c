"""Joint-distribution test of the Gibbs sampler (Geweke 2004, "Getting it right", JASA 99:799-804).

Two simulators of the joint p(paths, indicators, graph) must agree on the
means of test functions.  The marginal-conditional side draws everything
forward with ``synth.forward_generate``.  The successive-conditional side
alternates one sweep of ``gibbs_iteration`` (every gate open) with a fresh
graph drawn given the latents: one relation degree per routed sibling pair and
predicate from the Beta prior, then one Bernoulli value per ordered pair.

At depth 1 every indicator is 1, so the test covers the path moves, the
collapsed relation evidence and the generator, not the level model.
"""

import numpy as np

from hiersbm import synth
from hiersbm.hierarchy import route_pairs
from hiersbm.kgraph import DegreeTable, KnowledgeGraph
from hiersbm.sampler import SamplerState, gibbs_iteration, init_state
from hiersbm.stats import Hyperparameters

E, R, DRAWS, BATCHES = 4, 2, 6000, 30
# A small, uneven Beta prior makes the graph informative about the paths.  With
# these values the test catches a path scorer that ignores the other entities'
# counts (|z| 4.8) and Beta arguments swapped in the evidence (|z| 8 and 72).
HYPER = Hyperparameters(gamma=1.0, mu=0.5, sigma=1.0, lam=0.25, eta=0.4, depth=1)
NAMES = ["communities", "0 and 1 share", "density", "shared rows", "edges inside", "G01 == G00", "G00 == G11"]


def statistics(P, G):
    c = P[:, 0]
    same = c[:, None] == c[None, :]
    agree01 = (G[0] == G[1]).mean() + (G[:, 0] == G[:, 1]).mean()
    return [
        len(set(c.tolist())),
        float(same[0, 1]),
        float(G.mean()),
        float(same[0, 1] * agree01),
        float(G.sum(axis=2)[same].sum()),
        float(G[0, 1, 0] == G[0, 0, 0]),
        float(G[0, 0, 0] == G[1, 1, 0]),
    ]


def redraw_graph(state, rng):
    """The state of the same paths and indicators on a graph drawn given them."""
    e = np.arange(E)
    pairs, index = route_pairs(state.P, state.Z[:, :, 0], state.Z[:, :, 1], e[:, None], e[None])
    theta = rng.beta(HYPER.lam, HYPER.eta, size=(len(pairs), R))
    kg = KnowledgeGraph(state.kg.entities, state.kg.predicates, np.argwhere(rng.random((E, E, R)) < theta[index]))
    return SamplerState(kg, HYPER, state.rng, state.P, state.Z)


def test_geweke_depth_1():
    rng = np.random.default_rng(2004)
    forward = []
    for _ in range(DRAWS):
        kg, latent = synth.forward_generate(HYPER, E, R, rng)
        forward.append(statistics(np.asarray(latent.paths), kg.dense_tensor()))
    forward = np.array(forward)

    kg, _ = synth.forward_generate(HYPER, E, R, rng)
    # paths from the prior and G given them: a draw from the joint
    state = redraw_graph(init_state(kg, HYPER, rng), rng)
    gates = DegreeTable(degree=np.zeros(E, dtype=np.int64), sampling_prob=np.ones(E))
    chain = []
    for _ in range(DRAWS):
        gibbs_iteration(state, gates)
        state = redraw_graph(state, rng)
        chain.append(statistics(state.P, state.G))
    chain = np.array(chain)

    se_forward = forward.std(axis=0, ddof=1) / np.sqrt(DRAWS)
    batch_means = chain.reshape(BATCHES, -1, len(NAMES)).mean(axis=1)
    se_chain = batch_means.std(axis=0, ddof=1) / np.sqrt(BATCHES)
    z = (forward.mean(axis=0) - chain.mean(axis=0)) / np.sqrt(se_forward**2 + se_chain**2)
    report = ", ".join(f"{name}: z={v:+.2f}" for name, v in zip(NAMES, z))
    assert np.all(np.abs(z) < 4), report
