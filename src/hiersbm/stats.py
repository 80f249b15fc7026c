"""Closed-form collapsed quantities and distribution helpers.

Everything here is pure.  Likelihood arithmetic runs in log space via
log-gamma: pair counts reach 1e5 at desk scale and raw Beta-function values
underflow long before that.  The sampler's Beta-Bernoulli evidence lives here
and nowhere else: ``log_evidence_terms`` is the one elementwise evidence term
(per sibling pair and predicate), which the path scorer sums per sibling pair
and ``log_evidence_delta`` sums in full for the complete log-likelihood;
``level_log_likelihood`` serves level-indicator moves whose candidate levels
route the pair to two or more sibling keys, once per key; a move whose levels
all reach one key draws from the level prior alone.  The level model lives
here too: ``level_prior`` (the predictive every level move draws from) and
``level_log_marginal`` (the indicators' term of the complete log-likelihood).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.special import betaln

from .hierarchy import Hierarchy, PathSpec, ROOT_ID

__all__ = [
    "Schedule",
    "Hyperparameters",
    "log_beta_fn",
    "beta_posterior",
    "log_evidence_terms",
    "log_evidence_delta",
    "path_log_likelihood_delta",
    "level_log_likelihood",
    "level_prior",
    "level_log_marginal",
    "ncrp_path_prior",
]


@dataclass(frozen=True)
class Schedule:
    """Sampler schedule: total iterations, burn-in, lag and sample targets."""

    iterations: int
    burn_in: int
    lag: int
    final_samples: int
    chains: int = 1
    seed: int = 0

    def validate(self) -> None:
        if self.iterations < 0:
            raise ValueError("schedule.iterations must be >= 0")
        if self.burn_in < 0:
            raise ValueError("schedule.burn_in must be >= 0")
        if self.lag < 1:
            raise ValueError("schedule.lag must be >= 1")
        if self.final_samples < 1:
            raise ValueError("schedule.final_samples must be >= 1")
        if self.chains < 1:
            raise ValueError("schedule.chains must be >= 1")
        if self.burn_in + self.lag * self.final_samples > self.iterations:
            raise ValueError(
                "schedule.burn_in + schedule.lag * schedule.final_samples must not exceed "
                f"schedule.iterations ({self.burn_in} + {self.lag}*{self.final_samples} > {self.iterations})"
            )
        if not isinstance(self.seed, int):
            raise ValueError("schedule.seed must be an integer (wall-clock seeding is not allowed)")


@dataclass(frozen=True)
class Hyperparameters:
    """Model hyperparameters plus the optional sampler schedule.

    ``gamma`` is the tree concentration, ``mu``/``sigma`` parameterize the
    level prior, ``lam``/``eta`` the Beta prior on relation degrees, ``depth``
    the fixed tree depth.  ``level_prior_mode`` selects the stick-breaking
    level prior or its finite Dirichlet variant (which requires ``alpha``).
    """

    gamma: float
    mu: float
    sigma: float
    lam: float
    eta: float
    depth: int
    level_prior_mode: str = "stick"
    alpha: tuple[float, ...] | None = None
    schedule: Schedule | None = None

    def validate(self) -> None:
        if not self.gamma > 0:
            raise ValueError("gamma must be > 0")
        if not 0 < self.mu < 1:
            raise ValueError("mu must lie in (0, 1)")
        if not self.sigma > 0:
            raise ValueError("sigma must be > 0")
        if not self.lam > 0:
            raise ValueError("lam must be > 0")
        if not self.eta > 0:
            raise ValueError("eta must be > 0")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.level_prior_mode not in ("stick", "dirichlet"):
            raise ValueError("level_prior_mode must be 'stick' or 'dirichlet'")
        if self.level_prior_mode == "dirichlet":
            if self.alpha is None or len(self.alpha) != self.depth:
                raise ValueError("alpha must provide one positive value per level in dirichlet mode")
            if any(a <= 0 for a in self.alpha):
                raise ValueError("alpha entries must be > 0")
        if self.schedule is not None:
            self.schedule.validate()


def log_beta_fn(a: float, b: float) -> float:
    """log B(a, b) via log-gamma."""
    if a <= 0 or b <= 0:
        raise ValueError("Beta function arguments must be > 0")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def beta_posterior(ones: int, zeros: int, lam: float, eta: float) -> tuple[float, float]:
    """Posterior Beta shapes for a relation degree given its routed pair counts."""
    if ones < 0 or zeros < 0:
        raise ValueError("counts must be >= 0")
    if lam <= 0 or eta <= 0:
        raise ValueError("lam and eta must be > 0")
    return (ones + lam, zeros + eta)


def log_evidence_terms(b1, b0, c1, c0, lam: float, eta: float) -> np.ndarray:
    """Elementwise log marginal-likelihood change from adding counts (c1, c0) to (b1, b0).

    The arguments are broadcast arrays of one- and zero-counts, one entry per
    sibling pair and predicate; each entry of the result is
    log B(b1+c1+lam, b0+c0+eta) - log B(b1+lam, b0+eta).  With b = 0 it is the
    collapsed evidence of the counts c themselves.
    """
    return betaln(b1 + c1 + lam, b0 + c0 + eta) - betaln(b1 + lam, b0 + eta)


def log_evidence_delta(b1, b0, c1, c0, lam: float, eta: float) -> float:
    """The sum of :func:`log_evidence_terms` over every entry."""
    return float(np.sum(log_evidence_terms(b1, b0, c1, c0, lam, eta)))


def path_log_likelihood_delta(
    base: Mapping[tuple, tuple[int, int]],
    contrib: Mapping[tuple, tuple[int, int]],
    lam: float,
    eta: float,
) -> float:
    """:func:`log_evidence_delta` over dicts of (ones, zeros) per sibling key.

    ``base`` holds the counts with the entity removed; ``contrib`` holds the
    entity's own counts routed under a candidate assignment.  Keys absent from
    ``base`` count as (0, 0).
    """
    b = np.array([base.get(key, (0, 0)) for key in contrib], dtype=np.float64).reshape(-1, 2)
    c = np.array(list(contrib.values()), dtype=np.float64).reshape(-1, 2)
    return log_evidence_delta(b[:, 0], b[:, 1], c[:, 0], c[:, 1], lam, eta)


def level_log_likelihood(g: Sequence[int], ones: Sequence[int], n: int, lam: float, eta: float) -> float:
    """Log predictive probability of one pair's per-predicate values at a sibling pair.

    ``g[r]`` is the pair's value of predicate r, ``ones[r]`` the one-count of
    predicate r among the ``n`` pairs routed to the sibling pair (the pair
    itself excluded).  This is the gamma-free form of the collapsed
    Beta-Bernoulli ratio: each predicate contributes (ones+lam)/(n+lam+eta)
    for a one and (n-ones+eta)/(n+lam+eta) for a zero.  Unvalidated: the
    level move calls it once per distinct sibling key among its candidate
    levels, and only when there are two or more such keys (with one, the
    likelihood is the same at every level and cancels).
    """
    log = math.log
    zeros_eta = n + eta
    out = 0.0
    for v, k in zip(g, ones):
        out += log(k + lam) if v else log(zeros_eta - k)
    return out - len(g) * log(n + lam + eta)


def _stick_level_weights(hist: Sequence[int], mu: float, sigma: float) -> list[float]:
    """Posterior-predictive level weights under the stick-breaking prior.

    ``hist[l-1]`` counts indicators at level ``l``; the infinite predictive is
    truncated to ``len(hist)`` levels and renormalized.  Unvalidated.
    """
    ms = mu * sigma
    rs = (1.0 - mu) * sigma
    below = sum(hist)
    raw = []
    carry = 1.0
    for n_l in hist:
        below -= n_l  # indicators strictly below level l
        denom = sigma + n_l + below
        raw.append(carry * (ms + n_l) / denom)
        carry *= (rs + below) / denom
    total = sum(raw)
    return [w / total for w in raw]


def level_prior(hist: Sequence[int], hyper: Hyperparameters) -> list[float]:
    """Posterior-predictive level distribution under ``hyper``'s level prior.

    ``hist[l-1]`` counts the pooled indicators at level ``l``, the one being
    drawn excluded.  Unvalidated: the level move calls it once per move.
    """
    if hyper.level_prior_mode == "stick":
        return _stick_level_weights(hist, hyper.mu, hyper.sigma)
    post = [a + h for a, h in zip(hyper.alpha, hist)]
    total = sum(post)
    return [p / total for p in post]


def level_log_marginal(hist: Sequence[int], hyper: Hyperparameters) -> float:
    """Collapsed log marginal of the pooled indicators, ``hist[l-1]`` of them at level ``l``.

    Exactly zero for a single-level tree, where every indicator is level 1.
    """
    if hyper.depth == 1:
        return 0.0
    if hyper.level_prior_mode == "stick":
        ms = hyper.mu * hyper.sigma
        rs = (1.0 - hyper.mu) * hyper.sigma
        base = log_beta_fn(ms, rs)
        out = 0.0
        deeper = 0
        for n_l in reversed(hist):
            if n_l or deeper:
                out += log_beta_fn(ms + n_l, rs + deeper) - base
            deeper += n_l
        return out
    alpha = hyper.alpha
    total_alpha = float(sum(alpha))
    out = math.lgamma(total_alpha) - math.lgamma(total_alpha + sum(hist))
    for a, n_l in zip(alpha, hist):
        out += math.lgamma(a + n_l) - math.lgamma(a)
    return out


def ncrp_path_prior(h: Hierarchy, gamma: float) -> dict[PathSpec, float]:
    """Prior probability of every candidate path through the current tree.

    Candidates are all existing full paths plus a "branch new" option beneath
    the root and every internal community.  A fresh branch continues to the
    bottom with probability one (a new community has no competing children),
    so the returned probabilities sum to one.  One depth-first walk looks up
    each community once.
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    depth = h.depth
    node = h.node
    out: dict[PathSpec, float] = {}

    def descend(community, prefix: tuple, prob: float) -> None:
        level = len(prefix)
        if level == depth:
            out[prefix] = prob
            return
        denom = community.pass_count + gamma
        for cid in community.children:
            child = node(cid)
            descend(child, prefix + (cid,), prob * child.pass_count / denom)
        out[prefix + (None,) * (depth - level)] = prob * gamma / denom

    descend(node(ROOT_ID), (), 1.0)
    return out
