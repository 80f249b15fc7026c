"""Closed-form collapsed quantities and distribution helpers.

Everything here is pure, apart from per-process caches of log-gamma and log
tables.  Likelihood arithmetic runs in log space via log-gamma: pair counts
reach 1e5 at desk scale and raw Beta-function values underflow long before
that.  The sampler's Beta-Bernoulli evidence lives here and nowhere else:
``log_evidence_terms`` gives the evidence change of each count row
``[n, ones_0, ..., ones_{R-1}]`` (one per sibling pair), which the path scorer
reads per candidate node and the complete log-likelihood sums in full.  It
reads integer log-gamma tables, lgamma(k + lam), lgamma(k + eta) and
lgamma(k + lam + eta), built once per (lam, eta) and grown on demand to the
largest count seen, and takes the total-count term once per row.  Every
log-gamma in the package is the standard library's ``math.lgamma``, so the
package imports numpy alone; its values may differ from other log-gamma
implementations (scipy's ``gammaln``, say) in the last digits, and so may the
log-likelihoods summed from them.

``level_log_likelihood`` serves level-indicator moves whose candidate levels
route the pair to two or more sibling keys, once per key; a move whose levels
all reach one key draws from the level prior alone.  It takes the key's count
row and a flag for the pair's own key, so the pair is left out without a
copy, and reads its per-predicate logs from per-process lists of
log(k + lam) and log(k + eta), extended on demand, instead of calling
``math.log``.  Its zero term reads log((n - k) + eta) where the loop it
replaced computed log((n + eta) - k): the two are the same float wherever
n + eta is exact, as at eta = 1, and may differ in the last bit otherwise.

The level model lives here too: ``level_prior`` (the predictive every level
move draws from) and ``level_log_marginal`` (the indicators' term of the
complete log-likelihood).  Both read one generalized Dirichlet (Connor &
Mosimann 1969), the Beta break parameters ``Hyperparameters.level_breaks``,
whatever the level-prior mode.  The path move sums the log nCRP path prior
along the tree itself, from pass counts (see ``sampler``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice
from typing import Sequence

import numpy as np

__all__ = [
    "Schedule",
    "Hyperparameters",
    "check_priors",
    "log_beta_fn",
    "log_evidence_terms",
    "level_log_likelihood",
    "level_prior",
    "level_log_marginal",
]

MAX_DEPTH = 255  # the deepest level a stored sample's uint8 indicators file holds


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
        if self.seed < 0:
            raise ValueError("schedule.seed must be >= 0")


@dataclass(frozen=True)
class Hyperparameters:
    """Model hyperparameters plus the optional sampler schedule.

    ``gamma`` is the tree concentration, ``mu``/``sigma`` parameterize the
    level prior, ``lam``/``eta`` the Beta prior on relation degrees, ``depth``
    the fixed tree depth.  ``level_prior_mode`` selects the stick-breaking
    level prior or its finite Dirichlet variant, the one mode that takes
    ``alpha``; ``level_breaks`` writes either as one generalized Dirichlet.
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
        check_priors({"gamma": self.gamma, "sigma": self.sigma, "lam": self.lam, "eta": self.eta,
                      "lam + eta": self.lam + self.eta})
        if not 0 < self.mu < 1:
            raise ValueError("mu must lie in (0, 1)")
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must lie in 1..{MAX_DEPTH}, the levels a stored sample holds, got {self.depth}")
        if self.level_prior_mode not in ("stick", "dirichlet"):
            raise ValueError("level_prior_mode must be 'stick' or 'dirichlet'")
        if self.level_prior_mode == "dirichlet":
            if self.alpha is None or len(self.alpha) != self.depth:
                raise ValueError("alpha must provide one positive value per level in dirichlet mode")
            check_priors({f"alpha[{k}]": a for k, a in enumerate(self.alpha)}
                         | {f"the sum of alpha[{k}:]": ab for k, (_, _, ab) in enumerate(self.level_breaks)})
        elif self.alpha is not None:
            raise ValueError("alpha is only accepted with level_prior_mode 'dirichlet'")
        if self.schedule is not None:
            self.schedule.validate()

    @cached_property
    def level_breaks(self) -> tuple[tuple[float, float, float], ...]:
        """Per level, the (a, b, a + b) of the Beta prior of its stick break; unvalidated.

        The stick has a = mu*sigma, b = (1-mu)*sigma and a + b = ``sigma``
        itself at every level.  The finite Dirichlet has a = alpha_l and
        b = alpha_{l+1} + ... + alpha_L, so b is 0 at the last level.
        """
        if self.level_prior_mode == "stick":
            return ((self.mu * self.sigma, (1.0 - self.mu) * self.sigma, self.sigma),) * self.depth
        tails = [*accumulate(reversed(self.alpha))][::-1] + [0.0]  # alpha_l + ... + alpha_L
        return tuple(zip(self.alpha, tails[1:], tails))


def check_priors(priors: dict[str, float]) -> None:
    """Raise ``ValueError`` naming the first prior that is not finite and > 0 with a finite log-gamma.

    The collapsed formulas read every prior through log-gamma, which would
    turn a prior whose log-gamma is not finite into inf or nan; ``math.lgamma``
    raises ``OverflowError`` where its value would pass the float range.
    """
    for name, value in priors.items():
        try:
            ok = 0 < value < math.inf and math.isfinite(math.lgamma(value))
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError(f"{name} must be finite and > 0 with a finite log-gamma, got {value!r}")


def log_beta_fn(a: float, b: float) -> float:
    """log B(a, b) via log-gamma."""
    if a <= 0 or b <= 0:
        raise ValueError("Beta function arguments must be > 0")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


_LOG_GAMMA: dict[tuple[float, float], np.ndarray] = {}


def _log_gamma_tables(lam: float, eta: float, top: int) -> np.ndarray:
    """Rows lgamma(k + lam), lgamma(k + eta) and lgamma(k + lam + eta) for k = 0, 1, ... past ``top``.

    One read-only table per (lam, eta), kept for the process, so that no
    chain pays for it more than once; it at least doubles whenever a count
    outgrows it, so it is built a few times at most.  Entry k of a row is
    ``math.lgamma(k + c)``; a grown table copies the entries it had and
    computes only the new ones, streamed into the array, so no Python list of
    its size is made.
    """
    table = _LOG_GAMMA.get((lam, eta))
    have = 0 if table is None else table.shape[1]
    if have <= top:
        size = max(top + 1, 64, 2 * have)
        grown = np.empty((3, size))
        if have:
            grown[:, :have] = table
        tail = range(have, size)
        for row, c in enumerate((float(lam), float(eta), float(lam + eta))):
            grown[row, have:] = np.fromiter(map(math.lgamma, map(c.__add__, tail)), np.float64, len(tail))
        table = _LOG_GAMMA[(lam, eta)] = grown
        table.flags.writeable = False
    return table


def log_evidence_terms(base, added, lam: float, eta: float) -> np.ndarray:
    """Log marginal-likelihood change of each count row from adding ``added`` to ``base``.

    Both are K x (1+R) integer arrays of rows ``[n, ones_0, ..., ones_{R-1}]``:
    the pairs at one sibling pair and each predicate's one-count among them.
    Entry k of the result is the sum over predicates r of
    log B(b1+c1+lam, b0+c0+eta) - log B(b1+lam, b0+eta), where b1 and b0 are
    row k's one- and zero-counts of r in ``base`` and c1, c0 in ``added``.
    With ``base`` zero it is the collapsed evidence of the rows themselves.
    Each log B is read from integer log-gamma tables; the lgamma(n + lam + eta)
    term is the same for every predicate of a row, so it is read once per row.
    """
    # columns as contiguous rows: gathers by a strided index array are several times slower
    base = np.ascontiguousarray(np.asarray(base, dtype=np.int64).T)
    after = np.add(base, np.asarray(added, dtype=np.int64).T, order="C")
    n0, b1, n1, a1 = base[0], base[1:], after[0], after[1:]
    ones, zeros, total = _log_gamma_tables(lam, eta, int(n1.max(initial=0)))
    per_predicate = ones[a1] - ones[b1] + zeros[n1 - a1] - zeros[n0 - b1]
    return per_predicate.sum(axis=0) - len(b1) * (total[n1] - total[n0])


_LOG: dict[float, list[float]] = {}


def _log_table(c: float, top: int) -> list[float]:
    """The list log(k + c) for k = 0, 1, ... past ``top``.

    One list per constant c, kept for the process, so lam and eta share one
    when they are equal.  A count past the end extends it in place by at
    least a quarter, so it stays within a quarter of the largest count
    read.  Each entry is ``math.log(k + c)``, the float the per-predicate
    loop used to compute.
    """
    table = _LOG.setdefault(c, [])
    have = len(table)
    if have <= top:
        log = math.log
        table.extend([log(k + c) for k in range(have, max(top + 1, 64, have + have // 4))])
    return table


def level_log_likelihood(g: Sequence[int], row: Sequence[int], own: bool, lam: float, eta: float) -> float:
    """Log predictive probability of one pair's per-predicate values at a sibling pair.

    ``g[r]`` is the pair's value of predicate r and ``row`` the sibling
    pair's count row ``[n, ones_0, ..., ones_{R-1}]``.  With ``own`` the pair
    is one of those n and is left out in the arithmetic (n - 1 pairs, ones
    minus g), so no row is copied.  This is the gamma-free form of the
    collapsed Beta-Bernoulli ratio: with n and ones read after the leave-out,
    each predicate contributes (ones+lam)/(n+lam+eta) for a one and
    (n-ones+eta)/(n+lam+eta) for a zero.  The numerators' logs are read from
    ``_log_table`` and added in predicate order; the denominator is one
    ``math.log``.  Unvalidated: the level move calls it once per distinct
    sibling key among its candidate levels, and only when there are two or
    more such keys (with one, the likelihood is the same at every level and
    cancels).
    """
    n = row[0] - own
    lam_logs, eta_logs = _log_table(lam, row[0]), _log_table(eta, row[0])
    out = 0.0
    for v, k in zip(g, islice(row, 1, None)):
        out += lam_logs[k - own] if v else eta_logs[n - k]
    return out - len(g) * math.log(n + lam + eta)


def level_prior(hist: Sequence[int], hyper: Hyperparameters) -> list[float]:
    """Posterior-predictive level distribution under ``hyper``'s level prior.

    ``hist[l-1]`` counts the pooled indicators at level ``l``, the one being
    drawn excluded.  Each break takes its posterior mean (a + n_l) / (a + b +
    n_l + below), with ``below`` indicators under level l; the stick is
    truncated to ``len(hist)`` levels and renormalized.
    Unvalidated: the level pass calls it once per leave-one-out histogram
    that its memo does not hold (see ``sampler``).
    """
    below = sum(hist)
    raw = []
    carry = 1.0
    for (a, b, ab), n_l in zip(hyper.level_breaks, hist):
        below -= n_l  # indicators strictly below level l
        denom = ab + n_l + below
        raw.append(carry * (a + n_l) / denom)
        carry *= (b + below) / denom
    total = sum(raw)
    return [w / total for w in raw]


def level_log_marginal(hist: Sequence[int], hyper: Hyperparameters) -> float:
    """Collapsed log marginal of the pooled indicators, ``hist[l-1]`` of them at level ``l``.

    Sums log B(a + n_l, b + deeper) - log B(a, b) over the levels but those
    with b = 0, whose break is surely 1.  Exactly zero for a single-level
    tree, where every indicator is level 1.
    """
    if hyper.depth == 1:
        return 0.0
    out = 0.0
    deeper = 0
    for (a, b, _), n_l in zip(reversed(hyper.level_breaks), reversed(hist)):
        if b and (n_l or deeper):
            out += log_beta_fn(a + n_l, b + deeper) - log_beta_fn(a, b)
        deeper += n_l
    return out
