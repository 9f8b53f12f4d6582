"""Random-failure analysis: when do unions of failed graphs stay connected.

A link that is up with probability 1 - p_fail each step is missing from the
union of T + 1 consecutive steps with probability p_fail**(T+1).  Comparing
that rate against the giant-component threshold of the base topology gives
the shortest window whose union keeps a giant component in expectation (it
may still be disconnected); the Monte-Carlo routine measures connectivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .graph import WeightedGraph, _component_labels

__all__ = [
    "McConnectivity",
    "er_threshold",
    "effective_failure",
    "min_window",
    "mc_union_connectivity",
]

_MC_BLOCK = 1 << 17  # nodes plus links of the trials mc_union_connectivity searches at once


@dataclass(frozen=True)
class PercolationProfile:
    """Degree-based giant-component threshold of an Erdos-Renyi ensemble.

    ``threshold`` is p_c = 1 - 1/mean_degree, the failure rate above which
    the thinned graph loses its giant component in expectation (it may be
    disconnected well below); None when the mean degree does not exceed 1
    (the ensemble is already subcritical, see ``warning``).
    """

    n: int
    link_probability: float
    mean_degree: float
    threshold: float | None
    convention: str
    warning: str | None = None


@dataclass(frozen=True)
class McConnectivity:
    """Monte-Carlo estimate of union connectivity with a Wilson 95% interval."""

    fraction: float
    wilson_low: float
    wilson_high: float
    trials: int
    successes: int


def er_threshold(n: int, p: float, convention: str = "half") -> PercolationProfile:
    """Giant-component threshold 1 - 1/mean_degree for an ER(n, p) ensemble.

    convention "half" attributes each link to one endpoint, giving
    mean_degree = (n - 1) * p / 2; convention "standard" counts both
    endpoints, giving (n - 1) * p.  The halved form is the default used by
    the rest of the package.  When mean_degree <= 1 the threshold is
    undefined and the profile carries a warning instead.
    """
    if n < 2:
        raise ConfigurationError(f"er_threshold needs n >= 2, got {n}")
    if not 0.0 < p <= 1.0:
        raise ConfigurationError(f"link probability must be in (0, 1], got {p}")
    if convention == "half":
        mean_degree = (n - 1) * p / 2.0
    elif convention == "standard":
        mean_degree = (n - 1) * float(p)
    else:
        raise ConfigurationError(f"unknown degree convention {convention!r}")
    if mean_degree <= 1.0:
        return PercolationProfile(
            n, p, mean_degree, None, convention,
            warning="mean degree <= 1: the ensemble percolates for no failure rate",
        )
    return PercolationProfile(n, p, mean_degree, 1.0 - 1.0 / mean_degree, convention)


def effective_failure(p_fail: float, window: int) -> float:
    """Probability p_fail**(window + 1) that a link misses a whole window."""
    if not 0.0 <= p_fail <= 1.0:
        raise ConfigurationError(f"failure rate must be in [0, 1], got {p_fail}")
    if window < 0 or int(window) != window:
        raise ConfigurationError(f"window must be a nonnegative integer, got {window}")
    return float(p_fail) ** (int(window) + 1)


def min_window(p_fail: float, threshold: float) -> int:
    """Smallest T >= 0 with p_fail**(T+1) < threshold.

    This is the shortest union window whose effective failure rate drops
    below the giant-component threshold; it is 0 whenever p_fail < threshold
    already.  Requires 0 <= p_fail < 1 and 0 < threshold < 1, not None.
    """
    if not 0.0 <= p_fail < 1.0:
        raise DomainError(f"min_window needs 0 <= p_fail < 1, got {p_fail}")
    if threshold is None or not 0.0 < threshold < 1.0:
        raise DomainError(f"min_window needs 0 < threshold < 1, got {threshold}")
    t = 0
    while effective_failure(p_fail, t) >= threshold:
        t += 1
        if t > 10**6:
            raise DomainError("window scan exceeded 1e6 steps")
    return t


def mc_union_connectivity(
    base: WeightedGraph, p_fail: float, window: int, trials: int = 500, seed: int = 0
) -> McConnectivity:
    """Estimate the probability that a (window+1)-step union stays connected.

    Each trial draws window + 1 independent failure masks over the base
    graph's links (each link up with probability 1 - p_fail per step), takes
    the union of surviving links, and checks connectivity.  Trial t draws
    from ``default_rng([seed, 0xACC3, t])``; trials are searched in batches of
    disjoint graph copies under a fixed budget of 2**17 nodes plus links, and
    neither execution order nor batch split changes the estimate.  The
    confidence interval is the 95% Wilson score interval.
    """
    effective_failure(p_fail, window)  # checks p_fail and window
    if trials < 1 or int(trials) != trials:
        raise ConfigurationError(f"trials must be an integer >= 1, got {trials}")
    if seed < 0 or int(seed) != seed:
        raise ConfigurationError(f"seed must be a nonnegative integer, got {seed}")
    ei, ej, _ = base.edges()
    n, trials, steps = base.n, int(trials), int(window) + 1
    batch = max(1, _MC_BLOCK // (n + len(ei)))
    successes = 0
    for t0 in range(0, trials, batch):
        keep = np.array([(np.random.default_rng([int(seed), 0xACC3, t]).random((steps, len(ei))) >= p_fail).any(axis=0)
                         for t in range(t0, min(t0 + batch, trials))])
        offset = np.arange(len(keep))[:, None] * n  # row k is trial t0 + k, on nodes k*n .. k*n + n-1
        lab = _component_labels(len(keep) * n, (ei + offset)[keep], (ej + offset)[keep])
        successes += int(np.count_nonzero((lab.reshape(-1, n) == offset).all(axis=1)))
    frac = successes / trials
    z = 1.959963984540054  # two-sided 95% normal quantile
    denom = 1.0 + z * z / trials
    center = (frac + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(frac * (1.0 - frac) / trials + z * z / (4.0 * trials * trials))
    # The Wilson interval contains the point estimate by construction; the
    # clamps only strip floating-point residue at the 0 and 1 endpoints.
    return McConnectivity(
        fraction=frac,
        wilson_low=min(frac, max(0.0, center - half)),
        wilson_high=max(frac, min(1.0, center + half)),
        trials=trials,
        successes=successes,
    )
