"""Sector-bounded scalar nonlinearities applied inside the update law.

Every map g here is odd, sign-preserving, nondecreasing, and satisfies
kappa * |z| <= |g(z)| <= K * |z| on its certified domain.  The pair
(kappa, K) is what the step-size and delay bounds consume; the maps are
applied elementwise to gradient values (node side) and to gradient
differences (link side).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError

__all__ = [
    "SectorMap",
    "ClampCounter",
    "identity_map",
    "log_quantizer",
    "saturation",
    "sign_power",
    "apply_map_array",
    "first_order_sector_params",
    "verify_sector",
]

# Sampling half-width used by verify_sector for maps certified on all reals.
_UNBOUNDED_SPAN = 1.0e3


@dataclass
class ClampCounter:
    """Mutable tally of inputs that fell outside a map's certified domain."""

    events: int = 0


@dataclass(frozen=True)
class SectorMap:
    """A scalar nonlinearity with a certified sector (kappa, big_k).

    ``abs_domain`` is the interval of |z| on which the certificate holds;
    inputs outside it are clamped to the nearest boundary before the map is
    applied (z = 0 always maps to 0).  Construct via the factory functions
    rather than directly.
    """

    kind: str
    kappa: float
    big_k: float
    abs_domain: tuple[float, float]
    rho: float = 0.0
    cap: float = 0.0
    exponent: float = 1.0


@dataclass(frozen=True)
class SectorCheck:
    """Result of sampling-based verification of a sector certificate."""

    min_ratio: float
    max_ratio: float
    violations: int
    samples: int


# --------------------------------------------------------------------------
# factories
# --------------------------------------------------------------------------


def identity_map() -> SectorMap:
    """The trivial map g(z) = z with sector (1, 1) on all reals."""
    return SectorMap("identity", 1.0, 1.0, (0.0, np.inf))


def log_quantizer(rho: float) -> SectorMap:
    """Logarithmic quantizer g(z) = sign(z) * exp(rho * round(ln|z| / rho)).

    Rounding is to the nearest integer with ties to even.  The quantizer is
    multiplicative: its output is always within a factor exp(rho/2) of the
    input, so the certified sector is (exp(-rho/2), exp(rho/2)) on all of R.
    The first-order pair (1 - rho/2, 1 + rho/2) is close for small rho but
    is not a valid certificate; see :func:`first_order_sector_params`.
    """
    if not (rho > 0.0 and np.isfinite(rho)):
        raise ConfigurationError(f"log_quantizer needs rho > 0, got {rho}")
    half = 0.5 * rho
    return SectorMap("log_quantizer", float(np.exp(-half)), float(np.exp(half)), (0.0, np.inf), rho=rho)


def saturation(cap: float, d_max: float) -> SectorMap:
    """Clipping map g(z) = clamp(z, -cap, cap), certified for |z| <= d_max.

    On the domain the ratio g(z)/z ranges over [cap/d_max, 1], which gives
    the sector.  cap < d_max is required, otherwise the lower sector bound
    would reach 1 and the map would degenerate to the identity certificate.
    """
    if not (0.0 < cap < d_max and np.isfinite(d_max)):
        raise ConfigurationError(
            f"saturation needs 0 < cap < d_max < inf, got cap={cap}, d_max={d_max}"
        )
    return SectorMap("saturation", cap / d_max, 1.0, (0.0, d_max), cap=cap)


def sign_power(nu: float, d_min: float, d_max: float) -> SectorMap:
    """Signed power map g(z) = sign(z) * |z|**nu with nu in (0, 1].

    The ratio |z|**(nu-1) blows up at the origin for nu < 1, so the
    certificate needs a domain bounded away from zero: it holds for
    d_min <= |z| <= d_max with sector endpoints taken at the boundary.
    """
    if not (0.0 < nu <= 1.0):
        raise ConfigurationError(f"sign_power needs nu in (0, 1], got {nu}")
    if not (0.0 < d_min <= d_max and np.isfinite(d_max)):
        raise ConfigurationError(
            f"sign_power needs 0 < d_min <= d_max < inf, got d_min={d_min}, d_max={d_max}"
        )
    ratios = (d_min ** (nu - 1.0), d_max ** (nu - 1.0))
    return SectorMap(
        "sign_power", min(ratios), max(ratios), (d_min, d_max), exponent=nu
    )


# --------------------------------------------------------------------------
# application
# --------------------------------------------------------------------------


def apply_map_array(
    m: SectorMap, z: np.ndarray, counter: ClampCounter | None = None
) -> np.ndarray:
    """Apply the map elementwise.  g(0) = 0 for every kind.

    Inputs with |z| outside ``m.abs_domain`` are clamped to the boundary
    first; when ``counter`` is given, each such input adds one clamp event.
    """
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise NumericError("sector map input must be finite")
    if m.kind == "identity":
        return z

    if m.kind == "log_quantizer":
        # z = 0 falls through cleanly: log -> -inf, exp -> 0, sign(0) = 0.
        with np.errstate(divide="ignore"):
            mag = np.exp(m.rho * np.rint(np.log(np.abs(z)) / m.rho))
        return np.sign(z) * mag

    lo, hi = m.abs_domain
    a = np.abs(z)
    if m.kind == "saturation":
        if counter is not None:  # the domain starts at 0, so only |z| > d_max is outside
            counter.events += int(np.count_nonzero(a > hi))
        return np.sign(z) * np.minimum(np.minimum(a, hi), m.cap)
    # sign_power: clamp into [d_min, d_max], zeros stay zero via sign().  On
    # finite inputs this is np.clip's result, without its Python wrappers.
    clamped = np.minimum(np.maximum(a, lo), hi)
    if counter is not None:  # the clamp moves every |z| outside the domain, and every zero (d_min > 0)
        counter.events += int(np.count_nonzero(clamped != a)) - (z.size - int(np.count_nonzero(z)))
    return np.sign(z) * clamped**m.exponent


# --------------------------------------------------------------------------
# certificates
# --------------------------------------------------------------------------


def first_order_sector_params(m: SectorMap) -> tuple[float, float]:
    """Small-rho linearization of the quantizer sector: (1 - rho/2, 1 + rho/2).

    This is the pair obtained by expanding exp(+-rho/2) to first order.  The
    lower value sits below the exact bound (loose but still valid); the upper
    value sits below exp(rho/2), which the quantizer attains, so the pair
    must not be used as a certificate.  Exposed for comparison only.  For
    kinds other than the quantizer the exact pair is returned.
    """
    if m.kind != "log_quantizer":
        return (m.kappa, m.big_k)
    return (1.0 - 0.5 * m.rho, 1.0 + 0.5 * m.rho)


def verify_sector(m: SectorMap, samples: int = 100_000, seed: int = 0) -> SectorCheck:
    """Sample g(z)/z over the certified domain and check it stays in sector.

    Points are drawn with |z| uniform over the domain (capped at a finite
    span for maps certified on all reals) excluding a 1e-6 relative
    neighborhood of zero, with random sign.  Returns the observed ratio
    range and the number of sector violations beyond 4-ulp slack.
    """
    if samples < 1:
        raise ConfigurationError(f"verify_sector needs samples >= 1, got {samples}")
    if seed < 0 or int(seed) != seed:
        raise ConfigurationError(f"seed must be a nonnegative integer, got {seed}")
    lo, hi = m.abs_domain
    if not np.isfinite(hi):
        hi = _UNBOUNDED_SPAN
    width = hi - lo
    a_min = max(lo, 1e-6 * width)
    rng = np.random.default_rng([int(seed), 0x5EC7])
    mag = a_min + (hi - a_min) * rng.random(samples)
    sign = np.where(rng.random(samples) < 0.5, -1.0, 1.0)
    z = sign * mag
    ratio = apply_map_array(m, z) / z
    slack = 4.0 * np.finfo(float).eps
    bad = (ratio < m.kappa * (1.0 - slack)) | (ratio > m.big_k * (1.0 + slack))
    return SectorCheck(
        min_ratio=float(ratio.min()),
        max_ratio=float(ratio.max()),
        violations=int(np.count_nonzero(bad)),
        samples=samples,
    )
