"""Per-agent convex costs, box penalties, and the centralized optimum oracle.

Each agent holds one strictly convex scalar cost, optionally augmented with a
soft box penalty.  The oracle solves min sum_i f_i(x_i) subject to
sum_i x_i = total: at the optimum every free coordinate satisfies
f_i'(x_i) = nu for one shared multiplier nu.  Each x_i(nu) has a closed form
on each piece of its cost, or a guarded Newton loop where it has none, and
their sum is nondecreasing in nu, so guarded Newton steps on nu meet the total.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DomainError, InfeasibilityError, NumericError, read_input_text

__all__ = [
    "BoxPenalty",
    "SmoothLogPenalty",
    "LocalCost",
    "CostSet",
    "quadratic_cost",
    "quartic_cost",
    "smoothness_bound",
    "central_solve",
    "load_costs_csv",
]


# --------------------------------------------------------------------------
# penalty terms
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxPenalty:
    """Polynomial box penalty weight * (max(0, x-hi)^m + max(0, lo-x)^m).

    Zero inside [lo, hi]; the exponent m >= 2 keeps the gradient continuous
    at the boundary.  With m = 2 the curvature jumps to 2 * weight outside.
    """

    lo: float
    hi: float
    weight: float
    exponent: int = 2

    def __post_init__(self) -> None:
        if not (self.lo < self.hi):
            raise ConfigurationError(f"box penalty needs lo < hi, got [{self.lo}, {self.hi}]")
        if not (self.weight > 0.0):
            raise ConfigurationError(f"box penalty weight must be positive, got {self.weight}")
        if int(self.exponent) != self.exponent or self.exponent < 2:
            raise ConfigurationError(f"box penalty exponent must be an integer >= 2, got {self.exponent}")


@dataclass(frozen=True)
class SmoothLogPenalty:
    """Everywhere-smooth box penalty built from softplus barriers.

    value(x) = (softplus(mu*(x-hi)) + softplus(mu*(lo-x))) / mu, which decays
    exponentially inside the box and grows linearly with unit slope outside.
    Larger ``sharpness`` (mu) concentrates the transition at the boundary.
    """

    lo: float
    hi: float
    sharpness: float

    def __post_init__(self) -> None:
        if not (self.lo < self.hi):
            raise ConfigurationError(f"penalty needs lo < hi, got [{self.lo}, {self.hi}]")
        if not (self.sharpness > 0.0):
            raise ConfigurationError(f"penalty sharpness must be positive, got {self.sharpness}")


def _softplus(u):
    # max(u, 0) + log1p(exp(-|u|)) never overflows and loses no precision.
    u = np.asarray(u, dtype=float)
    return np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))


def _power(base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    # numpy squares instead of calling pow (the last bit can differ) where an
    # exponent of 2 repeats with stride 0, as a one-agent (1,) exponent does
    # down a (rows, 1) block; a full-shape one makes row k the one-row call.
    if base.ndim > 1 and base.shape[-1] == 1:
        exponent = np.broadcast_to(exponent, base.shape).copy()
    return base**exponent


# A masked pow pays a fixed cost and goes stretch by stretch of nonzero bases,
# so it beats plain pow, whose slow case is +0.0, only on blocks this large
# with at most this share of nonzero bases (BENCH_rowsum.json).
_MASKED_POW_MIN_SIZE = 512
_MASKED_POW_MAX_SHARE = 0.1


def _penalty_power(base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """``_power`` of box-penalty bases max(0, .) for exponents >= 1, calling pow only on nonzero bases where few are.

    Inside the box the base is +0.0, whose power is +0.0 for every exponent
    >= 1.  The mask compares bits, so -0.0 and nan still go through pow.  One
    agent always takes ``_power``: the masked loop squares a lone entry.
    """
    if base.size >= _MASKED_POW_MIN_SIZE and base.shape[-1] > 1:
        outside = base.view(np.int64) != 0
        count = np.count_nonzero(outside)
        if count <= _MASKED_POW_MAX_SHARE * base.size:
            out = np.zeros(base.shape)
            return np.power(base, exponent, out=out, where=outside) if count else out  # no pow if none is outside
    return _power(base, exponent)


def _cubic_root(p, q):
    """The real root of y**3 + p y + q = 0 where p >= 0, by Cardano's formula without its cancellation.

    With t = -q / 2, u = cbrt(t + sign(t) sqrt(t**2 + (p/3)**3)) and v = -p / (3u), the root is u + v;
    since u**3 + v**3 = 2t, it is also 2t / (u**2 + p/3 + v**2), whose denominator adds positive terms.
    """
    t, s = -0.5 * q, p / 3.0
    u = np.cbrt(t + np.copysign(np.hypot(t, s * np.sqrt(s)), t))
    return 2.0 * t / (u * u + s + (s / u) ** 2)


# Most multipliers of one ``central_solve``, and most Newton or bisection steps
# of one root in ``CostSet._roots``, above the 2,098 halvings that take any
# finite bracket down to two adjacent doubles.
_OUTER_ITERS = 320
_ROOT_ITERS = 2200


def _sigmoid(u):
    # exp(-|u|) never overflows: 1 / (1 + e) where u >= 0, e / (1 + e) below.
    u = np.asarray(u, dtype=float)
    e = np.exp(-np.abs(u))
    return np.where(u >= 0.0, 1.0, e) / (1.0 + e)


def _rounded_sum(values: list[float]) -> float:
    """The correctly rounded exact sum of doubles, +-inf past the double range: fsum's value where it returns.

    Infinite and nan values sum as fsum sums them.
    """
    try:
        return math.fsum(values)
    except OverflowError:  # a partial sum left the double range: add integer multiples of 2**-1074
        special = [v for v in values if not math.isfinite(v)]
        if special:
            return math.fsum(special)
        units = sum(p << (1075 - q.bit_length()) for p, q in map(float.as_integer_ratio, values))
        try:
            return units / 2**1074  # correctly rounded
        except OverflowError:
            return math.inf if units > 0 else -math.inf


# Below this many entries a block takes one fsum per row: the extraction's
# fixed cost, some 20 numpy calls, outweighs the fsums (BENCH_rowsum.json).
_EXTRACT_MIN_SIZE = 2048


def _row_fsums(a: np.ndarray) -> list[float]:
    """The correctly rounded exact sum of each row of a (rows, n) block, ``_rounded_sum``'s value.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31(1), 2008): with 2**m >= n + 2
    and sigma = 2**m times a power of two above max|p|, q = (sigma + p) - sigma
    and p - q are exact, and so is any sum of the q, multiples of 2**-53 sigma
    below sigma.  Up to four levels leave each row a few level sums and a
    remainder with the row's exact total.  fsum is correctly rounded and that
    rounding is unique, so fsum of those is fsum of the row, bit for bit.
    Rows that are zero, not finite or near the double range, and small blocks,
    take fsum or ``_rounded_sum`` (a ValueError from inf - inf propagates).
    """
    if a.size < _EXTRACT_MIN_SIZE:
        try:
            return list(map(math.fsum, rows := a.tolist()))
        except OverflowError:  # a row's running sum left the double range
            return list(map(_rounded_sum, rows))
    m = (a.shape[1] + 1).bit_length()  # 2**m >= n + 2
    top = np.abs(a).max(axis=1)
    fast = (top > 0.0) & (top < 2.0 ** (1020 - m))  # false where a row holds a nan
    every = bool(fast.all())  # then no row is visited in Python but for its fsum
    out = [] if every else [0.0 if f else _rounded_sum(row.tolist()) for f, row in zip(fast.tolist(), a)]
    p = a[fast]
    sigma = np.ldexp(1.0, np.frexp(top[fast])[1] + m)[:, None]
    q = np.empty_like(p)
    sums = []
    for _ in range(4):  # levels
        np.add(sigma, p, out=q)
        q -= sigma
        p -= q
        sums.append(q.sum(axis=1))
        if not (left := p.any()):
            break
        sigma *= 2.0 ** (m - 53)  # above the remainder, which is at most 2**-53 sigma
    parts = np.stack(sums, axis=1).tolist()
    for r in np.flatnonzero(p.any(axis=1)).tolist() if left else ():
        parts[r] += p[r][p[r] != 0.0].tolist()
    if every:
        return list(map(math.fsum, parts))  # below 2**1020 in every partial sum
    for r, s in zip(np.flatnonzero(fast).tolist(), parts):
        out[r] = math.fsum(s)
    return out


def _exact_sums(a: np.ndarray, what: str) -> list[float]:
    """``_row_fsums`` of finite values; NumericError naming ``what`` where a sum lies past the double range."""
    sums = _row_fsums(a)
    if not all(map(math.isfinite, sums)):
        raise NumericError(f"the sum of {what} leaves the double range")
    return sums


# --------------------------------------------------------------------------
# local costs
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalCost:
    """One agent's cost: a strictly convex base plus an optional penalty.

    kind "quadratic": p1*x^2 + p2*x + p3 with p1 > 0.
    kind "quartic":   p1*(x - p2)^4 with p1 > 0.
    """

    kind: str
    p1: float
    p2: float = 0.0
    p3: float = 0.0
    penalty: BoxPenalty | SmoothLogPenalty | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("quadratic", "quartic"):
            raise ConfigurationError(f"unknown cost kind {self.kind!r}")
        if not (self.p1 > 0.0 and math.isfinite(self.p1)):
            raise ConfigurationError(f"leading cost coefficient must be positive, got {self.p1}")
        if not (math.isfinite(self.p2) and math.isfinite(self.p3)):
            raise ConfigurationError(f"cost coefficients must be finite, got p2={self.p2}, p3={self.p3}")


def quadratic_cost(
    a: float, b: float = 0.0, c: float = 0.0, penalty: BoxPenalty | SmoothLogPenalty | None = None
) -> LocalCost:
    """a*x^2 + b*x + c with a > 0."""
    return LocalCost("quadratic", a, b, c, penalty)


def quartic_cost(
    scale: float, target: float, penalty: BoxPenalty | SmoothLogPenalty | None = None
) -> LocalCost:
    """scale * (x - target)^4 with scale > 0; flat to second order at the target."""
    return LocalCost("quartic", scale, target, 0.0, penalty)


# --------------------------------------------------------------------------
# vectorized view
# --------------------------------------------------------------------------


def _penalty_fields(pen) -> tuple:
    """``CostSet``'s (kind, lo, hi, weight, exponent, sharpness) of a penalty, neutral where it has none."""
    if pen is None:
        return 0, -math.inf, math.inf, 0.0, 2, 1.0
    if isinstance(pen, BoxPenalty):
        return 1, pen.lo, pen.hi, pen.weight, pen.exponent, 1.0
    return 2, pen.lo, pen.hi, 0.0, 2, pen.sharpness


def _as_costset(costs) -> CostSet:
    """``costs`` itself if it is a built ``CostSet``, else the ``CostSet`` of the list."""
    return costs if isinstance(costs, CostSet) else CostSet(costs)


class CostSet:
    """Array-backed view of a cost list: the one evaluator of the cost math.

    Every value, gradient and curvature in the package is computed here,
    with one vector expression per call; the scalar ``cost_*`` functions
    below are one-element calls into it.
    """

    def __init__(self, costs: list[LocalCost]):
        if not costs:
            raise ConfigurationError("CostSet needs at least one cost")
        n = len(costs)
        self.n = n
        self._shape = (n,)  # every evaluator checks the state against it in _state
        # One pass reads every field and numbers the distinct penalty objects, whose fields are read
        # once and gathered.  Penalty layout: 0 none, 1 box, 2 smooth-log; neutral rows use
        # parameters that make the corresponding branch evaluate to zero.
        at: dict[int, int] = {}
        quartic, p1, p2, p3, pick, pens = zip(
            *[(c.kind == "quartic", c.p1, c.p2, c.p3, at.setdefault(id(c.penalty), len(at)), c.penalty) for c in costs]
        )
        table = list(zip(*map(_penalty_fields, dict(zip(pick, pens)).values())))
        rows = np.array(pick) if len(at) < n else slice(None)  # no gather where each cost has its own
        types = (int, float, float, float, int, float)
        kind, lo, hi, wt, ex, mu = (np.array(col, dtype=t)[rows] for col, t in zip(table, types))
        self.quartic, self.p1, self.p2, self.p3 = np.array(quartic), np.array(p1), np.array(p2), np.array(p3)
        self.pen_kind, self.pen_lo, self.pen_hi = kind, lo, hi
        self.pen_weight, self.pen_exponent, self.pen_mu = wt, ex, mu
        self._box, self._log = kind == 1, kind == 2
        kinds = set(table[0])
        self._any_box, self._any_log = 1 in kinds, 2 in kinds
        # Penalties that every agent has skip the select; the factors below
        # associate as the formulas did; with exponent 2, u ** (m-1) is u.
        self._all_box, self._all_log = kinds == {1}, kinds == {2}
        self._p1x2, self._p1x4 = 2.0 * self.p1, 4.0 * self.p1
        self._pen_wm, self._pen_m1 = wt * ex, ex - 1
        self._pen_square = all(e == 2 for e in table[4])
        # Homogeneous cost lists skip the two-branch select in the hot path.
        self._all_quadratic, self._all_quartic = not any(quartic), all(quartic)

    # -- per-agent vector evaluations ------------------------------------

    def _state(self, x) -> np.ndarray:
        """``x`` as a float array whose last axis has one entry per cost; ConfigurationError otherwise."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != self._shape:
            raise ConfigurationError(f"state of shape {x.shape} does not match {self.n} costs")
        return x

    def base_value(self, x: np.ndarray) -> np.ndarray:
        """Per-agent base cost, without the penalty terms."""
        x = self._state(x)
        if self._all_quadratic:
            return self.p1 * x**2 + self.p2 * x + self.p3
        if self._all_quartic:
            return self.p1 * (x - self.p2) ** 4
        return np.where(
            self.quartic,
            self.p1 * (x - self.p2) ** 4,
            self.p1 * x**2 + self.p2 * x + self.p3,
        )

    def value_per_agent(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = self.base_value(x)
        if self._any_box:
            up = np.maximum(0.0, x - self.pen_hi)
            dn = np.maximum(0.0, self.pen_lo - x)
            pv = self.pen_weight * (_penalty_power(up, self.pen_exponent) + _penalty_power(dn, self.pen_exponent))
            out = out + (pv if self._all_box else np.where(self._box, pv, 0.0))
        if self._any_log:
            mu = self.pen_mu
            pv = (_softplus(mu * (x - self.pen_hi)) + _softplus(mu * (self.pen_lo - x))) / mu
            out = out + (pv if self._all_log else np.where(self._log, pv, 0.0))
        return out

    def total_value(self, x: np.ndarray) -> float:
        """The correctly rounded exact sum of the per-agent costs (``_rounded_sum``'s value).

        Finite costs whose sum lies past the double range sum to +-inf.
        """
        return self.row_totals(np.asarray(x, dtype=float)[None])[0]

    def row_totals(self, xs: np.ndarray) -> list[float]:
        """``total_value`` of each row of a (rows, n) block: one ``value_per_agent`` and one ``_row_fsums`` call."""
        return _row_fsums(self.value_per_agent(xs))

    @functools.cached_property
    def _bound(self) -> tuple[float, float, int, list[tuple[int, float]]]:
        """``value_bound``'s (shift, mu, top exponent, (exponent, c) terms), built on first use."""
        coef = np.concatenate([
            np.where(self.quartic, self.p1, np.abs(self.p1) + np.abs(self.p2) + np.abs(self.p3)),
            np.where(self._box, self.pen_weight, 0.0),
            np.where(self._log, 1.0 + 2.0 * math.log(2.0) / self.pen_mu, 0.0),
        ])
        expo = np.concatenate([np.where(self.quartic, 4, 2), self.pen_exponent, np.ones(self.n, dtype=int)])
        edge = np.where(self.pen_kind > 0, np.maximum(np.abs(self.pen_lo), np.abs(self.pen_hi)), 0.0)
        shift = float(max(np.abs(np.where(self.quartic, self.p2, 0.0)).max(), edge.max()))
        mu = max(1.0, float(np.where(self._log, self.pen_mu, 0.0).max()))
        return shift, mu, int(expo.max()), [(int(e), float(coef[expo == e].sum())) for e in np.unique(expo).tolist()]

    def value_bound(self, m: float) -> float:
        """An upper bound on |total_value(x)| over every x with max|x_i| <= m.

        With s = max(1, m + shift), |f_i(x)| is at most c * s**e summed over the
        base, (|p1| + |p2| + |p3|) s**2 or p1 s**4, and the penalty, weight
        s**exponent or (1 + 2 ln 2 / mu) s; the sum has a margin for rounding.
        It is inf where a power of s, or mu * s, nears the double range, since a
        term of ``value_per_agent`` could overflow there while its exact value does not.
        """
        shift, mu, top, terms = self._bound
        s = max(1.0, m + shift)
        try:
            if mu * s**top > 2.0**1000:
                return math.inf
            return (1.0 + 1e-9) * sum(c * s**e for e, c in terms)
        except OverflowError:  # a Python float power past the double range
            return math.inf

    def base_grad(self, x: np.ndarray) -> np.ndarray:
        """Per-agent base gradient, without the penalty terms."""
        return self._base_grad(self._state(x))

    def _base_grad(self, x: np.ndarray) -> np.ndarray:
        """``base_grad`` of a state that ``_state`` has checked."""
        if self._all_quadratic:
            return self._p1x2 * x + self.p2
        if self._all_quartic:
            return self._p1x4 * (x - self.p2) ** 3
        return np.where(
            self.quartic,
            self._p1x4 * (x - self.p2) ** 3,
            self._p1x2 * x + self.p2,
        )

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Per-agent gradient: ``base_grad`` plus the penalty terms.

        A square box term is 2 weight (x - min(max(lo, x), hi)): the bits of 2 weight (up - dn), up =
        max(0, x - hi) and dn = max(0, lo - x), less the overflow flag of an excess that max(0, .) zeroes.
        """
        x = self._state(x)
        out = self._base_grad(x)
        if self._any_box:
            if self._pen_square:
                pg = self._pen_wm * (x - np.minimum(np.maximum(self.pen_lo, x), self.pen_hi))
            else:
                up = np.maximum(0.0, x - self.pen_hi)
                dn = np.maximum(0.0, self.pen_lo - x)
                pg = self._pen_wm * (_penalty_power(up, self._pen_m1) - _penalty_power(dn, self._pen_m1))
            out = out + (pg if self._all_box else np.where(self._box, pg, 0.0))
        if self._any_log:
            mu = self.pen_mu
            pg = _sigmoid(mu * (x - self.pen_hi)) - _sigmoid(mu * (self.pen_lo - x))
            out = out + (pg if self._all_log else np.where(self._log, pg, 0.0))
        return out

    def curvature(self, x: np.ndarray) -> np.ndarray:
        """Per-agent second derivative (one-sided at box corners)."""
        return self._curvature(x, x, x)

    def _curvature(self, x, hi_at, lo_at) -> np.ndarray:
        """``curvature`` at x, but with the upper and lower smooth-log bumps at ``hi_at`` and ``lo_at``."""
        x = self._state(x)
        out = self._base_curvature(x)
        if self._any_box:
            m = self.pen_exponent
            up = np.maximum(0.0, x - self.pen_hi)
            dn = np.maximum(0.0, self.pen_lo - x)
            # Guard the m = 2 case: 0**0 is 1 under numpy, so gate each side
            # by whether it is actually outside the box; x**0 is 1.0 for
            # every x, nan and inf included, so square boxes skip the pow.
            if self._pen_square:
                up_side, dn_side = (up > 0) * 1.0, (dn > 0) * 1.0
            else:
                up_side = _power(up, np.maximum(m - 2, 0)) * (up > 0)
                dn_side = _power(dn, np.maximum(m - 2, 0)) * (dn > 0)
            pc = self._pen_wm * (m - 1) * (up_side + dn_side)
            out = out + (pc if self._all_box else np.where(self._box, pc, 0.0))
        if self._any_log:
            mu = self.pen_mu
            s1 = _sigmoid(mu * (hi_at - self.pen_hi))
            s2 = _sigmoid(mu * (self.pen_lo - lo_at))
            pc = mu * (s1 * (1.0 - s1) + s2 * (1.0 - s2))
            out = out + (pc if self._all_log else np.where(self._log, pc, 0.0))
        return out

    def _base_curvature(self, x: np.ndarray) -> np.ndarray:
        """The base's second derivative at a checked state x, without the penalty terms."""
        return np.where(self.quartic, 12.0 * self.p1 * (x - self.p2) ** 2, 2.0 * self.p1 + 0.0 * x)

    def _base_root(self, nu) -> np.ndarray:
        """Each agent's root of base_grad(x) = nu: (nu - p2) / (2 p1), or p2 + cbrt(nu / (4 p1)) for a quartic."""
        if self._all_quadratic:
            return (nu - self.p2) / self._p1x2
        quartic = self.p2 + np.cbrt(nu / self._p1x4)
        return quartic if self._all_quartic else np.where(self.quartic, quartic, (nu - self.p2) / self._p1x2)

    def _roots(self, nu: float, warm: np.ndarray | None = None, box: tuple | None = None) -> tuple:
        """Each agent's root x_i of f_i'(x) = nu, and 1 / f_i''(x_i), the slope of x_i in nu.

        With ``box`` = (lo, hi): the roots of ``base_grad``, clipped to the
        boxes, of slope 0 where clipped.  Otherwise a closed form gives the
        root without a penalty or inside a box, and outside a square box
        that of a linear equation or, for a quartic, of a depressed cubic
        (``_cubic_root``).  The cubic roots, and those outside a box of
        exponent above 2 or with a smooth-log penalty, take Newton steps
        inside a bracket: [hi, x_base] above a box, [x_base, lo] below it,
        and [x_base(nu - 1), x_base(nu + 1)] for a smooth-log penalty, whose
        gradient lies in (-1, 1).  They start from ``warm`` where given.  A
        step that leaves the bracket (its ends are in it), is not at most
        half the last step or meets no finite curvature bisects instead.  An
        agent stops after a Newton step within 2**-50 (1 + |x|), or a
        bisection that leaves x as it is; NumericError after ``_ROOT_ITERS``.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = a = c = self._base_root(nu)  # [a, c] brackets each root; a == c where x is exact
            if box is not None:
                clipped = np.clip(x, *box)
                return clipped, np.where(clipped == x, 1.0 / self._base_curvature(x), 0.0)
            guessed = False  # the roots that start from a closed form, not from ``warm``
            if self._any_box:
                up, dn = self._box & (x > self.pen_hi), self._box & (x < self.pen_lo)
                edge, w2 = np.where(up, self.pen_hi, self.pen_lo), 2.0 * self.pen_weight
                guessed = (up | dn) & (self.pen_exponent == 2)
                line = (nu - self.p2 + w2 * edge) / (self._p1x2 + w2)
                cubic = self.p2 + _cubic_root(self.pen_weight / self._p1x2, (w2 * (self.p2 - edge) - nu) / self._p1x4)
                a, c = np.where(up, self.pen_hi, x), np.where(dn, self.pen_lo, x)
                x = np.where(guessed, np.where(self.quartic, cubic, line), x)
                exact = guessed & ~self.quartic
                a, c = np.where(exact, x, a), np.where(exact, x, c)
            if self._any_log:
                a = np.where(self._log, self._base_root(nu - 1.0), a)
                c = np.where(self._log, self._base_root(nu + 1.0), c)
            active = a < c
            if warm is not None:
                x = np.where(active & ~guessed, warm, x)
            x, last = np.clip(x, a, c), np.full(self.n, np.inf)
            for _ in range(_ROOT_ITERS):
                if not active.any():
                    return x, 1.0 / self.curvature(x)
                g = self.grad(x) - nu
                a, c = np.where(active & (g < 0.0), x, a), np.where(active & (g > 0.0), x, c)
                h = self.curvature(x)
                newton = x - g / h
                ok = (a <= newton) & (newton <= c) & (np.abs(newton - x) <= 0.5 * last) & (h < np.inf)
                new = np.where(ok, newton, 0.5 * (a + c))
                x, last = np.where(active, new, x), np.abs(new - x)
                active &= np.where(ok, last > 2.0**-50 * (1.0 + np.abs(x)), last > 0.0)
        raise NumericError(f"the roots of f_i'(x) = {nu} did not converge in {_ROOT_ITERS} steps")


# --------------------------------------------------------------------------
# smoothness estimate
# --------------------------------------------------------------------------


def _make_penalty(kind: str, lo: float, hi: float, weight: float, exponent: int, sharpness: float):
    """The penalty of ``kind`` on [lo, hi] with the shape that kind reads; None for "none"."""
    if kind == "none":
        return None
    if kind == "box":
        return BoxPenalty(lo, hi, weight, exponent)
    if kind == "smooth_log":
        return SmoothLogPenalty(lo, hi, sharpness)
    raise ConfigurationError(f"unknown penalty kind {kind!r}")


# A smooth-log bump is concave only within ln(2 + sqrt 3) / mu of its edge: quarter that band.
_BAND_CUTS = math.log(2.0 + math.sqrt(3.0)) * np.arange(-1.0, 1.5, 0.5)[:, None, None]


@dataclass(frozen=True)
class SmoothnessEstimate:
    """A bound on every agent's curvature over a domain, and u = 1.1 * max_curvature / 2."""

    u: float
    max_curvature: float


def smoothness_bound(costs: list[LocalCost] | CostSet, domain: tuple[float, float]) -> SmoothnessEstimate:
    """The quadratic-upper-bound constant u of ``costs`` over ``domain`` = (lo, hi).

    Cut at the penalty edges, f_i'' is convex on each piece but a smooth-log
    band, so its supremum is at a piece end or, for a box of exponent 2,
    beside an edge; each quarter of a band is bounded by the base curvature at
    its ends plus each bump at its point nearest its edge.  One ``_curvature``
    call takes every piece and [lo, lo], [hi, hi].  ``costs`` is a list or
    its built ``CostSet``.  Raises ConfigurationError unless lo < hi,
    DomainError unless f'' is finite there.
    """
    lo, hi = domain
    if not lo < hi:
        raise ConfigurationError(f"smoothness domain must be an interval lo < hi, got {domain}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"smoothness domain must be finite, got {domain}")
    cs = _as_costset(costs)
    edges = np.stack([cs.pen_lo, cs.pen_hi])
    with np.errstate(over="ignore", invalid="ignore"):
        # Per edge, the ends of a band's quarters or of the edge and its neighbours.
        ends = np.where(cs._log, edges + _BAND_CUTS / cs.pen_mu, np.nextafter(edges, edges + _BAND_CUTS))
        ends = np.clip(ends, lo, hi)
        rim = np.full((1, 2, cs.n), [[lo], [hi]])
        # Every piece [a, b] at once (a bump taken nearest its edge): [lo, lo] and [hi, hi], then the quarters.
        a, b = np.concatenate([rim, ends[:-1]]), np.concatenate([rim, ends[1:]])
        worst = float(cs._curvature(np.stack([a, b]), np.clip(cs.pen_hi, a, b), np.clip(cs.pen_lo, a, b)).max())
    if not math.isfinite(worst):
        raise DomainError(f"the curvature over the smoothness domain {domain} is not finite")
    return SmoothnessEstimate(u=0.55 * worst, max_curvature=worst)


# --------------------------------------------------------------------------
# centralized oracle
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CentralSolution:
    """Optimum of the equality-coupled problem found by the oracle."""

    x: np.ndarray
    multiplier: float
    value: float
    mode: str
    gap: float
    iterations: int
    kkt_residual: float


def _box_bounds(boxes: list[tuple[float, float]], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The lower and upper ends of ``n`` (lo, hi) boxes, as two arrays.

    Raises ConfigurationError unless there is one box per coordinate and
    each has lo <= hi, which a NaN end fails too.
    """
    if len(boxes) != n:
        raise ConfigurationError(f"boxes must have one (lo, hi) pair per coordinate: {len(boxes)} for {n}")
    lo = np.array([b[0] for b in boxes], dtype=float)
    hi = np.array([b[1] for b in boxes], dtype=float)
    if not np.all(lo <= hi):
        raise ConfigurationError("each box needs lo <= hi")
    return lo, hi


def _check_box_total(lo: np.ndarray, hi: np.ndarray, total: float, tol: float = 0.0) -> None:
    """Raise InfeasibilityError if ``total`` lies below sum(lo) - tol or above sum(hi) + tol.

    Each side is decided on the sign of one correctly rounded sum, which is
    the sign of the exact sum, so box ends near the double range decide it
    as small ones do.  A side with an infinite end
    binds only if that end is a floor of +inf or a ceiling of -inf.
    """
    for ends, sign, name in ((lo, 1.0, "below the box floor"), (hi, -1.0, "above the box ceiling")):
        if (ends == sign * math.inf).any():
            raise InfeasibilityError(f"total {total} is {name} {sign * math.inf}")
        if sign * _rounded_sum([*ends.tolist(), -total, -sign * tol]) > 0.0:
            raise InfeasibilityError(f"total {total} is {name} {_rounded_sum(ends.tolist())}")


def central_solve(
    costs: list[LocalCost] | CostSet,
    total: float,
    boxes: list[tuple[float, float]] | None = None,
    tol: float = 1e-9,
    mode: str = "penalized",
) -> CentralSolution:
    """Solve min sum f_i(x_i) s.t. sum x_i = total by guarded Newton steps on nu.

    mode "penalized" treats each f_i (with its penalty) as the objective and
    searches the unconstrained stationary point at shared marginal price nu.
    mode "exact_box" enforces hard boxes by KKT clamping: coordinates solve
    the base gradient equation and are clipped, and nu is driven until the
    clipped aggregate meets ``total``.  Boxes default to each cost's penalty
    interval; agents without one are unbounded.  ``boxes`` are refused in
    mode "penalized", which honours only the costs' own penalties.
    ``costs`` is a list or its built ``CostSet``.

    ``CostSet._roots`` gives each x_i(nu) and its slope 1 / f_i''(x_i), so
    S(nu) = sum x_i(nu) is nondecreasing with slope sum 1 / f_i''.  The first
    nu is the gradients' mean at the even split, weighted by 1 / f_i''.  The
    next is a Newton step on S - total strictly inside the bracket that the
    signs of S - total have given; otherwise, or when a finite bracket's
    last step did not halve |S - total|, nu bisects the bracket, or steps
    by max(1, 2 |nu|) towards its unbounded end.  It stops at
    |S - total| <= tol, S correctly rounded (``_row_fsums``); ``iterations``
    counts the nu.
    ``kkt_residual`` is max |f_i'(x_i) - nu| over the agents not clipped.

    Raises InfeasibilityError when the boxes cannot hold the total and
    NumericError if the tolerance is not met.
    """
    if mode not in ("penalized", "exact_box"):
        raise ConfigurationError(f"unknown central_solve mode {mode!r}")
    if not costs:
        raise ConfigurationError("central_solve needs at least one cost")
    if not (math.isfinite(total)):
        raise ConfigurationError(f"total must be finite, got {total}")
    if not (tol > 0.0):
        raise ConfigurationError(f"tol must be positive, got {tol}")

    cs = _as_costset(costs)
    n, box, grad, curvature = cs.n, None, cs.grad, cs.curvature
    if boxes is not None:
        if mode != "exact_box":
            raise ConfigurationError(f"boxes apply in mode 'exact_box' only, not {mode!r}")
        box = _box_bounds(boxes, n)
    elif mode == "exact_box":
        box = np.where(cs.pen_kind > 0, cs.pen_lo, -np.inf), np.where(cs.pen_kind > 0, cs.pen_hi, np.inf)
    if box is not None:
        _check_box_total(*box, total, tol)
        grad, curvature = cs.base_grad, cs._base_curvature

    with np.errstate(all="ignore"):
        even = np.full(n, total / n)
        weight = 1.0 / curvature(even)
        nu = float((grad(even) * weight).sum() / weight.sum())
    nu, lo_nu, hi_nu, x, last = nu if math.isfinite(nu) else 0.0, -math.inf, math.inf, None, math.inf
    for iterations in range(1, _OUTER_ITERS + 1):
        x, slope = cs._roots(nu, x, box)
        try:
            miss = _row_fsums(x[None])[0] - total  # +-inf where roots overflow on one side only
        except ValueError:  # inf - inf
            miss = math.nan
        if math.isnan(miss):
            raise NumericError(f"the roots at the multiplier {nu} are not numbers or overflow on both sides")
        if abs(miss) <= tol:
            break
        lo_nu, hi_nu = (nu, hi_nu) if miss < 0.0 else (lo_nu, nu)
        rate = float(slope.sum())
        step = nu - miss / rate if rate > 0.0 else math.nan
        bounded = math.isfinite(lo_nu) and math.isfinite(hi_nu)
        if not lo_nu < step < hi_nu or bounded and abs(miss) > 0.5 * last:
            step = 0.5 * lo_nu + 0.5 * hi_nu if bounded else nu - math.copysign(max(1.0, 2.0 * abs(nu)), miss)
            if not lo_nu < step < hi_nu:  # the bracket holds no other double
                break
        nu, last = step, abs(miss)
    if abs(miss) > tol:
        raise NumericError(f"the multiplier search did not reach |sum - total| <= {tol}")

    free = slice(None) if box is None else (box[0] < x) & (x < box[1])
    with np.errstate(over="ignore", invalid="ignore"):  # at a clipped agent's box end, which is not read
        kkt = float(np.abs(grad(x) - nu)[free].max(initial=0.0))
    if box is None:
        value = cs.total_value(x)
    else:
        (value,) = _row_fsums(cs.base_value(x)[None])
    x.flags.writeable = False
    return CentralSolution(
        x=x, multiplier=float(nu), value=float(value), mode=mode, gap=float(abs(miss)), iterations=iterations,
        kkt_residual=kkt,
    )


# --------------------------------------------------------------------------
# table loading
# --------------------------------------------------------------------------


def load_costs_csv(
    path: str | Path,
    penalty: str = "box",
    penalty_weight: float = 20.0,
    penalty_exponent: int = 2,
    penalty_sharpness: float = 5.0,
) -> list[LocalCost]:
    """Read per-agent costs from a CSV table with header i,kind,p1,p2,p3,lo,hi.

    Rows may appear in any order but must cover agent ids 0..n-1 exactly
    once.  Empty lo/hi cells mean no penalty for that agent; otherwise the
    shared penalty shape given by the keyword arguments is attached, none
    when ``penalty`` is "none".
    """
    path = Path(path)
    rows: dict[int, LocalCost] = {}
    reader = csv.DictReader(io.StringIO(read_input_text(path, "cost table")))
    expected = ["i", "kind", "p1", "p2", "p3", "lo", "hi"]
    if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != expected:
        raise ConfigurationError(
            f"cost table must have header {','.join(expected)}, got {reader.fieldnames}"
        )
    for lineno, row in enumerate(reader, start=2):
        try:
            idx = int(row["i"])
            kind = row["kind"].strip()
            p1 = float(row["p1"])
            p2 = float(row["p2"]) if row["p2"].strip() else 0.0
            p3 = float(row["p3"]) if row["p3"].strip() else 0.0
            lo_s, hi_s = row["lo"].strip(), row["hi"].strip()
            lo, hi = (float(lo_s), float(hi_s)) if lo_s and hi_s else (None, None)
        except (ValueError, AttributeError) as exc:
            raise ConfigurationError(f"bad cost row at line {lineno}: {row}") from exc
        if idx in rows:
            raise ConfigurationError(f"duplicate agent id {idx} at line {lineno}")
        pen = None
        if lo_s or hi_s:
            if not (lo_s and hi_s):
                raise ConfigurationError(f"line {lineno}: lo and hi must both be set or both empty")
            pen = _make_penalty(penalty, lo, hi, penalty_weight, penalty_exponent, penalty_sharpness)
        try:
            rows[idx] = LocalCost(kind, p1, p2, p3, pen)
        except ConfigurationError as exc:
            raise ConfigurationError(f"line {lineno}: {exc}") from None
    n = len(rows)
    if n == 0:
        raise ConfigurationError(f"cost table {path} has no rows")
    if sorted(rows) != list(range(n)):
        raise ConfigurationError(f"agent ids must be 0..{n - 1} exactly once, got {sorted(rows)}")
    return [rows[i] for i in range(n)]
