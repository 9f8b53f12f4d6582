"""The per-step kernels against their plain reference formulas, bit for bit.

``apply_map_array`` and ``CostSet.grad`` take shortcuts that must not show:
the quantizer sends a zero through log 1 instead of log 0 under an
``errstate``, and the square box term clamps x into the box instead of
forming both one-sided excesses.  ``CostSet.curvature`` takes a square box
side as its excess's sign test instead of the excess to the power 0.  The
references below are the plain formulas, with each integer power written
out as the products ``objective._int_power`` forms.  Every example is
evaluated under ``np.errstate(all="raise")``,
so a floating-point flag that either side sets is an error: both sides
must raise the same error, or return the same bits, type and shape (and
count the same clamp events).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dra_sim import (
    BoxPenalty,
    ClampCounter,
    CostSet,
    NumericError,
    SmoothLogPenalty,
    apply_map_array,
    identity_map,
    log_quantizer,
    quadratic_cost,
    quartic_cost,
    saturation,
    sign_power,
)

BIG = 2.0**1023
SPECIAL = (
    0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022), 2.0**-1040, 1.0, -1.0,
    BIG, -BIG, math.nextafter(math.inf, 0.0), -math.nextafter(math.inf, 0.0), 1e300, -1e-300,
)
NONFINITE = (math.inf, -math.inf, math.nan)


def reference_map(m, z, counter=None):
    """g(z) by the plain formulas: log 0 under an errstate, np.clip for the power map's clamp."""
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise NumericError("sector map input must be finite")
    if m.kind == "identity":
        return z
    if m.kind == "log_quantizer":
        with np.errstate(divide="ignore"):
            mag = np.exp(m.rho * np.rint(np.log(np.abs(z)) / m.rho))
        return np.sign(z) * mag
    lo, hi = m.abs_domain
    a = np.abs(z)
    if m.kind == "saturation":
        if counter is not None:
            counter.events += int(np.count_nonzero(a > hi))
        return np.sign(z) * np.minimum(np.minimum(a, hi), m.cap)
    if counter is not None:  # nonzero inputs outside [d_min, d_max]
        counter.events += int(np.count_nonzero((z != 0.0) & ((a < lo) | (a > hi))))
    return np.sign(z) * np.clip(a, lo, hi) ** m.exponent


def reference_sigmoid(u):
    e = np.exp(-np.abs(u))
    return np.where(u >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def reference_power(b, e):
    """b**e for e in 0..5 as products: 1, b, b*b, (b*b)*b, (b*b)*(b*b) and ((b*b)*(b*b))*b."""
    if e == 0:
        return np.ones_like(b)
    if e == 1:
        return b
    if e == 2:
        return b * b
    if e == 3:
        return (b * b) * b
    if e == 4:
        return (b * b) * (b * b)
    if e == 5:
        return ((b * b) * (b * b)) * b
    raise ValueError(f"no reference power for e = {e}")


def reference_box_power(cs, b, less):
    """b ** (m - less) at each agent, m its box exponent: each box exponent's power in increasing order, selected.

    Agents without a box take the smallest box exponent's power of 0.
    """
    b = np.where(cs._box, b, 0.0)
    exponents = sorted(set(cs.pen_exponent[cs._box].tolist()))
    powers = [reference_power(b, m - less) for m in exponents]
    return np.select([cs.pen_exponent == m for m in exponents], powers, powers[0])


def reference_grad(cs, x):
    """f'(x) by the plain formulas: the box term from both one-sided excesses, up and dn, at every exponent."""
    x = np.asarray(x, dtype=float)
    out = cs.base_grad(x)
    if cs._any_box:
        up = np.maximum(0.0, x - cs.pen_hi)
        dn = np.maximum(0.0, cs.pen_lo - x)
        if cs._pen_square:
            pg = cs._pen_wm * (up - dn)
        else:
            pg = cs._pen_wm * (reference_box_power(cs, up, 1) - reference_box_power(cs, dn, 1))
        out = out + (pg if cs._all_box else np.where(cs._box, pg, 0.0))
    if cs._any_log:
        mu = cs.pen_mu
        pg = reference_sigmoid(mu * (x - cs.pen_hi)) - reference_sigmoid(mu * (cs.pen_lo - x))
        out = out + (pg if cs._all_log else np.where(cs._log, pg, 0.0))
    return out


def reference_curvature(cs, x):
    """f''(x) by the plain formulas: each box side's excess to the power m - 2, gated by excess > 0, at any exponent."""
    x = np.asarray(x, dtype=float)
    out = np.where(cs.quartic, 12.0 * cs.p1 * (x - cs.p2) ** 2, 2.0 * cs.p1 + 0.0 * x)
    if cs._any_box:
        m = cs.pen_exponent
        up = np.maximum(0.0, x - cs.pen_hi)
        dn = np.maximum(0.0, cs.pen_lo - x)
        sides = reference_box_power(cs, up, 2) * (up > 0) + reference_box_power(cs, dn, 2) * (dn > 0)
        pc = cs._pen_wm * (m - 1) * sides
        out = out + (pc if cs._all_box else np.where(cs._box, pc, 0.0))
    if cs._any_log:
        mu = cs.pen_mu
        s1 = reference_sigmoid(mu * (x - cs.pen_hi))
        s2 = reference_sigmoid(mu * (cs.pen_lo - x))
        pc = mu * (s1 * (1.0 - s1) + s2 * (1.0 - s2))
        out = out + (pc if cs._all_log else np.where(cs._log, pc, 0.0))
    return out


def outcome(fn, *args):
    """What ``fn(*args)`` gives under errstate(all="raise"): its error, or its result's type, shape and bits."""
    with np.errstate(all="raise"):
        try:
            got = fn(*args)
        except (FloatingPointError, NumericError) as err:
            return type(err), str(err)
    return type(got), np.shape(got), np.asarray(got).dtype, np.asarray(got).tobytes()


def map_outcome(fn, m, z, counted):
    counter = ClampCounter() if counted else None
    return outcome(fn, m, z, counter), counter and counter.events


values = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def sector_maps(draw):
    kind = draw(st.sampled_from(("identity", "log_quantizer", "saturation", "sign_power")))
    if kind == "identity":
        return identity_map()
    if kind == "log_quantizer":
        return log_quantizer(draw(st.sampled_from((2.0**-10, 0.25, 1.0))) * draw(st.floats(0.5, 4.0)))
    if kind == "saturation":
        d_max = draw(st.floats(1e-3, 1e3))
        return saturation(d_max * draw(st.floats(0.01, 0.99)), d_max)
    d_min = draw(st.floats(1e-6, 10.0))
    return sign_power(draw(st.sampled_from((0.5, 1.0, 0.25, 0.7))), d_min, d_min * draw(st.floats(1.0, 1e4)))


@st.composite
def map_inputs(draw):
    z = draw(st.lists(values, max_size=40))
    if z and draw(st.integers(0, 3)) == 0:  # one non-finite entry
        z[draw(st.integers(0, len(z) - 1))] = draw(st.sampled_from(NONFINITE))
    if len(z) == 1 and draw(st.booleans()):
        return z[0]  # a scalar
    return np.array(z, dtype=float)


@given(sector_maps(), map_inputs(), st.booleans())
@example(m=log_quantizer(0.25), z=np.array([0.0, -0.0, 5e-324, 1.0, -BIG]), counted=False)
@example(m=log_quantizer(2.0**-10), z=np.array([-5e-324, 2.0**-1074 * 7, 3.0]), counted=True)
@example(m=log_quantizer(1.0), z=np.array([math.nextafter(math.inf, 0.0)]), counted=False)
@example(m=sign_power(0.5, 1e-3, 10.0), z=np.array([0.0, -0.0, 1e-4, -20.0, 2.0, 5e-324]), counted=True)
@example(m=saturation(1.0, 2.0), z=np.array([0.0, -3.0, 1.5, -0.0, BIG]), counted=True)
@example(m=identity_map(), z=np.array([1.0, math.nan]), counted=False)
@example(m=sign_power(1.0, 1e-3, 10.0), z=np.array([]), counted=True)
@settings(max_examples=400)
def test_apply_map_array_is_the_reference(m, z, counted):
    assert map_outcome(apply_map_array, m, z, counted) == map_outcome(reference_map, m, z, counted)


# Zeros, subnormals, the normal range's lower end and values near overflow.
LOG_EDGES = (
    0.0, -0.0, 5e-324, -5e-324, 2.0**-1074 * 7, math.nextafter(2.0**-1022, 0.0), 2.0**-1022, 1.0, -1.0,
    1e308, BIG, -BIG, math.nextafter(math.inf, 0.0), -math.nextafter(math.inf, 0.0),
)


@pytest.mark.parametrize("rho", (2.0**-10, 0.125, 0.25, 1.0, 3.0))
def test_log_quantizer_in_place_is_the_plain_formula(rho):
    # The quantizer's steps run in place on one array, and a scalar goes
    # through as a one-entry array.  Each edge value, as a scalar and as a
    # one-entry array, and all of them at once: under errstate(all="raise")
    # both sides raise the same underflow or overflow in exp, or return the
    # same bits; with the flags ignored, both return the same bits (0 where
    # exp underflows, inf where rho rounds log|z| up past log(max double)).
    m = log_quantizer(rho)
    for z in [*LOG_EDGES, *([v] for v in LOG_EDGES), list(LOG_EDGES)]:
        z = np.array(z, dtype=float)
        assert outcome(apply_map_array, m, z) == outcome(reference_map, m, z)
        with np.errstate(all="ignore"):
            got, want = apply_map_array(m, z), reference_map(m, z)
        assert (type(got), np.shape(got), got.tobytes()) == (type(want), np.shape(want), want.tobytes())


@st.composite
def grad_instances(draw):
    """(CostSet, x): mixed costs with no, box (exponent 2, 3 or 4) or smooth-log penalties."""
    n = draw(st.integers(1, 8))
    layout = draw(st.sampled_from(("box2", "box", "mixed", "log", "none")))
    costs = []
    for _ in range(n):
        kind = {"box2": "box", "box": "box", "log": "smooth_log", "none": "none"}.get(layout) or draw(
            st.sampled_from(("box", "smooth_log", "none"))
        )
        width = draw(st.floats(1e-3, 1e6))
        ends = draw(st.sampled_from(("free", "zero_lo", "zero_hi")))
        if ends == "zero_lo":
            lo, hi = draw(st.sampled_from((0.0, -0.0))), width
        elif ends == "zero_hi":
            lo, hi = -width, draw(st.sampled_from((0.0, -0.0)))
        else:
            lo = draw(st.floats(-1e6, 1e6))
            hi = max(lo + width, math.nextafter(lo, math.inf))
        exponent = 2 if layout == "box2" else draw(st.sampled_from((2, 3, 4)))
        pen = {
            "box": BoxPenalty(lo, hi, draw(st.floats(0.5, 40.0)), exponent),
            "smooth_log": SmoothLogPenalty(lo, hi, draw(st.floats(0.5, 10.0))),
            "none": None,
        }[kind]
        p2 = draw(st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-3.0, 3.0)))
        if draw(st.booleans()):
            costs.append(quadratic_cost(draw(st.floats(0.1, 2.0)), p2, 0.0, penalty=pen))
        else:
            costs.append(quartic_cost(draw(st.floats(0.001, 0.05)), p2, penalty=pen))
    cs = CostSet(costs)
    edges = [v for c in costs if c.penalty is not None for v in (c.penalty.lo, c.penalty.hi)]
    near = st.sampled_from(edges + [math.nextafter(v, d) for v in edges for d in (-math.inf, math.inf)] or [0.0])
    entry = st.one_of(values, near, st.sampled_from(NONFINITE))
    rows = draw(st.sampled_from((None, 1, 3)))
    x = draw(st.lists(entry, min_size=n * (rows or 1), max_size=n * (rows or 1)))
    return cs, np.array(x, dtype=float).reshape((-1, n) if rows else (n,))


@given(grad_instances())
@example(inst=(CostSet([quartic_cost(0.01, 0.0, penalty=BoxPenalty(0.0, 1.0, 2.0, 2))]), np.array([-0.0])))
@example(inst=(CostSet([quartic_cost(0.01, 0.0, penalty=BoxPenalty(-1.0, 0.0, 2.0, 2))]), np.array([-0.0])))
@example(inst=(CostSet([quartic_cost(0.01, 0.0, penalty=BoxPenalty(-1.0, -0.0, 2.0, 2))]), np.array([0.0])))
@example(inst=(CostSet([quadratic_cost(1.0, penalty=BoxPenalty(1.0, 2.0, 3.0, 2)),
                        quadratic_cost(1.0, penalty=SmoothLogPenalty(1.0, 2.0, 3.0)),
                        quadratic_cost(1.0)]), np.array([math.nan, -math.nan, math.inf])))
@example(inst=(CostSet([quadratic_cost(1.0, penalty=BoxPenalty(1.0, 2.0, 3.0, 3))] * 2), np.array([-BIG, BIG])))
@settings(max_examples=400)
def test_grad_is_the_reference(inst):
    cs, x = inst
    assert outcome(cs.grad, x) == outcome(reference_grad, cs, x)


def test_square_box_term_forms_no_discarded_excess():
    # The one flag the clamp form does not set: x far below a box whose upper
    # end lies past half the double range.  x - hi overflows there, and
    # max(0, x - hi) discards it; the clamp form never forms it.  The values
    # agree.
    cs = CostSet([quadratic_cost(1e-10, penalty=BoxPenalty(-1e308, 1e308, 1.0, 2))])
    x = np.array([-1.7e308])
    with np.errstate(all="ignore"):
        want = reference_grad(cs, x)
    with np.errstate(all="raise"):
        assert cs.grad(x).tobytes() == want.tobytes()
        with pytest.raises(FloatingPointError, match="overflow encountered in subtract"):
            reference_grad(cs, x)


@given(grad_instances())
@example(inst=(CostSet([quartic_cost(0.01, 0.0, penalty=BoxPenalty(-1.0, 0.0, 2.0, 2))]), np.array([5e-324])))
@example(inst=(CostSet([quadratic_cost(1.0, penalty=BoxPenalty(1.0, 2.0, 3.0, 2)),
                        quadratic_cost(1.0, penalty=BoxPenalty(1.0, 2.0, 3.0, 5))]), np.array([-BIG, BIG])))
@settings(max_examples=400)
def test_curvature_is_the_reference(inst):
    cs, x = inst
    assert outcome(cs.curvature, x) == outcome(reference_curvature, cs, x)


# Excesses of +-0.0, subnormals, a normal, +-inf and nan on each side of two square boxes.
SIDE_XS = (0.0, -0.0, 5e-324, -5e-324, 2.0**-1040, -(2.0**-1040), 1.0, math.inf, -math.inf, math.nan)


@pytest.mark.parametrize("box", ((-1.0, 0.0), (0.0, 1.0), (-1.0, -0.0), (-0.0, 1.0)))
def test_square_box_side_is_the_zeroth_power_of_its_excess(box):
    cs = CostSet([quadratic_cost(1.0, penalty=BoxPenalty(*box, 3.0, 2)), quartic_cost(0.5, 0.0)])
    x = np.repeat(np.array(SIDE_XS)[:, None], 2, axis=1)
    with np.errstate(all="ignore"):
        up, dn = np.maximum(0.0, x - cs.pen_hi), np.maximum(0.0, cs.pen_lo - x)
        assert ((up > 0) * 1.0).tobytes() == (reference_power(up, 0) * (up > 0)).tobytes()
        assert ((dn > 0) * 1.0).tobytes() == (reference_power(dn, 0) * (dn > 0)).tobytes()
        assert cs.curvature(x).tobytes() == reference_curvature(cs, x).tobytes()
