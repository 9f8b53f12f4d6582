"""The resource-allocation update law, its delayed variant, and its bounds.

Each step, every link {i, j} carries one scalar flow
w_ij * g_n(g_l(f_i'(x_i)) - g_l(f_j'(x_j))), subtracted from i and added to
j scaled by the step rate.  Because both endpoints apply the same number,
the state total is conserved to rounding at every step regardless of the
topology, of which links fail, and of message delays: a delay is drawn once
per link and emission, so both halves of a flow land at the same step.
Gradients equalize at the fixed points, which is the optimality condition of
the equality-coupled problem.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, InfeasibilityError
from .graph import WeightedGraph
from .mappings import ClampCounter, SectorMap, apply_map_array
from .objective import CostSet, _box_bounds

__all__ = [
    "DelayedNetworkState",
    "DelaySchedule",
    "step_delay_free",
    "init_delayed_state",
    "step_delayed",
    "step_rate_bound",
    "step_rate_from_sector",
    "max_delay_bound",
    "feasible_init",
]


def _as_costset(costs) -> CostSet:
    return costs if isinstance(costs, CostSet) else CostSet(costs)


# --------------------------------------------------------------------------
# flows
# --------------------------------------------------------------------------


def _flows(
    gl: np.ndarray, ei: np.ndarray, ej: np.ndarray, w: np.ndarray, node_map: SectorMap, counter: ClampCounter | None
) -> np.ndarray:
    return w * apply_map_array(node_map, gl[ei] - gl[ej], counter)


def _inflow(n: int, ei: np.ndarray, ej: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Net flow into each node when link k moves phi[k] from ei[k] to ej[k].

    Each side is summed by ``bincount`` in input order, so the result is
    reproducible bit for bit.
    """
    return np.bincount(ej, weights=phi, minlength=n) - np.bincount(ei, weights=phi, minlength=n)


@functools.lru_cache(maxsize=16)
def _ring_slots(depth: int) -> np.ndarray:
    """Entry r + d is the ring slot of a flow emitted at ring position r with delay d."""
    slots = np.arange(2 * depth) % depth
    slots.flags.writeable = False  # shared by every caller
    return slots


# --------------------------------------------------------------------------
# stepping
# --------------------------------------------------------------------------


# Stream tag of the delay draws, the second word of every delay stream's key.
_DELAY_TAG = 0xDE1A
# Most delays in one block of uniform draws, whatever the link count.
_DELAY_BLOCK = 1 << 15


class DelaySchedule:
    """Per-link, per-step transmission delays in {0, ..., tau_bar}.

    mode "uniform" draws a fresh delay for every emission; "fixed" always
    uses tau_bar; "per_link" draws one delay per link once and keeps it for
    the whole run.  A delay belongs to a link, not to one of its endpoints:
    both apply the flow at the same step, so the state total is conserved at
    every step while flows are in flight.  Every mode returns delays in the
    narrowest unsigned dtype that holds tau_bar.

    The uniform delays come from one counter-based stream (Salmon et al.,
    "Parallel random numbers: as easy as 1, 2, 3", SC'11): a Philox4x64
    generator keyed by the words (seed, 0xDE1A).  Steps are grouped by the
    link count ``m`` of their graph before failures into blocks of
    ``rows = max(1, 2**15 // m)`` steps.  Block ``b`` holds steps
    ``b * rows`` to ``b * rows + rows - 1``; it is one
    ``integers(0, tau_bar + 1, size=(rows, m))`` draw whose counter starts
    at the words [0, b, m, 0], and each step reads its own row.  The live
    links of a step take the first ``len(ei)`` entries of that row, in link
    order; with one row per block only that prefix is drawn, which equals
    the head of the full row.  A delay is thus a pure function of (seed,
    step, m, position), and draws may come in any order.
    """

    def __init__(self, tau_bar: int, mode: str = "uniform", seed: int = 0):
        if tau_bar < 0 or int(tau_bar) != tau_bar:
            raise ConfigurationError(f"tau_bar must be a nonnegative integer, got {tau_bar}")
        if mode not in ("uniform", "fixed", "per_link"):
            raise ConfigurationError(f"unknown delay mode {mode!r}")
        if not 0 <= seed < 2**64 or int(seed) != seed:
            raise ConfigurationError(f"delay seed must be an integer in [0, 2**64), got {seed}")
        self.tau_bar = int(tau_bar)
        self.mode = mode
        self.seed = int(seed)
        self._dtype = np.min_scalar_type(self.tau_bar)
        self._per_link: dict[tuple[int, int], int] = {}
        # Only uniform delays read a generator; the zero-delay schedule built at
        # import builds none, so importing the package does not load numpy.random.
        self._gen = None
        if mode == "uniform" and self.tau_bar > 0:
            self._key = np.array([self.seed, _DELAY_TAG], dtype=np.uint64)
            self._gen = np.random.Generator(np.random.Philox(key=self._key))
        self._held: tuple[int, int, np.ndarray | None] = (-1, 0, None)  # (block, m, delays)

    # The per-link stream key ends in 0; changing it would change every delay.
    def _per_link_delay(self, i: int, j: int) -> int:
        got = self._per_link.get((i, j))
        if got is None:
            rng = np.random.default_rng([self.seed, _DELAY_TAG, i, j, 0])
            got = int(rng.integers(0, self.tau_bar + 1))
            self._per_link[(i, j)] = got
        return got

    def _uniform(self, block: int, m: int, size) -> np.ndarray:
        """``size`` uniform delays from the start of block ``block`` of width ``m``."""
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.array([0, block, m, 0], dtype=np.uint64), "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._gen.integers(0, self.tau_bar + 1, size=size, dtype=self._dtype)

    def draw(self, step: int, ei: np.ndarray, ej: np.ndarray, m: int | None = None) -> np.ndarray:
        """Delays for the links (ei, ej) emitted at ``step``.

        ``m`` is the link count of the step's graph before failures, of which
        (ei, ej) are the live links in link order; it defaults to ``len(ei)``.
        """
        if step < 0:
            raise ConfigurationError(f"delay step must be nonnegative, got step={step}")
        count = len(ei)
        if self.tau_bar == 0 or count == 0:
            return np.zeros(count, dtype=self._dtype)
        if self.mode == "fixed":
            return np.full(count, self.tau_bar, dtype=self._dtype)
        if self.mode == "per_link":
            return np.array(
                [self._per_link_delay(i, j) for i, j in zip(ei.tolist(), ej.tolist())], dtype=self._dtype
            )
        m = count if m is None else int(m)
        if m < count:
            raise ConfigurationError(f"{count} live links cannot come from a graph of {m} links")
        rows = max(1, _DELAY_BLOCK // m)
        block, row = divmod(int(step), rows)
        if rows == 1:
            return self._uniform(block, m, count)
        if self._held[:2] != (block, m):
            delays = self._uniform(block, m, (rows, m))
            delays.flags.writeable = False
            self._held = (block, m, delays)
        return self._held[2][row, :count]


@dataclass
class DelayedNetworkState:
    """Simulation state of the delayed dynamics at step ``step``.

    Flows in flight wait in a ring of one slot per arrival step modulo
    (tau_bar + 1): ``pending`` is its (tau_bar + 1, 2, n) array, of
    (tau_bar + 1) * 2n * 8 bytes.  Row 0 of a slot sums per node the flows
    arriving at the ``j`` end of their link, row 1 those leaving the ``i``
    end, each from +0.0 in emission order (emission step, then link order);
    ``landed`` flags the slots that a flow has reached.
    :func:`step_delayed` advances the state in place.
    """

    x: np.ndarray
    step: int
    tau_bar: int
    pending: np.ndarray
    landed: np.ndarray


def init_delayed_state(
    x0: np.ndarray, tau_bar: int, costs, link_map: SectorMap
) -> DelayedNetworkState:
    """Fresh state at step 0 with no flows in flight.

    ``costs`` fixes the agent count that ``x0`` must match.  ``link_map``
    is not read: every flow is computed from the gradients of the step
    that emits it, so the state keeps no gradient history.
    """
    if tau_bar < 0 or int(tau_bar) != tau_bar:
        raise ConfigurationError(f"tau_bar must be a nonnegative integer, got {tau_bar}")
    x0 = np.asarray(x0, dtype=float).copy()
    if x0.shape != (_as_costset(costs).n,):
        raise ConfigurationError("initial state length must match the cost count")
    tau_bar = int(tau_bar)
    return DelayedNetworkState(x0, 0, tau_bar, np.zeros((tau_bar + 1, 2, x0.size)), np.zeros(tau_bar + 1, dtype=bool))


def step_delayed(
    state: DelayedNetworkState,
    graph: WeightedGraph,
    schedule: DelaySchedule,
    costs,
    node_map: SectorMap,
    link_map: SectorMap,
    eta: float,
    failure_keep: np.ndarray | None = None,
    grads: np.ndarray | None = None,
    node_counter: ClampCounter | None = None,
    link_counter: ClampCounter | None = None,
) -> DelayedNetworkState:
    """Advance ``state`` by one step of the delayed dynamics, in place.

    Every link active at the current step emits one flow computed from the
    current link-mapped gradients; the flow is applied to both endpoints
    with opposite signs at arrival, ``delay`` steps later, where ``delay``
    comes from the schedule (no delays are drawn at tau_bar = 0).  The
    delay-free update is the tau_bar = 0 case, see :func:`step_delay_free`.
    ``failure_keep`` is an optional boolean mask over the graph's links
    (row-major i < j order) selecting which are up this step; emissions
    happen only on active links, but flows already in flight arrive
    regardless of the link's later state.  ``grads`` may be supplied when
    the caller already computed them (the scenario loop does).

    At tau_bar = 0 one ``bincount`` pair sums the flows per node.  Otherwise
    ``np.add.at`` adds the flows, in link order, into both rows of their
    arrival slots (see :class:`DelayedNetworkState`), so each node's sum is
    the additions of one ``bincount`` over the slot's flows in emission
    order; the slot due now is applied as ``x + eta * (row 0 - row 1)`` and
    zeroed, or, if no flow reached it, ``x`` is copied, signed zeros kept.
    ``state.x`` is replaced by a new array; ``state`` itself is returned.
    """
    if schedule.tau_bar != state.tau_bar:
        raise ConfigurationError(
            f"schedule tau_bar {schedule.tau_bar} does not match state tau_bar {state.tau_bar}"
        )
    if not (eta > 0.0 and math.isfinite(eta)):
        raise ConfigurationError(f"step rate must be positive and finite, got {eta}")
    cs = _as_costset(costs)
    x = state.x
    n = x.shape[0]
    if not graph.n == cs.n == n:
        raise ConfigurationError("state, graph, and costs must agree on n")
    k = state.step
    depth = state.tau_bar + 1

    if grads is None:
        grads = cs.grad(x)
    ei, ej, w = graph.edges()
    m = len(ei)
    if failure_keep is not None:
        keep = np.asarray(failure_keep, dtype=bool)
        if keep.shape != ei.shape:
            raise ConfigurationError(f"failure mask length {keep.shape} does not match link count {ei.shape}")
        live = keep.nonzero()[0]
        ei, ej, w = ei.take(live), ej.take(live), w.take(live)

    gl = apply_map_array(link_map, grads, link_counter)
    phi = _flows(gl, ei, ej, w, node_map, node_counter)
    if depth == 1:
        state.x = x + eta * _inflow(n, ei, ej, phi)
    else:
        slot = k % depth
        at = _ring_slots(depth)[slot:].take(schedule.draw(k, ei, ej, m))
        state.landed[at] = True
        ring = state.pending.reshape(-1)
        off = at * (2 * n)
        np.add.at(ring, off + ej, phi)
        np.add.at(ring[n:], off + ei, phi)
        if state.landed[slot]:
            due = state.pending[slot]
            state.x = x + eta * (due[0] - due[1])
            due.fill(0.0)
            state.landed[slot] = False
        else:
            state.x = x.copy()
    state.step = k + 1
    return state


_NO_DELAY = DelaySchedule(0)


def step_delay_free(
    x: np.ndarray,
    graph: WeightedGraph,
    costs,
    node_map: SectorMap,
    link_map: SectorMap,
    eta: float,
    grads: np.ndarray | None = None,
    node_counter: ClampCounter | None = None,
    link_counter: ClampCounter | None = None,
) -> np.ndarray:
    """One synchronous update over all links of ``graph``.

    The zero-delay case of :func:`step_delayed`, run on a fresh state, so
    both share one kernel and agree bit for bit.  ``grads`` may be supplied
    when the caller already computed it.  Returns the next state; the input
    is not modified.
    """
    cs = _as_costset(costs)
    state = init_delayed_state(x, 0, cs, link_map)
    return step_delayed(
        state, graph, _NO_DELAY, cs, node_map, link_map, eta,
        grads=grads, node_counter=node_counter, link_counter=link_counter,
    ).x


# --------------------------------------------------------------------------
# analytical bounds
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StepRateBound:
    """Largest provably safe step rate for given sector and spectral data.

    eta_max = (kn * kl * lambda2) / (u * lambda_max^2 * Kn^2 * Kl^2 * (window + tau_bar + 1))

    where (kn, Kn) and (kl, Kl) are the node / link sector pairs, lambda2
    and lambda_max bound the union Laplacian over a connectivity window of
    ``window`` extra steps, u is the quadratic smoothness constant, and
    tau_bar the delay bound.  Shrinks linearly as the window or the delay
    grows.
    """

    eta_max: float
    kappa_node: float
    kappa_link: float
    big_k_node: float
    big_k_link: float
    lambda2: float
    lambda_max: float
    u: float
    window: int
    tau_bar: int


def step_rate_from_sector(
    kappa_node: float,
    big_k_node: float,
    kappa_link: float,
    big_k_link: float,
    lambda2: float,
    lambda_max: float,
    u: float,
    window: int = 0,
    tau_bar: int = 0,
) -> float:
    """The safe-step-rate formula on raw sector and spectral constants.

    Useful when the sector pair comes from somewhere other than a shipped
    map, e.g. a first-order approximation or published constants.
    """
    _check_rate_inputs(kappa_node, big_k_node, kappa_link, big_k_link, lambda2, lambda_max, u, window, tau_bar)
    numerator = kappa_node * kappa_link * lambda2
    denominator = u * lambda_max**2 * big_k_node**2 * big_k_link**2 * (window + tau_bar + 1)
    return numerator / denominator


def _check_rate_inputs(kappa_node, big_k_node, kappa_link, big_k_link, lambda2, lambda_max, u, window, tau_bar):
    """Raise unless the constants admit a step-rate certificate."""
    if not (lambda2 > 0.0):
        raise DomainError(
            "step rate bound needs lambda2 > 0: the union graph over the "
            "connectivity window must be connected"
        )
    if not (lambda_max >= lambda2):
        raise DomainError(f"lambda_max {lambda_max} must be >= lambda2 {lambda2}")
    if not (u > 0.0 and math.isfinite(u)):
        raise DomainError(f"smoothness constant must be positive, got {u}")
    if min(kappa_node, kappa_link) <= 0.0 or big_k_node < kappa_node or big_k_link < kappa_link:
        raise DomainError("sector parameters need 0 < kappa <= big_k")
    if window < 0 or tau_bar < 0:
        raise ConfigurationError("window and tau_bar must be nonnegative")


def step_rate_bound(
    node_map: SectorMap,
    link_map: SectorMap,
    lambda2: float,
    lambda_max: float,
    u: float,
    window: int = 0,
    tau_bar: int = 0,
) -> StepRateBound:
    """Evaluate the safe-step-rate formula; see :class:`StepRateBound`."""
    eta_max = step_rate_from_sector(
        node_map.kappa,
        node_map.big_k,
        link_map.kappa,
        link_map.big_k,
        lambda2,
        lambda_max,
        u,
        window,
        tau_bar,
    )
    return StepRateBound(
        eta_max=eta_max,
        kappa_node=node_map.kappa,
        kappa_link=link_map.kappa,
        big_k_node=node_map.big_k,
        big_k_link=link_map.big_k,
        lambda2=lambda2,
        lambda_max=lambda_max,
        u=u,
        window=int(window),
        tau_bar=int(tau_bar),
    )


def max_delay_bound(
    node_map: SectorMap,
    link_map: SectorMap,
    lambda2: float,
    lambda_max: float,
    u: float,
    window: int,
    eta: float,
) -> float:
    """Largest delay budget compatible with step rate ``eta``.

    Inverts the step-rate formula: any integer tau_bar strictly below the
    returned value keeps eta admissible.  The result can be negative, in
    which case ``eta`` is too large even without delays.
    """
    if not (eta > 0.0 and math.isfinite(eta)):
        raise DomainError(f"step rate must be positive, got {eta}")
    kn, bn, kl, bl = node_map.kappa, node_map.big_k, link_map.kappa, link_map.big_k
    _check_rate_inputs(kn, bn, kl, bl, lambda2, lambda_max, u, window, 0)
    numerator = kn * kl * lambda2
    denominator = u * eta * lambda_max**2 * bn**2 * bl**2
    return numerator / denominator - 1.0 - window


# --------------------------------------------------------------------------
# initialization
# --------------------------------------------------------------------------


def feasible_init(
    n: int,
    total: float,
    mode: str = "equal",
    seed: int = 0,
    boxes: list[tuple[float, float]] | None = None,
) -> np.ndarray:
    """A start vector whose coordinates sum to ``total`` exactly.

    mode "equal" splits evenly; "random_simplex" draws proportions from a
    flat Dirichlet (normalized exponentials).  With ``boxes`` the vector is
    additionally projected inside the per-coordinate intervals and
    rebalanced, which requires sum(lo) <= total <= sum(hi).  In every mode
    one free coordinate absorbs the final rounding residue so the total is
    exact.
    """
    if n < 1:
        raise ConfigurationError(f"feasible_init needs n >= 1, got {n}")
    if not math.isfinite(total):
        raise ConfigurationError(f"total must be finite, got {total}")
    if mode == "equal":
        x = np.full(n, total / n)
    elif mode == "random_simplex":
        if seed < 0 or int(seed) != seed:
            raise ConfigurationError(f"seed must be a nonnegative integer, got {seed}")
        rng = np.random.default_rng([int(seed), 0x1217])
        shares = rng.exponential(1.0, n)
        x = total * shares / shares.sum()
    else:
        raise ConfigurationError(f"unknown init mode {mode!r}")

    if boxes is None:
        if n > 1:
            x[-1] = total - math.fsum(x[:-1].tolist())
        return x

    lo, hi = _box_bounds(boxes, n)
    if not (lo.sum() <= total <= hi.sum()):
        raise InfeasibilityError(
            f"total {total} outside [{lo.sum()}, {hi.sum()}], no feasible point in the boxes"
        )
    x = np.clip(x, lo, hi)
    for _ in range(200):
        residue = total - math.fsum(x.tolist())
        if abs(residue) <= 1e-12 * (1.0 + abs(total)):
            break
        room = (hi - x) if residue > 0 else (x - lo)
        total_room = room.sum()
        if total_room <= 0.0:
            break
        x = np.clip(x + residue * room / total_room, lo, hi)
    # Exact fix-up on the coordinate with the most slack on the needed side.
    residue = total - math.fsum(x.tolist())
    if residue != 0.0:
        room = (hi - x) if residue > 0 else (x - lo)
        idx = int(np.argmax(room))
        if room[idx] >= abs(residue):
            x[idx] = x[idx] + residue
        else:
            raise InfeasibilityError("could not rebalance inside the boxes")
    return x
