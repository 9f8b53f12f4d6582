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

import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, InfeasibilityError, NumericError
from .graph import WeightedGraph
from .mappings import ClampCounter, SectorMap, apply_map_array
from .objective import _as_costset, _box_bounds, _check_box_total, _exact_sums

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


# --------------------------------------------------------------------------
# stepping
# --------------------------------------------------------------------------


# Stream tag of the delay draws, the second word of every delay stream's key.
_DELAY_TAG = 0xDE1A
# Most link-steps in one block, whatever the link count: of failure masks, the link plan, and uniform delays.
_BLOCK = 1 << 15


class DelaySchedule:
    """Per-link, per-step transmission delays in {0, ..., tau_bar}.

    mode "uniform" draws a fresh delay for every emission; "fixed" always
    uses tau_bar; "per_link" draws one delay per link once and keeps it for
    the whole run.  A delay belongs to a link, not to one of its endpoints:
    both apply the flow at the same step, so the state total is conserved at
    every step while flows are in flight.  Every mode returns delays in the
    narrowest unsigned dtype that holds tau_bar.

    The uniform delays come from one counter-based stream (Salmon et al.,
    "Parallel random numbers: as easy as 1, 2, 3", SC'11), keyed by the
    words (seed, 0xDE1A).  Steps are grouped by the link count ``m`` of
    their graph before failures into blocks of ``rows = max(1, 2**15 // m)``
    steps.  Block ``b`` holds steps ``b * rows`` to ``b * rows + rows - 1``;
    it is one ``integers(0, tau_bar + 1, size=(rows, m))`` draw with the
    bits of a fresh Philox4x64 generator with that key, whose counter starts
    at the words [0, b, m, 0], and each step reads its own row.  The live
    links of a step take the first ``len(ei)`` entries of that row, in link
    order; with one row per block only that prefix is drawn, which equals
    the head of the full row.  A delay is thus a pure function of (seed,
    step, m, position), and draws may come in any order.  The schedule
    keeps one Philox generator, whose state it resets for each block.  It
    holds the last block of each width of the last link plan's graphs and
    of every graph given to :meth:`links`, which a later step reads again
    when that graph's phase comes back, and besides those only the last
    block of any other width.

    :meth:`draw` gives one step's delays, and :meth:`links` one step's
    :func:`step_delayed` links, as a hand loop takes them.  The link plan
    (``_link_plan``) looks up the delays of a block of steps at once,
    through the same lookup: the block's rows of the uniform stream,
    gathered at each step's live positions, or the graph's ``per_link``
    vector, which the schedule builds once per graph, taken at the live
    links (:meth:`draw` builds its links' ``per_link`` delays each time).
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
        self._graph_delays = weakref.WeakKeyDictionary()  # graph -> its per_link vector
        self._held: dict[int, tuple[int, np.ndarray]] = {}  # width m -> (block, its delays)
        self._kept_widths: frozenset[int] = frozenset()  # the link counts of the graphs whose blocks it keeps
        self._bits = np.random.Philox(0)  # seeded, so it draws no OS entropy; its state is set for each block
        self._gen = np.random.Generator(self._bits)

    # The per-link stream key ends in 0; changing it would change every delay.
    def _link_delays(self, ei: np.ndarray, ej: np.ndarray) -> np.ndarray:
        """The per_link delay of each link (ei[t], ej[t]), drawn from the link's own stream."""
        return np.array([np.random.default_rng([self.seed, _DELAY_TAG, i, j, 0]).integers(0, self.tau_bar + 1)
                         for i, j in zip(ei.tolist(), ej.tolist())], dtype=self._dtype)

    def _uniform(self, block: int, m: int, size) -> np.ndarray:
        """``size`` uniform delays from the start of block ``block`` of width ``m``."""
        self._bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, block, m, 0], "key": [self.seed, _DELAY_TAG]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,  # as a fresh generator's
        }
        return self._gen.integers(0, self.tau_bar + 1, size=size, dtype=self._dtype)

    def _rows(self, first: int, rows: int, m: int, width: int) -> np.ndarray:
        """The uniform rows of width ``m`` of steps ``first`` to ``first + rows - 1`` (one block), cut to ``width``."""
        per = max(1, _BLOCK // m)
        block, row = divmod(first, per)
        if per == 1:
            return self._uniform(block, m, (1, width))  # only the prefix is drawn
        held = self._held.get(m)
        if held is None or held[0] != block:  # drop the blocks of every width the last plan's graphs lack
            self._held = {w: h for w, h in self._held.items() if w in self._kept_widths}
            held = self._held[m] = (block, self._uniform(block, m, (per, m)))
            held[1].flags.writeable = False
        return held[1][row : row + rows, :width]

    def _live(self, first: int, m: int, counts, cols=None, graph: WeightedGraph | None = None) -> np.ndarray:
        """The delays of the live links of steps ``first``, ``first + 1``, ..., flat in step then link order.

        ``counts[r]`` links of ``graph``, of ``m`` links, are up at step
        ``first + r``; the steps lie in one block of the uniform stream.
        ``cols`` are the live links' indices in the graph, or None when they
        are the first ``counts[r]`` links of that graph (all ``m`` when there
        are several steps).  ``graph`` is the plan's, or None if not per_link.
        """
        rows = len(counts)
        total = len(cols) if cols is not None else sum(counts)
        if self.tau_bar == 0 or total == 0:
            return np.zeros(total, dtype=self._dtype)
        if self.mode == "fixed":
            return np.full(total, self.tau_bar, dtype=self._dtype)
        if self.mode == "per_link":
            link_delays = self._graph_delays.get(graph)
            if link_delays is None:
                link_delays = self._graph_delays[graph] = self._link_delays(*graph.edges()[:2])
            return np.tile(link_delays, rows) if cols is None else link_delays.take(cols)
        if rows == 1:
            return self._rows(first, 1, m, total)[0]
        delays = self._rows(first, rows, m, m)
        return delays.reshape(-1) if cols is None else delays[np.arange(m) < counts[:, None]]

    def draw(self, step: int, ei: np.ndarray, ej: np.ndarray, m: int | None = None) -> np.ndarray:
        """Delays for the links (ei, ej) emitted at ``step``.

        ``m`` is the link count of the step's graph before failures, of which
        (ei, ej) are the live links in link order; it defaults to ``len(ei)``
        and may not be below it, in any mode.
        """
        if step < 0:
            raise ConfigurationError(f"delay step must be nonnegative, got step={step}")
        count = len(ei)
        m = count if m is None else int(m)
        if m < count:
            raise ConfigurationError(f"{count} live links cannot come from a graph of {m} links")
        if self.mode == "per_link" and self.tau_bar:
            return self._link_delays(ei, ej)
        return self._live(int(step), m, [count])

    def links(self, state: DelayedNetworkState, graph: WeightedGraph, failure_keep: np.ndarray | None = None) -> tuple:
        """The :func:`step_delayed` links of ``state``'s next step on ``graph``, with this schedule's delays.

        ``failure_keep`` is an optional boolean mask over the graph's links
        (row-major i < j order) selecting which are up this step; None keeps
        every link.  The links are the ``(ei, ej, w, delays, into_j,
        into_i)`` that the link plan builds, by the same builder.
        """
        depth = len(state.pending)
        if self.tau_bar + 1 != depth:
            raise ConfigurationError(f"schedule tau_bar {self.tau_bar} does not match state tau_bar {depth - 1}")
        if graph.n != state.x.shape[0]:
            raise ConfigurationError("state, graph, and costs must agree on n")
        keep = None
        if failure_keep is not None:
            keep = np.asarray(failure_keep, dtype=bool)
            if keep.shape != (graph.edge_count,):
                raise ConfigurationError(
                    f"failure mask length {keep.shape} does not match link count {graph.edge_count}"
                )
            keep = keep[None]
        self._kept_widths |= {graph.edge_count}  # a hand loop's cycle of graphs keeps each one's block
        return next(_live_links(graph, 1, keep, self, state.step))


def _live_links(graph: WeightedGraph, rows: int, keep, schedule: DelaySchedule, first: int):
    """An iterator over the live links, delays and ring indices of ``rows`` steps of ``graph`` from step ``first``.

    ``keep`` is the steps' (rows, m) failure mask over the graph's links, or
    None when every link is up; the steps lie in one block of the uniform
    delay stream.  Each step gets the arrays (ei, ej, w, delays, into_j,
    into_i) of its live links, as views into arrays built for all the steps
    at once, flat over the live links in step then link order.  With every
    link up, (ei, ej, w) are the graph's own arrays, which every step
    shares; with no ring as well, every step gets one tuple.  A flow
    emitted at step k with delay d lands in ring slot (k + d) % depth,
    whose 2n floats start at (k + d) % depth * 2n in the flattened ring:
    ``into_j`` is that start plus j, its index at the j end in row 0, and
    ``into_i`` that start plus n + i, its index at the i end in row 1.
    Without a ring (tau_bar 0) the last three are None.
    """
    ei, ej, w = graph.edges()
    m, n, depth = len(ei), graph.n, schedule.tau_bar + 1
    if keep is None:
        cols, counts = None, [m] * rows
    else:
        flat = np.flatnonzero(keep)  # step r's live link c is entry r * m + c
        r, cols = (0, flat) if rows == 1 else np.divmod(flat, m)
        ends = flat.searchsorted(np.arange(rows + 1) * m)  # each step's first entry, and the end
        counts = np.diff(ends)
        ei, ej, w = ei.take(cols), ej.take(cols), w.take(cols)
    d = into_j = into_i = None
    if depth > 1:
        d = schedule._live(first, m, counts, cols, graph)
        slots = np.arange(first, first + rows + depth - 1) % depth * (2 * n)  # entry r + d: the slot's offset
        off = slots.take(np.arange(rows)[:, None] + d.reshape(rows, m) if keep is None else r + d)
        into_j, into_i = (off + ej).reshape(-1), (off + n + ei).reshape(-1)
    if rows == 1 or keep is None and d is None:  # one step, or every step shares the block's arrays
        return itertools.repeat((ei, ej, w, d, into_j, into_i), rows)
    bounds = [m * t for t in range(rows + 1)] if keep is None else ends.tolist()
    spans = list(map(slice, bounds, bounds[1:]))  # each step's entries
    same = (keep is None,) * 3 + (d is None,) * 3  # the same array, or None, at every step
    return zip(*(itertools.repeat(a, rows) if one else map(a.__getitem__, spans)
                 for a, one in zip((ei, ej, w, d, into_j, into_i), same)))


def _failure_blocks(rng: np.random.Generator, first: int, end: int, m: int, p_fail: float):
    """Yield ``(first, rows, keep)`` for each run of steps ``first`` to ``end - 1`` inside one aligned block.

    Blocks are ``max(1, _BLOCK // m)`` steps from a multiple of that count.
    ``keep`` is the run's (rows, m) mask of links up: those whose uniform
    from ``rng``, one per link and step, is at least ``p_fail``; with
    ``p_fail`` 0 nothing is drawn and ``keep`` is None.
    """
    per = max(1, _BLOCK // max(m, 1))
    while first < end:
        rows = min(end, first - first % per + per) - first
        yield first, rows, (rng.random((rows, m)) >= p_fail if p_fail else None)
        first += rows


def _link_plan(graphs: list[WeightedGraph], switch_period: int, horizon: int, p_fail: float,
               rng: np.random.Generator, schedule: DelaySchedule):
    """Yield each step's ``step_delayed`` links, from step 0 to ``horizon``.

    The topology cycles through ``graphs``, each for ``switch_period``
    steps.  A step's links are the ``(ei, ej, w, delays, into_j, into_i)``
    of its live links, which ``_live_links`` builds for a block of steps at
    once: the steps of one topology phase inside one block of
    ``_failure_blocks``, which is one block of the uniform delay stream, so
    at most ``_BLOCK`` link-steps, with its failure masks from ``rng``.
    With ``p_fail`` 0, every step shares the graph's own (ei, ej, w).  Step
    k's graph is ``graphs[(k // switch_period) % len(graphs)]``, which
    :meth:`DelaySchedule.links` turns into the same links for one step.
    ``schedule`` holds the uniform blocks of its graphs' widths.
    """
    schedule._kept_widths = frozenset(g.edge_count for g in graphs)
    switch = switch_period if len(graphs) > 1 else horizon
    for start in range(0, horizon, switch):
        graph, end = graphs[(start // switch) % len(graphs)], min(start + switch, horizon)
        for first, rows, keep in _failure_blocks(rng, start, end, graph.edge_count, p_fail):
            if rows == 1:  # held by the caller alone, so it goes with its step
                yield next(_live_links(graph, 1, keep, schedule, first))
            else:
                yield from _live_links(graph, rows, keep, schedule, first)


@dataclass
class DelayedNetworkState:
    """Simulation state of the delayed dynamics at step ``step``.

    Flows in flight wait in a ring of one slot per arrival step modulo
    (tau_bar + 1): ``pending`` is its (tau_bar + 1, 2, n) array, of
    (tau_bar + 1) * 2n * 8 bytes, so its length is the ring depth.  Row 0
    of a slot sums per node the flows arriving at the ``j`` end of their
    link, row 1 those leaving the ``i`` end, each from +0.0 in emission
    order (emission step, then link order); flattened, slot s's row r
    starts at (2s + r) * n.  :func:`step_delayed` advances it in place.
    """

    x: np.ndarray
    step: int
    pending: np.ndarray


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
    return DelayedNetworkState(x0, 0, np.zeros((int(tau_bar) + 1, 2, x0.size)))


def step_delayed(
    state: DelayedNetworkState,
    links: tuple,
    costs,
    node_map: SectorMap,
    link_map: SectorMap,
    eta: float,
    grads: np.ndarray | None = None,
    node_counter: ClampCounter | None = None,
    link_counter: ClampCounter | None = None,
) -> DelayedNetworkState:
    """Advance ``state`` by one step of the delayed dynamics, in place.

    ``links`` are the step's live links, their delays and their ring
    indices, as the ``(ei, ej, w, delays, into_j, into_i)`` that
    :meth:`DelaySchedule.links` builds for one step and ``scenario.run``'s
    link plan for a block of steps at once; none of it depends on the
    state.  Every live link emits one flow computed from the current
    link-mapped gradients; the flow is applied to both endpoints with
    opposite signs at arrival, ``delay`` steps later.  Emissions happen only
    on live links, but flows already in flight arrive regardless of the
    link's later state.  The delay-free update is the tau_bar = 0 case, see
    :func:`step_delay_free`.  ``grads`` may be supplied when the caller
    already computed them (the scenario loop does); ``costs`` is then not
    read.

    At tau_bar = 0 one ``bincount`` pair sums the flows per node.  Otherwise
    ``np.add.at`` adds the flows, in link order, into both rows of their
    arrival slots in the flattened ring (see :class:`DelayedNetworkState`),
    so each node's sum is the additions of one ``bincount`` over the slot's
    flows in emission order.  Every step applies the slot due now as
    ``x + eta * (row 0 - row 1)`` and zeroes it, as the delay-free step adds
    its ``bincount`` pair: a node that no flow reaches gets +0.0 added.
    ``state.x`` is replaced by a new array; ``state`` itself is returned.
    """
    if not (eta > 0.0 and math.isfinite(eta)):
        raise ConfigurationError(f"step rate must be positive and finite, got {eta}")
    x, k, depth = state.x, state.step, len(state.pending)
    n = x.shape[0]
    if grads is None:
        grads = _as_costset(costs).grad(x)
    ei, ej, w, _, into_j, into_i = links

    gl = apply_map_array(link_map, grads, link_counter)
    phi = w * apply_map_array(node_map, gl[ei] - gl[ej], node_counter)
    if depth == 1:  # bincount sums each side in input order, so the sums repeat bit for bit
        state.x = x + eta * (np.bincount(ej, weights=phi, minlength=n) - np.bincount(ei, weights=phi, minlength=n))
    else:
        ring = state.pending.ravel()
        np.add.at(ring, into_j, phi)
        np.add.at(ring, into_i, phi)
        due = state.pending[k % depth]
        state.x = x + eta * (due[0] - due[1])
        due.fill(0.0)
    state.step = k + 1
    return state


_NO_RING = np.zeros((1, 0, 0))  # a ring of depth 1 that holds nothing: a step at tau_bar 0 reads only its length


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

    The zero-delay case of :func:`step_delayed`, run on a fresh state of
    ring depth 1 over the graph's own links, so both share one kernel and
    agree bit for bit.  ``grads`` may be supplied when the caller already
    computed it.  Returns the next state; the input is not modified.
    """
    cs = _as_costset(costs)
    x = np.asarray(x, dtype=float)  # step_delayed replaces the state's x, so x needs no copy
    if x.shape != (cs.n,):
        raise ConfigurationError("initial state length must match the cost count")
    if graph.n != cs.n:
        raise ConfigurationError("state, graph, and costs must agree on n")
    return step_delayed(
        DelayedNetworkState(x, 0, _NO_RING), (*graph.edges(), None, None, None), cs, node_map, link_map, eta,
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
    if not (lambda2 <= lambda_max < math.inf):
        raise DomainError(f"lambda_max {lambda_max} must be finite and >= lambda2 {lambda2}")
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
    """A start vector whose coordinates sum to ``total`` to within one rounding.

    mode "equal" splits evenly; "random_simplex" draws proportions from a
    flat Dirichlet (normalized exponentials).  With ``boxes`` the vector is
    additionally projected inside the per-coordinate intervals and
    rebalanced, which requires sum(lo) <= total <= sum(hi).  In every mode
    one free coordinate absorbs the residue of the correctly rounded sum, and
    that coordinate rounds: the sum of x is within
    2**-52 * max(|total|, max_i |x_i|) of ``total``, not always equal to it.
    Raises NumericError where the exact sum of x lies past the double range,
    or where the boxes hold the total only with a coordinate past it.
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
            x[-1] = total - _exact_sums(x[None, :-1], "the start vector")[0]
        return x

    lo, hi = _box_bounds(boxes, n)
    _check_box_total(lo, hi, total)
    # Ends past about 2**500 are rebalanced at a power-of-two scale at which
    # no product of two of them leaves the double range.  That is exact but
    # for scaled values below the normal range, whose lost bits the exact
    # fix-up at scale 1 restores.
    ends = np.abs(np.concatenate((lo, hi, [total])))
    shift = max(0, math.frexp(float(ends[np.isfinite(ends)].max()))[1] + (n + 2).bit_length() - 511)
    if not shift:
        return _rebalance(x, lo, hi, total)
    scale = math.ldexp(1.0, -shift)
    with np.errstate(over="ignore"):
        x = np.clip(_rebalance(x * scale, lo * scale, hi * scale, total * scale, scale) / scale, lo, hi)
    if not np.isfinite(x).all():  # a box with an infinite end took a share past the range
        raise NumericError("the sum of the start vector leaves the double range")
    return _rebalance(x, lo, hi, total, steps=0)


def _rebalance(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, total: float, unit: float = 1.0,
               steps: int = 200) -> np.ndarray:
    """``x`` clipped to [lo, hi] and moved until its correctly rounded sum is ``total``, to one rounding.

    Up to ``steps`` proportional steps along the room on the needed side
    come first, until the residue is within 1e-12 * (unit + |total|), then
    an exact fix-up on the coordinate with the most room.  A room past the
    double range is infinite, which only the fix-up takes.
    """
    x = np.clip(x, lo, hi)
    for _ in range(steps):
        residue = total - _exact_sums(x[None], "the start vector")[0]
        if abs(residue) <= 1e-12 * (unit + abs(total)):
            break
        with np.errstate(over="ignore"):
            room = (hi - x) if residue > 0 else (x - lo)
            total_room = room.sum()
        if not 0.0 < total_room < math.inf:
            break
        x = np.clip(x + residue * room / total_room, lo, hi)
    residue = total - _exact_sums(x[None], "the start vector")[0]
    if residue != 0.0:
        with np.errstate(over="ignore"):
            room = (hi - x) if residue > 0 else (x - lo)
        idx = int(np.argmax(room))
        if room[idx] >= abs(residue):
            x[idx] = x[idx] + residue
        else:
            raise InfeasibilityError("could not rebalance inside the boxes")
    return x
