"""Weighted undirected graphs, Laplacians, and spectral helpers.

The simulation operates on symmetric nonnegatively weighted graphs without
self-loops, held as their links in O(m) memory.  The Laplacian of such a
graph is L = D - W where D is the diagonal of row sums of W; its row sums
are zero and its spectrum 0 = lambda_1 <= lambda_2 <= ... <= lambda_n
drives both the convergence rate and the admissible step size of the
dynamics.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError

__all__ = [
    "WeightedGraph",
    "erdos_renyi",
    "laplacian",
    "spectral_summary",
    "is_connected",
    "union_graph",
    "to_edge_list",
    "from_edge_list",
]

# Uniforms per draw of erdos_renyi's two streams: 8 MiB, whatever n is.
_ER_CHUNK = 1 << 20
# Largest n whose spectrum comes from the dense eigvalsh; Lanczos above.
_DENSE_SPECTRUM_MAX_N = 2000
_MAX_NODES = math.isqrt(np.iinfo(np.intp).max)  # so link keys i * n + j fit in np.intp


# --------------------------------------------------------------------------
# types
# --------------------------------------------------------------------------


class WeightedGraph:
    """Symmetric weighted graph on nodes 0..n-1, immutable after construction.

    The graph is its links: read-only arrays (ei, ej, w) with ei < ej, in
    row-major order, and w > 0 (see :meth:`edges`).  ``WeightedGraph(n,
    weights)`` takes a dense (n, n) matrix with zero diagonal whose entry
    (i, j) > 0 is the weight of the link {i, j}; :meth:`from_edges` takes
    the link arrays.  The package itself never reads :attr:`weights`.
    """

    def __init__(self, n: int, weights) -> None:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n, n) or np.any(np.diag(w) != 0.0) or not np.array_equal(w, w.T):
            raise ConfigurationError(f"weights must be a symmetric ({n}, {n}) matrix with zero diagonal, got {w.shape}")
        ei, ej = np.nonzero(np.triu(w))
        self.__dict__.update(WeightedGraph.from_edges(n, ei, ej, w[ei, ej]).__dict__)

    @classmethod
    def from_edges(cls, n: int, ei, ej, w) -> WeightedGraph:
        """The graph on n nodes with a link {ei[k], ej[k]} of weight w[k].

        The links must have ei < ej, come in row-major order with each pair
        once, and carry finite positive weights; the check is O(m).
        """
        ei, ej, w = np.asarray(ei), np.asarray(ej), np.array(w, dtype=float)
        if not 1 <= n <= _MAX_NODES or not (ei.ndim == ej.ndim == w.ndim == 1 and len(ei) == len(ej) == len(w)):
            raise ConfigurationError(f"a graph needs 1 <= n <= {_MAX_NODES} nodes and three link vectors of one length, got n={n}")
        if len(w):
            if not (ei.dtype.kind in "iu" and ej.dtype.kind in "iu"):
                raise ConfigurationError("link endpoints must be integers")
            if ei.min() < 0 or ej.max() >= n or np.any(ei >= ej):
                raise ConfigurationError(f"links need endpoints 0 <= i < j < n={n}")
            if np.any(np.diff(ei.astype(np.intp) * n + ej) <= 0):
                raise ConfigurationError("links must be in row-major order, each pair once")
            if not np.all(np.isfinite(w) & (w > 0.0)):
                raise ConfigurationError("link weights must be finite and positive")
        return _graph(n, ei.astype(np.intp), ej.astype(np.intp), w)

    def __setattr__(self, name, value):
        raise AttributeError(f"WeightedGraph is immutable: cannot set {name!r}")

    @property
    def edge_count(self) -> int:
        return len(self._links[0])

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return the read-only (i, j, w) arrays of the links with i < j, in row-major order."""
        return self._links

    @property
    def weights(self) -> np.ndarray:
        """The dense (n, n) weight matrix, read-only; built on each read, O(n^2) memory."""
        dense = _dense_weights(self)
        dense.flags.writeable = False
        return dense


def _graph(n: int, ei: np.ndarray, ej: np.ndarray, w: np.ndarray) -> WeightedGraph:
    """A graph from link arrays that are valid by construction, unchecked."""
    for a in (ei, ej, w):
        a.flags.writeable = False
    g = object.__new__(WeightedGraph)
    g.__dict__.update(n=int(n), _links=(ei, ej, w))
    return g


def _dense_weights(g: WeightedGraph) -> np.ndarray:
    ei, ej, w = g.edges()
    dense = np.zeros((g.n, g.n))
    dense[ei, ej] = dense[ej, ei] = w
    return dense


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalue summary of a Laplacian.

    ``lambda2`` is the algebraic connectivity (0 when the graph is
    disconnected at tolerance ``zero_tol``), ``lambda_max`` the largest.
    """

    lambda2: float
    lambda_max: float
    connected: bool
    zero_tol: float


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------


def erdos_renyi(
    n: int,
    p: float,
    weight_range: tuple[float, float] = (0.5, 1.0),
    seed: int = 0,
) -> WeightedGraph:
    """Sample an Erdos-Renyi graph with uniform random link weights.

    Each of the n(n-1)/2 unordered pairs is linked independently with
    probability ``p``; linked pairs get a weight drawn uniformly from
    ``weight_range``.  The same (n, p, weight_range, seed) always produces
    the same graph: one uniform stream decides the links, a second the
    weights, both over all pairs in row-major order and drawn in chunks
    (the same bits as one draw); only the linked pairs are kept.
    """
    if n < 2:
        raise ConfigurationError(f"erdos_renyi needs n >= 2, got {n}")
    if seed < 0 or int(seed) != seed:
        raise ConfigurationError(f"seed must be a nonnegative integer, got {seed}")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"link probability must be in [0, 1], got {p}")
    lo, hi = weight_range
    if not (0.0 < lo <= hi):
        raise ConfigurationError(f"weight range must satisfy 0 < lo <= hi, got {weight_range}")

    rng = np.random.default_rng([int(seed), 0x6E45])
    m = n * (n - 1) // 2
    starts = range(0, m, _ER_CHUNK)
    flat = np.concatenate([np.flatnonzero(rng.random(min(_ER_CHUNK, m - s)) < p) + s for s in starts])
    u = np.empty(len(flat))
    bounds = np.searchsorted(flat, [*starts, m])
    for s, a, b in zip(starts, bounds[:-1], bounds[1:]):
        u[a:b] = rng.random(min(_ER_CHUNK, m - s))[flat[a:b] - s]
    # Pair (i, j) of row i sits at flat index offset[i] + j - i - 1.
    rows = np.arange(n)
    offset = rows * (2 * n - rows - 1) // 2
    ei = np.searchsorted(offset, flat, side="right") - 1
    return _graph(n, ei, flat - offset[ei] + ei + 1, lo + (hi - lo) * u)


def union_graph(graphs: list[WeightedGraph]) -> WeightedGraph:
    """Per-link maximum over a nonempty list of graphs on the same node set.

    The union has a link wherever any input graph has one; its weight is the
    largest weight that link attains across the inputs.
    """
    if not graphs:
        raise ConfigurationError("union_graph needs at least one graph")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ConfigurationError("union_graph requires a common node count")
    if len(graphs) == 1:
        return graphs[0]
    ei, ej, w = (np.concatenate(parts) for parts in zip(*(g.edges() for g in graphs)))
    key = ei * n + ej
    order = np.argsort(key, kind="stable")
    key, w = key[order], w[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    return _graph(n, key[first] // n, key[first] % n, np.maximum.reduceat(w, first))


# --------------------------------------------------------------------------
# spectra
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LaplacianOperator:
    """The Laplacian L = D - W of a graph, held as the graph.

    ``lap @ x`` and ``x @ lap`` give L x for a vector x in O(n + m), as the
    sum over links of w_ij (x_i - x_j), so a constant x maps to exactly 0.
    ``np.asarray(lap)`` builds the dense matrix, whose diagonal is the row
    sums of the dense W.
    """

    graph: WeightedGraph
    __array_ufunc__ = None  # so that ndarray @ lap defers to __rmatmul__

    @property
    def shape(self) -> tuple[int, int]:
        return (self.graph.n, self.graph.n)

    def __matmul__(self, x) -> np.ndarray:
        n = self.graph.n
        x = np.asarray(x, dtype=float)
        if x.shape != (n,):
            raise ConfigurationError(f"a Laplacian on n={n} nodes applies to vectors of that length, got {x.shape}")
        ei, ej, w = self.graph.edges()
        flow = w * (x[ei] - x[ej])
        return np.subtract(np.bincount(ei, flow, n), np.bincount(ej, flow, n), dtype=float)  # float with no links too

    __rmatmul__ = __matmul__  # L is symmetric

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        w = _dense_weights(self.graph)
        lap = -w
        lap[np.diag_indices(self.graph.n)] = w.sum(axis=1)
        return lap if dtype is None else lap.astype(dtype, copy=False)


def laplacian(g: WeightedGraph) -> LaplacianOperator:
    """Graph Laplacian L = D - W with D the diagonal of row sums of W, as an operator."""
    return LaplacianOperator(g)


def spectral_summary(lap) -> SpectralSummary:
    """lambda_2 and lambda_max of a Laplacian, with a connectivity verdict.

    ``lap`` is a :func:`laplacian` operator (a dense Laplacian matrix works
    too).  Up to n = 2000 both come from ``eigvalsh`` on the dense matrix,
    above from :func:`_lanczos_extremes`, or from the dense matrix where
    that stalls.  Eigenvalues below zero_tol = max(1e-12, 1e-8 * lambda_max)
    count as zero, which separates genuine nullspace directions from
    rounding noise for the weight scales used here.
    """
    n = lap.shape[0]
    second = None
    if n > _DENSE_SPECTRUM_MAX_N:
        with contextlib.suppress(NumericError):  # it stalls when lambda_2 is tiny next to lambda_max
            second, lam_max = _lanczos_extremes(lap)
    if second is None:
        eigs = np.linalg.eigvalsh(np.asarray(lap, dtype=float))
        second, lam_max = float(eigs[min(1, n - 1)]), float(eigs[-1])
    zero_tol = max(1e-12, 1e-8 * abs(lam_max))
    connected = n == 1 or second > zero_tol
    return SpectralSummary(second if connected else 0.0, lam_max, connected, zero_tol)


def _lanczos_extremes(lap) -> tuple[float, float]:
    """(theta_2 - r_2, theta_max + r_max) of a Laplacian on n >= 2 nodes.

    Lanczos iteration (Lanczos 1950; Parlett, The Symmetric Eigenvalue
    Problem, ch. 13) from a fixed-seed start vector, with every vector
    orthogonalized twice against all earlier ones and the all-ones vector,
    so the smallest Ritz value theta_2 approximates lambda_2.  A Ritz value
    lies within its residual bound r = beta_k |s_k| of an eigenvalue, which
    is lambda_2 (or lambda_max) once the iteration has found it; each
    extreme is moved outward by its r.  Stops once both r are at most
    1e-12 * theta_max (at the latest when k = n - 1); raises NumericError
    if 300 steps do not get there.
    """
    n = lap.shape[0]
    ones = np.full(n, 1.0 / math.sqrt(n))
    q = np.random.default_rng(0x1A2C).standard_normal(n)
    q -= ones * (ones @ q)
    steps = min(n - 1, 300)
    basis = np.empty((steps + 1, n))
    basis[0] = q / np.linalg.norm(q)
    alpha, beta = [], []
    for k in range(steps):
        v = lap @ basis[k]
        alpha.append(float(basis[k] @ v))
        for _ in range(2):
            v -= basis[: k + 1].T @ (basis[: k + 1] @ v)
            v -= ones * (ones @ v)
        b = float(np.linalg.norm(v))
        theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        r_low, r_high = b * abs(s[-1, 0]), b * abs(s[-1, -1])
        if max(r_low, r_high) <= 1e-12 * theta[-1]:
            return float(theta[0] - r_low), float(theta[-1] + r_high)
        beta.append(b)
        basis[k + 1] = v / b
    raise NumericError(f"Lanczos did not bound lambda_2 and lambda_max of n={n} to 1e-12 in {steps} steps")


# --------------------------------------------------------------------------
# combinatorial queries
# --------------------------------------------------------------------------


def _component_labels(n: int, ei: np.ndarray, ej: np.ndarray) -> np.ndarray:
    """The least node of each node's component over the links (ei[k], ej[k]), each with ei[k] < ej[k].

    Hook-and-jump rounds (Shiloach & Vishkin, J. Algorithms 1982): hook each
    link's larger root onto its smaller one, pointer-jump until every label
    is a root, and drop the links whose ends agree.  lab[v] <= v throughout.
    """
    lab = np.arange(n, dtype=ei.dtype)
    lo, hi = ei, ej  # each live link's smaller and larger root; in round 1 its ends, as ei < ej
    while len(hi):
        np.minimum.at(lab, hi, lo)
        while not np.array_equal(jumped := lab[lab], lab):
            lab = jumped
        a, b = lab[ei], lab[ej]
        if hi is not ej:  # not after round 1, which leaves most links live: round 2 takes them all
            live = np.flatnonzero(a != b)
            ei, ej, a, b = ei[live], ej[live], a[live], b[live]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
    return lab


def is_connected(g: WeightedGraph) -> bool:
    """True iff every node is reachable from node 0 over positive-weight links."""
    ei, ej, _ = g.edges()
    return not _component_labels(g.n, ei, ej).any()


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def to_edge_list(g: WeightedGraph) -> str:
    """Serialize as a line-oriented edge list.

    First line ``n=<count>``, then one ``i j w`` line per link with i < j in
    row-major order.  Weights are printed with 17 significant digits so the
    round trip through ``from_edge_list`` is bit-exact.
    """
    ei, ej, w = g.edges()
    lines = [f"n={g.n}"]
    for i, j, wij in zip(ei.tolist(), ej.tolist(), w.tolist()):
        lines.append(f"{i} {j} {wij:.17g}")
    return "\n".join(lines) + "\n"


def from_edge_list(text: str, expect_n: int | None = None) -> WeightedGraph:
    """Parse the format produced by :func:`to_edge_list`.

    With ``expect_n`` the header must name that many nodes.  Links may come
    in any order and either way round; a pair given more than once keeps the
    weight of its last line.  Memory is O(links), whatever the header says.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("n="):
        raise ConfigurationError("edge list must start with an 'n=<count>' line")
    try:
        n = int(lines[0][2:])
    except ValueError:
        n = 0
    if not 1 <= n <= _MAX_NODES:
        raise ConfigurationError(f"bad node count line (want n=<count> with 1 <= count <= {_MAX_NODES}): {lines[0]!r}")
    if expect_n is not None and n != expect_n:
        raise ConfigurationError(f"edge list has n={n} but n={expect_n} was expected")
    links: dict[int, float] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ConfigurationError(f"bad edge line (want 'i j w'): {ln!r}")
        try:
            i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ConfigurationError(f"bad edge line: {ln!r}") from exc
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ConfigurationError(f"edge endpoints out of range: {ln!r}")
        if w <= 0.0 or not math.isfinite(w):
            raise ConfigurationError(f"edge weight must be finite and positive: {ln!r}")
        links[min(i, j) * n + max(i, j)] = w  # keyed by row-major position
    keys = np.array(sorted(links), dtype=np.intp)
    return _graph(n, keys // n, keys % n, np.array([links[k] for k in keys.tolist()], dtype=float))
