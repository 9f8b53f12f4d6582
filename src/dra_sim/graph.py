"""Weighted undirected graphs, Laplacians, and spectral helpers.

The simulation operates on symmetric nonnegatively weighted graphs without
self-loops.  The Laplacian of such a graph is the matrix L = D - W where D
is the diagonal of row sums of W; its row sums are zero by construction and
its spectrum 0 = lambda_1 <= lambda_2 <= ... <= lambda_n drives both the
convergence rate and the admissible step size of the dynamics.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = [
    "WeightedGraph",
    "SpectralSummary",
    "erdos_renyi",
    "laplacian",
    "spectral_summary",
    "is_connected",
    "union_graph",
    "dispersion",
    "diameter",
    "to_edge_list",
    "from_edge_list",
]


# --------------------------------------------------------------------------
# types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric weighted graph on nodes 0..n-1, immutable after construction.

    ``weights`` is an (n, n) array with zero diagonal; entry (i, j) > 0 is
    the weight of the undirected link {i, j}.
    """

    n: int
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if self.n < 1:
            raise ConfigurationError(f"graph needs at least one node, got n={self.n}")
        if w.shape != (self.n, self.n):
            raise ConfigurationError(
                f"weight matrix shape {w.shape} does not match n={self.n}"
            )
        if not np.all(np.isfinite(w)):
            raise ConfigurationError("weight matrix contains non-finite entries")
        if np.any(w < 0.0):
            raise ConfigurationError("link weights must be nonnegative")
        if np.any(np.diag(w) != 0.0):
            raise ConfigurationError("self-loops are not allowed (diagonal must be 0)")
        if not np.array_equal(w, w.T):
            raise ConfigurationError("weight matrix must be exactly symmetric")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def edge_count(self) -> int:
        return len(self.edges()[0])

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (i, j, w) arrays of the links with i < j, in row-major order.

        The arrays are computed on the first call, kept, and read-only.
        """
        return self._links

    @cached_property
    def _links(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ii, jj = np.nonzero(self.weights)
        upper = ii < jj
        ei, ej = ii[upper], jj[upper]
        links = (ei, ej, self.weights[ei, ej])
        for a in links:
            a.flags.writeable = False
        return links


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalue summary of a Laplacian.

    ``lambda2`` is the algebraic connectivity (0 when the graph is
    disconnected at tolerance ``zero_tol``), ``lambda_max`` the largest
    eigenvalue.  ``eigenvalues`` holds the full ascending spectrum.
    """

    lambda2: float
    lambda_max: float
    connected: bool
    zero_tol: float
    eigenvalues: np.ndarray = field(repr=False)


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
    the same graph: one uniform vector decides the links, a second the
    weights, both over all pairs in row-major order.
    """
    if n < 2:
        raise ConfigurationError(f"erdos_renyi needs n >= 2, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"link probability must be in [0, 1], got {p}")
    lo, hi = weight_range
    if not (0.0 < lo <= hi):
        raise ConfigurationError(f"weight range must satisfy 0 < lo <= hi, got {weight_range}")

    rng = np.random.default_rng([int(seed), 0x6E45])
    iu = np.triu_indices(n, 1)
    m = len(iu[0])
    linked = rng.random(m) < p
    w = lo + (hi - lo) * rng.random(m)

    weights = np.zeros((n, n))
    weights[iu] = np.where(linked, w, 0.0)
    weights = weights + weights.T
    return WeightedGraph(n=n, weights=weights)


def union_graph(graphs: list[WeightedGraph]) -> WeightedGraph:
    """Per-link maximum over a nonempty list of graphs on the same node set.

    The union has a link wherever any input graph has one; its weight is the
    largest weight that link attains across the inputs.
    """
    if not graphs:
        raise ConfigurationError("union_graph needs at least one graph")
    n = graphs[0].n
    for g in graphs[1:]:
        if g.n != n:
            raise ConfigurationError("union_graph requires a common node count")
    w = graphs[0].weights
    for g in graphs[1:]:
        w = np.maximum(w, g.weights)
    return WeightedGraph(n=n, weights=w)


# --------------------------------------------------------------------------
# spectra
# --------------------------------------------------------------------------


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Graph Laplacian L = D - W with D the diagonal of row sums of W.

    Row sums of the result are zero up to machine rounding because the
    diagonal is computed from the actual off-diagonal entries.
    """
    w = g.weights
    lap = -w.copy()
    lap[np.diag_indices(g.n)] = w.sum(axis=1)
    lap.flags.writeable = False
    return lap


def spectral_summary(lap: np.ndarray, zero_tol: float | None = None) -> SpectralSummary:
    """Eigenvalues of a Laplacian with a connectivity verdict.

    Eigenvalues below ``zero_tol`` count as zero.  When ``zero_tol`` is None
    it defaults to max(1e-12, 1e-8 * lambda_max), which separates genuine
    nullspace directions from rounding noise for the weight scales used here.
    """
    lap = np.asarray(lap, dtype=float)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ConfigurationError(f"laplacian must be square, got shape {lap.shape}")
    eigs = np.linalg.eigvalsh(lap)
    lam_max = float(eigs[-1])
    if zero_tol is None:
        zero_tol = max(1e-12, 1e-8 * abs(lam_max))
    if len(eigs) < 2:
        return SpectralSummary(0.0, lam_max, True, zero_tol, eigs)
    second = float(eigs[1])
    connected = second > zero_tol
    lambda2 = second if connected else 0.0
    eigs.flags.writeable = False
    return SpectralSummary(lambda2, lam_max, connected, zero_tol, eigs)


# --------------------------------------------------------------------------
# combinatorial queries
# --------------------------------------------------------------------------


def _adjacency_lists(n: int, ei: np.ndarray, ej: np.ndarray) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in zip(ei.tolist(), ej.tolist()):
        adj[i].append(j)
        adj[j].append(i)
    return adj


def _bfs_hops(adj: list[list[int]], source: int, n: int) -> list[int]:
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def is_connected(g: WeightedGraph) -> bool:
    """True iff every node is reachable from node 0 over positive-weight links."""
    if g.n == 1:
        return True
    ei, ej, _ = g.edges()
    return -1 not in _bfs_hops(_adjacency_lists(g.n, ei, ej), 0, g.n)


def diameter(g: WeightedGraph) -> int:
    """Largest hop distance between any two nodes (weights ignored).

    Raises DomainError for disconnected graphs.
    """
    ei, ej, _ = g.edges()
    adj = _adjacency_lists(g.n, ei, ej)
    worst = 0
    for s in range(g.n):
        dist = _bfs_hops(adj, s, g.n)
        far = max(dist)
        if min(dist) < 0:
            raise DomainError("diameter is undefined for a disconnected graph")
        worst = max(worst, far)
    return worst


# --------------------------------------------------------------------------
# vectors
# --------------------------------------------------------------------------


def dispersion(x: np.ndarray) -> np.ndarray:
    """Deviation of a vector from its own mean: x - mean(x) * 1.

    The result is orthogonal to the all-ones vector up to rounding, which is
    the component of the state the Laplacian quadratic form can see.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ConfigurationError(f"dispersion expects a vector, got shape {x.shape}")
    return x - x.mean()


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

    With ``expect_n`` the header must name that many nodes; it is checked
    before the n x n weight matrix is allocated.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("n="):
        raise ConfigurationError("edge list must start with an 'n=<count>' line")
    try:
        n = int(lines[0][2:])
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigurationError(f"bad node count line (want n=<count> with count >= 1): {lines[0]!r}")
    if expect_n is not None and n != expect_n:
        raise ConfigurationError(f"edge list has n={n} but n={expect_n} was expected")
    try:
        weights = np.zeros((n, n))
    except MemoryError:
        raise ConfigurationError(f"edge list has n={n}: an n x n weight matrix does not fit in memory") from None
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
        weights[i, j] = w
        weights[j, i] = w
    return WeightedGraph(n=n, weights=weights)
