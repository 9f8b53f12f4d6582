"""The sparse graph core against the dense code it replaced.

Graphs are held as link arrays (ei, ej, w).  The dense functions below are
copies of the earlier n x n implementations; every graph built from links
must give their links and weights byte for byte, and the Laplacian operator
must give their dense matrix.  The Lanczos spectrum used above n = 2000 is
checked against ``eigvalsh``, and the memory of the sparse paths is checked
with ``tracemalloc``.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dra_sim import (
    ConfigurationError,
    ScenarioConfig,
    WeightedGraph,
    build_instance,
    erdos_renyi,
    from_edge_list,
    is_connected,
    laplacian,
    smoothness_bound,
    spectral_summary,
    step_rate_bound,
    to_edge_list,
    union_graph,
)
from dra_sim import graph as graph_module
from dra_sim.scenario import default_smoothness_domain

# --------------------------------------------------------------------------
# the dense reference
# --------------------------------------------------------------------------


def dense_erdos_renyi(n, p, weight_range, seed):
    lo, hi = weight_range
    rng = np.random.default_rng([int(seed), 0x6E45])
    iu = np.triu_indices(n, 1)
    m = len(iu[0])
    linked = rng.random(m) < p
    w = lo + (hi - lo) * rng.random(m)
    weights = np.zeros((n, n))
    weights[iu] = np.where(linked, w, 0.0)
    return weights + weights.T


def dense_links(weights):
    ii, jj = np.nonzero(weights)
    upper = ii < jj
    ei, ej = ii[upper], jj[upper]
    return ei, ej, weights[ei, ej]


def dense_union(matrices):
    w = matrices[0]
    for other in matrices[1:]:
        w = np.maximum(w, other)
    return w


def dense_failure_mask(weights, p_fail, rng):
    ei, ej, w = dense_links(weights)
    keep = rng.random(len(ei)) >= p_fail
    out = np.zeros_like(weights)
    out[ei[keep], ej[keep]] = w[keep]
    return out + out.T


def dense_from_edge_list(text):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    n = int(lines[0][2:])
    weights = np.zeros((n, n))
    for ln in lines[1:]:
        i, j, w = ln.split()
        weights[int(i), int(j)] = weights[int(j), int(i)] = float(w)
    return weights


def dense_laplacian(weights):
    lap = -weights.copy()
    lap[np.diag_indices(len(weights))] = weights.sum(axis=1)
    return lap


def assert_links_equal(g, weights):
    assert g.n == len(weights)
    for got, want in zip(g.edges(), dense_links(weights)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


sizes = st.integers(2, 40)
probabilities = st.floats(0.0, 1.0)
seeds = st.integers(0, 2**63)
weight_ranges = st.tuples(st.floats(0.01, 2.0), st.floats(0.0, 3.0)).map(lambda t: (t[0], t[0] + t[1]))


class TestAgainstDenseReference:
    @given(n=sizes, p=probabilities, wr=weight_ranges, seed=seeds, chunk=st.sampled_from([1, 7, 64, 1 << 20]))
    def test_erdos_renyi(self, n, p, wr, seed, chunk):
        # Small chunks put stream boundaries inside rows and between linked pairs.
        with mock.patch.object(graph_module, "_ER_CHUNK", chunk):
            g = erdos_renyi(n, p, wr, seed)
        assert_links_equal(g, dense_erdos_renyi(n, p, wr, seed))

    def test_erdos_renyi_over_several_chunks(self):
        # 1500 nodes make 1,124,250 pairs: two chunks of each stream.
        n, p = 1500, 15.0 / 1499
        assert_links_equal(erdos_renyi(n, p, (0.02, 0.04), 77), dense_erdos_renyi(n, p, (0.02, 0.04), 77))

    @given(n=sizes, ps=st.lists(probabilities, min_size=1, max_size=4), seed=seeds, p_fail=probabilities)
    def test_union_of_cycle_phases_and_failure_masks(self, n, ps, seed, p_fail):
        phases = [erdos_renyi(n, p, (0.5, 1.0), seed + k) for k, p in enumerate(ps)]
        dense = [dense_erdos_renyi(n, p, (0.5, 1.0), seed + k) for k, p in enumerate(ps)]
        assert_links_equal(union_graph(phases), dense_union(dense))
        assert_links_equal(union_graph(phases + phases[:1]), dense_union(dense + dense[:1]))
        # The run's failure draw: one uniform per link in link order, kept if >= p_fail.
        keeps = [np.random.default_rng([seed, k]).random(g.edge_count) >= p_fail for k, g in enumerate(phases)]
        masks = [WeightedGraph.from_edges(n, *(a[keep] for a in g.edges())) for g, keep in zip(phases, keeps)]
        dense_masks = [dense_failure_mask(w, p_fail, np.random.default_rng([seed, k])) for k, w in enumerate(dense)]
        for g, w in zip(masks, dense_masks):
            assert_links_equal(g, w)
        assert_links_equal(union_graph(masks), dense_union(dense_masks))

    @given(n=sizes, p=probabilities, seed=seeds)
    def test_edge_list_round_trip(self, n, p, seed):
        g = erdos_renyi(n, p, (0.5, 1.0), seed)
        text = to_edge_list(g)
        assert_links_equal(from_edge_list(text), dense_from_edge_list(text))
        assert_links_equal(from_edge_list(text), dense_erdos_renyi(n, p, (0.5, 1.0), seed))

    @given(
        n=st.integers(2, 12),
        lines=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11), st.floats(0.01, 10.0)), max_size=40),
    )
    def test_edge_list_in_any_order_last_line_wins(self, n, lines):
        body = [f"{i} {j} {w!r}" for i, j, w in lines if i < n and j < n and i != j]
        text = "\n".join([f"n={n}", *body]) + "\n"
        assert_links_equal(from_edge_list(text), dense_from_edge_list(text))

    def test_repeated_pair_either_way_round(self):
        g = from_edge_list("n=3\n0 1 1.0\n2 1 0.5\n1 0 2.0\n1 2 0.25\n")
        assert g.edges()[2].tolist() == [2.0, 0.25]

    @given(n=sizes, p=probabilities, seed=seeds)
    def test_laplacian_matrix(self, n, p, seed):
        g = erdos_renyi(n, p, (0.5, 1.0), seed)
        lap = np.asarray(laplacian(g))
        want = dense_laplacian(dense_erdos_renyi(n, p, (0.5, 1.0), seed))
        assert lap.dtype == want.dtype and lap.tobytes() == want.tobytes()


class TestEdgeConstructor:
    def test_equals_dense_constructor(self):
        w = dense_erdos_renyi(9, 0.5, (0.5, 1.0), 3)
        g = WeightedGraph.from_edges(9, *dense_links(w))
        assert_links_equal(g, w)
        assert np.array_equal(g.weights, w)
        assert_links_equal(WeightedGraph(9, w), w)

    def test_copies_its_input(self):
        ei, ej, w = np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0])
        g = WeightedGraph.from_edges(3, ei, ej, w)
        ei[0], w[0] = 1, 5.0
        assert g.edges()[0].tolist() == [0, 1] and g.edges()[2].tolist() == [1.0, 2.0]
        assert ei.flags.writeable

    @pytest.mark.parametrize("ei, ej, w, match", [
        ([1, 0], [2, 1], [1.0, 1.0], "row-major"),
        ([0, 0], [1, 1], [1.0, 1.0], "row-major"),
        ([1], [0], [1.0], "0 <= i < j"),
        ([1], [1], [1.0], "0 <= i < j"),
        ([0], [3], [1.0], "0 <= i < j"),
        ([-1], [1], [1.0], "0 <= i < j"),
        ([0], [1], [0.0], "finite and positive"),
        ([0], [1], [np.inf], "finite and positive"),
        ([0], [1], [np.nan], "finite and positive"),
        ([0.0], [1.0], [1.0], "integers"),
        ([0, 1], [1], [1.0], "one length"),
    ])
    def test_rejects_bad_links(self, ei, ej, w, match):
        with pytest.raises(ConfigurationError, match=match):
            WeightedGraph.from_edges(3, np.array(ei), np.array(ej), np.array(w))

    def test_rejects_no_nodes_and_allows_no_links(self):
        with pytest.raises(ConfigurationError):
            WeightedGraph.from_edges(0, [], [], [])
        with pytest.raises(ConfigurationError, match=f"got n={2**32}"):
            WeightedGraph.from_edges(2**32, [0], [1], [1.0])
        g = WeightedGraph.from_edges(4, [], [], [])
        assert g.edge_count == 0 and g.edges()[0].dtype == np.intp

    def test_int32_endpoints_keep_row_major_keys_past_two_to_the_31(self):
        # Keys 1 and 3e9 + 30001: in int32 the second wraps and their difference turns negative.
        ei, ej = np.array([0, 30000], np.int32), np.array([1, 30001], np.int32)
        g = WeightedGraph.from_edges(100000, ei, ej, [1.0, 2.0])
        assert g.edges()[0].tolist() == [0, 30000] and g.edges()[0].dtype == np.intp
        with pytest.raises(ConfigurationError, match="row-major"):
            WeightedGraph.from_edges(100000, ei[::-1], ej[::-1], [1.0, 2.0])

    def test_immutable(self):
        g = WeightedGraph.from_edges(2, [0], [1], [1.0])
        with pytest.raises(AttributeError):
            g.n = 3


class TestLaplacianOperator:
    def test_applies_like_the_dense_matrix(self):
        rng = np.random.default_rng(8)
        for seed in range(30):
            n = int(rng.integers(2, 30))
            g = erdos_renyi(n, float(rng.random()), (0.5, 1.0), seed)
            lap = laplacian(g)
            dense = np.asarray(lap)
            x = rng.normal(size=n)
            assert np.allclose(lap @ x, dense @ x, rtol=0.0, atol=1e-12 * (1.0 + np.abs(dense).max()))
            assert np.array_equal(x @ lap, lap @ x)
            assert np.all(lap @ np.full(n, 3.7) == 0.0)

    def test_rejects_a_vector_of_another_length(self):
        with pytest.raises(ConfigurationError):
            laplacian(erdos_renyi(4, 0.5, (0.5, 1.0), 1)) @ np.ones(5)


# --------------------------------------------------------------------------
# the Lanczos spectrum
# --------------------------------------------------------------------------


def two_components(n, p, seed):
    """Two Erdos-Renyi blocks on nodes [0, n//2) and [n//2, n), no link between; n >= 4."""
    h = n // 2
    ai, aj, aw = erdos_renyi(h, p, (0.5, 1.0), seed).edges()
    bi, bj, bw = erdos_renyi(n - h, p, (0.5, 1.0), seed + 1).edges()
    return WeightedGraph.from_edges(n, np.concatenate([ai, bi + h]), np.concatenate([aj, bj + h]), np.concatenate([aw, bw]))


def assert_lanczos_matches_eigvalsh(g):
    lap = laplacian(g)
    low, high = graph_module._lanczos_extremes(lap)
    ev = np.linalg.eigvalsh(np.asarray(lap))
    assert abs(low - ev[1]) <= 1e-9 * ev[-1]
    assert abs(high - ev[-1]) <= 1e-9 * ev[-1]
    # Outward by r, up to rounding: both solvers are exact only to a few ulps of lambda_max.
    assert low <= ev[1] + 1e-14 * ev[-1] and high >= ev[-1] * (1.0 - 1e-14)


class TestLanczos:
    @settings(max_examples=60)
    @given(n=st.integers(3, 300), degree=st.floats(0.0, 20.0), seed=seeds)
    def test_matches_eigvalsh(self, n, degree, seed):
        assert_lanczos_matches_eigvalsh(erdos_renyi(n, min(1.0, degree / (n - 1)), (0.5, 1.0), seed))

    @pytest.mark.parametrize("n", [4, 17, 300])
    def test_edgeless_path_and_two_components(self, n):
        assert graph_module._lanczos_extremes(laplacian(erdos_renyi(n, 0.0, (0.5, 1.0), 1))) == (0.0, 0.0)
        ei = np.arange(n - 1)
        assert_lanczos_matches_eigvalsh(WeightedGraph.from_edges(n, ei, ei + 1, np.ones(n - 1)))
        assert_lanczos_matches_eigvalsh(two_components(n, min(1.0, 8.0 / n), 5))

    @pytest.mark.parametrize("n, seed", [(1990, 11), (2000, 12)])
    def test_matches_eigvalsh_near_the_cutoff(self, n, seed):
        g = erdos_renyi(n, 15.0 / (n - 1), (0.02, 0.04), seed)
        assert_lanczos_matches_eigvalsh(g)
        low, _ = graph_module._lanczos_extremes(laplacian(g))
        ev = np.linalg.eigvalsh(np.asarray(laplacian(g)))
        assert abs(low - ev[1]) <= 1e-9 * ev[1]

    def test_raises_when_it_does_not_converge(self):
        # A path's lambda_2 ~ (pi / n)^2 is tiny next to lambda_max ~ 4: 300 steps do not resolve it.
        ei = np.arange(399)
        with pytest.raises(graph_module.NumericError, match="Lanczos"):
            graph_module._lanczos_extremes(laplacian(WeightedGraph.from_edges(400, ei, ei + 1, np.ones(399))))

    @given(n=st.integers(4, 60), p=st.floats(0.0, 0.5), seed=seeds, split=st.booleans())
    def test_connected_verdict_equals_graph_search(self, n, p, seed, split):
        g = two_components(n, p, seed) if split else erdos_renyi(n, p, (0.5, 1.0), seed)
        with mock.patch.object(graph_module, "_DENSE_SPECTRUM_MAX_N", 2):
            s = spectral_summary(laplacian(g))
        assert s.connected == is_connected(g)
        assert s.connected == (s.lambda2 > 0.0)

    def test_summary_above_the_cutoff(self):
        g = erdos_renyi(2100, 15.0 / 2099, (0.5, 1.0), 21)
        s = spectral_summary(laplacian(g))
        low, high = graph_module._lanczos_extremes(laplacian(g))
        assert (s.lambda2, s.lambda_max) == (low, high)
        assert s.connected and is_connected(g)
        split = two_components(2100, 15.0 / 1049, 22)
        s = spectral_summary(laplacian(split))
        assert not s.connected and s.lambda2 == 0.0 and not is_connected(split)

    def test_summary_falls_back_to_the_dense_matrix_where_lanczos_stalls(self):
        ei = np.arange(2099)
        lap = laplacian(WeightedGraph.from_edges(2100, ei, ei + 1, np.ones(2099)))
        with pytest.raises(graph_module.NumericError):
            graph_module._lanczos_extremes(lap)
        s = spectral_summary(lap)
        ev = np.linalg.eigvalsh(np.asarray(lap))
        assert (s.lambda2, s.lambda_max) == (float(ev[1]), float(ev[-1])) and s.connected


# --------------------------------------------------------------------------
# memory
# --------------------------------------------------------------------------


def traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_and_certificate_at_ten_thousand_nodes_stay_sparse():
    n = 10_000
    cfg = ScenarioConfig(
        n=n, total=4.0 * n, eta=0.2, horizon=10, seed=3,
        topology_kind="er", topology_p=15.0 / (n - 1), topology_weight_lo=0.02, topology_weight_hi=0.04,
        costs_kind="quartic", costs_penalty="box", costs_box_lo=1.0, costs_box_hi=10.0,
        node_kind="identity", link_kind="log_quantizer", link_rho=0.125,
        p_fail=0.5, tau_bar=2, delay_mode="uniform", adversity_seed=4,
    )

    def certify():
        graphs, costs, node_map, link_map = build_instance(cfg)
        spec = spectral_summary(laplacian(union_graph(graphs)))
        u = smoothness_bound(costs, default_smoothness_domain(cfg)).u
        bound = step_rate_bound(node_map, link_map, spec.lambda2, spec.lambda_max, u,
                                window=cfg.window, tau_bar=cfg.tau_bar)
        return spec, bound

    (spec, bound), peak = traced_peak(certify)
    assert spec.connected and bound.eta_max > 0.0
    # One dense n x n float array would take 800 MB.
    assert peak < 80e6


def test_edge_list_with_a_large_header_parses_in_little_memory():
    g, peak = traced_peak(lambda: from_edge_list("n=200000\n0 1 1.0\n5 3 2.0\n199999 0 0.5\n"))
    assert (g.n, g.edge_count) == (200000, 3)
    assert g.edges()[0].tolist() == [0, 0, 3] and g.edges()[1].tolist() == [1, 199999, 5]
    # Less than one float vector of length n (1.6 MB).
    assert peak < 1e6


def test_edge_list_header_too_large_for_link_keys():
    with pytest.raises(ConfigurationError, match="n=4000000000"):
        from_edge_list("n=4000000000\n3999999998 3999999999 1.0\n")
