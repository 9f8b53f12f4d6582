"""Tests for weighted graphs, Laplacians, and spectral summaries."""

import math

import numpy as np
import pytest

from dra_sim import (
    ConfigurationError,
    CostSet,
    WeightedGraph,
    erdos_renyi,
    from_edge_list,
    is_connected,
    laplacian,
    log_quantizer,
    apply_map_array,
    saturation,
    spectral_summary,
    to_edge_list,
    quadratic_cost,
    union_graph,
)
from dra_sim.scenario import _book_block


def path_graph(n, weight=1.0):
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = weight
    return WeightedGraph(n, w)


def complete_graph(n, weight=1.0):
    w = np.full((n, n), weight)
    np.fill_diagonal(w, 0.0)
    return WeightedGraph(n, w)


def star_graph(n, weight=1.0):
    w = np.zeros((n, n))
    w[0, 1:] = w[1:, 0] = weight
    return WeightedGraph(n, w)


class TestWeightedGraph:
    def test_rejects_asymmetric_weights(self):
        w = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ConfigurationError):
            WeightedGraph(2, w)

    def test_rejects_self_loops(self):
        w = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ConfigurationError):
            WeightedGraph(2, w)

    def test_rejects_negative_weights(self):
        w = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ConfigurationError):
            WeightedGraph(2, w)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            WeightedGraph(3, np.zeros((2, 2)))

    def test_weights_are_immutable(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            g.weights[0, 1] = 5.0

    def test_edges_are_upper_triangle(self):
        g = path_graph(3, weight=0.25)
        ei, ej, w = g.edges()
        assert ei.tolist() == [0, 1]
        assert ej.tolist() == [1, 2]
        assert w.tolist() == [0.25, 0.25]
        assert g.edge_count == 2

    def test_edges_computed_once_and_read_only(self):
        g = erdos_renyi(12, 0.5, (0.5, 1.0), seed=4)
        links = g.edges()
        assert g.edges() is links
        for a in links:
            with pytest.raises(ValueError):
                a[0] = 0
        ii, jj = np.nonzero(np.triu(g.weights, 1))
        assert np.array_equal(links[0], ii) and np.array_equal(links[1], jj)
        assert np.array_equal(links[2], g.weights[ii, jj])


class TestErdosRenyi:
    def test_forced_single_link(self):
        g = erdos_renyi(2, 1.0, (1.0, 1.0), seed=123)
        assert g.weights[0, 1] == 1.0
        assert g.weights[1, 0] == 1.0

    def test_edgeless_at_p_zero(self):
        g = erdos_renyi(5, 0.0, (0.5, 1.0), seed=3)
        assert g.edge_count == 0
        assert spectral_summary(laplacian(g)).lambda2 == 0.0

    def test_link_count_within_four_sigma(self):
        # C(50,2) = 1225 pairs at p = 0.2: mean 245, sd = sqrt(196) = 14.
        g = erdos_renyi(50, 0.2, (0.5, 1.0), seed=7)
        assert abs(g.edge_count - 245) <= 4 * 14

    def test_weights_inside_range(self):
        g = erdos_renyi(30, 0.3, (0.5, 1.0), seed=11)
        _, _, w = g.edges()
        assert w.size > 0
        assert np.all(w >= 0.5)
        assert np.all(w <= 1.0)

    def test_reproducible_under_seed(self):
        a = erdos_renyi(20, 0.4, (0.5, 1.0), seed=42)
        b = erdos_renyi(20, 0.4, (0.5, 1.0), seed=42)
        assert np.array_equal(a.weights, b.weights)

    def test_seed_changes_sample(self):
        a = erdos_renyi(20, 0.4, (0.5, 1.0), seed=1)
        b = erdos_renyi(20, 0.4, (0.5, 1.0), seed=2)
        assert not np.array_equal(a.weights, b.weights)

    def test_rejects_bad_probability(self):
        with pytest.raises(ConfigurationError):
            erdos_renyi(10, 1.5, (0.5, 1.0), seed=0)

    def test_rejects_bad_weight_range(self):
        with pytest.raises(ConfigurationError):
            erdos_renyi(10, 0.5, (0.0, 1.0), seed=0)
        with pytest.raises(ConfigurationError):
            erdos_renyi(10, 0.5, (2.0, 1.0), seed=0)

    def test_rejects_tiny_n(self):
        with pytest.raises(ConfigurationError):
            erdos_renyi(1, 0.5, (0.5, 1.0), seed=0)


class TestLaplacian:
    def test_two_node_path(self):
        lap = laplacian(path_graph(2))
        assert np.array_equal(lap, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_unit_triangle(self):
        lap = np.asarray(laplacian(complete_graph(3)))
        assert np.array_equal(np.diag(lap), np.array([2.0, 2.0, 2.0]))
        off = lap[~np.eye(3, dtype=bool)]
        assert np.all(off == -1.0)

    def test_row_sums_vanish(self):
        # Diagonal is the sum of the actual off-diagonal row entries, so
        # re-summing each row cancels to machine rounding.
        for seed in range(20):
            g = erdos_renyi(25, 0.3, (0.5, 1.0), seed=seed)
            lap = np.asarray(laplacian(g))
            tol = 1e-12 * (1.0 + float(np.max(np.diag(lap))))
            assert np.max(np.abs(lap.sum(axis=1))) <= tol
            assert np.max(np.abs(lap.sum(axis=0))) <= tol


class TestSpectralSummary:
    def test_two_node_path_eigenvalues(self):
        s = spectral_summary(laplacian(path_graph(2)))
        assert s.lambda2 == pytest.approx(2.0, rel=1e-12)
        assert s.lambda_max == pytest.approx(2.0, rel=1e-12)
        assert s.connected

    def test_complete_three_eigenvalues(self):
        s = spectral_summary(laplacian(complete_graph(3)))
        assert s.lambda2 == pytest.approx(3.0, rel=1e-12)
        assert s.lambda_max == pytest.approx(3.0, rel=1e-12)

    def test_edgeless_graph(self):
        g = erdos_renyi(5, 0.0, (0.5, 1.0), seed=0)
        s = spectral_summary(laplacian(g))
        assert s.lambda2 == 0.0
        assert s.lambda_max == 0.0
        assert not s.connected

    def test_eigenvalues_sorted_nonnegative(self):
        for seed in range(20):
            g = erdos_renyi(15, 0.4, (0.5, 1.0), seed=seed)
            s = spectral_summary(laplacian(g))
            ev = np.linalg.eigvalsh(np.asarray(laplacian(g)))
            assert s.lambda_max == ev[-1]
            assert s.lambda2 == (ev[1] if s.connected else 0.0)
            assert np.all(np.diff(ev) >= -1e-12)
            assert ev[0] == pytest.approx(0.0, abs=1e-10)
            assert np.all(ev >= -1e-10)


class TestIsConnected:
    def test_two_disjoint_links(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        assert not is_connected(WeightedGraph(4, w))

    def test_complete_graphs(self):
        for n in (2, 3, 5, 8):
            assert is_connected(complete_graph(n))

    def test_single_node(self):
        assert is_connected(WeightedGraph(1, np.zeros((1, 1))))

    def test_agrees_with_lambda2_on_samples(self):
        # Traversal connectivity must match the spectral criterion.
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(2, 16))
            p = float(rng.uniform(0.0, 1.0))
            g = erdos_renyi(n, p, (0.5, 1.0), seed=int(rng.integers(0, 2**31)))
            s = spectral_summary(laplacian(g))
            assert is_connected(g) == s.connected
            assert s.connected == (s.lambda2 > 0.0)


class TestUnionGraph:
    def test_two_links_make_path(self):
        w1 = np.zeros((3, 3))
        w1[0, 1] = w1[1, 0] = 1.0
        w2 = np.zeros((3, 3))
        w2[1, 2] = w2[2, 1] = 1.0
        u = union_graph([WeightedGraph(3, w1), WeightedGraph(3, w2)])
        assert is_connected(u)
        assert u.edge_count == 2

    def test_idempotent(self):
        g = erdos_renyi(12, 0.3, (0.5, 1.0), seed=5)
        u = union_graph([g, g])
        assert np.array_equal(u.weights, g.weights)

    def test_takes_max_weight(self):
        w1 = np.zeros((2, 2))
        w1[0, 1] = w1[1, 0] = 0.25
        w2 = np.zeros((2, 2))
        w2[0, 1] = w2[1, 0] = 0.75
        u = union_graph([WeightedGraph(2, w1), WeightedGraph(2, w2)])
        assert u.weights[0, 1] == 0.75

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(ConfigurationError):
            union_graph([path_graph(3), path_graph(4)])

    def test_rejects_empty_sequence(self):
        with pytest.raises(ConfigurationError):
            union_graph([])

    def test_link_present_iff_present_in_some_copy(self):
        # Enumerate all keep masks of the 3 links of a triangle over 2 copies.
        base = complete_graph(3)
        ei, ej, _ = base.edges()
        m = len(ei)
        for bits_a in range(2**m):
            for bits_b in range(2**m):
                copies = []
                for bits in (bits_a, bits_b):
                    w = np.array(base.weights)
                    for k in range(m):
                        if not (bits >> k) & 1:
                            w[ei[k], ej[k]] = w[ej[k], ei[k]] = 0.0
                    copies.append(WeightedGraph(3, w))
                u = union_graph(copies)
                for k in range(m):
                    expect = bool(((bits_a >> k) & 1) or ((bits_b >> k) & 1))
                    assert (u.weights[ei[k], ej[k]] > 0) == expect


def trace_dispersion(grads):
    """The trace's dispersion column, norm(grads - mean), for one record."""
    cs, cols = CostSet([quadratic_cost(1.0)] * grads.size), np.full((6, 1), math.nan)
    _book_block(cs, [(0, grads, grads)], 0.0, cols)
    return cols[2, 0]


class TestDispersion:
    def test_hand_example(self):
        # (3, 1) recentres to (1, -1).
        assert trace_dispersion(np.array([3.0, 1.0])) == math.sqrt(2.0)

    def test_constant_vector_maps_to_zero(self):
        assert trace_dispersion(np.full(7, 4.2)) <= 1e-12

    def test_zero_sum_and_contraction(self):
        # |x|^2 = |x - mean|^2 + n * mean^2 holds iff the deviation sums to 0.
        rng = np.random.default_rng(99)
        for _ in range(1000):
            x = rng.normal(size=int(rng.integers(1, 30)))
            d = trace_dispersion(x)
            assert abs(d**2 + x.size * x.mean() ** 2 - x @ x) <= 1e-9 * (1.0 + x @ x)
            assert d <= np.linalg.norm(x) + 1e-12


class TestDiameter:
    def test_complete_four(self, hop_diameter):
        assert hop_diameter(complete_graph(4)) == 1

    def test_path_five(self, hop_diameter):
        assert hop_diameter(path_graph(5)) == 4

    def test_star(self, hop_diameter):
        assert hop_diameter(star_graph(6)) == 2

    def test_disconnected_rejected(self, hop_diameter):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        with pytest.raises(ValueError):
            hop_diameter(WeightedGraph(4, w))


class TestLaplacianQuadraticForms:
    def test_rayleigh_bounds_on_random_graphs(self):
        # lambda2 |x_disp|^2 <= x' L x <= lambda_max |x_disp|^2, and the
        # quadratic form ignores the mean component, at relative 1e-9.
        rng = np.random.default_rng(31415)
        count = 0
        while count < 1000:
            n = int(rng.integers(3, 20))
            g = erdos_renyi(n, float(rng.uniform(0.3, 0.9)), (0.5, 1.0),
                            seed=int(rng.integers(0, 2**31)))
            if not is_connected(g):
                continue
            count += 1
            lap = laplacian(g)
            s = spectral_summary(lap)
            x = rng.normal(scale=5.0, size=n)
            xd = x - x.mean()
            q = float(x @ lap @ x)
            qd = float(xd @ lap @ xd)
            nd2 = float(xd @ xd)
            scale = 1e-9 * (1.0 + abs(q))
            assert q >= s.lambda2 * nd2 - scale
            assert q <= s.lambda_max * nd2 + scale
            assert abs(q - qd) <= scale

    def test_bilinear_form_ignores_means(self):
        # x' L y equals the same form with both vectors recentred.
        rng = np.random.default_rng(27182)
        for _ in range(1000):
            n = int(rng.integers(2, 20))
            g = erdos_renyi(n, float(rng.uniform(0.2, 1.0)), (0.5, 1.0),
                            seed=int(rng.integers(0, 2**31)))
            lap = laplacian(g)
            x = rng.normal(scale=3.0, size=n)
            y = rng.normal(scale=3.0, size=n)
            a = float(x @ lap @ y)
            b = float((x - x.mean()) @ lap @ (y - y.mean()))
            assert abs(a - b) <= 1e-9 * (1.0 + abs(a))

    def test_lambda2_lower_bound_via_diameter(self, hop_diameter):
        # Connected graphs keep lambda2 >= 1 / (n * diameter) when all
        # weights are at least 1; sample with the unit-floor range.
        rng = np.random.default_rng(16180)
        count = 0
        while count < 200:
            n = int(rng.integers(3, 25))
            g = erdos_renyi(n, float(rng.uniform(0.3, 0.9)), (1.0, 1.5),
                            seed=int(rng.integers(0, 2**31)))
            if not is_connected(g):
                continue
            count += 1
            s = spectral_summary(laplacian(g))
            assert s.lambda2 >= 1.0 / (n * hop_diameter(g)) - 1e-12

    def test_adding_link_never_decreases_lambda2(self):
        rng = np.random.default_rng(61803)
        count = 0
        while count < 200:
            n = int(rng.integers(4, 20))
            g = erdos_renyi(n, float(rng.uniform(0.2, 0.7)), (0.5, 1.0),
                            seed=int(rng.integers(0, 2**31)))
            absent = np.argwhere(np.triu(g.weights == 0.0, 1))
            if absent.size == 0:
                continue
            count += 1
            i, j = absent[rng.integers(0, len(absent))]
            w = np.array(g.weights)
            w[i, j] = w[j, i] = float(rng.uniform(0.5, 1.0))
            before = spectral_summary(laplacian(g)).lambda2
            after = spectral_summary(laplacian(WeightedGraph(n, w))).lambda2
            assert after >= before - 1e-9 * (1.0 + before)

    def test_dirichlet_form_nonnegative_for_monotone_odd_maps(self):
        # x' L g(x) = sum of W_ij (x_i - x_j)(g(x_i) - g(x_j)) >= 0 for
        # odd nondecreasing g applied entrywise.
        rng = np.random.default_rng(141421)
        maps = [log_quantizer(0.25), log_quantizer(1.0), saturation(1.0, 50.0)]
        for _ in range(300):
            n = int(rng.integers(3, 15))
            g = erdos_renyi(n, float(rng.uniform(0.3, 1.0)), (0.5, 1.0),
                            seed=int(rng.integers(0, 2**31)))
            lap = laplacian(g)
            x = rng.normal(scale=4.0, size=n)
            for m in maps:
                gx = apply_map_array(m, x)
                assert float(x @ lap @ gx) >= -1e-10


class TestEdgeListSerialization:
    def test_round_trip_is_bit_exact(self):
        for seed in range(25):
            g = erdos_renyi(17, 0.35, (0.5, 1.0), seed=seed)
            h = from_edge_list(to_edge_list(g))
            assert h.n == g.n
            assert np.array_equal(h.weights, g.weights)

    def test_format_shape(self):
        g = path_graph(3, weight=0.5)
        text = to_edge_list(g)
        lines = text.strip().splitlines()
        assert lines[0] == "n=3"
        assert len(lines) == 3
        i, j, w = lines[1].split()
        assert int(i) < int(j)
        assert float(w) == 0.5

    def test_rejects_malformed_header(self):
        with pytest.raises(ConfigurationError):
            from_edge_list("nodes=3\n0 1 1.0\n")

    def test_rejects_nonpositive_node_count(self):
        for header in ("n=-2", "n=0"):
            with pytest.raises(ConfigurationError, match="bad node count line"):
                from_edge_list(header + "\n")

    def test_rejects_bad_edge_line(self):
        with pytest.raises(ConfigurationError):
            from_edge_list("n=3\n0 1\n")

    def test_node_count_checked_before_the_matrix(self):
        # The graph is held as its links, so 10^8 nodes with one link parse.
        with pytest.raises(ConfigurationError, match="n=100000000 but n=10 was expected"):
            from_edge_list("n=100000000\n0 1 1.0\n", expect_n=10)
        g = from_edge_list("n=100000000\n0 1 1.0\n")
        assert (g.n, g.edge_count) == (100000000, 1)
        assert from_edge_list("n=3\n0 1 1.0\n", expect_n=3).n == 3

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ConfigurationError):
            from_edge_list("n=3\n0 7 1.0\n")
