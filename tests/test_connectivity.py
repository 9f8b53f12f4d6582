"""The connectivity kernel against the breadth-first search it replaced.

``graph._component_labels`` labels every node with the least node of its
component by hook-and-jump rounds over link arrays; ``is_connected`` and
``mc_union_connectivity`` (which searches its trials in batches of disjoint
graph copies) both stand on it.  The references below are the adjacency-list
BFS and the one-trial-at-a-time Monte Carlo loop of the earlier release,
kept here in substance, and the kernel must agree with them exactly:
on single nodes, graphs without links, stars, disjoint unions, permuted
paths and rings up to 10^4 nodes, and random graphs; and, for the estimate,
at trial counts around the batch size, p_fail of 0, 1 or in between, and
windows 0-3, and at windows cut into chunks of draws, whose union is the
run's link plan's.  The ``hop_diameter`` fixture, which the spectral checks use,
is checked against the reference distances too.
"""

import math
import tracemalloc
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dra_sim import (
    DelaySchedule,
    McConnectivity,
    WeightedGraph,
    dynamics,
    erdos_renyi,
    is_connected,
    mc_union_connectivity,
    percolation,
)
from dra_sim.graph import _component_labels


# --------------------------------------------------------------------------
# references: the earlier adjacency-list BFS and per-trial loop
# --------------------------------------------------------------------------


def reference_distances(n, ei, ej, source):
    adj = [[] for _ in range(n)]
    for i, j in zip(ei.tolist(), ej.tolist()):
        adj[i].append(j)
        adj[j].append(i)
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


def reference_is_connected(g):
    ei, ej, _ = g.edges()
    return -1 not in reference_distances(g.n, ei, ej, 0)


def reference_labels(n, ei, ej):
    """Least node of each component, by one BFS per component in node order."""
    lab = [-1] * n
    for s in range(n):
        if lab[s] < 0:
            for v, d in enumerate(reference_distances(n, ei, ej, s)):
                if d >= 0:
                    lab[v] = s
    return np.array(lab)


def reference_mc(base, p_fail, window, trials, seed):
    ei, ej, w = base.edges()
    successes = 0
    for t in range(trials):
        rng = np.random.default_rng([int(seed), 0xACC3, t])
        keep = (rng.random((int(window) + 1, len(ei))) >= p_fail).any(axis=0)
        if reference_is_connected(WeightedGraph.from_edges(base.n, ei[keep], ej[keep], w[keep])):
            successes += 1
    frac = successes / trials
    z = 1.959963984540054
    denom = 1.0 + z * z / trials
    center = (frac + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(frac * (1.0 - frac) / trials + z * z / (4.0 * trials * trials))
    return McConnectivity(frac, min(frac, max(0.0, center - half)), max(frac, min(1.0, center + half)),
                          trials, successes)


# --------------------------------------------------------------------------
# graphs
# --------------------------------------------------------------------------


def graph_from_pairs(n, a, b):
    """The graph on n nodes linking a[k] and b[k]; self-pairs and repeats are dropped."""
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keys = np.unique((lo * n + hi)[lo != hi])
    return WeightedGraph.from_edges(n, keys // n, keys % n, np.ones(len(keys)))


def permuted_path(n, seed, ring=False, cut=None):
    """A path (or ring) visiting the nodes in a random order, minus link ``cut``."""
    order = np.random.default_rng(seed).permutation(n)
    a, b = order[:-1], order[1:]
    if ring:
        a, b = np.append(a, order[-1]), np.append(b, order[0])
    if cut is not None and len(a):
        a, b = np.delete(a, cut % len(a)), np.delete(b, cut % len(b))
    return graph_from_pairs(n, a, b)


@st.composite
def random_graphs(draw, max_n=40):
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(0, 2 * n))
    return graph_from_pairs(n, rng.integers(0, n, m), rng.integers(0, n, m))


def assert_same_verdict(g):
    ei, ej, _ = g.edges()
    assert is_connected(g) == reference_is_connected(g)
    np.testing.assert_array_equal(_component_labels(g.n, ei, ej), reference_labels(g.n, ei, ej))


class TestIsConnected:
    def test_single_node_and_no_links(self):
        assert is_connected(graph_from_pairs(1, [], []))
        for n in (2, 3, 50):
            g = graph_from_pairs(n, [], [])
            assert not is_connected(g)
            assert_same_verdict(g)

    @given(st.integers(2, 200), st.integers(0, 199))
    @settings(max_examples=60)
    def test_stars(self, n, center):
        center %= n
        leaves = np.delete(np.arange(n), center)
        g = graph_from_pairs(n, np.full(n - 1, center), leaves)
        assert is_connected(g)
        assert_same_verdict(g)
        assert not is_connected(graph_from_pairs(n, np.full(n - 2, center), leaves[1:]))

    @given(random_graphs(), random_graphs())
    @settings(max_examples=100)
    def test_random_graphs_and_disjoint_unions(self, g, h):
        assert_same_verdict(g)
        gi, gj, _ = g.edges()
        hi, hj, _ = h.edges()
        union = graph_from_pairs(g.n + h.n, np.concatenate([gi, hi + g.n]), np.concatenate([gj, hj + g.n]))
        assert not is_connected(union)
        assert_same_verdict(union)

    @given(random_graphs(max_n=30))
    @settings(max_examples=60)
    def test_diameter_equals_largest_bfs_distance(self, hop_diameter, g):
        ei, ej, _ = g.edges()
        if reference_is_connected(g):
            assert hop_diameter(g) == max(max(reference_distances(g.n, ei, ej, s)) for s in range(g.n))
        else:
            with pytest.raises(ValueError):
                hop_diameter(g)

    @given(st.integers(1, 10**4), st.integers(0, 2**32 - 1), st.booleans(), st.none() | st.integers(0, 10**4))
    @example(10**4, 1, False, None)
    @example(10**4, 2, True, None)
    @example(10**4, 3, False, 4321)
    @example(10**4, 4, True, 999)
    @settings(max_examples=40)
    def test_permuted_paths_and_rings(self, n, seed, ring, cut):
        g = permuted_path(n, seed, ring, cut)
        assert_same_verdict(g)
        # A path with a link cut falls apart; a ring with one cut is still a path.
        assert is_connected(g) == (n == 1 or cut is None or ring)


@given(random_graphs(max_n=25), st.integers(1, 6), st.sampled_from(("off", "one", "on", "random")),
       st.integers(0, 2**32 - 1))
@example(g=graph_from_pairs(1, [], []), copies=3, masks="on", seed=0)
@example(g=permuted_path(12, 1, ring=True), copies=6, masks="one", seed=5)
@settings(max_examples=80)
def test_stacked_copies_label_as_one_graph(g, copies, masks, seed):
    # The Monte Carlo's batch: copy k of the graph on nodes k*n .. k*n + n-1,
    # its links shifted once (ei < ej in every copy), and the up links picked
    # from the flat mask; no links, one copy's, all of them, or a random mask.
    ei, ej, _ = g.edges()
    offset = np.arange(copies)[:, None] * g.n
    eib, ejb = (ei + offset).ravel(), (ej + offset).ravel()
    rng = np.random.default_rng(seed)
    keep = np.full((copies, len(ei)), masks == "on")
    if masks == "one":
        keep[rng.integers(copies)] = True
    elif masks == "random":
        keep = rng.random(keep.shape) < rng.random()
    cols = np.flatnonzero(keep)
    assert (eib[cols] < ejb[cols]).all()
    np.testing.assert_array_equal(_component_labels(copies * g.n, eib.take(cols), ejb.take(cols)),
                                  reference_labels(copies * g.n, eib[cols], ejb[cols]))


# --------------------------------------------------------------------------
# Monte Carlo estimate
# --------------------------------------------------------------------------


def chunk(g):
    """Trials per batch of mc_union_connectivity on graph g."""
    return max(1, percolation._MC_BLOCK // (g.n + g.edge_count))


def sparse_3000():
    """The ``sparse_scale`` benchmark's kind of graph: n = 3000, mean degree 15."""
    return erdos_renyi(3000, 15.0 / 2999, (0.02, 0.04), seed=8)


def trial_counts(c):
    return sorted({1, max(1, c - 1), c, c + 1, 2 * c + 1})


class TestMcUnionConnectivity:
    @given(
        random_graphs(max_n=25),
        st.sampled_from((1, 2, 7, 60)),
        st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0),
        st.integers(0, 3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40)
    def test_equals_per_trial_loop_around_the_batch_size(self, g, per_batch, p_fail, window, seed):
        # A smaller link budget gives the same batch boundaries a large graph
        # has under the real one, at a size the reference loop can afford.
        with mock.patch.object(percolation, "_MC_BLOCK", per_batch * (g.n + g.edge_count)):
            assert chunk(g) == per_batch
            for trials in trial_counts(per_batch):
                got = mc_union_connectivity(g, p_fail, window, trials=trials, seed=seed)
                assert got == reference_mc(g, p_fail, window, trials, seed)

    def test_equals_per_trial_loop_at_the_real_budget(self):
        base = erdos_renyi(2000, 15.0 / 1999, (0.5, 1.0), seed=3)
        c = chunk(base)
        assert 2 <= c <= 20
        for window, p_fail in ((0, 0.5), (1, 0.7), (2, 0.0), (3, 1.0)):
            for trials in trial_counts(c):
                got = mc_union_connectivity(base, p_fail, window, trials=trials, seed=11)
                assert got == reference_mc(base, p_fail, window, trials, 11)

    def test_equals_per_trial_loop_below_one_batch_at_n_3000(self):
        # A sparse n = 3000 graph holds 5 trials per batch; 1 to 4 trials
        # fill less than one, and the shifted links have only their rows.
        base = sparse_3000()
        assert chunk(base) == 5
        for trials, window, p_fail in ((1, 0, 0.5), (2, 2, 0.5), (4, 1, 0.7), (3, 0, 0.0)):
            got = mc_union_connectivity(base, p_fail, window, trials=trials, seed=13)
            assert got == reference_mc(base, p_fail, window, trials, 13)

    @pytest.mark.parametrize("trials", [1, 2])
    def test_shifted_links_are_sized_by_the_trials_not_the_batch(self, trials):
        # At p_fail 1 no link comes up, so the labelling is free and the
        # peak is the two shifted link arrays, 16 bytes a link for each of
        # min(batch, trials) rows, plus one mask draw: well below the 5 rows
        # of a whole batch.
        base = sparse_3000()
        m = base.edge_count
        tracemalloc.start()
        try:
            got = mc_union_connectivity(base, 1.0, 0, trials=trials, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.successes == 0
        assert peak < 16 * m * (trials + 2) < 16 * m * chunk(base)

    def test_equals_per_trial_loop_across_draw_chunks(self):
        # Chunks of 1, 2 and 3 masks, and one chunk of the whole window,
        # draw the same stream as one draw of every mask.
        base = erdos_renyi(12, 0.3, (0.5, 1.0), seed=4)
        m = base.edge_count
        for draw in (1, m, 2 * m + 1, 3 * m, 1 << 15):
            with mock.patch.object(dynamics, "_BLOCK", draw):
                for window, p_fail in ((0, 0.5), (1, 0.9), (5, 0.0), (6, 0.8), (7, 1.0), (40, 0.95)):
                    got = mc_union_connectivity(base, p_fail, window, trials=30, seed=9)
                    assert got == reference_mc(base, p_fail, window, 30, 9)

    @pytest.mark.parametrize("p_fail", [0.0, 0.5, 0.92, 1.0])
    def test_trial_union_is_the_union_of_a_link_plans_live_links(self, p_fail):
        # Monte Carlo and the run's link plan draw one failure model: from
        # equal generators, a trial's union of W + 1 masks holds the links
        # that the plan over the base graph has up at some step 0 to W, for
        # windows inside one block of the plan and across several.
        base = erdos_renyi(30, 0.3, (0.5, 1.0), seed=6)
        ei, ej, _ = base.edges()
        m, keys = len(ei), ei * base.n + ej
        per = 2**15 // m
        assert per < 300
        for window in (0, 1, 6, per - 1, per, 3 * per + 5):
            for t in range(3):
                got = percolation._union_up(np.random.default_rng([5, 0xACC3, t]), window + 1, m, p_fail)
                plan = dynamics._link_plan([base], 1, window + 1, p_fail, np.random.default_rng([5, 0xACC3, t]),
                                           DelaySchedule(0))
                want = np.zeros(m, dtype=bool)
                for up_i, up_j, *_ in plan:
                    want[np.searchsorted(keys, up_i * base.n + up_j)] = True
                assert got.tolist() == want.tolist()

    def test_memory_is_bounded_by_the_link_count_not_the_window(self):
        # At p_fail 1 no link ever comes up, so every mask of the window is
        # drawn: 20,001 masks of about 240 links, 38 MiB in one draw.
        base = erdos_renyi(50, 0.2, (0.5, 1.0), seed=1)
        assert base.edge_count > 200
        tracemalloc.start()
        try:
            got = mc_union_connectivity(base, 1.0, 20_000, trials=2, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.successes == 0
        assert peak < 2**21

    def test_batch_split_leaves_every_estimate_unchanged(self):
        base = erdos_renyi(60, 0.08, (0.5, 1.0), seed=5)
        want = mc_union_connectivity(base, 0.6, 1, trials=300, seed=2)
        for per_batch in (1, 2, 299, 300, 301):
            with mock.patch.object(percolation, "_MC_BLOCK", per_batch * (base.n + base.edge_count)):
                assert mc_union_connectivity(base, 0.6, 1, trials=300, seed=2) == want
