"""Shared test settings.

Property tests run under one hypothesis profile: examples are derived from
the test source rather than drawn at random, no deadline applies (timings
on a loaded host vary too much for one), and no example database is kept.
The same source therefore always runs the same examples.

The ``hop_diameter`` fixture gives the hop diameter of a graph, which the
spectral checks need for the bound lambda2 >= 1 / (n * diameter).
"""

import os
import tempfile

import numpy as np
import pytest

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # only the property tests need it; they fail to import
    pass
else:
    settings.register_profile("dra_sim", derandomize=True, deadline=None, database=None)
    settings.load_profile("dra_sim")
    # hypothesis also caches constants scraped from the package source, in
    # ./.hypothesis by default and already while collecting.  A temporary
    # directory, removed at exit, keeps them out of the working tree.
    if "HYPOTHESIS_STORAGE_DIRECTORY" not in os.environ:
        _storage = tempfile.TemporaryDirectory(prefix="dra-sim-hypothesis-")
        set_hypothesis_home_dir(_storage.name)


def _hop_diameter(g):
    """Largest hop distance of a connected graph: the least k with (I + A)^k > 0."""
    ei, ej, _ = g.edges()
    step = np.eye(g.n, dtype=np.int64)
    step[ei, ej] = step[ej, ei] = 1
    reach, hops = np.eye(g.n, dtype=bool), 0
    while not reach.all():
        grown = (reach @ step) > 0
        if np.array_equal(grown, reach):
            raise ValueError("a disconnected graph has no diameter")
        reach, hops = grown, hops + 1
    return hops


@pytest.fixture(scope="session")
def hop_diameter():
    return _hop_diameter
