"""Shared test settings.

Property tests run under one hypothesis profile: examples are derived from
the test source rather than drawn at random, no deadline applies (timings
on a loaded host vary too much for one), and no example database is kept.
The same source therefore always runs the same examples.

The ``hop_diameter`` fixture gives the hop diameter of a graph, which the
spectral checks need for the bound lambda2 >= 1 / (n * diameter).

The report header (under -q, a line after the summary) names numpy's
version and whether its X86_V4 (AVX-512) dispatch is on: numpy's exp, log,
cbrt and fractional power differ from libm in the last bit on some inputs
with it on, so the pinned SHA-256s hold for one numpy build at one dispatch
level (see the README's Determinism).  Integer powers are products and do
not depend on it.
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


def numpy_dispatch() -> str:
    """numpy's version and the state of its X86_V4 dispatch, as one line."""
    try:
        features = np._core._multiarray_umath.__cpu_features__
    except AttributeError:  # a numpy that does not expose its dispatch
        return f"numpy {np.__version__}, X86_V4 dispatch unknown"
    state = "on" if features.get("X86_V4") else "off"
    return f"numpy {np.__version__}, X86_V4 dispatch {state}"


def pytest_report_header(config):
    return numpy_dispatch()


def pytest_terminal_summary(terminalreporter):
    if terminalreporter.verbosity < 0:  # -q drops the header: name the dispatch at the end
        terminalreporter.write_line(numpy_dispatch())


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
