"""Shared test settings.

Property tests run under one hypothesis profile: examples are derived from
the test source rather than drawn at random, no deadline applies (timings
on a loaded host vary too much for one), and no example database is kept.
The same source therefore always runs the same examples.
"""

import os
import tempfile

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
