"""Resilient distributed resource allocation: simulation and analysis.

Agents holding shares of a fixed resource trade flows with neighbors over
an unreliable network so that the sum stays exactly conserved at every step
while the aggregate cost descends to the constrained optimum.  The package
provides the update dynamics (with link failures, delays, and nonlinear
per-node and per-link transforms), the analytical bounds that certify them,
a centralized oracle for ground truth, and a scenario runner with a CLI.

Every name in a module's ``__all__`` is re-exported here.
"""

from . import dynamics, errors, graph, mappings, objective, percolation, scenario
from .dynamics import *  # noqa: F403
from .errors import *  # noqa: F403
from .graph import *  # noqa: F403
from .mappings import *  # noqa: F403
from .objective import *  # noqa: F403
from .percolation import *  # noqa: F403
from .scenario import *  # noqa: F403

__version__ = "0.9.0"

__all__ = ["__version__"]
for _module in (errors, graph, mappings, objective, percolation, dynamics, scenario):
    __all__ += _module.__all__
del _module
