"""Sparse recovery for signals with sparse representations in redundant
dictionaries: a signal-space CoSaMP implementation with pluggable support
identification backends, baseline algorithms, isometry diagnostics, and a
deterministic Monte-Carlo benchmark harness.

Each library module's ``__all__`` is the one list of its public names; the
package re-exports all of them.
"""

from . import analysis, bench, errors, linalg, model, projections, recovery
from .analysis import *  # noqa: F401,F403
from .bench import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .projections import *  # noqa: F401,F403
from .recovery import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (analysis, bench, errors, linalg, model, projections, recovery)
           for name in module.__all__]
