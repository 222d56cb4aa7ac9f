"""Run the test suite's BLAS on one thread.

The suite's dense algebra is small (at most 256 x 1024), where a second BLAS
thread costs more in synchronisation than it saves.  pytest imports this
file before any test module loads numpy, so the settings take effect; a
value already set in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
