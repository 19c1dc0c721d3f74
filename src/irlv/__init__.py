"""In-region location verification toolkit.

Synthesizes wireless attenuation data over urban scenarios, trains a
neural-network verifier, compares it against the Neyman-Pearson test where
that test is tractable, and searches for good base-station placements.
"""

import os

# irlv's parallelism is --jobs, so BLAS gets one thread per process: a
# second OpenBLAS thread saved the MLP's products no wall time and spun on
# the other core after them.  OpenBLAS reads the variable when numpy first
# loads, which for the CLI and its --jobs workers (they inherit the
# environment) is after this line.  A caller's value is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
