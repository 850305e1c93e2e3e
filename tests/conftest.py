"""Suite-wide setup.

One BLAS thread unless the environment says otherwise: the suite's matrices
are too small to gain from a second thread, and on shared cores spin-waiting
BLAS threads slow network training several-fold.  This must run before numpy
is first imported.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
