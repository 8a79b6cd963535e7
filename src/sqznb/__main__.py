"""The ``python -m sqznb`` and installed ``sqznb`` entry point.

Loading numpy starts its OpenBLAS thread pool, one spinning worker per extra
CPU, and sqznb makes no BLAS call; so the process runs OpenBLAS with one
thread unless the user set a count.  ``import sqznb`` and ``sqznb.cli`` leave
the environment alone.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  the variable must be set before anything imports numpy

if __name__ == "__main__":
    main()
