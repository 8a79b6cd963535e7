"""The ``python -m sqznb`` and installed ``sqznb`` entry point.

Loading numpy starts its OpenBLAS thread pool, one spinning worker per extra
CPU, and sqznb makes no BLAS call; so the process runs OpenBLAS with one
thread unless the user set a count.  A command makes almost no cyclic
garbage, so ``main`` runs it with the cycle collector off and freezes the
heap before exit, where the interpreter would otherwise walk it again.
``import sqznb`` and ``sqznb.cli`` change no environment variable, and only
``main`` touches the collector, so importing this module leaves it on.
"""

import gc
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def main():
    """Run the CLI; click's exit code (0, 2 or 3) passes through as SystemExit."""
    gc.disable()
    try:
        from .cli import main as cli  # imported with the collector off and the thread count set

        cli()
    finally:
        gc.freeze()


if __name__ == "__main__":
    main()
