"""Process entry point: the ``cryptoflow`` console script and ``python -m cryptoflow``.

The laboratory's matrices are at most 5x5, so a BLAS or OpenMP worker pool
never gets work, yet each pool numpy and scipy load spins up and costs CPU.
``main`` sets their thread counts to 1 before anything loads numpy; a
variable the user has set is left as it is.  ``import cryptoflow`` sets
nothing, so a host process that imports the library keeps its own threading.
"""

import os
from typing import NoReturn

NATIVE_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def main() -> NoReturn:
    """Default the native thread counts to 1, then run the CLI (``cli.run``)."""
    for var in NATIVE_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from .cli import run

    run()


if __name__ == "__main__":
    main()
