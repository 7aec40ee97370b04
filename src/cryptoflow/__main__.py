"""Process entry point: the ``cryptoflow`` console script and ``python -m cryptoflow``.

The laboratory's matrices are at most 5x5, so a BLAS or OpenMP worker pool
never gets work, yet each pool numpy and scipy load spins up and costs CPU.
``main`` sets their thread counts to 1 before anything loads numpy; a
variable the user has set is left as it is.  ``import cryptoflow`` sets
nothing, so a host process that imports the library keeps its own threading.
"""

import os
import sys
from typing import NoReturn

NATIVE_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def main() -> NoReturn:
    """Run ``cli.main`` and end the process without teardown.

    The native thread counts default to 1 first.  ``cli.main`` has flushed
    stdout; os._exit then skips the interpreter's teardown (unloading numpy
    and scipy), which takes longer than a small verb's work, so atexit
    handlers do not run.  argparse's SystemExit for --help and --version
    leaves the same way.
    """
    for var in NATIVE_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from . import cli

    try:
        code = cli.main()
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
