"""Benchmark entry point; run from the root of a checkout.

    python3 bench/run.py --workload dense-families --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

BLAS threads are pinned to 1 here, before numpy is first imported, so
they apply to this process and the interpreters it starts.  The last
line of stdout is the JSON result.  Exits 2 without a result when the
checkout holds no ibap sources.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CLI = os.path.join(os.path.dirname(HERE), "src", "ibap", "cli.py")

if __name__ == "__main__":
    if not os.path.isfile(CLI):
        print(f"error: no ibap sources at {os.path.relpath(CLI)}; run from a checkout "
              "of the repository", file=sys.stderr)
        sys.exit(2)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, HERE)
    import harness

    sys.exit(harness.main())
