"""Entry point of the covsteer benchmark; see harness.py for what it measures.

    python3 perfbench/run.py --workload <solve|mc|cli|all> \
        --seed <n> --seconds <s> --trace <0|1>

Thread counts are pinned here, before numpy is imported, so that BLAS and
covsteer's Monte Carlo each use one thread.
"""

import os
import sys

for _var in ("COVSTEER_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402  (must follow the thread settings)

if __name__ == "__main__":
    sys.exit(harness.main())
