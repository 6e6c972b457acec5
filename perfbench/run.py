"""Benchmark entry point; run from the root of a smoothnorm checkout.

    python3 perfbench/run.py --workload predual7 --seed 1 --seconds 25 \
        --trace 0

Pins BLAS threading before numpy loads, so that every commit measured
sees the same setting, and puts the checkout's ``src`` first on the
import path.  Exits 2 without a result when there is no ``src/smoothnorm``
to measure.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "smoothnorm" / "__init__.py").is_file():
        print(f"no smoothnorm sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    sys.exit(harness.main(ROOT))
