"""One benchmark set-up: import cfsurv and generate a workload's inputs.

Runs in a fresh interpreter so that the import is timed cold:

    python3 benchmark/setup_inputs.py SRC WORKLOAD SEED SCALE OUT_DIR

Prints {"setup_s": seconds, "inputs": {name: path}} as JSON.
"""

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    src, workload, seed, scale, out_dir = argv
    start = time.perf_counter()
    sys.path.insert(0, src)
    import cfsurv  # noqa: F401  (the import is part of what is timed)
    from workloads import SCALES, WORKLOADS

    inputs = WORKLOADS[workload].make_inputs(int(seed), SCALES[scale], Path(out_dir))
    print(json.dumps({"setup_s": time.perf_counter() - start, "inputs": inputs}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
