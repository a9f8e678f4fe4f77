"""Set-up probe: a fresh process imports ``wintrack``, parses one
workload's inputs and builds its trackers, then says how long that took.

run.py starts several probes one after another before its timed phase and
reports the median as ``setup_s``.  The probe prints one JSON line whose
"end" is ``perf_counter()`` when set-up finished; the parent subtracts its
own reading taken just before the spawn (both read CLOCK_MONOTONIC), so
the figure runs from process start.

Usage: python3 bench/probe.py WORKLOAD DATA_DIR SEED
"""

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    workload, data_dir, seed = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3])
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import wintrack  # noqa: F401  (the import is what is timed)
    import_s = perf_counter() - t0
    import workloads

    t1 = perf_counter()
    built = workloads.WORKLOADS[workload](data_dir, seed)
    end = perf_counter()
    print(json.dumps({"end": end, "import_s": import_s, "read_s": built.read_s,
                      "build_s": end - t1 - built.read_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
