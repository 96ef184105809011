"""Build workload inputs in one process and time each set-up.

    python3 bench/build_inputs.py SEED REPEATS OUT WORKLOAD [WORKLOAD ...]

Writes ``OUT/<workload>/setup<k>`` for k < REPEATS and prints one JSON
object, workload -> list of set-up times in seconds. Run from the root
of a checkout, with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    seed, repeats, out, names = int(argv[0]), int(argv[1]), argv[2], argv[3:]
    import mfvol.cli  # noqa: F401  (untimed: set-up time excludes imports)
    from workloads import WORKLOADS

    times: dict[str, list[float]] = {}
    for name in names:
        for k in range(repeats):
            start = time.perf_counter()
            WORKLOADS[name].setup(os.path.join(out, name, f"setup{k}"), seed)
            times.setdefault(name, []).append(time.perf_counter() - start)
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
