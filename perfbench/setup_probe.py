"""Time one workload's set-up in a fresh interpreter.

Set-up is what a user pays before the first request: importing ``repro``,
building the function bank (bit-streams included) and the fleet, plus the
front door where the workload has one.  The benchmark's own input generation
is timed separately and left out.

Run with:  python3 perfbench/setup_probe.py <workload> <seed>
Prints one JSON object: {"setup_s": ...}.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from scenarios import WORKLOADS

    workload = WORKLOADS[name]
    bank = workload.make_bank()
    imported_and_bank = time.perf_counter() - _START
    inputs = workload.make_inputs(bank, seed)
    start = time.perf_counter()
    workload.build(bank, inputs)
    built = time.perf_counter() - start
    print(json.dumps({"setup_s": imported_and_bank + built}))


if __name__ == "__main__":
    main()
