"""Set-up probe: import bafsynth and parse QDIMACS files, then time the
host-speed kernel.

    python3 perfbench/setup_probe.py SRC_DIR FILE...

Prints two numbers: `perf_counter()` when the files are parsed, and the
median of PASSES kernel passes (calib.py) run afterwards in this process.
run.py times set-up from just before it starts this interpreter to the
first number (on Linux `perf_counter` is the system-wide monotonic clock)
and divides it by the host factor of the second: the kernel runs in this
process because the parent may sit on another core, whose load differs.
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, sys.argv[1])

from bafsynth import cli, model  # noqa: E402  (cli: the commands' module)

for name in sys.argv[2:]:
    model.parse_qdimacs(Path(name).read_text(encoding="utf-8"))
done = perf_counter()

import statistics  # noqa: E402

import calib  # noqa: E402

PASSES = 7
print(done, statistics.median(calib.pass_s() for _ in range(PASSES)))
