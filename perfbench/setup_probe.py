"""Set-up time in a fresh interpreter: import carnot.cli and build or load
every algebra the arguments name.

Usage: python3 -I perfbench/setup_probe.py SRC_DIR SOURCE...

Run from the repository root (file sources are relative to it).  Prints the
elapsed seconds, the machine slowdown sampled right after (see speed.py), and
the path carnot was imported from.
"""

import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import carnot.cli  # noqa: E402
from carnot import catalog  # noqa: E402
from carnot.algebra import InputError  # noqa: E402

for source in sys.argv[2:]:
    try:
        if os.path.exists(source):
            catalog.load_algebra(source)
        else:
            catalog.build(source)
    except InputError:
        pass  # the workload's exit-2 cases name no algebra
elapsed = time.perf_counter() - start

# imported only now, so that the timed imports are exactly carnot's
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import speed  # noqa: E402

print(repr(elapsed))
print(repr(speed.sample_slowdown(30)))
print(carnot.cli.__file__)
