"""Set-up probe, run in a fresh interpreter by run.py.

Imports ``uotlab`` and ``uotlab.cli`` from the checkout's ``src`` and builds
one workload's problems, then prints the two times as JSON.  run.py measures
the probe's whole wall time (interpreter start to exit) as ``setup_s``.

    python3 perfbench/probe.py <workload> <data-seed|-> <run-seed>
"""

import json
import os
import sys
import time

t_start = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import uotlab  # noqa: E402
import uotlab.cli  # noqa: E402

t_import = time.perf_counter()

from workloads import build_problems  # noqa: E402

workload, data_seed, run_seed = sys.argv[1:4]
build_problems(workload, None if data_seed == "-" else int(data_seed), int(run_seed))
t_gen = time.perf_counter()
print(json.dumps({"import_s": t_import - t_start, "gen_s": t_gen - t_import}))
