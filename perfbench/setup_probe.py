"""Set-up time in a fresh interpreter: import arcmetric, build surfaces and panels.

    python3 perfbench/setup_probe.py '{"surfaces": [[g,n,p], ...], "panels": [[g,n,p,k], ...]}'

Prints {"setup_s": seconds} on stdout.  Interpreter start and reading the
argument are outside the timed span.  worker.py runs it several times,
spread over the timed loop.
"""

import json
import os
import sys
import time

spec = json.loads(sys.argv[1])
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

t0 = time.perf_counter()
import arcmetric  # noqa: E402,F401
from arcmetric.topology import build_surface, enumerate_panel  # noqa: E402

surfaces = [build_surface(*sig) for sig in spec["surfaces"]]
panels = [enumerate_panel(build_surface(g, n, p), k) for g, n, p, k in spec["panels"]]
setup_s = time.perf_counter() - t0

print(json.dumps({"setup_s": setup_s, "panel_entries": [len(p) for p in panels]}))
