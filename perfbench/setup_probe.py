"""One cold set-up of spin-atlas, timed from inside a fresh interpreter.

Set-up is what every CLI invocation pays before it computes: importing the
package (numpy, scipy and the catalog, which is built at import) and warming
up the eigensolve kernel, which compiles it when the numba backend is active.
Prints one JSON line with the phases in seconds.  run.py starts this script
several times per run and reports the median ``total_s`` as ``setup_s``.
"""

import json
import time

t0 = time.perf_counter()
import spin_atlas.cli  # noqa: E402,F401
from spin_atlas import catalog, kernels  # noqa: E402

t1 = time.perf_counter()
entries = [catalog.get_system(i) for i in catalog.system_ids()]
t2 = time.perf_counter()

import numpy as np  # noqa: E402

# One real and one complex batch: each has its own compiled kernel.
for dtype in (float, complex):
    kernels.batched_eigh_project(np.eye(3, dtype=dtype)[None], np.array([0.0, 1.0, 0.0]), 1, 1)
t3 = time.perf_counter()

print(json.dumps({
    "import_s": t1 - t0,
    "catalog_s": t2 - t1,
    "warmup_s": t3 - t2,
    "total_s": t3 - t0,
    "systems": len(entries),
}))
