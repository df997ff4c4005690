"""Set-up probe: import the program, run the warm-up op, print 'ready'.

``run.py`` starts this in a fresh interpreter and times it from process
start to the 'ready' line; the BLAS thread setting is inherited from it.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

workloads.warm_up(workloads.import_program())
print("ready", flush=True)
