"""The calibration child: a fixed amount of work that does not touch trsim.

    python -I perfbench/calibrate.py ITERATIONS

run.py times this child right before and right after each `trsim run`
child and divides by it, so that a slow spell of a shared host slows both
and cancels out. Its work is of the kind `trsim run` does: interpreter
start, `import numpy`, numpy scalar draws, float math, dict stores and
f-string formatting.
"""

import io
import math
import sys

import numpy as np

rng = np.random.default_rng(1)
buf = io.StringIO()
acc = 0.0
last = {}
for i in range(int(sys.argv[1])):
    x = float(rng.random())
    acc += math.log10(x + 1.0) * 0.5
    last[i & 1023] = acc
    buf.write(f"{i},{x:.17g},{acc:.17g},{'tr' if i & 1 else 'am'}\n")
print(len(buf.getvalue()), len(last))
