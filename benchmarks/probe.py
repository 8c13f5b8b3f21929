"""Set-up probe: what a one-shot CLI user pays in a fresh interpreter.

    python3 benchmarks/probe.py '<argv as a JSON list>'

Times `import tau34.cli` with nothing else imported beforehand, then two
`main(argv)` calls, and prints the three times as JSON.  The second call is
warm, so the first call's excess over it is the lazy set-up (mpmath,
solve_bvp, ...) that the first call pays.  `run.py` starts it with `src` on
PYTHONPATH.
"""
import sys
import time

t0 = time.perf_counter()
import tau34.cli  # noqa: E402
t1 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

argv = json.loads(sys.argv[1])
with open(os.devnull, "w") as devnull, contextlib.redirect_stderr(devnull):
    times, codes = [], []
    for _ in range(2):
        t2 = time.perf_counter()
        codes.append(tau34.cli.main(argv))
        times.append(time.perf_counter() - t2)
print(json.dumps({"import_s": t1 - t0, "first_s": times[0],
                  "second_s": times[1], "codes": codes}))
