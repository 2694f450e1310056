"""Fixed reference work that gauges how fast the machine runs right now.

The benchmark runs this program between its `qcat` invocations and scales
its timings by how long this takes, which cancels the machine's drift in
speed between runs.  The work resembles a `qcat` invocation but shares no
code with `qcatalan`, so a change to the program cannot move it: interpreter
start and the standard-library imports `qcat` needs, then q-Catalan
polynomials built by linear (1 - q^k) passes over big integers, their exact
moments, and their rows written as CSV and as JSON.  The last line of stdout
is the compute part's seconds, so that start-up and compute can scale
start-up and compute timings.
"""

import argparse  # noqa: F401  (imported for its start-up cost, as qcat does)
import concurrent.futures  # noqa: F401
import dataclasses  # noqa: F401
import itertools
import json
import sys
import time
from fractions import Fraction

SIZES = (60, 70, 80, 110)


def catalan_rows(n: int) -> tuple[str, str]:
    c = [1]
    for k in range(n + 2, 2 * n + 1):
        c = c + [0] * k
        c[k:] = [hi - lo for hi, lo in zip(c[k:], c)]
    for k in range(n, 1, -1):
        out = [0] * len(c)
        for r in range(k):
            out[r::k] = itertools.accumulate(c[r::k])
        c = out[: len(c) - k]
    mass = sum(c)
    mean = Fraction(sum(i * x for i, x in enumerate(c)), mass)
    second = Fraction(sum(i * i * x for i, x in enumerate(c)), mass)
    rows = [f"{k},{x},{float(Fraction(x, mass)):.12g}" for k, x in enumerate(c)]
    csv = "k,coeff,share\n" + "\n".join(rows) + f"\n{mean},{second - mean * mean}\n"
    return csv, json.dumps({"rows": [{"k": k, "coeff": str(x)} for k, x in enumerate(c)]}, indent=2)


def main() -> None:
    start = time.perf_counter()
    for n in SIZES:
        for text in catalan_rows(n):
            sys.stdout.write(text)
    sys.stdout.flush()
    sys.stdout.write(f"\n{time.perf_counter() - start!r}\n")


if __name__ == "__main__":
    main()
