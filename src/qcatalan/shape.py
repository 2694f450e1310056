"""Unimodality and log-concavity scans over coefficient polynomials.

The q-Catalan coefficient sequences have ragged edges: the constant and
leading coefficients are 1 with a 0 right next to them, so the full vector
is never unimodal and never log-concave.  The interesting questions live in
the interior, hence two trimmed notions:

  * interior unimodality drops exactly the first and last coefficient and
    asks for a weak rise-then-fall in what remains;
  * level-t log-concavity drops the first t and last t coefficients and
    asks for c_k^2 >= c_{k-1} c_{k+1} throughout what remains.

min_logconcave_t finds the smallest working t by locating every violating
index once; min_logconcave_t_bruteforce re-derives it straight from the
definition and exists purely to keep the fast scanner honest.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

# q_catalan is re-exported: code that wraps or reads the builders through
# this module (the benchmark's tracer) finds it here.
from .polyq import IntPoly, iter_family, q_catalan  # noqa: F401

__all__ = [
    "ShapeReport",
    "interior_unimodal",
    "min_logconcave_t",
    "min_logconcave_t_bruteforce",
    "shape_report",
    "scan_family",
    "pool_size",
    "split_range",
]


@dataclass(frozen=True)
class ShapeReport:
    """Shape facts for one family member."""

    family: str
    n: int
    degree: int
    interior_unimodal: bool
    first_unimodality_violation: int | None
    min_logconcave_t: int | None
    first_lc_violation_at_t0: int | None


def interior_unimodal(p: IntPoly) -> tuple[bool, int | None]:
    """Weak unimodality of the coefficients with both endpoints dropped.

    Returns (True, None) when c_1..c_{d-1} weakly rises then weakly falls,
    else (False, k) with k the first index that strictly rises after a
    strict fall.  Needs degree >= 2 so the interior is nonempty.
    """
    if p.is_zero() or p.degree < 2:
        raise ValueError("interior unimodality needs degree >= 2")
    cs = p.coeffs
    falling = False
    for k in range(2, len(cs) - 1):
        if cs[k] > cs[k - 1]:
            if falling:
                return False, k
        elif cs[k] < cs[k - 1]:
            falling = True
    return True, None


def _validate_shape_input(p: IntPoly) -> None:
    if p.is_zero():
        raise ValueError("zero polynomial has no shape")
    if any(c < 0 for c in p.coeffs):
        raise ValueError("negative coefficient; shape scans expect a distribution")


def _lc_violations(p: IntPoly) -> list[int]:
    """All k in [1, d-1] with c_k^2 < c_{k-1} c_{k+1}."""
    cs = p.coeffs
    return [
        k for k in range(1, len(cs) - 1) if cs[k] * cs[k] < cs[k - 1] * cs[k + 1]
    ]


def min_logconcave_t(p: IntPoly) -> int | None:
    """Smallest trim depth t making the trimmed vector log-concave.

    The triple at index k survives trimming at level t exactly when
    t + 1 <= k <= d - t - 1, so each violating k forces t >= min(k, d - k);
    the answer is the largest such forcing, found from a single pass that
    collects the violating indices.  Candidate trims stop at
    t = floor((d - 2)/2), past which the trimmed range is empty; None means
    no candidate works.
    """
    _validate_shape_input(p)
    d = p.degree
    if d < 4:
        warnings.warn(f"degree {d} leaves little to trim; result is near-vacuous")
    if not p.is_palindromic():
        warnings.warn("input is not palindromic; trimming both ends is asymmetric here")
    return _trim_depth(_lc_violations(p), d)


def _trim_depth(violations: list[int], d: int) -> int | None:
    """Smallest trim depth clearing every violating index, or None."""
    needed = max((min(k, d - k) for k in violations), default=0)
    return needed if needed <= (d - 2) // 2 else None


def min_logconcave_t_bruteforce(p: IntPoly) -> int | None:
    """Same answer as min_logconcave_t, straight from the definition.

    Tries t = 0, 1, 2, ... and re-tests the whole trimmed range each time.
    Deliberately unclever; the independent oracle for the scanner.
    """
    _validate_shape_input(p)
    cs = p.coeffs
    d = p.degree
    for t in range((d - 2) // 2 + 1):
        if all(
            cs[k] * cs[k] >= cs[k - 1] * cs[k + 1] for k in range(t + 1, d - t)
        ):
            return t
    return None


def shape_report(p: IntPoly, family: str, n: int) -> ShapeReport:
    """Assemble the shape facts for one polynomial.

    Degree 0 and 1 inputs have an empty interior and are reported as
    vacuously unimodal rather than rejected, so family scans can start low.
    """
    _validate_shape_input(p)
    d = p.degree
    if d >= 2:
        uni, uni_viol = interior_unimodal(p)
    else:
        uni, uni_viol = True, None
    viols = _lc_violations(p)
    return ShapeReport(
        family=family,
        n=n,
        degree=d,
        interior_unimodal=uni,
        first_unimodality_violation=uni_viol,
        min_logconcave_t=_trim_depth(viols, d),
        first_lc_violation_at_t0=viols[0] if viols else None,
    )


def pool_size(requested: int, jobs: int, cpus: int | None = None) -> int:
    """Worker processes for a scan: min(requested, cpus, jobs), at least 1.

    cpus defaults to os.cpu_count().  A process pool under fork starts all
    its workers at once, so the request alone must never set the size.
    """
    if cpus is None:
        cpus = os.cpu_count() or 1
    return max(1, min(requested, cpus, jobs))


def _chunk_cost(n_from: int, n_to: int) -> int:
    """Relative cost of scanning n_from..n_to as one chunk.

    A member of size n has degree ~ n^2 and coefficients of ~ n bits, so a
    step plus its scan costs ~ n^3, and the from-scratch seed, about 2n
    passes, ~ n^4 / 8 in the same units (measured on catalan, n = 60..200).
    """
    def cubes(k: int) -> int:  # 1^3 + ... + k^3
        return (k * (k + 1) // 2) ** 2

    return n_from ** 4 // 8 + cubes(n_to) - cubes(n_from - 1)


def split_range(n_from: int, n_to: int, parts: int) -> list[tuple[int, int]]:
    """Cut n_from..n_to into at most `parts` contiguous chunks, in order,
    minimizing the largest _chunk_cost.  Fewer chunks come back when
    another seed would cost more than it saves."""

    def greedy(limit: int) -> list[tuple[int, int]]:
        chunks = []
        lo = n_from
        while lo <= n_to:
            hi = lo
            while hi < n_to and _chunk_cost(lo, hi + 1) <= limit:
                hi += 1
            chunks.append((lo, hi))
            lo = hi + 1
        return chunks

    low, high = _chunk_cost(n_to, n_to), _chunk_cost(n_from, n_to)
    while low < high:
        mid = (low + high) // 2
        if len(greedy(mid)) <= parts:
            high = mid
        else:
            low = mid + 1
    return greedy(high)


def _scan_chunk(job: tuple[str, int, int, int | None]) -> list[ShapeReport]:
    family, n_from, n_to, m = job
    members = iter_family(family, n_from, n_to, m)
    return [shape_report(p, family, n) for n, p in zip(range(n_from, n_to + 1), members)]


def scan_family(
    family: str,
    n_from: int,
    n_to: int,
    m: int | None = None,
    workers: int = 1,
) -> list[ShapeReport]:
    """Shape reports for family members n_from..n_to inclusive, in order.

    Members come from iter_family.  workers > 1 gives each of up to
    pool_size(workers, number of n) processes one contiguous chunk of the
    range, seeded from scratch at its first n; results come back in n order
    either way, so output is deterministic.
    """
    iter_family(family, n_from, n_to, m)  # checks the arguments, builds nothing
    size = pool_size(workers, n_to - n_from + 1)
    jobs = [(family, lo, hi, m) for lo, hi in split_range(n_from, n_to, size)]
    if len(jobs) == 1:
        return _scan_chunk(jobs[0])
    with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
        return [r for chunk in pool.map(_scan_chunk, jobs) for r in chunk]
