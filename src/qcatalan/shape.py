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

Every family member is palindromic, c_k = c_{d-k}, and then both scans
read only the head c_0..c_{d//2}: a log-concavity violation at k mirrors
to one at d - k, and a strict fall in the head mirrors to a strict rise
in the tail.  Input that is not palindromic is scanned in full.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

from .moments import _check_distribution

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
]


class ShapeReport(NamedTuple):
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
    return _interior_unimodal(p.coeffs, p.is_palindromic())


def _interior_unimodal(cs: tuple[int, ...], palindromic: bool) -> tuple[bool, int | None]:
    """interior_unimodal on coefficients cs of degree d >= 2.

    A palindrome is scanned up to its middle, k <= d//2, where a rise after
    a fall is the first violation.  If the head falls and never rises again,
    its last strict fall at j mirrors to the first rise of the tail,
    d - j + 1, and no rise comes before it.
    """
    d = len(cs) - 1
    fell = 0  # index of the last strict fall so far
    for k in range(2, d // 2 + 1 if palindromic else d):
        if cs[k] > cs[k - 1]:
            if fell:
                return False, k
        elif cs[k] < cs[k - 1]:
            fell = k
    if fell and palindromic:
        return False, d - fell + 1
    return True, None


def _lc_violations(cs: tuple[int, ...], palindromic: bool) -> list[int]:
    """The k in [1, d-1] with c_k^2 < c_{k-1} c_{k+1}, ascending.

    Of a palindrome only the head k <= d/2 is scanned: a violation at k
    mirrors to d - k, so the largest head violation is the trim depth the
    whole list needs and the smallest is its first violation.
    """
    stop = (len(cs) - 1) // 2 + 1 if palindromic else len(cs) - 1
    return [k for k in range(1, stop) if cs[k] * cs[k] < cs[k - 1] * cs[k + 1]]


def min_logconcave_t(p: IntPoly) -> int | None:
    """Smallest trim depth t making the trimmed vector log-concave.

    The triple at index k survives trimming at level t exactly when
    t + 1 <= k <= d - t - 1, so each violating k forces t >= min(k, d - k);
    the answer is the largest such forcing, found from a single pass that
    collects the violating indices.  Candidate trims stop at
    t = floor((d - 2)/2), past which the trimmed range is empty; None means
    no candidate works.
    """
    palindromic = _check_distribution(p)
    d = p.degree
    if d < 4:
        warnings.warn(f"degree {d} leaves little to trim; result is near-vacuous")
    if not palindromic:
        warnings.warn("input is not palindromic; trimming both ends is asymmetric here")
    return _trim_depth(_lc_violations(p.coeffs, palindromic), d)


def _trim_depth(violations: list[int], d: int) -> int | None:
    """Smallest trim depth clearing every violating index, or None."""
    needed = max((min(k, d - k) for k in violations), default=0)
    return needed if needed <= (d - 2) // 2 else None


def min_logconcave_t_bruteforce(p: IntPoly) -> int | None:
    """Same answer as min_logconcave_t, straight from the definition.

    Tries t = 0, 1, 2, ... and re-tests the whole trimmed range each time.
    Deliberately unclever; the independent oracle for the scanner.
    """
    _check_distribution(p)
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
    palindromic = _check_distribution(p)
    cs, d = p.coeffs, p.degree
    if d >= 2:
        uni, uni_viol = _interior_unimodal(cs, palindromic)
    else:
        uni, uni_viol = True, None
    viols = _lc_violations(cs, palindromic)
    return ShapeReport(
        family=family,
        n=n,
        degree=d,
        interior_unimodal=uni,
        first_unimodality_violation=uni_viol,
        min_logconcave_t=_trim_depth(viols, d),
        first_lc_violation_at_t0=viols[0] if viols else None,
    )


def scan_family(
    family: str, n_from: int, n_to: int, m: int | None = None
) -> list[ShapeReport]:
    """Shape reports for family members n_from..n_to inclusive, in order.

    Members come from one iter_family sweep, which checks the arguments
    before it builds anything.  Only the reports are kept, not the members,
    and the whole scan runs in the calling process.
    """
    members = iter_family(family, n_from, n_to, m)
    return [shape_report(p, family, n) for n, p in zip(range(n_from, n_to + 1), members)]
