"""Dense polynomial arithmetic over arbitrary-precision integers, plus
constructors for q-integers, Gaussian binomials, and the q-Catalan families.

A polynomial is stored as a tuple of signed big-integer coefficients, index k
holding the coefficient of q^k.  Intermediates of long division go negative,
so coefficients are signed even though every finished q-object (q-integer,
Gaussian binomial, q-Catalan of any flavor) ends up with nonnegative
coefficients, a palindromic profile, and coefficient sum equal to the value
of its defining expression at q = 1.

Every family member and every quotient prod(1 - q^a_i) / prod(1 - q^b_i)
comes from one construction kernel, in four parts:

  * Ledger.  The kernel holds the exponents as one signed multiset e,
    e[x] = #{i : a_i = x} - #{j : b_j = x}, so factors common to a and b
    cancel as e is counted.  (1 - q^x) is the product of the cyclotomic
    Phi_d over d | x, so the quotient is a polynomial exactly when its
    surplus, the sum of e[x] over the x that d divides, is >= 0 for every
    d.  The divisors come from trial division up to sqrt(x), and the
    surplus adds over a product, so a sweep step counts only the step
    e - e_prev and adds that to the previous member's surplus instead of
    recounting the member; a build from scratch is a step from the empty
    product 1.  A non-polynomial raises NotPolynomial before any
    coefficient list exists.
  * Pairs.  A denominator factor (1 - q^d) whose double 2d is a numerator
    exponent leaves the quotient (1 - q^2d) / (1 - q^d) = 1 + q^d, a
    single shifted addition instead of two passes.  This is Euler's
    prod(1 + q^d) = prod(1 - q^2d) / prod(1 - q^d); every q-Catalan
    denominator factor with d > n/2 pairs so, and each catalan sweep step
    takes 3 passes instead of 4.
  * Half build.  Multiplying by (1 - q^k) is a shifted subtraction, and
    dividing by it a strided prefix sum; both are causal on power series,
    so once the ledger has passed they are exact modulo q^h.  With equal
    list lengths the quotient is palindromic of degree D = sum(a) - sum(b),
    so only h = D // 2 + 1 coefficients are built: O(len(a) * D) work
    instead of the O(D^2) of naive convolution.  Each division runs as
    soon as the cyclotomic content of the partial product allows it, so
    every partial product is a polynomial too, palindromic or
    antipalindromic; each is held by its head alone, at most h
    coefficients, and a multiplication mirrors the few entries past the
    head that it reads.  The work is the sum of the partial heads' lengths.
    The passes rewrite the kernel's one list in place, a slice or a chunk
    at a time, so none holds more than _PASS_BLOCK new coefficients beside
    it and a build peaks near the size of its result, not twice that.
  * Mirror.  The upper half is the lower half reversed.  The coefficient
    sum, twice the head's sum less the middle coefficient, must then equal
    prod(a) / prod(b), an explicit check that stands in for the per-pass
    remainder checks the truncation drops.

The kernel refuses numerator exponents summing past SUM_LIMIT with
QuotientTooLarge, a ValueError (the command line exits 2), before it
allocates anything.

FAMILIES is the one registry of named families.  iter_family sweeps a
family over a range of n, stepping each member from the previous one in a
few such passes instead of the ~3n/2 a rebuild takes.  A QuotientSpec holds
the exponent multisets a and b, checked as the kernel checks them, and
preset gives a family member's spec with its common pairs cancelled;
quotient_poly builds a spec through the kernel.  poly_mul,
poly_div_exact, gaussian_binomial, q_catalan_via_binomial and
major_index_histogram do not use the kernel and serve as oracles for it.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "FAMILIES",
    "Family",
    "IntPoly",
    "NonzeroRemainder",
    "NotPolynomial",
    "QuotientSpec",
    "QuotientTooLarge",
    "SUM_LIMIT",
    "poly_mul",
    "poly_div_exact",
    "qint",
    "gaussian_binomial",
    "q_catalan",
    "q_catalan_via_binomial",
    "q_catalan_second",
    "q_catalan_general",
    "get_family",
    "iter_family",
    "quotient_poly",
    "preset",
    "major_index_histogram",
]

MAJOR_INDEX_MAX_N = 14
# Largest numerator exponent sum the construction kernel accepts.  The
# coefficient lists grow with it; `general --preset catalan --n 1000`
# (sum 1499499) stays legal.
SUM_LIMIT = 2 ** 22


class NonzeroRemainder(ArithmeticError):
    """Polynomial division left a nonzero remainder."""


class NotPolynomial(ArithmeticError):
    """A quotient of binomial products has no polynomial value."""


class QuotientTooLarge(ValueError):
    """The numerator exponents sum past SUM_LIMIT; nothing was built."""


# Past this many nonzero terms an IntPoly repr shows half of them, "...", the last.
_REPR_TERMS = 8


def _poly_str(coeffs: Sequence[int]) -> str:
    """The trimmed coefficient list as a sum of terms, as IntPoly's repr
    shows it.  Only the coefficients it shows are turned into text."""
    shown = list(itertools.islice((k for k, c in enumerate(coeffs) if c), _REPR_TERMS + 1))
    if len(shown) > _REPR_TERMS:
        shown[_REPR_TERMS // 2:] = [None, len(coeffs) - 1]
    parts = []
    for k in shown:
        if k is None:
            parts.append("...")
            continue
        c = coeffs[k]
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        term = str(abs(c)) if k == 0 else mag + ("q" if k == 1 else f"q^{k}")
        sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
        parts.append(sign + term)
    return " ".join(parts) or "0"


class _Frozen:
    """Base of the records that validate or index their own way.

    The fields are the subclass's __slots__, set once in __init__ through
    object.__setattr__; equality, hashing, copying and the repr go by their
    values in that order, and assignment raises AttributeError.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class IntPoly(_Frozen):
    """Immutable dense polynomial with exact integer coefficients.

    The zero polynomial is the empty coefficient tuple; its degree is
    undefined and asking for it raises.  Trailing zero coefficients are
    trimmed on construction, so the trailing stored coefficient is nonzero
    whenever the polynomial is nonzero.  Coefficients must be integers
    (operator.index); a float or a string raises TypeError.
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = tuple(map(operator.index, coeffs))
        if cs and cs[-1] == 0:
            end = len(cs) - 1
            while end and cs[end - 1] == 0:
                end -= 1
            cs = cs[:end]
        object.__setattr__(self, "coeffs", cs)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("degree of the zero polynomial is undefined")
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        if k < 0:
            raise IndexError("coefficient index must be nonnegative")
        return self.coeffs[k] if k < len(self.coeffs) else 0

    def is_palindromic(self) -> bool:
        """Whether c_k = c_{d-k} for every k; compares in place, without a
        reversed copy of the coefficients."""
        cs = self.coeffs
        head = itertools.islice(cs, len(cs) // 2)
        return bool(cs) and all(map(operator.eq, head, reversed(cs)))

    def __repr__(self) -> str:
        return f"IntPoly({_poly_str(self.coeffs)})"


def poly_mul(p: IntPoly, r: IntPoly) -> IntPoly:
    """Coefficient convolution; degree adds (zero absorbs)."""
    if p.is_zero() or r.is_zero():
        return IntPoly()
    pc, rc = p.coeffs, r.coeffs
    out = [0] * (len(pc) + len(rc) - 1)
    for i, a in enumerate(pc):
        if a == 0:
            continue
        for j, b in enumerate(rc):
            out[i + j] += a * b
    return IntPoly(out)


def poly_div_exact(p: IntPoly, d: IntPoly) -> IntPoly:
    """Exact quotient p / d over the integers.

    Long division from the top coefficient; raises NonzeroRemainder when no
    integer-coefficient quotient with zero remainder exists.
    """
    if d.is_zero():
        raise ValueError("division by the zero polynomial")
    if p.is_zero():
        return IntPoly()
    dc = d.coeffs
    if len(p.coeffs) < len(dc):
        raise NonzeroRemainder("divisor degree exceeds dividend degree")
    rem = list(p.coeffs)
    lead = dc[-1]
    quot = [0] * (len(rem) - len(dc) + 1)
    for i in range(len(rem) - 1, len(dc) - 2, -1):
        c = rem[i]
        if c == 0:
            continue
        qc, leftover = divmod(c, lead)
        if leftover:
            raise NonzeroRemainder(f"leading coefficient {c} not divisible by {lead}")
        shift = i - len(dc) + 1
        quot[shift] = qc
        for j, dcoef in enumerate(dc):
            rem[shift + j] -= qc * dcoef
    if any(rem):
        raise NonzeroRemainder("division is not exact")
    return IntPoly(quot)


# -- linear passes for (1 - q^k) factors ------------------------------------

# Most new coefficients a pass holds beside the list it rewrites.
_PASS_BLOCK = 2 ** 11


def _shift_in_place(c: list[int], k: int, size: int, op: Callable[[int, int], int]) -> list[int]:
    """c_i = op(c_i, c_{i-k}) for k <= i < size, after extending c with
    zeros to size.  The slices are rewritten from the top down, so the
    entries each one reads below it still hold their old values, whatever k
    is."""
    c.extend(itertools.repeat(0, size - len(c)))
    for end in range(size, k, -_PASS_BLOCK):
        start = max(end - _PASS_BLOCK, k)
        c[start:end] = map(op, c[start:end], c[start - k:end - k])
    return c

def _mul_one_minus_qpow(c: list[int], k: int, size: int) -> list[int]:
    """c * (1 - q^k) modulo q^size, for len(c) <= size <= len(c) + k; c
    is rewritten in place and returned."""
    return _shift_in_place(c, k, size, operator.sub)

def _mul_one_plus_qpow(c: list[int], k: int, size: int) -> list[int]:
    """c * (1 + q^k) modulo q^size, for len(c) <= size <= len(c) + k: one
    pass for the pair (1 - q^2k) / (1 - q^k); c is rewritten in place and
    returned."""
    return _shift_in_place(c, k, size, operator.add)

def _div_one_minus_qpow(c: list[int], k: int, size: int) -> list[int]:
    """c / (1 - q^k) modulo q^size, for size <= len(c); c is cut to size,
    rewritten in place and returned.

    Per residue class mod k the quotient is a prefix sum, which runs at C
    speed through itertools.accumulate, in chunks of at most _PASS_BLOCK
    terms: each later chunk starts from the class's last value.  (One
    prefix sum over a whole class holds the class in new integers at once:
    half the list for k = 2.)  Output
    index i reads inputs 0..i only, so the pass is exact modulo q^size
    whether or not the division leaves a remainder further up.
    """
    del c[size:]
    span = k * _PASS_BLOCK
    for r in range(min(k, size)):
        c[r:r + span:k] = itertools.accumulate(c[r:r + span:k])
        for s in range(r + span, size, span):
            c[s - k:s + span:k] = itertools.accumulate(c[s:s + span:k], initial=c[s - k])
    return c

def _div_exact(c: list[int], k: int) -> list[int]:
    """Exactly divide by (1 - q^k), rewriting c in place and returning it:
    the top k running sums must come out zero, otherwise NonzeroRemainder."""
    n = len(c)
    if n <= k:
        raise NonzeroRemainder(f"cannot divide degree {n - 1} by (1 - q^{k})")
    _div_one_minus_qpow(c, k, n)
    if any(c[n - k:]):
        raise NonzeroRemainder(f"division by (1 - q^{k}) is not exact")
    del c[n - k:]
    return c


# -- the construction kernel -----------------------------------------------------

def _check_exponents(a: Iterable[int], b: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """a and b as int tuples, after checking equal lengths and positive entries.

    Entries go through operator.index, so a float, a string or a Fraction
    raises TypeError instead of being truncated or parsed.
    """
    a, b = tuple(map(operator.index, a)), tuple(map(operator.index, b))
    if len(a) != len(b):
        raise ValueError(f"sequence lengths differ: {len(a)} vs {len(b)}")
    for name, vals in (("a", a), ("b", b)):
        if any(v < 1 for v in vals):
            raise ValueError(f"{name} entries must be positive integers, got {vals}")
    return a, b


def _check_size(a: Iterable[int]) -> list[int]:
    """The numerator exponents a as a list, or QuotientTooLarge once their
    running sum passes SUM_LIMIT; a lazy range of any length is read only
    that far."""
    kept = []
    total = 0
    for x in a:
        total += x
        if total > SUM_LIMIT:
            raise QuotientTooLarge(
                f"numerator exponents sum to more than {SUM_LIMIT}; "
                "the coefficient lists would be too large to build"
            )
        kept.append(x)
    return kept


def _signed(a: Iterable[int], b: Iterable[int]) -> Counter[int]:
    """The signed exponent multiset e of prod(1 - q^a_i) / prod(1 - q^b_i),
    e[x] = #{i : a_i = x} - #{j : b_j = x}: the factors common to a and b
    cancel as e is counted.  +e holds the numerator's uncancelled
    exponents and -e the denominator's."""
    e = Counter(a)
    e.subtract(b)
    return e


def _divisors(x: int) -> list[int]:
    """The divisors of x, 1 and x first, by trial division up to sqrt(x);
    the ledger and the kernel's division schedule both read them."""
    found = []
    for d in range(1, math.isqrt(x) + 1):
        if x % d == 0:
            found.append(d)
            if d * d != x:
                found.append(x // d)
    return found


def _surplus(e: Counter[int]) -> Counter[int]:
    """The cyclotomic ledger of the quotient whose signed exponent multiset
    is e (see _quotient_coeffs).

    (1 - q^x) is the product of Phi_d over d | x, so the quotient holds
    Phi_d to the power sum(e[x] for x with d | x), the surplus at d, and it
    is a polynomial exactly when no surplus is negative.  The surplus of a
    product is the sum of its factors' surpluses.  Only the x with
    e[x] != 0 are read.
    """
    surplus: Counter[int] = Counter()
    for x, count in e.items():
        if count:
            for d in _divisors(x):
                surplus[d] += count
    return surplus


def _pair_doubles(e: Counter[int]) -> tuple[list[int], list[int], list[int]]:
    """The passes of the quotient whose signed exponent multiset is e, as
    (pairs, ups, downs): the ups are the exponents x with e[x] > 0, the
    downs those with e[x] < 0, each -e[x] times, and every down d whose
    double 2d is still among the ups becomes the pair 1 + q^d and takes
    that up along, largest down first.  pairs and the remaining ups come
    ascending, the remaining downs largest first, the order the kernel runs
    them in."""
    left = +e
    pairs, rest = [], []
    for d in sorted((-e).elements(), reverse=True):
        if left[2 * d]:
            left[2 * d] -= 1
            pairs.append(d)
        else:
            rest.append(d)
    pairs.reverse()
    return pairs, sorted(left.elements()), rest


def _schedule(
    plan: tuple[list[int], list[int], list[int]], content: Counter[int]
) -> list[tuple[int, int]]:
    """The passes of plan (pairs, ups, downs; see _pair_doubles) in the
    order the kernel runs them, as (k, kind): kind 0 multiplies by
    1 + q^k, 1 by 1 - q^k, and -1 divides by 1 - q^k.

    content is the cyclotomic content of the product the passes start
    from, the power of each Phi_d in it as _surplus counts it; it is not
    modified.  The pairs run first, ascending, then the ups, ascending, and
    after each up every pending down, largest first, all of whose divisors
    y still have positive content: 1 - q^x divides the partial product
    exactly when Phi_y does for every y | x, so every partial product is a
    polynomial.  Every 1 - q^x holds Phi_1 once and a pair holds none, so
    no down can run before the first up.  After the last up every pending
    down runs, largest first: the ledger has passed, so the content left
    then covers them all, and it is followed only up to the last up.
    """
    pairs, ups, downs = plan
    order = [(d, 0) for d in pairs]
    pending = downs
    if len(ups) > 1:
        content = content.copy()
        for d in pairs:
            content.update(_divisors(2 * d))
            content.subtract(_divisors(d))
        waiting = [(d, _divisors(d)) for d in downs]
        for u in ups[:-1]:
            order.append((u, 1))
            content.update(_divisors(u))
            held = []
            for d, divs in waiting:
                if all(content[x] > 0 for x in divs):
                    content.subtract(divs)
                    order.append((d, -1))
                else:
                    held.append((d, divs))
            waiting = held
        pending = [d for d, _ in waiting]
    order.extend((u, 1) for u in ups[-1:])
    order.extend((d, -1) for d in pending)
    return order


def _mirror(c: list[int], degree: int, sign: int, size: int) -> None:
    """Extend in place the head c of a polynomial P of the given degree with
    P_i = sign * P_{degree - i}, c_0..c_{degree // 2} at least, to its
    first min(size, degree + 1) coefficients."""
    have, end = len(c), min(size, degree + 1)
    if end > have:
        tail = c[degree - end + 1:degree - have + 1]
        tail.reverse()
        c.extend(tail if sign > 0 else map(operator.neg, tail))


# A kernel record (c, e, surplus): the full coefficient list of
# Q(a, b) = prod(1 - q^a_i) / prod(1 - q^b_i), its signed exponent multiset
# e, e[x] = #{i : a_i = x} - #{j : b_j = x}, and its ledger surplus (see
# _surplus).
_Record = tuple[list[int], Counter[int], Counter[int]]
# The empty product 1; never modified.
_ONE: _Record = ([1], Counter(), Counter())


def _quotient_coeffs(a: Iterable[int], b: Iterable[int], prev: _Record = _ONE) -> _Record:
    """The kernel record of Q(a, b), or NotPolynomial.

    prev is the record of a known quotient, by default _ONE, so a build
    from scratch is a step from 1; prev is not modified.  Every check runs
    before any coefficient list exists: the size limit, the lengths and
    entries, the degree D = sum(a) - sum(b) >= 0, and the ledger.  The
    exponents are held as one signed multiset e, so factors common to a
    and b cancel as e is counted, and Q(a, b) is prev's quotient times the
    quotient of the step e - e_prev.  The ledger adds the surplus of the
    step to prev's and passes when no divisor the step touches goes
    negative.  The quotient is then palindromic of degree D, so only its
    head modulo q^h, h = D // 2 + 1, is built; the tail is the head
    mirrored.  The passes come from _pair_doubles, for the step from
    prev's coefficients if it takes strictly fewer than the rebuild from 1
    (the two agree when prev is _ONE), else for the rebuild.  The rebuild
    is planned only when it can win, since any plan of e takes at least
    sum|e| / 2 passes.  _schedule orders the passes so that each division
    runs as soon as the cyclotomic content of the partial product allows,
    starting from prev's surplus or, for a rebuild, from none.  Every
    partial product P of degree deg is then a polynomial with
    P_i = sign * P_{deg - i}: sign flips at each pass by 1 - q^k and holds
    at a pair.  So only its head, min(deg // 2 + 1, h) coefficients, is
    held; a multiplication first mirrors the few entries past the head that
    it reads, and a division reads only the head.  The result must have
    coefficient sum prod(a) / prod(b), its value at q = 1; anything else
    raises ArithmeticError, since it means a construction error.
    """
    a, b = _check_exponents(_check_size(a), b)
    degree = sum(a) - sum(b)
    if degree < 0:
        raise NotPolynomial(f"quotient of a={a} by b={b} has negative degree {degree}")
    c, prev_e, content = prev
    e = _signed(a, b)
    step = e.copy()
    step.subtract(prev_e)
    change = _surplus(step)
    surplus = content.copy()
    surplus.update(change)
    if any(surplus[d] < 0 for d in change):
        raise NotPolynomial(f"quotient of a={a} by b={b} is not a polynomial")
    h = degree // 2 + 1
    plan = _pair_doubles(step)
    passes = sum(map(len, plan))
    if prev_e and 2 * passes >= sum(map(abs, e.values())):
        rebuild = _pair_doubles(e)
        if sum(map(len, rebuild)) <= passes:
            c, plan, content = [1], rebuild, Counter()
    deg = len(c) - 1
    sign = 1
    # the passes rewrite c in place, so this copy of the head is what keeps
    # _ONE and prev's coefficients unmodified
    c = c[:min(deg // 2 + 1, h)]
    for k, kind in _schedule(plan, content):
        if kind < 0:
            deg -= k
            c = _div_one_minus_qpow(c, k, min(deg // 2 + 1, h))
        else:
            size = min((deg + k) // 2 + 1, h)
            _mirror(c, deg, sign, size)
            c = (_mul_one_minus_qpow if kind else _mul_one_plus_qpow)(c, k, size)
            deg += k
        if kind:
            sign = -sign
    # 1 when the degree is even: the middle coefficient is not mirrored
    middle = 2 * h - degree - 1
    if deg != degree or (2 * sum(c) - middle * c[-1]) * math.prod(b) != math.prod(a):
        raise ArithmeticError(
            f"quotient of a={a} by b={b} does not sum to prod(a)/prod(b); "
            "construction is broken"
        )
    # coefficient degree - i equals coefficient i
    c.extend(itertools.islice(reversed(c), middle, None))
    return c, e, surplus


def _require_nonnegative(c: list[int], what: str) -> list[int]:
    """Return the palindromic list c, or raise ArithmeticError if a
    coefficient is negative; the head c_0..c_{len(c) // 2} decides.

    Every finished q-Catalan-type member has nonnegative coefficients, so a
    negative one means the construction itself went wrong.
    """
    if c and min(itertools.islice(c, len(c) // 2 + 1)) < 0:
        raise ArithmeticError(f"{what} has a negative coefficient; construction is broken")
    return c


# -- q-object constructors ----------------------------------------------------

def qint(k: int) -> IntPoly:
    """The q-integer [k] = 1 + q + ... + q^(k-1); rejects k < 1."""
    if k < 1:
        raise ValueError(f"q-integer index must be >= 1, got {k}")
    return IntPoly([1] * k)


def gaussian_binomial(n: int, k: int) -> IntPoly:
    """Gaussian binomial [n choose k]_q.

    Built by interleaved multiply-by-(1 - q^(n-k+i)) / divide-by-(1 - q^i)
    passes for i = 1..k at full length; each partial product is the
    Gaussian binomial [n-k+i choose i], so every division is exact.  Result
    is palindromic of degree k(n-k) with nonnegative coefficients summing
    to binomial(n, k).  Independent of the construction kernel, so it
    serves as an oracle for it.
    """
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    c = [1]
    for i in range(1, k + 1):
        c = _div_exact(_mul_one_minus_qpow(c, n - k + i, len(c) + n - k + i), i)
    return IntPoly(c)


def _member(name: str, n: int, m: int | None, label: str) -> IntPoly:
    """Member n of a registry family through the kernel, n = 1 included;
    get_family judges m."""
    fam = get_family(name, m)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    c = _quotient_coeffs(*fam.exponents(n, m))[0]
    return IntPoly(_require_nonnegative(c, label))


def q_catalan(n: int) -> IntPoly:
    """q-Catalan polynomial, the product of [n+i]/[i] for i = 2..n.

    Degree n(n-1), palindromic, coefficients sum to the Catalan number.
    """
    return _member("catalan", n, None, f"q_catalan({n})")


def q_catalan_via_binomial(n: int) -> IntPoly:
    """q-Catalan polynomial as [2n choose n]_q divided by [n+1].

    Independent construction route; must agree with q_catalan exactly.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    # [n+1] = (1 - q^(n+1)) / (1 - q)
    c = list(gaussian_binomial(2 * n, n).coeffs)
    c = _div_exact(_mul_one_minus_qpow(c, 1, len(c) + 1), n + 1)
    return IntPoly(_require_nonnegative(c, f"q_catalan_via_binomial({n})"))


def q_catalan_second(n: int) -> IntPoly:
    """The second q-analog of the Catalan numbers: [2]/[2n] * [2n choose n-1]_q.

    Degree (n-1)^2, palindromic, coefficient sum is again the Catalan number.
    """
    return _member("catalan2", n, None, f"q_catalan_second({n})")


def q_catalan_general(n: int, m: int) -> IntPoly:
    """Generalized (m-)Catalan polynomial: product of [(m-1)n+i]/[i], i = 2..n.

    Coefficients sum to binomial(mn, n)/((m-1)n + 1); m = 2 recovers
    q_catalan(n).  m is judged by get_family, which refuses m < 2 or None.
    """
    return _member("mcatalan", n, m, f"q_catalan_general({n}, {m})")


# -- the family registry and incremental sweeps --------------------------------

class Family(NamedTuple):
    """One named family of q-Catalan analogs.

    build(n, m) is the from-scratch constructor; iter_family calls it for
    the first member of a sweep only, and takes every later member from
    the kernel on exponents.  exponents(n, m) gives, for n >= 1, fresh
    lazy iterables over equally long multisets a and b with member(n) =
    prod(1 - q^a_i) / prod(1 - q^b_i), before common entries are
    cancelled; being lazy, they let a size check refuse a huge n without
    building its lists.  Both are empty at n = 1, where member(1) = 1.
    takes_m marks the families parameterized by m >= 2; get_family
    refuses an m for any other family.
    """

    name: str
    takes_m: bool
    build: Callable[[int, int | None], IntPoly]
    exponents: Callable[[int, int | None], tuple[Iterable[int], Iterable[int]]]

    def check_size(self, n: int, m: int | None = None) -> None:
        """Raise QuotientTooLarge if member n is past the construction
        kernel's size limit, without building its exponent lists."""
        _check_size(self.exponents(n, m)[0])


def _catalan2_exponents(n: int, m: int | None) -> tuple[Iterable[int], range]:
    # [2]/[2n] [2n choose n-1]_q with (1 - q^2n) cancelled; at n = 1 the
    # factor (1 - q^2) cancels it instead, and both lists are empty.
    return itertools.chain((2,) if n > 1 else (), range(n + 2, 2 * n)), range(1, n)


def _mcatalan_exponents(n: int, m: int) -> tuple[range, range]:
    base = (m - 1) * n
    return range(base + 2, base + n + 1), range(2, n + 1)


# The builders are looked up when called, not bound here, so wrappers
# installed on this module's functions see every build.
FAMILIES: dict[str, Family] = {
    f.name: f
    for f in (
        Family(
            "catalan",
            False,
            lambda n, m: q_catalan(n),
            lambda n, m: (range(n + 2, 2 * n + 1), range(2, n + 1)),
        ),
        Family(
            "catalan2",
            False,
            lambda n, m: q_catalan_second(n),
            _catalan2_exponents,
        ),
        Family(
            "mcatalan",
            True,
            lambda n, m: q_catalan_general(n, m),
            _mcatalan_exponents,
        ),
    )
}


def get_family(name: str, m: int | None = None) -> Family:
    """The registry entry for name, after checking that m suits it.

    m is required (and must be >= 2) for families that take it, and must
    be None for families that do not; anything else raises ValueError.  m
    goes through operator.index, so a float such as 2.5 raises TypeError.
    """
    fam = FAMILIES.get(name)
    if fam is None:
        raise ValueError(f"unknown family {name!r}; choose from {tuple(FAMILIES)}")
    if fam.takes_m and (m is None or operator.index(m) < 2):
        raise ValueError(f"family {name!r} needs m >= 2, got {m}")
    if not fam.takes_m and m is not None:
        takers = "/".join(f.name for f in FAMILIES.values() if f.takes_m)
        raise ValueError(f"m only applies to the {takers} family, not {name!r}")
    return fam


def iter_family(
    name: str, n_from: int, n_to: int, m: int | None = None
) -> Iterator[IntPoly]:
    """Members n_from..n_to of a named family, in order, one at a time.

    The member at n_from comes from the family's builder; each later
    member is one kernel call on the registry lists a(n+1), b(n+1) with
    prev the record the kernel returned for member n, so the ledger
    surplus is counted once, for n_from, and carried: each step adds only
    the divisor counts of its own factors u and d below.  The kernel then
    picks the cheaper of the rebuild and the step

        member(n+1) = member(n) * prod(1 - q^u) / prod(1 - q^d),
        the ups u and downs d of the signed step e(n+1) - e(n),

    which for catalan is C_n (1 - q^(2n+1))(1 - q^(2n+2)) /
    ((1 - q^(n+1))(1 - q^(n+2))) = C_n (1 - q^(2n+1))(1 + q^(n+1)) /
    (1 - q^(n+2)): 3 linear passes over half the coefficients against
    about 3n/2 for a rebuild.  m-Catalan with m >= n, roughly, rebuilds.
    Either way each member passes the ledger, the mass check and the
    nonnegativity check on its head, as a from-scratch build does.  Only
    the current record is held.
    Bad arguments, and an n_to whose member exceeds the kernel's size
    limit, raise here, before any member is built.
    """
    fam = get_family(name, m)
    if not 1 <= n_from <= n_to:
        raise ValueError(f"need 1 <= n_from <= n_to, got {n_from}..{n_to}")
    fam.check_size(n_to, m)
    return _sweep(fam, n_from, n_to, m)


def _sweep(fam: Family, n_from: int, n_to: int, m: int | None) -> Iterator[IntPoly]:
    p = fam.build(n_from, m)
    yield p
    e = _signed(*fam.exponents(n_from, m))
    record = (list(p.coeffs), e, _surplus(e))
    for n in range(n_from + 1, n_to + 1):
        record = _quotient_coeffs(*fam.exponents(n, m), record)
        yield IntPoly(_require_nonnegative(record[0], f"{fam.name} member n={n}"))


# -- quotient specs -------------------------------------------------------------

class QuotientSpec(_Frozen):
    """Exponent multisets of a quotient prod(1-q^a_i) / prod(1-q^b_i).

    Both tuples must have the same length and positive integer entries; a
    and b are multisets, so repeats are meaningful and order is not.
    """

    __slots__ = ("a", "b")
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __init__(self, a: Iterable[int], b: Iterable[int]):
        a, b = _check_exponents(a, b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def quotient_poly(spec: QuotientSpec) -> IntPoly:
    """Polynomial value of prod(1 - q^a_i) / prod(1 - q^b_i), if one exists.

    The construction kernel decides from the cyclotomic ledger, before any
    arithmetic, and raises NotPolynomial when there is no polynomial value;
    QuotientTooLarge (a ValueError) when the numerator exponents sum past
    SUM_LIMIT.
    """
    return IntPoly(_quotient_coeffs(spec.a, spec.b)[0])


def preset(name: str, n: int, m: int | None = None) -> QuotientSpec:
    """A registry family at size n as a quotient spec, common pairs cancelled.

    catalan:  a = (n+2 .. 2n),        b = (2 .. n)
    catalan2: a = (2, n+2 .. 2n-1),   b = (1, 2 .. n-1), then cancellation;
              for n >= 3 this leaves a = (n+2 .. 2n-1), b = (1, 3, 4 .. n-1)
              and quotient_poly of it equals q_catalan_second(n)
    mcatalan: a = ((m-1)n+2 .. (m-1)n+n), b = (2 .. n), requires m >= 2

    The lists come from FAMILIES.  All presets need n >= 2: at n = 1 the
    registry lists are empty, and the constant 1 they give has zero
    variance, which the ratio and series diagnostics divide by.
    Lists with more than SUM_LIMIT entries raise QuotientTooLarge (a
    ValueError) before any is built; the closed forms reach well past the
    construction kernel's limit (mcatalan m = 5, n = 1000 is legal).
    """
    fam = get_family(name, m)
    if n < 2:
        raise ValueError(f"presets need n >= 2, got {n}")
    for xs in fam.exponents(n, m):
        if next(itertools.islice(xs, SUM_LIMIT, None), None) is not None:
            raise QuotientTooLarge(
                f"{name} at n={n} has more than {SUM_LIMIT} exponents; "
                "the exponent lists would be too large to hold"
            )
    e = _signed(*fam.exponents(n, m))
    return QuotientSpec(a=sorted((+e).elements()), b=sorted((-e).elements()))


def major_index_histogram(n: int) -> IntPoly:
    """Distribution of the major index over ballot words, by brute force.

    Enumerates every binary word of length 2n with n zeros, n ones, and
    every prefix holding at least as many zeros as ones; the major index is
    the sum of the 1-indexed positions i with w_i > w_{i+1}.  With this
    convention the histogram matches q_catalan(n) coefficient for
    coefficient (the reversed 1/0 convention gives a shifted histogram and
    fails that cross-check).

    Exhaustive enumeration, so n is capped at 14 (~2.7M words).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > MAJOR_INDEX_MAX_N:
        raise ValueError(f"exhaustive enumeration capped at n = {MAJOR_INDEX_MAX_N}, got {n}")
    hist = [0] * (n * (n - 1) + 1)
    total = 2 * n

    def walk(zeros: int, ones: int, last: int, maj: int) -> None:
        pos = zeros + ones
        if pos == total:
            hist[maj] += 1
            return
        if zeros < n:
            # appending 0 after a 1 is a descent at position pos
            walk(zeros + 1, ones, 0, maj + (pos if last == 1 else 0))
        if ones < zeros:
            walk(zeros, ones + 1, 1, maj)

    walk(0, 0, 0, 0)
    return IntPoly(hist)
