#!/usr/bin/env python3
"""Walk through the exact coefficient machinery.

Builds the q-Catalan polynomials a few ways that must agree, shows the
coefficient triangle, and checks the combinatorial meaning of the
coefficients against a direct enumeration of ballot words by major index.
Run it directly; it prints a short narrative and exits 0 if every check
holds.
"""

from qcatalan import (
    gaussian_binomial,
    major_index_histogram,
    q_catalan,
    q_catalan_general,
    q_catalan_second,
    q_catalan_via_binomial,
)


def main() -> None:
    print("coefficient triangle of the q-Catalan polynomials")
    print("=" * 60)
    for n in range(1, 7):
        p = q_catalan(n)
        print(f"n={n:>2}  degree {p.degree:>2}  mass {sum(p.coeffs):>4}  {list(p.coeffs)}")
    print()

    print("three independent constructions, compared exactly")
    print("-" * 60)
    for n in range(1, 26):
        via_product = q_catalan(n)
        via_binomial = q_catalan_via_binomial(n)
        assert via_product == via_binomial, n
    print("product route == Gaussian-binomial route for n = 1..25")

    for n in range(1, 11):
        assert major_index_histogram(n) == q_catalan(n), n
    print("major-index histogram over ballot words matches for n = 1..10")
    print()

    print("symmetry and mass")
    print("-" * 60)
    for n in range(1, 31):
        p = q_catalan(n)
        assert p.is_palindromic()
        assert p.degree == n * (n - 1)
    print("coefficients read the same in both directions, degree n(n-1), n = 1..30")
    c10 = sum(q_catalan(10).coeffs)
    print(f"mass at n=10 is the Catalan number {c10}")
    print()

    print("relatives built from the same factor passes")
    print("-" * 60)
    g = gaussian_binomial(6, 2)
    print(f"[6 choose 2]_q          = {list(g.coeffs)}")
    c2 = q_catalan_second(3)
    print(f"second q-Catalan, n=3   = {list(c2.coeffs)}")
    m3 = q_catalan_general(3, 3)
    print(f"m-Catalan, n=3, m=3     = {list(m3.coeffs)}")
    assert q_catalan_general(8, 2) == q_catalan(8)
    print("m=2 specializes to the plain q-Catalan (checked at n=8)")
    print()
    print("all coefficient checks passed")


if __name__ == "__main__":
    main()
