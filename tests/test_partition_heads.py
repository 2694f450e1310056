"""The head coefficients of the families are partition counts.

C_n(q) = prod_{i=2..n} (1 - q^(n+i)) / (1 - q^i): every numerator factor
starts at degree n + 2, so modulo q^(n+2) the member is
prod_{i=2..n} 1 / (1 - q^i), the generating function of partitions into
parts 2..n.  For k <= n that is every partition of k into parts >= 2; at
k = n + 1 the one-part partition (n + 1) is missing, so the window is
exactly k <= n.  m-Catalan has the same denominator and a numerator that
starts later, so the same window holds.  catalan2, after cancellation, has
denominator parts {1, 3, 4, .., n - 1}: partitions into parts other than 2
for k <= n - 1, with the one-part partition (n) missing at k = n.
"""

from qcatalan.polyq import iter_family

K_MAX = 121


def partition_counts(parts) -> list[int]:
    """Partitions of k into the given parts, for k = 0..K_MAX."""
    counts = [1] + [0] * K_MAX
    for part in parts:
        for k in range(part, K_MAX + 1):
            counts[k] += counts[k - part]
    return counts


PARTS_AT_LEAST_2 = partition_counts(range(2, K_MAX + 1))
PARTS_NOT_2 = partition_counts([1, *range(3, K_MAX + 1)])


def head_window(p, table) -> int:
    """The largest w with coefficient k of p equal to table[k] for all
    k <= w."""
    k = 0
    while k < len(table) and p[k] == table[k]:
        k += 1
    return k - 1


def test_partition_tables():
    assert PARTS_AT_LEAST_2[:12] == [1, 0, 1, 1, 2, 2, 4, 4, 7, 8, 12, 14]
    assert PARTS_NOT_2[:10] == [1, 1, 1, 2, 3, 4, 6, 8, 11, 15]


def test_catalan_head_counts_partitions_into_parts_at_least_2():
    for n, p in enumerate(iter_family("catalan", 2, 120), 2):
        assert head_window(p, PARTS_AT_LEAST_2) == n, n


def test_mcatalan_head_counts_partitions_into_parts_at_least_2():
    for m in range(2, 13):
        for n, p in enumerate(iter_family("mcatalan", 2, 40, m), 2):
            assert head_window(p, PARTS_AT_LEAST_2) == n, (n, m)


def test_catalan2_head_counts_partitions_without_part_2():
    for n, p in enumerate(iter_family("catalan2", 3, 100), 3):
        assert head_window(p, PARTS_NOT_2) == n - 1, n
