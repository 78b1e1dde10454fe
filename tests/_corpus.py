"""Partition corpora shared by the test modules."""

import itertools

from twarrow.partitions import make_partition


def valid_partitions(P):
    """Every ordered partition (lower, upper) of the poset P, both parts
    nonempty, that ``make_partition`` accepts."""
    for r in range(1, len(P.elements)):
        for lo in itertools.combinations(P.elements, r):
            hi = [e for e in P.elements if e not in lo]
            try:
                yield make_partition(P, lo, hi)
            except ValueError:
                continue
