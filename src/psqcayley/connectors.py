"""The connecting set: all group elements whose order is a squared prime.

Those of order p² are the multiples of n/p² that n/p does not divide, one
class per prime, written once (`connector_classes`): the set is enumerated
in closed form, with no order computed.  It is held as one ascending tuple,
`CayleyGraph.members`; membership is one bisection in it.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain

from .group import PrimeTriple


def connector_classes(t: PrimeTriple) -> Iterator[Iterator[int]]:
    """One ascending iterator per prime p, a, b, c in turn: the order-p²
    class, the multiples x of n/p² in (0, n) with x % (n/p) nonzero."""
    return (filter((t.n // p).__rmod__, range(t.n // p**2, t.n, t.n // p**2)) for p in t.primes)


def enumerate_connectors(t: PrimeTriple) -> tuple[int, ...]:
    """All exponents of order a², b², or c², ascending: the classes' sorted union."""
    return tuple(sorted(chain.from_iterable(connector_classes(t))))


def connector_count_formula(t: PrimeTriple) -> int:
    """Closed-form size a² + b² + c² − a − b − c of the connecting set."""
    a, b, c = t.primes
    return a * a + b * b + c * c - a - b - c
