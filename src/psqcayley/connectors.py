"""The connecting set: all group elements whose order is a squared prime.

Elements of order a² are the multiples k·b²c² with a ∤ k (and analogously for
b², c²), so the set is enumerated in closed form, with no order computed.
Membership is then a lookup in `CayleyGraph.connector_set`.
"""

from __future__ import annotations

from typing import NamedTuple

from .group import PrimeTriple


class ConnectingSet(NamedTuple):
    """Sorted connector exponents."""

    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def enumerate_connectors(t: PrimeTriple) -> ConnectingSet:
    """All exponents of order a², b², or c², sorted."""
    m_a, m_b, m_c = t.moduli
    members = sorted(
        [k * m_b * m_c for k in range(1, m_a) if k % t.alpha]
        + [k * m_a * m_c for k in range(1, m_b) if k % t.beta]
        + [k * m_a * m_b for k in range(1, m_c) if k % t.gamma]
    )
    return ConnectingSet(tuple(members))


def connector_count_formula(t: PrimeTriple) -> int:
    """Closed-form size a² + b² + c² − a − b − c of the connecting set."""
    a, b, c = t.primes
    return a * a + b * b + c * c - a - b - c
