"""The connecting set: all group elements whose order is a squared prime.

Elements of order a² are the multiples k·b²c² with a ∤ k (and analogously for
b², c²), so the set is enumerated in closed form, with no order computed.
It is held as one ascending tuple, `CayleyGraph.members`, and membership is
one bisection in it (`CayleyGraph.is_connector`).
"""

from __future__ import annotations

from .group import PrimeTriple


def enumerate_connectors(t: PrimeTriple) -> tuple[int, ...]:
    """All exponents of order a², b², or c², ascending."""
    m_a, m_b, m_c = t.moduli
    members = sorted(
        [k * m_b * m_c for k in range(1, m_a) if k % t.alpha]
        + [k * m_a * m_c for k in range(1, m_b) if k % t.beta]
        + [k * m_a * m_b for k in range(1, m_c) if k % t.gamma]
    )
    return tuple(members)


def connector_count_formula(t: PrimeTriple) -> int:
    """Closed-form size a² + b² + c² − a − b − c of the connecting set."""
    a, b, c = t.primes
    return a * a + b * b + c * c - a - b - c
