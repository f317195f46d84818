"""The connecting set: all group elements whose order is a squared prime.

Elements of order a² are the multiples k·b²c² with a ∤ k (and analogously for
b², c²), so the set is enumerated in closed form and membership is decided by
pure arithmetic with no table lookup.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .group import PrimeTriple, _check_exponent


class ConnectingSet(NamedTuple):
    """Sorted connector exponents, partitioned by order class."""

    members: tuple[int, ...]
    class_alpha_sq: tuple[int, ...]
    class_beta_sq: tuple[int, ...]
    class_gamma_sq: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def enumerate_connectors(t: PrimeTriple) -> ConnectingSet:
    """All exponents of order a², b², or c², grouped by class and sorted."""
    m_a, m_b, m_c = t.moduli
    cls_a = tuple(sorted(k * m_b * m_c for k in range(1, m_a) if k % t.alpha))
    cls_b = tuple(sorted(k * m_a * m_c for k in range(1, m_b) if k % t.beta))
    cls_c = tuple(sorted(k * m_a * m_b for k in range(1, m_c) if k % t.gamma))
    members = tuple(sorted(cls_a + cls_b + cls_c))
    return ConnectingSet(members, cls_a, cls_b, cls_c)


def connector_count_formula(t: PrimeTriple) -> int:
    """Closed-form size a² + b² + c² − a − b − c of the connecting set."""
    a, b, c = t.primes
    return a * a + b * b + c * c - a - b - c


def is_connector(m: int, t: PrimeTriple) -> bool:
    """True iff the element with exponent m has order a², b², or c².

    O(1) arithmetic: the order is n / gcd(n, m).
    """
    _check_exponent(m, t)
    if m == 0:
        return False
    return t.n // math.gcd(t.n, m) in t.moduli
