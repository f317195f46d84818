import math

from psqcayley import (
    connector_count_formula,
    element_order,
    enumerate_connectors,
    make_prime_triple,
)

from helpers import order_scan_connectors, triples_with_group_order_at_most

T235 = make_prime_triple(2, 3, 5)
T357 = make_prime_triple(3, 5, 7)


def test_count_at_small_instance():
    cs = enumerate_connectors(T235)
    assert len(cs) == 28
    assert connector_count_formula(T235) == 28


def test_members_equal_order_scan():
    assert set(enumerate_connectors(T235)) == order_scan_connectors(T235)


def _by_order(t) -> dict[int, list[int]]:
    classes: dict[int, list[int]] = {}
    for m in enumerate_connectors(t):
        classes.setdefault(element_order(m, t), []).append(m)
    return classes


def test_alpha_class():
    classes = _by_order(T235)
    assert classes[4] == [225, 675]
    assert len(classes[9]) == 9 - 3
    assert len(classes[25]) == 25 - 5


def test_membership_examples():
    members = set(enumerate_connectors(T235))
    assert 36 in members
    assert 180 not in members  # order 5
    assert 450 not in members  # order 2


def test_formula_at_next_instance():
    assert connector_count_formula(T357) == 68
    assert len(enumerate_connectors(T357)) == 68


def test_formula_always_even():
    for t in triples_with_group_order_at_most(1_000_000):
        assert connector_count_formula(t) % 2 == 0


def test_size_matches_formula_up_to_million():
    for t in triples_with_group_order_at_most(1_000_000):
        assert len(enumerate_connectors(t)) == connector_count_formula(t)


def test_membership_equivalence_full_sweep():
    for t in triples_with_group_order_at_most(10_000):
        members = set(enumerate_connectors(t))
        for m in range(t.n):
            assert (m != 0 and t.n // math.gcd(t.n, m) in t.moduli) == (m in members)


def test_inverse_closure_and_zero_excluded():
    for t in (T235, T357):
        cs = enumerate_connectors(t)
        members = set(cs)
        assert 0 not in members
        for m in members:
            assert (t.n - m) in members


def test_order_classes_partition_members():
    # grouping by order partitions the members; each squared-prime order p²
    # holds its p² − p elements, and no other order occurs
    for t in (T235, T357):
        classes = _by_order(t)
        assert set(classes) == set(t.moduli)
        for p, m in zip(t.primes, t.moduli):
            assert len(classes[m]) == m - p


def test_members_sorted_ascending():
    for t in (T235, T357):
        members = enumerate_connectors(t)
        assert list(members) == sorted(members)
