import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psqcayley import (
    NonPrimeError,
    NotAscendingError,
    NotDistinctError,
    bezout_witness,
    crt_combine,
    element_order,
    make_prime_triple,
)
from psqcayley.group import prime_factors

from helpers import (
    BIG_PRIME,
    brute_order,
    crt_components,
    divisors,
    record_primality_tests,
    triples_with_group_order_at_most,
)

T235 = make_prime_triple(2, 3, 5)
T357 = make_prime_triple(3, 5, 7)
SMALL_TRIPLES = triples_with_group_order_at_most(50_000)
LADDER = triples_with_group_order_at_most(1_100_000)


def test_group_order_and_moduli():
    assert T235.n == 900
    assert T235.moduli == (4, 9, 25)
    assert T357.n == 9 * 25 * 49
    assert T357.n == 11025


def test_validation_errors():
    with pytest.raises(NonPrimeError):
        make_prime_triple(2, 3, 4)
    with pytest.raises(NotDistinctError):
        make_prime_triple(2, 2, 5)
    with pytest.raises(NotAscendingError):
        make_prime_triple(3, 2, 5)
    with pytest.raises(OverflowError):
        make_prime_triple(2, 3, 2147483647)  # (abc)² overflows 64 bits


def test_oversized_prime_overflows_before_trial_division(monkeypatch):
    seen = record_primality_tests(monkeypatch)
    with pytest.raises(OverflowError):
        make_prime_triple(2, 3, BIG_PRIME)
    assert BIG_PRIME not in seen


def test_element_order_examples():
    assert element_order(0, T235) == 1
    assert element_order(36, T235) == 25
    assert element_order(225, T235) == 4


def test_element_order_matches_repeated_addition():
    for k in range(0, 900, 7):
        assert element_order(k, T235) == brute_order(k, 900)


def test_element_order_range_check():
    with pytest.raises(ValueError):
        element_order(900, T235)
    with pytest.raises(ValueError):
        element_order(-1, T235)


def test_order_symmetry_under_negation():
    for k in range(1, T235.n):
        assert element_order(k, T235) == element_order(T235.n - k, T235)


def test_order_divides_group_order():
    for k in range(T235.n):
        assert T235.n % element_order(k, T235) == 0


def test_crt_components_examples():
    assert crt_components(36, T235) == (0, 0, 11)
    assert crt_components(0, T235) == (0, 0, 0)
    assert crt_components(899, T235) == (3, 8, 24)


def test_crt_combine_examples():
    assert crt_combine((0, 0, 0), T235) == 0
    assert crt_combine((0, 0, 11), T235) == 36
    assert crt_combine((2, 3, 5), T235) == 30


def test_crt_round_trip_exhaustive():
    for k in range(T235.n):
        assert crt_combine(crt_components(k, T235), T235) == k


def test_crt_component_range_check():
    with pytest.raises(ValueError):
        crt_combine((4, 0, 0), T235)
    with pytest.raises(ValueError):
        crt_combine((0, -1, 0), T235)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LADDER), st.data())
def test_crt_round_trip_property(t, data):
    k = data.draw(st.integers(0, t.n - 1))
    assert crt_combine(crt_components(k, t), t) == k


def test_squared_order_component_characterization():
    # order a² exactly when the a-component is not divisible by a and the
    # other two components vanish; same shape for b², c²
    for k in range(T235.n):
        ga, gb, gc = crt_components(k, T235)
        assert (element_order(k, T235) == 4) == (ga % 2 != 0 and gb == 0 and gc == 0)
        assert (element_order(k, T235) == 9) == (gb % 3 != 0 and ga == 0 and gc == 0)
        assert (element_order(k, T235) == 25) == (gc % 5 != 0 and ga == 0 and gb == 0)


def test_bezout_identity_exact():
    for t in SMALL_TRIPLES:
        u, v, w = bezout_witness(t)
        assert u * t.m_beta * t.m_gamma + v * t.m_alpha * t.m_gamma + w * t.m_alpha * t.m_beta == 1


def test_bezout_canonical_bounds():
    for t in SMALL_TRIPLES:
        u, v, w = bezout_witness(t)
        assert abs(u) < t.m_alpha
        assert abs(v) < t.m_beta
        assert abs(w) < t.m_gamma


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LADDER))
def test_bezout_identity_and_bounds_property(t):
    u, v, w = bezout_witness(t)
    assert u * t.m_beta * t.m_gamma + v * t.m_alpha * t.m_gamma + w * t.m_alpha * t.m_beta == 1
    assert abs(u) < t.m_alpha and abs(v) < t.m_beta and abs(w) < t.m_gamma


def test_divisors_and_prime_factors_match_trial_division():
    for m in list(range(1, 400)) + [t.n for t in SMALL_TRIPLES[:5]]:
        assert divisors(m) == tuple(d for d in range(1, m + 1) if m % d == 0)
        assert prime_factors(m) == tuple(p for p in divisors(m) if len(divisors(p)) == 2)


def test_bezout_canonical_value():
    # frozen canonical witness; (13, -26, -9) solves the same identity and
    # reduces to this representative class
    u, v, w = bezout_witness(T235)
    assert (u, v, w) == (1, 1, -9)
    assert (u - 13) % 4 == 0
    assert (v + 26) % 9 == 0
    assert w == -9


def test_bezout_word_replay():
    # walking |u|+|v|+|w| generator steps lands on exponent 1
    for t in (T235, T357):
        u, v, w = bezout_witness(t)
        gens = (t.m_beta * t.m_gamma, t.m_alpha * t.m_gamma, t.m_alpha * t.m_beta)
        position = 0
        steps = 0
        for count, gen in zip((u, v, w), gens):
            move = gen if count > 0 else t.n - gen
            for _ in range(abs(count)):
                position = (position + move) % t.n
                steps += 1
        assert position == 1
        assert steps == abs(u) + abs(v) + abs(w)


def test_bezout_deterministic():
    assert bezout_witness(T357) == bezout_witness(make_prime_triple(3, 5, 7))
