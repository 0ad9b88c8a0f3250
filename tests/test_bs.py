import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnnkit import (
    BaseOracle,
    BsOracle,
    BsParams,
    dom_phi_j_closed_form,
    equals,
    format_word,
    make_bs,
    parse_word,
    phi_iter_domain,
)

from conftest import bs_oracles_strategy

CLOSED_FORM_PAIRS = [(2, 3), (3, 2), (4, 6), (6, 4), (2, -2), (-2, 2), (2, 2)]


def test_make_bs_rejects_zero():
    with pytest.raises(ValueError):
        make_bs(0, 3)
    with pytest.raises(ValueError):
        make_bs(2, 0)


def test_membership(bs23):
    assert bs23.in_H(6)
    assert not bs23.in_H(2)
    assert bs23.in_K(2)
    assert not bs23.in_K(3)


def test_phi_values(bs23):
    assert bs23.phi(6) == 4  # phi(nk) = mk with k = 2
    assert bs23.phi_inv(4) == 6


def test_params_gcd():
    p = BsParams(4, 6)
    assert (p.d, p.n1, p.m1) == (2, 3, 2)


def test_defining_relation_both_ways(bs23):
    assert equals(parse_word(bs23, "a^-1 b^3 a"), parse_word(bs23, "b^2"))
    assert equals(parse_word(bs23, "a b^2 a^-1"), parse_word(bs23, "b^3"))


def test_dom_closed_form_values():
    assert dom_phi_j_closed_form(BsParams(2, 3), 2) == 9
    assert dom_phi_j_closed_form(BsParams(4, 6), 1) == 6
    assert dom_phi_j_closed_form(BsParams(4, 6), 3) == 54


@pytest.mark.parametrize("m,n", CLOSED_FORM_PAIRS)
def test_dom_closed_form_matches_recursion(m, n):
    oracle = make_bs(m, n)
    params = BsParams(m, n)
    for j in range(1, 9):
        g = dom_phi_j_closed_form(params, j)
        for z in range(-500, 501):
            assert (z % g == 0) == phi_iter_domain(oracle, z, j), (m, n, j, z)


def test_parse_structure(bs23):
    w = parse_word(bs23, "a^-1 b^3 a")
    assert w.head == 0
    assert w.tail == ((-1, 3), (1, 0))
    assert format_word(w) == "a^-1 b^3 a"


def test_parse_rejects_unknown_letter(bs23):
    from hnnkit import WordParseError

    with pytest.raises(WordParseError):
        parse_word(bs23, "c")


def test_transversals(bs23):
    assert bs23.h_transversal() == (0, 1, 2)
    assert bs23.k_transversal() == (0, 1)


@given(bs_oracles_strategy(), st.integers(-200, 200))
@settings(max_examples=200, deadline=None)
def test_decomposition_laws(oracle, z):
    for left, right, member in [
        (oracle.decompose_left_H, oracle.decompose_right_H, oracle.in_H),
        (oracle.decompose_left_K, oracle.decompose_right_K, oracle.in_K),
    ]:
        h, r = left(z)
        assert member(h)
        assert oracle.mul(h, r) == z
        assert oracle.is_identity(r) == member(z)
        r2, h2 = right(z)
        assert member(h2)
        assert oracle.mul(r2, h2) == z
        assert oracle.is_identity(r2) == member(z)


@given(bs_oracles_strategy(), st.integers(-50, 50))
@settings(max_examples=200, deadline=None)
def test_phi_round_trips(oracle, k):
    h = oracle.params.n * k
    assert oracle.in_H(h)
    image = oracle.phi(h)
    assert oracle.in_K(image)
    assert oracle.phi_inv(image) == h
    kk = oracle.params.m * k
    assert oracle.phi(oracle.phi_inv(kk)) == kk


class DefaultPowerBs(BsOracle):
    """BS(m, n) that takes powers by BaseOracle's square-and-multiply, which
    every shipped oracle overrides."""

    power = BaseOracle.power


def test_default_power_agrees_with_bs():
    default, bs = DefaultPowerBs(BsParams(2, 3)), make_bs(2, 3)
    for x in (0, 1, -1, 7):
        for k in range(-9, 10):
            assert default.power(x, k) == bs.power(x, k) == x * k
    for text in ("b^-7 a b^12 a^-1 b^5", "b^6 a^3 b^-1 a^-2 b^9", "b b^-2 a b^0"):
        assert parse_word(default, text).key() == parse_word(bs, text).key()
