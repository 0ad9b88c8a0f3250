import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hnnkit import (
    BaseOracle,
    BsOracle,
    BsParams,
    HnnWord,
    VerificationError,
    britton_reduce,
    cyclic_reduce,
    dom_phi_j_closed_form,
    equals,
    folner_chain_bs,
    format_word,
    inv,
    make_bs,
    make_zd,
    mul,
    normalize,
    orbit_sample,
    parse_word,
    phi_iter_domain,
    symdiff_ratio,
)
from hnnkit.analysis import FolnerChain
from hnnkit.calculus import _carry, _nf_conjugate

from conftest import bs_oracles_strategy, protocol_bs

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


def test_dom_closed_form_refuses_too_many_digits_before_building():
    # 3^(10^9) has 477,121,255 digits, past the digits limit
    start = time.perf_counter()
    message = r"^the generator of Dom\(phi\^1000000000\) has more than 10000000 digits$"
    with pytest.raises(ValueError, match=message):
        dom_phi_j_closed_form(BsParams(2, 3), 10**9)
    assert time.perf_counter() - start < 0.5


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
    assert tuple(bs23.h_transversal()) == (0, 1, 2)
    assert tuple(bs23.k_transversal()) == (0, 1)


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


# --- integer kernels against the protocol loops -----------------------------

NONZERO = [k for k in range(-6, 7) if k]


def test_only_bs_itself_runs_the_kernels():
    assert make_bs(2, 3)._kernels
    assert not protocol_bs(2, 3)._kernels
    assert not DefaultPowerBs(BsParams(2, 3))._kernels
    assert not BaseOracle._kernels
    assert not make_zd([[2, 1], [1, 1]])._kernels


@st.composite
def kernel_cases(draw):
    """BS(m, n) with |m|, |n| <= 6, and three unreduced words whose
    exponents are small, multiples of m n (which make pinches) or up to
    10^30."""
    m, n = draw(st.sampled_from(NONZERO)), draw(st.sampled_from(NONZERO))
    elem = st.one_of(
        st.integers(-9, 9),
        st.integers(-4, 4).map(lambda k: k * m * n),
        st.integers(-10**30, 10**30),
    )
    words = [
        (draw(elem), tuple(draw(st.lists(st.tuples(st.sampled_from([1, -1]), elem), max_size=size))))
        for size in (8, 8, 4)
    ]
    return m, n, words


def kernel_results(oracle, words):
    """Every result the kernels enter, as keys: reduction, products,
    inverses, normal forms, equality, cyclic reduction, conjugates by one
    syllable, orbits to radius 3 and a Folner ratio."""
    u, v, short = (HnnWord(oracle, head, tail) for head, tail in words)
    out = []
    for w in (u, v, mul(u, v), mul(v, inv(u))):
        out += [britton_reduce(w).key(), inv(w).key(), normalize(w).key()]
        out += [x.key() for x in cyclic_reduce(w)]
        head, tail = normalize(w).key()
        for sign in (1, -1, 0):
            for x in (0, 1, -1, words[2][0]):
                buf = list(tail)
                out.append((_nf_conjugate(oracle, (sign, x), head, buf), tuple(buf)))
    out += [equals(u, v), equals(mul(u, v), mul(britton_reduce(u), v)), equals(mul(u, inv(u)), short)]
    out += [[nf.key() for nf in orbit_sample(short, radius)] for radius in range(4)]
    chain = folner_chain_bs(oracle.params.m, oracle.params.n, 4)
    chain = FolnerChain(oracle, chain.label, chain.elements)
    out += [symdiff_ratio(chain, w) for w in (u, short)]
    return out


@given(kernel_cases())
@settings(max_examples=150, deadline=None)
@example((1, 5, [(0, ((1, 3), (-1, 10**30))), (7, ((1, 0),)), (5, ())]))
@example((-1, 3, [(2, ((-1, 3), (1, -1))), (0, ((1, 1), (1, 2))), (3, ((-1, 1),))]))
@example((3, 3, [(4, ((1, 9), (-1, 2), (-1, 9))), (-9, ((-1, 4),)), (1, ((1, 1),))]))
@example((3, -3, [(0, ((-1, 9), (1, 2 * 10**29))), (9, ((1, -9),)), (2, ((1, 0), (-1, 1)))]))
@example((-4, 6, [(0, ((1, -24), (-1, 5), (1, 24))), (1, ()), (-24, ((1, 7),))]))
def test_kernels_match_the_protocol_loops(case):
    # BsOracle runs bs.py's integer kernels for _carry and _seam; a
    # subclass that overrides nothing runs calculus's loops through the
    # oracle's methods, and every answer must be the same
    m, n, words = case
    assert kernel_results(make_bs(m, n), words) == kernel_results(protocol_bs(m, n), words)


@pytest.mark.parametrize("oracle", [make_bs(2, 3), protocol_bs(2, 3)], ids=["kernel", "protocol"])
def test_both_paths_refuse_a_pinched_tail(oracle):
    # t 1 t^-1 b^5 holds the pinch t 1 t^-1: b^5 carries b^2 to the left,
    # b^2 in K = 2Z splits to the identity representative before t^-1, and
    # both loops refuse with the same error
    with pytest.raises(VerificationError, match="^pinch re-created during canonicalization$"):
        _carry(oracle, 0, [(1, 0), (-1, 5)], 0, False)


def far_carry_core(m, n, size, seed):
    """``size`` syllables with b-exponents up to 10^30, each 1 mod m and n,
    so in neither subgroup: no pinch, and no carry of the general rule
    dies."""
    rng = random.Random(seed)
    lcm = math.lcm(m, n)
    return tuple((rng.choice((1, -1)), lcm * rng.randint(-10**29, 10**29) + 1) for _ in range(size))


@pytest.mark.parametrize("m, n", [(3, 3), (2, -2)])
def test_rotation_scan_carry_steps_are_linear_on_bs_n_n(monkeypatch, m, n):
    # the carry steps of cyclic_reduce, summed from where the kernel
    # reports it stopped: on BS(n, +-n) a carry lies in nZ after one step
    # and passes the rest unchanged, so doubling the core doubles the count
    # (999 -> 1,999 steps for 500 -> 1,000 syllables), where every rotation
    # carried to the head before (a ratio of 4).  On BS(2, 3) such cores
    # still take 250,000 -> 1,000,000 steps, a ratio of 4.0.
    steps = []
    real = BsOracle._carry_kernel

    def kernel(self, head, buf, x, canonical):
        length = len(buf)
        head, j = real(self, head, buf, x, canonical)
        steps.append(length - j)
        return head, j

    monkeypatch.setattr(BsOracle, "_carry_kernel", kernel)
    counts = []
    for size in (500, 1000):
        steps.clear()
        core, _ = cyclic_reduce(HnnWord(make_bs(m, n), 0, far_carry_core(m, n, size, f"{m} {n} {size}")))
        assert len(core.tail) == size
        counts.append(sum(steps))
    assert counts[1] <= 2.5 * counts[0]
