import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden_corpus
from hnnkit import analysis, calculus, cli
from hnnkit import (
    DomainError,
    EMPIRICAL,
    BsOracle,
    BsParams,
    EscapeExhaustionError,
    FolnerChain,
    HnnWord,
    HypothesisViolationError,
    ICC,
    NOT_ICC,
    VerificationError,
    base_word,
    conjugate,
    equals,
    escape_exponent,
    folner_chain_ascending,
    folner_chain_bs,
    format_word,
    icc_decide_bs,
    icc_decide_zd,
    icc_probe_orbit,
    identity_word,
    length,
    make_bs,
    make_zd,
    mul,
    normalize,
    orbit_sample,
    parse_word,
    stable_word,
    symdiff_ratio,
    thm1_hypothesis_bs,
)
from hnnkit.analysis import verify_finite_class
from hnnkit.calculus import _nf_lmul_letter, _nf_rmul_letter


def generator_letter_words(oracle):
    """The one-letter words t, t^-1, then each base generator and its
    inverse."""
    words = [stable_word(oracle, 1), stable_word(oracle, -1)]
    for g in oracle.generators():
        words += [base_word(oracle, g), base_word(oracle, oracle.inv(g))]
    return words


def reference_spheres(oracle, radius):
    """Normal-form words of the generator ball, sphere by sphere, by a BFS
    that multiplies on the right and builds every normal form in full."""
    gens = generator_letter_words(oracle)
    start = normalize(identity_word(oracle))
    seen = {start.key()}
    spheres = [[start.word]]
    for _ in range(radius):
        new = []
        for g in spheres[-1]:
            for letter in gens:
                h = normalize(mul(g, letter))
                if h.key() not in seen:
                    seen.add(h.key())
                    new.append(h.word)
        spheres.append(new)
    return spheres


def reference_orbit_sample(x, radius):
    """Normal forms of g x g^-1 over the right-multiplication ball, each
    conjugate formed from scratch."""
    found = {}
    for sphere in reference_spheres(x.oracle, radius):
        for g in sphere:
            nf = normalize(conjugate(g, x))
            found.setdefault(nf.key(), nf)
    return sorted(format_word(nf.word) for nf in found.values())


def reference_symdiff_ratio(chain, g):
    """|g F g^-1 symdiff F| / |F| with every word normalized from scratch."""
    window = chain.elements[1:-1]
    f_keys = {normalize(base_word(chain.oracle, h)).key() for h in window}
    conj_keys = {normalize(conjugate(g, base_word(chain.oracle, h))).key() for h in window}
    return Fraction(len(f_keys ^ conj_keys), len(window))


def raw_word(oracle, letters):
    """The product of one-letter words as written: an unmarked word whose
    tokens are not reduced, so it may hold pinches."""
    head, tail = oracle.identity, []
    for w in letters:
        if w.tail:
            tail.append(w.tail[0])
        elif tail:
            tail[-1] = (tail[-1][0], oracle.mul(tail[-1][1], w.head))
        else:
            head = oracle.mul(head, w.head)
    return HnnWord(oracle, head, tuple(tail))


# --- ICC decisions --------------------------------------------------------


def test_icc_bs_examples():
    assert icc_decide_bs(2, 3).status == ICC
    v = icc_decide_bs(2, 2)
    assert v.status == NOT_ICC and v.witness_strings() == ["b^2"]
    v = icc_decide_bs(3, -3)
    assert v.status == NOT_ICC and v.witness_strings() == ["b^-3", "b^3"]


def test_icc_bs_rejects_zero():
    with pytest.raises(ValueError):
        icc_decide_bs(0, 2)


def test_icc_bs_grid_matches_predicate():
    values = [x for x in range(-6, 7) if x != 0]
    for m in values:
        for n in values:
            verdict = icc_decide_bs(m, n)
            assert (verdict.status == ICC) == (abs(m) != abs(n)), (m, n)


def test_witness_closed_under_generators():
    for m, n in [(2, 2), (3, -3), (5, 5), (4, -4)]:
        v = icc_decide_bs(m, n)
        oracle = make_bs(m, n)
        keys = {normalize(w).key() for w in v.witness}
        for gen in generator_letter_words(oracle):
            for w in v.witness:
                assert normalize(conjugate(gen, w)).key() in keys
        assert normalize(base_word(oracle, 0)).key() not in keys


def test_verify_finite_class_rejects_bad_sets(bs23):
    with pytest.raises(VerificationError):
        verify_finite_class(bs23, ())
    with pytest.raises(VerificationError):
        verify_finite_class(bs23, (base_word(bs23, 0),))
    with pytest.raises(VerificationError):
        verify_finite_class(bs23, (base_word(bs23, 3),))  # not closed: a^-1 b^3 a = b^2


def test_icc_zd_examples():
    v = icc_decide_zd([[0, -1], [1, 1]])
    assert v.status == NOT_ICC
    assert 1 <= len(v.witness) <= 6
    assert icc_decide_zd([[2, 1], [1, 1]]).status == ICC
    v = icc_decide_zd([[1]])
    assert v.status == NOT_ICC and len(v.witness) == 1


@pytest.mark.parametrize("matrix", [
    [[0, -1, 0], [1, 0, 0], [0, 0, 2]],  # companion(Phi_4) + [2]
    [[0, -1, 0, 0], [1, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],  # Phi_6 + Phi_4
])
def test_icc_zd_higher_dimension_witness(matrix):
    v = icc_decide_zd(matrix)
    assert v.status == NOT_ICC and len(v.witness) == 4
    oracle = make_zd(matrix)
    keys = {normalize(w).key() for w in v.witness}
    assert len(keys) == 4
    assert normalize(base_word(oracle, oracle.identity)).key() not in keys
    for gen in generator_letter_words(oracle):
        for w in v.witness:
            assert normalize(conjugate(gen, w)).key() in keys


def test_icc_zd_three_dimensional_icc():
    # companion of x^3 - x - 1: no root of the polynomial is a root of unity
    v = icc_decide_zd([[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    assert v.status == ICC and v.witness is None


def test_icc_zd_rejects_singular():
    with pytest.raises(ValueError):
        icc_decide_zd([[1, 1], [1, 1]])


# --- theorem-1 hypothesis ---------------------------------------------------


def test_thm1_examples():
    assert thm1_hypothesis_bs(2, 3, 10)
    assert not thm1_hypothesis_bs(2, -2, 2)  # j = 2 fixes b^2
    assert not thm1_hypothesis_bs(2, 2, 1)


def test_thm1_grid_iff_magnitudes_differ():
    values = [x for x in range(-6, 7) if x != 0]
    for m in values:
        for n in values:
            assert thm1_hypothesis_bs(m, n, 12) == (abs(m) != abs(n)), (m, n)


# --- orbit sampling ---------------------------------------------------------


def test_orbit_central_element(bs22):
    for radius in (0, 2, 4):
        orbit = orbit_sample(base_word(bs22, 2), radius)
        assert [str(nf) for nf in orbit] == ["b^2"]


def test_orbit_two_element_class(bs2m2):
    orbit = orbit_sample(base_word(bs2m2, 2), 1)
    assert [str(nf) for nf in orbit] == ["b^-2", "b^2"]


def test_orbit_icc_sample(bs23):
    orbit = orbit_sample(base_word(bs23, 3), 4)
    strings = {str(nf) for nf in orbit}
    assert len(orbit) >= 3
    assert {"b^3", "b^2"} <= strings
    assert str(normalize(parse_word(bs23, "a^-1 b^2 a"))) in strings


def test_orbit_growth_strict_for_icc(bs23):
    for text in ["b", "b^3", "a"]:
        x = parse_word(bs23, text)
        sizes = [len(orbit_sample(x, r)) for r in (2, 4, 6)]
        assert sizes[0] < sizes[1] < sizes[2], (text, sizes)
        for small, big in [(0, 1), (1, 2), (3, 4), (5, 6)]:
            assert len(orbit_sample(x, small)) <= len(orbit_sample(x, big))


def test_orbit_zd_recovers_witness_class():
    verdict = icc_decide_zd([[0, -1], [1, 1]])
    witness_strings = set(verdict.witness_strings())
    lam = verdict.witness[0]
    orbit = orbit_sample(lam, 3)
    assert {str(nf) for nf in orbit} == witness_strings


ORBIT_INPUTS = {
    (2, 3): ["b", "a", "a a^-1 b^3", "a^-1 b^2 a", "b a b^-1 a^-1", "b^5 a"],
    (3, 2): ["b^2", "a a^-1 b^3", "a^-1 b^2 a", "a b^-1"],
    (2, -2): ["b^2", "a a^-1 b^3", "a^-1 b^2 a", "a", "b^2 a b^-2"],
    (1, 5): ["b", "a a^-1 b^3", "a^-1 b^2 a", "a b"],
    (2, 4): ["b^3", "a a^-1 b^3", "a^-1 b^2 a", "b^4 a^-1"],
    # b^2 is central: the BFS stops after one layer
    (2, 2): ["b^2"],
    (-3, 4): ["b a^-1"],
}


@pytest.mark.parametrize("mn", list(ORBIT_INPUTS), ids=str)
def test_orbit_sample_matches_reference_bs(mn):
    oracle = make_bs(*mn)
    for text in ORBIT_INPUTS[mn]:
        x = parse_word(oracle, text)
        for radius in range(5):
            got = [str(nf) for nf in orbit_sample(x, radius)]
            assert got == reference_orbit_sample(x, radius), (mn, text, radius)


def test_orbit_sample_matches_reference_zd(zd_fib):
    # and the golden corpus's other matrices, with K of index 4 and 3
    for oracle in (zd_fib, make_zd([[2, 0], [0, 2]]), make_zd([[1, 1], [-1, 2]])):
        for text in ["e1", "t t^-1 e2", "t^-1 e1 t", "e1 t e2^-1", "t e1 t^-1 e2"]:
            x = parse_word(oracle, text)
            for radius in range(5):
                got = [str(nf) for nf in orbit_sample(x, radius)]
                assert got == reference_orbit_sample(x, radius), (oracle.matrix, text, radius)


def letter_of(word):
    """The ``(sign, x)`` letter of a one-letter word: t^sign, or the base
    element x with sign 0."""
    return word.tail[0] if word.tail else (0, word.head)


@st.composite
def golden_normal_forms(draw):
    """A golden-corpus oracle and the normal form of a product of up to ten
    generator letters and powers b^2, b^-5 of the base generators."""
    _, oracle = draw(st.sampled_from(golden_corpus.oracles()))
    gens = generator_letter_words(oracle)
    letters = gens + [
        base_word(oracle, oracle.power(g.head, k)) for g in gens[2:] for k in (2, -5)
    ]
    return oracle, normalize(raw_word(oracle, draw(st.lists(st.sampled_from(letters), max_size=10))))


@given(golden_normal_forms())
@settings(max_examples=300, deadline=None)
def test_one_letter_products_of_normal_forms_match_normalize(case):
    oracle, w = case
    for gen in generator_letter_words(oracle):
        left = _nf_lmul_letter(oracle, letter_of(gen), w.key())
        assert left == normalize(mul(gen, w.word)).key(), (str(gen), str(w))
        right = _nf_rmul_letter(oracle, w.key(), letter_of(gen))
        assert right == normalize(mul(w.word, gen)).key(), (str(w), str(gen))


def test_orbit_sample_normalizes_once_and_formats_each_element_once(bs23, monkeypatch):
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    wrapped = {name: counted(name, getattr(calculus, name)) for name in ("normalize", "format_word")}
    for mod in (calculus, analysis):
        for name, fn in wrapped.items():
            monkeypatch.setattr(mod, name, fn)
    for oracle, text in [(bs23, "b"), (bs23, "a b^-1 a^-1 b^2"), (make_zd([[2, 0], [0, 2]]), "e1 t")]:
        counts.clear()
        orbit = orbit_sample(parse_word(oracle, text), 4)
        assert counts["normalize"] == 1, text
        for nf in orbit:
            str(nf), repr(nf)
        assert counts["format_word"] == len(orbit) > 20, text
        # icc_probe_orbit: one BFS for all its radii, and no text for the
        # elements it only counts
        counts.clear()
        evidence = icc_probe_orbit(parse_word(oracle, text), radii=(4, 2, 4)).evidence
        assert counts == {"normalize": 1} and evidence[0] == evidence[2] == (4, len(orbit)), text


def test_orbit_sample_refuses_more_than_the_limit(bs23, monkeypatch, capsys):
    x = parse_word(bs23, "b")
    # BS(2,3) b: 118 normal forms at radius 5, 282 at radius 6
    monkeypatch.setitem(calculus._LIMITS, "normal forms", 200)
    assert len(orbit_sample(x, 5)) == 118
    calls = []

    def lmul(*args):
        calls.append(args)
        return _nf_lmul_letter(*args)

    monkeypatch.setattr(analysis, "_nf_lmul_letter", lmul)
    for radius in (6, 10**9):
        calls.clear()
        with pytest.raises(ValueError, match=f"radius {radius} holds more than 200 normal forms"):
            orbit_sample(x, radius)
        # each element is conjugated by the four letters at most once
        assert len(calls) <= 4 * 201
    with pytest.raises(ValueError, match="more than 200"):
        icc_probe_orbit(x, radii=(2, 6))
    code = cli.main(["--m", "2", "--n", "3", "orbit", "b", "--radius", "6"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


SYMDIFF_LETTERS = ["a", "a^-1", "b", "b^-1", "b^2", "b^-3", "b^4"]


@pytest.mark.parametrize("mn", [(2, 3), (3, 2), (-2, 3), (1, 4)], ids=str)
def test_symdiff_ratio_matches_reference_bs(mn):
    oracle = make_bs(*mn)
    rng = random.Random(str(mn))
    for k in (2, 5, 12):
        chain = folner_chain_bs(*mn, k)
        for _ in range(40):
            # unmarked words with pinches such as "a^-1 b^2 a" or "a a^-1"
            text = " ".join(rng.choice(SYMDIFF_LETTERS) for _ in range(rng.randint(0, 7)))
            g = parse_word(oracle, text)
            assert symdiff_ratio(chain, g) == reference_symdiff_ratio(chain, g), (mn, k, text)


def test_symdiff_ratio_matches_reference_ascending(zd_fib):
    rng = random.Random(5)
    gens = generator_letter_words(zd_fib)
    for k in (2, 4, 7):
        chain = folner_chain_ascending(zd_fib, (1, 0), k)
        for _ in range(40):
            g = raw_word(zd_fib, [rng.choice(gens) for _ in range(rng.randint(0, 6))])
            assert symdiff_ratio(chain, g) == reference_symdiff_ratio(chain, g), (k, str(g))


def test_icc_probe_is_empirical(bs23):
    verdict = icc_probe_orbit(base_word(bs23, 1), radii=(1, 2, 3))
    assert verdict.status == EMPIRICAL
    assert verdict.witness is None
    radii = [r for r, _ in verdict.evidence]
    sizes = [s for _, s in verdict.evidence]
    assert radii == [1, 2, 3]
    assert sizes == sorted(sizes)


# --- Folner chains -----------------------------------------------------------


def test_folner_bs_exponents():
    assert folner_chain_bs(2, 3, 2).elements == (54, 36, 24)
    assert folner_chain_bs(2, 3, 1).elements == (18, 12)
    assert folner_chain_bs(2, 2, 2).elements == (16, 16, 16)


def test_folner_bs_big_integers():
    chain = folner_chain_bs(2, 3, 50)
    assert chain.k == 50
    assert chain.elements[0] == 2 * 3**51
    assert chain.elements[-1] == 2**51 * 3


def test_folner_chain_invariants(bs23):
    chain = folner_chain_bs(2, 3, 6)
    ora = chain.oracle
    for prev, cur in zip(chain.elements, chain.elements[1:]):
        assert ora.phi(prev) == cur
    for h in chain.elements:
        assert ora.in_H(h) and ora.in_K(h) and ora.is_central(h) and h != 0
    assert len(set(chain.elements)) == len(chain.elements)


def predicted_digits(m, n, k):
    """The digits of the BS(m, n) chain as folner_chain_bs predicts them:
    one per element and log10 of each element's magnitude, with log10|m n|
    bounded through the bit length of |m n| - 1."""
    return k + 1 + (k + 1) * (k + 2) * (abs(m * n) - 1).bit_length() * 30103 // 200000


def test_folner_bs_refuses_a_chain_over_the_digit_budget(monkeypatch, capsys):
    for m, n, k in [(2, 3, 40), (-3, 4, 25), (1, 5, 60), (6, 1, 9), (1, -1, 30)]:
        digits = sum(len(str(abs(h))) for h in folner_chain_bs(m, n, k).elements)
        assert k + 1 <= digits <= predicted_digits(m, n, k)
    # the budget in force admits --k 4000 on BS(2,3) and refuses --k 20000
    assert predicted_digits(2, 3, 4000) <= calculus._LIMITS["digits"] < predicted_digits(2, 3, 20000)
    monkeypatch.setitem(calculus._LIMITS, "digits", 1000)
    assert predicted_digits(2, 3, 44) <= 1000 < predicted_digits(2, 3, 45)
    assert folner_chain_bs(2, 3, 44).k == 44
    with pytest.raises(ValueError, match="^the chain with k = 45 holds more than 1000 digits$"):
        folner_chain_bs(2, 3, 45)
    # BS(+-1, +-1): one digit per element
    assert folner_chain_bs(-1, 1, 999).elements == (-1, 1) * 500
    with pytest.raises(ValueError, match="more than 1000 digits"):
        folner_chain_bs(1, -1, 1000)
    assert cli.main(["--m", "2", "--n", "3", "folner", "--k", "45"]) == 1
    assert capsys.readouterr().err == "error: the chain with k = 45 holds more than 1000 digits\n"


def test_folner_ascending_refuses_a_chain_over_the_digit_budget(monkeypatch, zd_fib):
    # the digits are counted from bit lengths as the iterates are made
    chain = folner_chain_ascending(zd_fib, (1, 0), 20)
    digits = sum(analysis._digits(h) for h in chain.elements)
    assert sum(len(str(abs(x))) for h in chain.elements for x in h) <= digits
    monkeypatch.setitem(calculus._LIMITS, "digits", digits)
    assert folner_chain_ascending(zd_fib, (1, 0), 20).elements == chain.elements
    with pytest.raises(ValueError, match=f"^the chain with k = 21 holds more than {digits} digits$"):
        folner_chain_ascending(zd_fib, (1, 0), 21)


def test_folner_ascending_bs():
    chain = folner_chain_ascending(make_bs(2, 1), 1, 2)
    assert chain.elements == (1, 2, 4)


def test_folner_ascending_zd(zd_fib):
    chain = folner_chain_ascending(zd_fib, (1, 0), 2)
    assert chain.elements == ((1, 0), (2, 1), (5, 3))


def test_folner_ascending_rejects_identity(zd_fib):
    with pytest.raises(ValueError):
        folner_chain_ascending(zd_fib, (0, 0), 3)


def test_folner_ascending_guards_non_ascending(bs23):
    # H = 3Z is proper, iterates of b leave it immediately
    with pytest.raises(DomainError):
        folner_chain_ascending(bs23, 1, 2)


class NoncentralBs(BsOracle):
    """BS(m, n) that calls no base element central.  The base group of BS
    and of Z^d is abelian, so only such an oracle fails the centrality check
    of a chain."""

    def is_central(self, x) -> bool:
        return False


# each chain breaks one condition, and the conditions before it hold
BROKEN_CHAINS = {
    "length": (make_bs(2, 3), (6,), True, "chain needs at least two elements"),
    # phi(0) = 0, so a chain with a trivial element has no distinct elements
    "trivial": (make_bs(2, 3), (0, 0), False, "h_0 is trivial"),
    "central": (NoncentralBs(BsParams(2, 3)), (18, 12), True, "h_0 is not central"),
    # BS(2,3) has H = 3Z, K = 2Z and phi(3k) = 2k
    "H": (make_bs(2, 3), (6, 4), True, "h_1 is not in H"),
    "K": (make_bs(2, 3), (9, 6), True, "h_0 is not in K"),
    "phi": (make_bs(2, 3), (6, 12), True, "h_1 != phi(h_0)"),
    # BS(2,2) has phi the identity on H = K = 2Z
    "distinct": (make_bs(2, 2), (2, 2), True, "chain elements are not pairwise distinct"),
}


@pytest.mark.parametrize("case", BROKEN_CHAINS)
def test_folner_verify_refuses_each_broken_condition(case):
    oracle, elements, require_distinct, message = BROKEN_CHAINS[case]
    chain = FolnerChain(oracle, case, elements)
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        chain.verify(require_distinct)


def test_folner_verify_relaxes_only_what_it_is_asked_to():
    # the chains that break membership at an end, or distinctness, pass once
    # that requirement is lifted, and the noncentral chain is a valid one
    FolnerChain(make_bs(2, 3), "H", (6, 4)).verify(True, interior_only=True)
    FolnerChain(make_bs(2, 3), "K", (9, 6)).verify(True, interior_only=True)
    FolnerChain(make_bs(2, 2), "distinct", (2, 2)).verify(False)
    FolnerChain(make_bs(2, 3), "central", (18, 12)).verify(True)


# --- symmetric difference ratios ---------------------------------------------


def test_symdiff_frozen_values(bs23):
    chain = folner_chain_bs(2, 3, 10)
    assert symdiff_ratio(chain, base_word(bs23, 1)) == 0
    assert symdiff_ratio(chain, stable_word(bs23)) == Fraction(2, 9)
    assert symdiff_ratio(chain, stable_word(bs23, 1, 2)) == Fraction(4, 9)


def test_symdiff_bound_random_words(bs23):
    chain = folner_chain_bs(2, 3, 10)
    rng = random.Random(42)
    letters = ["a", "a^-1", "b", "b^-1"]
    for _ in range(100):
        text = " ".join(rng.choice(letters) for _ in range(rng.randint(0, 5)))
        g = parse_word(bs23, text)
        assert symdiff_ratio(chain, g) <= Fraction(2 * length(g), 9)


def test_symdiff_bound_other_windows(bs23):
    for k in (5, 20):
        chain = folner_chain_bs(2, 3, k)
        rng = random.Random(k)
        letters = ["a", "a^-1", "b", "b^-1"]
        for _ in range(30):
            text = " ".join(rng.choice(letters) for _ in range(rng.randint(0, 5)))
            g = parse_word(bs23, text)
            assert symdiff_ratio(chain, g) <= Fraction(2 * length(g), k - 1)


def test_symdiff_requires_window(bs23):
    with pytest.raises(ValueError):
        symdiff_ratio(folner_chain_bs(2, 3, 1), base_word(bs23, 1))


def test_symdiff_refuses_a_word_of_another_oracle():
    with pytest.raises(ValueError, match="word belongs to a different oracle"):
        symdiff_ratio(folner_chain_bs(2, 3, 4), base_word(make_bs(3, 2), 1))


# --- escape exponents ---------------------------------------------------------


def test_escape_frozen_values(bs23):
    assert escape_exponent([base_word(bs23, 1)], 10) == 1
    assert escape_exponent([base_word(bs23, 3)], 10) == 2


def test_escape_accepts_bs_2_4():
    oracle = make_bs(2, 4)  # 4 does not divide 2, premise holds
    assert escape_exponent([base_word(oracle, 1)], 10) >= 1


def test_escape_rejects_divisible():
    oracle = make_bs(4, 2)
    with pytest.raises(HypothesisViolationError):
        escape_exponent([base_word(oracle, 2)], 10)


def test_escape_persistence(bs23):
    for exponent in (1, 3, 9):
        words = [base_word(bs23, exponent)]
        n0 = escape_exponent(words, 12)
        a = stable_word(bs23)
        for n in range(n0, n0 + 6):
            for w in words:
                moved = mul(mul(stable_word(bs23, -1, n), w), stable_word(bs23, 1, n))
                assert moved.tail, (exponent, n)


def test_escape_mixed_set(bs23):
    n0 = escape_exponent([base_word(bs23, 1), base_word(bs23, 3), base_word(bs23, 9)], 12)
    assert n0 == 3  # b^9 -> b^6 -> b^4 needs three steps


def test_escape_rejects_nonpositive_n_max(bs23):
    for n_max in (0, -3):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            escape_exponent([base_word(bs23, 1)], n_max)


def test_escape_exhaustion(bs23):
    with pytest.raises(EscapeExhaustionError) as exc:
        escape_exponent([base_word(bs23, 3**40)], 5)
    assert exc.value.trace


def reference_escape_exponent(words, n_max):
    """The scan to n_max with no early stop: the first step of the last run
    of steps at which every conjugate a^-n x a^n has a stable letter."""
    oracle = words[0].oracle
    a, a_inv = generator_letter_words(oracle)[:2]
    current = list(words)
    run_start, trace = None, []
    for step in range(1, n_max + 1):
        current = [mul(mul(a_inv, w), a) for w in current]
        inside = [format_word(w) for w in current if not w.tail]
        trace.append((step, inside))
        if inside:
            run_start = None
        elif run_start is None:
            run_start = step
    if run_start is None:
        raise EscapeExhaustionError(
            f"no escape exponent up to n_max = {n_max}; "
            f"still inside the base group: {trace[-1][1]}",
            trace,
        )
    return run_start


def escape_outcome(fn, words, n_max):
    try:
        return fn(words, n_max)
    except EscapeExhaustionError as exc:
        return str(exc), exc.trace


def test_escape_stops_early_with_the_same_answer():
    # a word stays outside for good once its a-exponent sum is nonzero or
    # it reads a^-1 ... a; stopping there changes no answer and no trace
    rng = random.Random(1207)
    groups = [(2, 3), (3, 2), (2, 4), (1, 2), (1, 5), (-3, 4), (2, -3), (3, 5)]
    outcomes = set()
    for m, n in groups:
        oracle = make_bs(m, n)
        for _ in range(40):
            words, size = [], rng.randint(1, 3)
            while len(words) < size:
                tail = tuple((rng.choice((1, -1)), rng.randint(-9, 9)) for _ in range(rng.randint(0, 3)))
                w = HnnWord(oracle, rng.choice((0, 1, -5, 7, 36, m * n, 2**9 * 3**7)), tail)
                if not equals(w, identity_word(oracle)):
                    words.append(w)
            n_max = rng.randint(1, 14)
            got = escape_outcome(escape_exponent, words, n_max)
            assert got == escape_outcome(reference_escape_exponent, words, n_max), (m, n, words, n_max)
            outcomes.add(type(got))
    assert outcomes == {int, tuple}


def test_escape_answers_past_the_str_digit_limit():
    # b^(2^1400) stays in H = 2Z of BS(3, 2) for 1,400 steps; its last value
    # inside, b^(3^1400), has 668 digits, past a limit of 640, but the answer
    # is an integer and no word is printed
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert escape_exponent([base_word(make_bs(3, 2), 2**1400)], 2000) == 1401
    finally:
        sys.set_int_max_str_digits(saved)


def test_escape_rejects_trivial(bs23):
    with pytest.raises(ValueError):
        escape_exponent([base_word(bs23, 0)], 5)


def test_escape_returns_a_run_that_starts_at_n_max(bs23):
    # a^-1 (a^2 b a^-2) a = a b a^-1 has no stable-letter sum and reads
    # a ... a^-1, so the scan ends at n_max with its run just begun
    words = [parse_word(bs23, "a^2 b a^-2")]
    assert escape_exponent(words, 1) == reference_escape_exponent(words, 1) == 1


def test_escape_refuses_empty_foreign_and_mixed_sets(bs23, zd_fib):
    cases = [
        ([], "F must be nonempty"),
        ([base_word(zd_fib, (1, 0))], "escape exponents are implemented for BS oracles only"),
        ([base_word(bs23, 1), base_word(make_bs(3, 2), 1)], "words belong to different oracles"),
    ]
    for words, message in cases:
        with pytest.raises(ValueError, match=message):
            escape_exponent(words, 5)
