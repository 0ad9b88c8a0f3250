import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnnkit import (
    BsOracle,
    DomainError,
    HnnWord,
    VerificationError,
    WordParseError,
    base_word,
    britton_reduce,
    conjugate,
    cyclic_reduce,
    equals,
    fixed_by_some_phi_j,
    format_word,
    identity_word,
    inv,
    length,
    make_bs,
    make_zd,
    mul,
    normalize,
    parse_word,
    phi_iter,
    phi_iter_domain,
    stable_word,
)
from hnnkit import calculus
from hnnkit.bs import BsParams

from conftest import FUZZ_GROUPS, bs_word_strategy, oracle_and_words, protocol_bs

ZD_FIB = make_zd([[2, 1], [1, 1]])


# --- britton_reduce -----------------------------------------------------


def test_reduce_pinch_negative_positive(bs23):
    w = parse_word(bs23, "a^-1 b^3 a")
    assert format_word(britton_reduce(w)) == "b^2"


def test_reduce_pinch_positive_negative(bs23):
    w = parse_word(bs23, "a b^4 a^-1")
    assert format_word(britton_reduce(w)) == "b^6"


def test_reduce_empty_word(bs23):
    w = identity_word(bs23)
    assert britton_reduce(w) is w


def test_reduce_leaves_reduced_word_alone(bs23):
    w = parse_word(bs23, "a^-1 b a")
    assert britton_reduce(w) is w  # 1 not in 3Z, no pinch


def test_reduce_marks_a_pinch_free_word(bs23, monkeypatch):
    r = britton_reduce(parse_word(bs23, "a^-1 b a b"))
    calls = []
    real = calculus._reduce

    def _reduce(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(calculus, "_reduce", _reduce)
    mul(r, r)
    inv(r)
    assert calls == []


def test_reduce_cascades(bs23):
    w = parse_word(bs23, "a^-1 a^-1 b^9 a a")
    assert format_word(britton_reduce(w)) == "b^4"


# --- length -------------------------------------------------------------


def test_length_base_element(bs23):
    assert length(parse_word(bs23, "b^5")) == 0


def test_length_reduced(bs23):
    assert length(parse_word(bs23, "a^-1 b a")) == 2


def test_length_after_reduction(bs23):
    assert length(parse_word(bs23, "a^-1 b^3 a")) == 0


# --- normalize ----------------------------------------------------------


def test_normalize_pushes_subgroup_part_left(bs23):
    nf = normalize(parse_word(bs23, "b a b^5"))
    assert str(nf) == "b^7 a b"


def test_normalize_base_element(bs23):
    assert str(normalize(parse_word(bs23, "b^2"))) == "b^2"


def test_normalize_negative_letter(bs23):
    assert str(normalize(parse_word(bs23, "a^-1 b^7"))) == "b^4 a^-1 b"


def test_normalize_is_group_equality(bs23):
    u = normalize(parse_word(bs23, "b a b^5"))
    v = normalize(parse_word(bs23, "b^7 a b"))
    assert u == v
    assert hash(u) == hash(v)


# --- mul / inv / conjugate ----------------------------------------------


def test_mul_cancels(bs23):
    a = stable_word(bs23)
    assert not mul(a, inv(a)).tail
    assert mul(a, inv(a)).head == 0


def test_conjugate_applies_phi(bs23):
    got = conjugate(stable_word(bs23, -1), base_word(bs23, 3))
    assert format_word(got) == "b^2"


def test_inv_is_formal_inverse(bs23):
    w = parse_word(bs23, "b a")
    assert format_word(inv(w)) == "a^-1 b^-1"


# --- equals ---------------------------------------------------------------


def test_equals_defining_relation(bs23):
    assert equals(parse_word(bs23, "a b^2 a^-1"), parse_word(bs23, "b^3"))


def test_equals_distinguishes(bs23):
    assert not equals(parse_word(bs23, "b"), parse_word(bs23, "b^2"))


def test_equals_normal_form_pair(bs23):
    assert equals(parse_word(bs23, "b a b^5"), parse_word(bs23, "b^7 a b"))


# --- cyclic_reduce --------------------------------------------------------


def test_cyclic_reduce_wrap_pinch(bs23):
    w = parse_word(bs23, "a b^3 a^-1")
    core, g = cyclic_reduce(w)
    assert format_word(core) == "b^3"
    assert format_word(g) == "a"
    assert equals(w, mul(mul(g, core), inv(g)))


def test_cyclic_reduce_rotation_is_canonical(bs23):
    w = parse_word(bs23, "b a")
    core, g = cyclic_reduce(w)
    assert format_word(core) == "a b"
    assert not g.tail  # conjugator is a base element
    assert equals(w, mul(mul(g, core), inv(g)))


def test_cyclic_reduce_base_element(bs23):
    core, g = cyclic_reduce(parse_word(bs23, "b^4"))
    assert format_word(core) == "b^4"
    assert format_word(g) == "1"


def test_cyclic_reduce_deep_wrap(bs23):
    w = parse_word(bs23, "b a^2 b^3 a^-2 b^-1")
    core, g = cyclic_reduce(w)
    assert not core.tail
    assert equals(w, mul(mul(g, core), inv(g)))


# --- phi iteration --------------------------------------------------------


def test_phi_iter_two_steps(bs23):
    assert phi_iter_domain(bs23, 9, 2)
    assert phi_iter(bs23, 9, 2) == 4


def test_phi_iter_domain_shrinks(bs23):
    assert not phi_iter_domain(bs23, 3, 2)  # phi(b^3) = b^2, 2 not in 3Z


def test_phi_iter_identity(bs23):
    for j in (1, 3, 7):
        assert phi_iter(bs23, 0, j) == 0


def test_phi_iter_outside_domain_raises(bs23):
    with pytest.raises(DomainError):
        phi_iter(bs23, 3, 2)


def test_fixed_by_some_phi_j_icc_case(bs23):
    assert fixed_by_some_phi_j(bs23, 3, 10) is None


def test_fixed_by_some_phi_j_torsion_like_case(bs22):
    assert fixed_by_some_phi_j(bs22, 2, 3) == 1


def test_fixed_by_some_phi_j_identity(bs23):
    assert fixed_by_some_phi_j(bs23, 0, 5) == 1


# --- parsing --------------------------------------------------------------


def test_parse_round_trip(bs23):
    for text in ["a^-1 b^3 a", "b^7 a b", "a^2 b^-5", "1", "a a^-1", "b a^3 a^-2 b^-1"]:
        assert format_word(parse_word(bs23, text)) == text


def test_parse_whitespace_optional(bs23):
    assert parse_word(bs23, "b^2a").key() == parse_word(bs23, "b^2 a").key()


def test_parse_unknown_letter(bs23):
    with pytest.raises(WordParseError) as exc:
        parse_word(bs23, "b^2 c")
    assert exc.value.position == 4


def test_parse_bad_exponent(bs23):
    with pytest.raises(WordParseError):
        parse_word(bs23, "b^x")


@pytest.mark.parametrize(
    "text, position",
    [("b^\u00b2", 2), ("b^\u0661\u0662", 2), ("a^-\u00b2", 2), ("b a^ \u0663", 5)],
)
def test_parse_rejects_non_ascii_digits(bs23, text, position):
    # superscript two and Arabic-Indic digits pass str.isdigit
    with pytest.raises(WordParseError) as exc:
        parse_word(bs23, text)
    assert exc.value.position == position


@pytest.mark.parametrize(
    "text, position",
    [
        ("a^1000001", 2),
        ("a^-1000001", 2),
        ("a^600000 a^600000", 11),
        ("a^1000000 a", 10),
        ("b a^10000000000000000000", 4),
    ],
)
def test_parse_refuses_too_many_stable_letters(bs23, text, position):
    # refused before the stable letters are built, counting the whole text
    with pytest.raises(WordParseError, match="more than 1000000 stable letters") as exc:
        parse_word(bs23, text)
    assert exc.value.position == position


@pytest.mark.parametrize(
    "text, position",
    [("b^" + "9" * 5000, 2), ("a b^-" + "9" * 4301, 4)],
    ids=["b^(5000 nines)", "a b^-(4301 nines)"],
)
def test_parse_refuses_an_exponent_too_long_for_int(bs23, text, position):
    # int() converts at most 4300 digits by default
    with pytest.raises(WordParseError, match="an exponent of more than 4300 digits") as exc:
        parse_word(bs23, text)
    assert exc.value.position == position
    assert parse_word(bs23, "b^" + "9" * 4300).head == 10**4300 - 1


def test_format_refuses_an_integer_past_the_str_digit_limit():
    # Python turns at most sys.get_int_max_str_digits() digits into text;
    # past that the oracles' element text raises hnnkit's own one line
    bs12 = make_bs(1, 2)
    big = normalize(parse_word(bs12, "a^2200 b a^-2200")).word
    assert big.head == 2**2200  # 663 digits
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for element_text in (
            lambda: format_word(big),
            lambda: make_zd([[2, 0], [0, 2]]).format_element((1, -(2**2200))),
        ):
            with pytest.raises(ValueError, match="^an integer of more than 640 digits$"):
                element_text()
        assert format_word(normalize(parse_word(bs12, "a^2000 b a^-2000")).word) == f"b^{2**2000}"
    finally:
        sys.set_int_max_str_digits(saved)


def test_stable_word_refuses_past_the_stable_letter_limit(bs23, monkeypatch):
    # refused up front, as parse_word refuses the same word: no word is built
    monkeypatch.setattr(calculus, "_reduced_word", lambda *args: pytest.fail("a word was built"))
    for count in (10**6 + 1, 10**9):
        with pytest.raises(ValueError, match="^a word of more than 1000000 stable letters$"):
            stable_word(bs23, -1, count)
    monkeypatch.undo()
    assert len(stable_word(bs23, 1, 10**6).tail) == 10**6


def test_parse_admits_the_stable_letter_limit(bs23):
    assert len(parse_word(bs23, "a^999999 a^-1").tail) == 10**6
    # base-letter exponents are not stable letters
    assert parse_word(bs23, "b^10000000000000000000").head == 10**19


def test_parse_builds_letter_table_once(monkeypatch):
    oracle = make_bs(2, 3)
    calls = []
    real = BsOracle.base_letters

    def base_letters(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(BsOracle, "base_letters", base_letters)
    for text in ("b a", "a^-1 b^3 a", "b^-2"):
        parse_word(oracle, text)
    assert calls == [oracle]


def reference_parse_word(oracle, text):
    """parse_word as a loop over characters: skip whitespace, take the first
    letter name (longest first) the text continues with, then an optional
    ``^`` and exponent of ASCII digits; more than a million stable letters
    in all are refused at the term that passes the limit."""
    table = [(oracle.stable_letter, "stable", None), ("t", "stable", None), ("1", "identity", None)]
    table += [(name, "base", value) for name, value in oracle.base_letters().items()]
    table.sort(key=lambda item: len(item[0]), reverse=True)
    n, i = len(text), 0
    head, tail = oracle.identity, []
    while True:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            return HnnWord(oracle, head, tuple(tail))
        for name, kind, value in table:
            if text.startswith(name, i):
                break
        else:
            raise WordParseError(f"unknown letter {text[i]!r}", i)
        start, i = i, i + len(name)
        exp, j = 1, i
        while j < n and text[j].isspace():
            j += 1
        if j < n and text[j] == "^":
            j += 1
            while j < n and text[j].isspace():
                j += 1
            k = j + (j < n and text[j] in "+-")
            digits = k
            while k < n and text[k] in "0123456789":
                k += 1
            if k == digits:
                raise WordParseError("expected an integer exponent after '^'", j)
            exp, i, start = int(text[j:k]), k, j
        if kind == "stable":
            if len(tail) + abs(exp) > 10**6:
                raise WordParseError(f"more than {10**6} stable letters", start)
            tail += [(1 if exp > 0 else -1, oracle.identity)] * abs(exp)
        elif kind == "base" and exp:
            x = oracle.power(value, exp)
            if tail:
                tail[-1] = (tail[-1][0], oracle.mul(tail[-1][1], x))
            else:
                head = oracle.mul(head, x)


def parse_outcome(oracle, parse, text):
    try:
        return parse(oracle, text).key()
    except WordParseError as exc:
        return str(exc), exc.position


TEXT_PIECES = ["a", "b", "t", "e", "e1", "e2", "1", "2", "^", "-", "+", "0", "7", "12",
               " ", "  ", "\t", "\u00a0", "\u00b2", "\u0663", "c", "^-3", "^ 2"]


@given(st.sampled_from([make_bs(2, 3), make_bs(-3, 4), ZD_FIB]),
       st.lists(st.sampled_from(TEXT_PIECES), max_size=12).map("".join))
@settings(max_examples=400, deadline=None)
def test_parse_word_matches_reference(oracle, text):
    assert parse_outcome(oracle, parse_word, text) == parse_outcome(
        oracle, reference_parse_word, text)


# --- properties -----------------------------------------------------------


def insert_relator(oracle, w, rng):
    """Splice t^-1 h t phi(h)^-1 or t k t^-1 phi_inv(k)^-1 into the letter
    stream of w at a random position."""
    tokens = [("elem", w.head)]
    for sign, elem in w.tail:
        tokens.append(("t", sign))
        tokens.append(("elem", elem))
    k = rng.randrange(-5, 6) or 1
    if rng.random() < 0.5:
        h = oracle.params.n * k
        relator = [("t", -1), ("elem", h), ("t", 1), ("elem", -oracle.phi(h))]
    else:
        kk = oracle.params.m * k
        relator = [("t", 1), ("elem", kk), ("t", -1), ("elem", -oracle.phi_inv(kk))]
    pos = rng.randrange(len(tokens) + 1)
    tokens[pos:pos] = relator
    head = oracle.identity
    tail = []
    for kind, value in tokens:
        if kind == "t":
            tail.append((value, oracle.identity))
        elif tail:
            s, last = tail[-1]
            tail[-1] = (s, oracle.mul(last, value))
        else:
            head = oracle.mul(head, value)
    return HnnWord(oracle, head, tuple(tail))


@given(oracle_and_words())
@settings(max_examples=150, deadline=None)
def test_reduce_idempotent(data):
    _, w = data
    r = britton_reduce(w)
    assert britton_reduce(r).key() == r.key()


@given(oracle_and_words(), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_relator_insertion_invariance(data, seed):
    oracle, w = data
    mutated = insert_relator(oracle, w, random.Random(seed))
    assert normalize(mutated) == normalize(w)


@given(oracle_and_words(count=2))
@settings(max_examples=150, deadline=None)
def test_equality_coherence(data):
    _, u, v = data
    by_nf = normalize(u) == normalize(v)
    diff = britton_reduce(mul(u, inv(v)))
    by_diff = not diff.tail and diff.oracle.is_identity(diff.head)
    assert equals(u, v) == by_nf == by_diff


@given(oracle_and_words(count=2))
@settings(max_examples=150, deadline=None)
def test_length_subadditive(data):
    _, u, v = data
    assert length(mul(u, v)) <= length(u) + length(v)
    assert length(inv(u)) == length(u)


@given(oracle_and_words(count=2, max_syllables=3))
@settings(max_examples=100, deadline=None)
def test_cyclic_core_length_conjugation_invariant(data):
    _, g, x = data
    core_x, _ = cyclic_reduce(x)
    core_c, _ = cyclic_reduce(conjugate(g, x))
    assert length(core_c) == length(core_x)


@given(oracle_and_words(count=2, max_syllables=3))
@settings(max_examples=100, deadline=None)
def test_cyclic_reduce_certificate(data):
    _, _, x = data
    core, g = cyclic_reduce(x)
    assert equals(x, mul(mul(g, core), inv(g)))


def unrolled_domain(oracle, x, j):
    """Literal recursion Dom(phi^1) = H, Dom(phi^j) = phi^-1(Dom(phi^{j-1}) cap K)."""
    if j == 1:
        return oracle.in_H(x)
    if not oracle.in_H(x):
        return False
    y = oracle.phi(x)
    return oracle.in_K(y) and unrolled_domain(oracle, y, j - 1)


@given(oracle_and_words())
@settings(max_examples=100, deadline=None)
def test_dom_recursion_matches_membership(data):
    oracle, w = data
    x = w.head
    for j in range(1, 6):
        assert phi_iter_domain(oracle, x, j) == unrolled_domain(oracle, x, j)


# --- reduced-by-construction words ------------------------------------------


def reference_reduce(oracle, *words):
    """The product of ``words`` by the algorithm mul used before seam-only
    cancellation: concatenate the token streams, then remove pinches
    leftmost-innermost with a stack.  Returns ``(head, tail)``."""
    head, stack = oracle.identity, []

    def merge(x):
        nonlocal head
        if stack:
            stack[-1] = (stack[-1][0], oracle.mul(stack[-1][1], x))
        else:
            head = oracle.mul(head, x)

    for w in words:
        merge(w.head)
        for sign, elem in w.tail:
            if stack:
                top_sign, top = stack[-1]
                if top_sign == -1 and sign == 1 and oracle.in_H(top):
                    stack.pop()
                    merge(oracle.mul(oracle.phi(top), elem))
                    continue
                if top_sign == 1 and sign == -1 and oracle.in_K(top):
                    stack.pop()
                    merge(oracle.mul(oracle.phi_inv(top), elem))
                    continue
            stack.append((sign, elem))
    return head, tuple(stack)


def formal_inverse(w):
    """Reversed letters with negated signs and inverted base elements, as an
    unreduced word built directly."""
    o = w.oracle
    elems = [w.head] + [e for _, e in w.tail]
    signs = [s for s, _ in w.tail]
    tail = tuple((-signs[i], o.inv(elems[i])) for i in range(len(signs) - 1, -1, -1))
    return HnnWord(o, o.inv(elems[-1]), tail)


def reference_word(oracle, *words):
    return HnnWord(oracle, *reference_reduce(oracle, *words))


def check_against_reference(oracle, u, v):
    assert britton_reduce(u).key() == reference_reduce(oracle, u)
    assert inv(u).key() == reference_reduce(oracle, formal_inverse(u))
    # mul reduces each factor first, then the seam: the reference over the
    # reduced factors gives the same word ...
    p = mul(u, v)
    assert p.key() == reference_reduce(oracle, reference_word(oracle, u), reference_word(oracle, v))
    # ... and the reference over the raw concatenation the same element,
    # with the same number of stable letters (Britton's lemma)
    raw = reference_word(oracle, u, v)
    assert len(p.tail) == len(raw.tail)
    assert equals(p, raw)


@given(oracle_and_words(count=2))
@settings(max_examples=200, deadline=None)
def test_word_ops_match_reference_on_unreduced_words(data):
    oracle, u, v = data
    check_against_reference(oracle, u, v)



def zd_word_strategy(oracle, max_syllables=4, max_entry=4):
    vec = st.tuples(st.integers(-max_entry, max_entry), st.integers(-max_entry, max_entry))
    return st.builds(
        lambda head, tail: HnnWord(oracle, head, tuple(tail)),
        vec,
        st.lists(st.tuples(st.sampled_from([1, -1]), vec), max_size=max_syllables),
    )


@given(zd_word_strategy(ZD_FIB), zd_word_strategy(ZD_FIB))
@settings(max_examples=150, deadline=None)
def test_word_ops_match_reference_over_zd(u, v):
    check_against_reference(ZD_FIB, u, v)


@given(st.sampled_from(FUZZ_GROUPS).flatmap(
    lambda mn: st.lists(bs_word_strategy(make_bs(*mn)), min_size=50, max_size=50)))
@settings(max_examples=30, deadline=None)
def test_mul_chain_of_marked_words_matches_reference(words):
    oracle = words[0].oracle
    p = ref = identity_word(oracle)
    for i, w in enumerate(words):
        # inv and normalize always return marked words
        factor = normalize(w).word if i % 2 else inv(w)
        p = mul(p, factor)
        ref = reference_word(oracle, ref, factor)
        assert p.key() == ref.key()


def test_mul_reduces_factors_first(bs23):
    u, v = parse_word(bs23, "a"), parse_word(bs23, "b^2 a^-1 b^3 a")
    # v reduces to b^4 before the seam; reducing the raw concatenation
    # instead cancels a b^2 a^-1 first and gives b^6 a
    assert format_word(mul(u, v)) == "a b^4"
    assert format_word(reference_word(bs23, u, v)) == "b^6 a"
    assert equals(mul(u, v), parse_word(bs23, "b^6 a"))


def test_marked_words_are_returned_as_they_are(bs23):
    w = parse_word(bs23, "b a^-1 b^3 a b^-1 a")
    for marked in (mul(w, w), inv(w), britton_reduce(w), normalize(w).word):
        assert britton_reduce(marked) is marked
    # a word built directly is unmarked, even when it spells a reduced word
    r = britton_reduce(w)
    copy = HnnWord(bs23, r.head, r.tail)
    assert britton_reduce(copy) is copy and copy.key() == r.key()


def test_verification_error_is_shared():
    import hnnkit
    from hnnkit import analysis, calculus

    assert analysis.VerificationError is calculus.VerificationError is VerificationError
    assert hnnkit.VerificationError is VerificationError



# --- canonical rotation in cyclic_reduce --------------------------------------


def reference_cyclic_reduce(w):
    """cyclic_reduce as it was before incremental normal forms: once the
    wrap pinches are gone, reduce, normalize and serialize every rotation of
    the core in full, and keep the first one with the least text."""
    oracle = w.oracle
    e = oracle.identity
    c = reference_word(oracle, w)
    g = identity_word(oracle)
    while c.tail:
        first_sign = c.tail[0][0]
        last_sign, last_elem = c.tail[-1]
        if first_sign != -last_sign:
            break
        wrap = oracle.mul(last_elem, c.head)
        if not (oracle.in_H(wrap) if last_sign == -1 else oracle.in_K(wrap)):
            break
        g = mul(g, HnnWord(oracle, c.head, ((first_sign, e),)))
        rotated = c.tail[1:-1] + ((last_sign, wrap), (first_sign, e))
        c = reference_word(oracle, HnnWord(oracle, c.tail[0][1], rotated))
    if not c.tail:
        return c, g
    g = mul(g, base_word(oracle, c.head))
    syllables = c.tail[:-1] + ((c.tail[-1][0], oracle.mul(c.tail[-1][1], c.head)),)
    best = None
    for k in range(len(syllables)):
        candidate = reference_word(oracle, HnnWord(oracle, e, syllables[k:] + syllables[:k]))
        assert len(candidate.tail) == len(syllables)
        nf = normalize(candidate).word
        text = format_word(nf)
        if best is None or text < best[0]:
            best = (text, nf, k)
    _, core, k = best
    return core, mul(g, HnnWord(oracle, e, syllables[:k]))


def check_cyclic_reduce(w):
    core, conj = cyclic_reduce(w)
    ref_core, ref_conj = reference_cyclic_reduce(w)
    assert core.key() == ref_core.key()
    assert conj.key() == ref_conj.key()
    return core


def check_powers(w):
    """The core, its square and its cube, whose rotations tie in pairs and
    triples, against the reference; then a conjugate of the cube, which has
    wrap pinches to remove first."""
    core = check_cyclic_reduce(w)
    square = mul(core, core)
    cube = mul(square, core)
    check_cyclic_reduce(square)
    check_cyclic_reduce(cube)
    check_cyclic_reduce(conjugate(w, cube))


def bs_words(max_syllables=12):
    return st.tuples(st.sampled_from(FUZZ_GROUPS), st.sampled_from([1, 9, 10**12])).flatmap(
        lambda g: bs_word_strategy(make_bs(*g[0]), max_syllables, g[1]))


@given(bs_words())
@settings(max_examples=150, deadline=None)
def test_cyclic_reduce_matches_reference(w):
    check_powers(w)


@given(zd_word_strategy(ZD_FIB, max_syllables=12, max_entry=2))
@settings(max_examples=100, deadline=None)
def test_cyclic_reduce_matches_reference_over_zd(w):
    check_powers(w)


def test_cyclic_reduce_periodic_core_keeps_first_rotation(bs23):
    # the core is periodic up to its head: two rotations tie, the first wins
    w = parse_word(bs23, "b a^-1 b^-1 a b^10 a^-1 a b^-17 a^-1 b^-1 a a^-1 a")
    check_cyclic_reduce(w)
    core, conj = cyclic_reduce(w)
    assert format_word(core) == "b^-12 a^-1 b^2 a b a^-1 b^2 a b"
    assert format_word(conj) == "b"


@pytest.mark.parametrize(
    "u, p, q", [("a", 8000, 1), ("a b", 1000, 1), ("a b a b^2", 40, 2), ("a b a^-1 b a b^2", 30, 3)]
)
def test_cyclic_reduce_scans_a_periodic_core_once(monkeypatch, u, p, q):
    # rotations k and k + q of a core of least period q are the same tuple,
    # so the scan makes rotations q - 1, ..., 1 only, each by two
    # _nf_lmul_letter products: none for a power of one syllable
    oracle = make_bs(2, 3)
    w = parse_word(oracle, " ".join([u] * p))
    if q == 1:
        # every rotation is rotation 0
        expected = (normalize(w).key(), (0, ()))
    else:
        ref_core, ref_conj = reference_cyclic_reduce(w)
        expected = (ref_core.key(), ref_conj.key())
    calls = []
    real = calculus._nf_lmul_letter

    def lmul(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(calculus, "_nf_lmul_letter", lmul)
    core, conj = cyclic_reduce(w)
    assert (core.key(), conj.key()) == expected
    assert len(core.tail) == len(w.tail)
    assert len(calls) == 2 * (q - 1)


def test_cyclic_reduce_checks_the_wrap_join(monkeypatch):
    oracle = make_bs(2, 3)
    w = britton_reduce(parse_word(oracle, "a b a^-1 b"))
    calls = []
    real = BsOracle.in_H

    def in_H(self, x):
        # truthful to the wrap-pinch loop, then a pinch at the join check
        calls.append(x)
        return len(calls) > 1 or real(self, x)

    monkeypatch.setattr(BsOracle, "in_H", in_H)
    with pytest.raises(VerificationError, match="rotation of a cyclic core"):
        cyclic_reduce(w)
    assert calls == [1, 1]


def test_cyclic_reduce_tests_each_wrap_pinch_once(monkeypatch):
    oracle = make_bs(2, 3)
    w = britton_reduce(parse_word(oracle, "a^3 b a b^-1 a^-3"))
    calls = []
    for name in ("in_H", "in_K"):
        real = getattr(BsOracle, name)

        def member(self, x, real=real):
            calls.append(x)
            return real(self, x)

        monkeypatch.setattr(BsOracle, name, member)
    core, conj = cyclic_reduce(w)
    # three wrap rotations, one membership test each; the core's one
    # syllable has no wrap join to test
    assert (format_word(core), format_word(conj)) == ("a", "a^3 b")
    assert calls == [0, 0, 0]


def test_cyclic_reduce_checks_recomputed_syllables():
    class DropsKRepresentative(BsOracle):
        def decompose_left_K(self, x):
            # drops the coset representative: t b^0 t^-1 is a pinch
            return x - x % 2, 0

    # a subclass runs the protocol loops, so its broken decomposition is used
    oracle = DropsKRepresentative(BsParams(2, 3))
    w = parse_word(oracle, "a b a^-1 b^2")
    for compute in (cyclic_reduce, normalize):
        with pytest.raises(VerificationError, match="pinch re-created"):
            compute(w)


def _die_at_once_core(oracle):
    # every syllable a coset representative: each carry is the identity
    return parse_word(oracle, "a^-1 b " * 40)


def _large_exponent_core(oracle):
    # b-exponents to 10^30 prime to 6, so in neither H nor K: no pinch, and
    # carries that phi scales by 3/2 and does not absorb
    rng = random.Random(8)
    tail = tuple(
        (rng.choice((1, -1)), 6 * rng.randint(-10**29, 10**29) + rng.choice((1, 5))) for _ in range(60)
    )
    return HnnWord(oracle, 0, tail)


@pytest.mark.parametrize("core, before", [(_die_at_once_core, 79), (_large_exponent_core, 3600)])
def test_cyclic_reduce_split_count(monkeypatch, core, before):
    # the rotation scan makes each rotation from the last one by one-letter
    # products; ``before`` counts the _split calls of the scan that reran
    # the carry until it met a stored one, and the products may add at most
    # one call per rotation.  BsOracle's integer kernel makes no _split
    # calls, so the count runs on the protocol loops of a subclass.
    oracle = protocol_bs(2, 3)
    w = core(oracle)
    calls = []
    real = calculus._split

    def split(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(calculus, "_split", split)
    n = len(cyclic_reduce(w)[0].tail)
    assert n == len(w.tail)
    assert len(calls) <= before + n - 1


def test_cyclic_reduce_peels_wrap_pinches_without_products(monkeypatch):
    # a^N b a^-N peels off by N wrap pinches, each a conjugation by the next
    # syllable of the reduced word: the conjugator is a prefix of that word,
    # read off by index, where the peel used to make one mul per pinch
    oracle = make_bs(2, 3)
    calls = []
    real = calculus.mul

    def mul(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(calculus, "mul", mul)
    core, g = cyclic_reduce(parse_word(oracle, "a^50 b a^-50"))
    assert (str(core), str(g)) == ("b", "a^50")
    assert calls == []
