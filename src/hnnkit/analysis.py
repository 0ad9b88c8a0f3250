"""ICC decision procedures, conjugacy-orbit sampling, Folner-type chains and
escape exponents.

The two decision procedures (Baumslag-Solitar parameters, integer-matrix
ascending extensions) return exact verdicts with verified finite-class
witnesses in the negative cases; empirical orbit-growth evidence is produced
only by the sampling probe and never upgraded to a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Optional, Sequence

from .calculus import (
    BaseOracle,
    DomainError,
    HnnWord,
    NormalForm,
    VerificationError,
    _LIMITS,
    _more_than,
    _nf_lmul_letter,
    _nf_rmul_letter,
    _phi_iterates,
    _reduced_word,
    _seam,
    base_word,
    britton_reduce,
    format_word,
    identity_word,
    inv,
    mul,
    normalize,
    phi_iter,
    stable_word,
)
from .bs import BsOracle, dom_phi_j_closed_form, make_bs
from .zd import has_root_of_unity_eigenvalue, integer_fixed_vector, make_zd

__all__ = [
    "ICC",
    "NOT_ICC",
    "EMPIRICAL",
    "IccVerdict",
    "FolnerChain",
    "VerificationError",
    "HypothesisViolationError",
    "EscapeExhaustionError",
    "icc_decide_bs",
    "icc_decide_zd",
    "icc_probe_orbit",
    "thm1_hypothesis_bs",
    "orbit_sample",
    "folner_chain_bs",
    "folner_chain_ascending",
    "symdiff_ratio",
    "escape_exponent",
]

ICC = "ICC"
NOT_ICC = "NOT_ICC"
EMPIRICAL = "EMPIRICAL"


class HypothesisViolationError(ValueError):
    """The arithmetic premise of an operation does not hold."""


class EscapeExhaustionError(ValueError):
    """No stable escape exponent found within the search budget."""

    def __init__(self, message: str, trace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class IccVerdict:
    """status ICC / NOT_ICC / EMPIRICAL, with a finite-conjugacy-class
    witness for NOT_ICC and an orbit-growth table for EMPIRICAL."""

    status: str
    witness: Optional[tuple[HnnWord, ...]] = None
    evidence: Optional[tuple[tuple[int, int], ...]] = None

    def witness_strings(self) -> Optional[list[str]]:
        if self.witness is None:
            return None
        return sorted(format_word(w) for w in self.witness)


def _letter_conjugations(oracle: BaseOracle) -> list[tuple[tuple, tuple]]:
    """``(l, l^-1)`` for the letters l = t, t^-1, then each base generator
    and its inverse, as the ``(sign, x)`` letters of ``_nf_*_letter``."""
    letters = [(1, oracle.identity), (-1, oracle.identity)]
    for g in oracle.generators():
        letters += [(0, g), (0, oracle.inv(g))]
    return [(letter, letters[i ^ 1]) for i, letter in enumerate(letters)]


def verify_finite_class(oracle: BaseOracle, words: Sequence[HnnWord]) -> None:
    """Check that ``words`` is a nonempty identity-free set closed under
    conjugation by every group generator; raises VerificationError.  Each
    word is normalized once, and its conjugates are made from its normal
    form by one letter on each side."""
    if not words:
        raise VerificationError("witness set is empty")
    keys = {normalize(w).key() for w in words}
    if normalize(identity_word(oracle)).key() in keys:
        raise VerificationError("witness set contains the identity")
    for letter, inverse in _letter_conjugations(oracle):
        for nf in keys:
            if _nf_rmul_letter(oracle, _nf_lmul_letter(oracle, letter, nf), inverse) not in keys:
                gen = stable_word(oracle, letter[0]) if letter[0] else base_word(oracle, letter[1])
                raise VerificationError(
                    f"witness set is not closed under conjugation by {format_word(gen)}"
                )


def icc_decide_bs(m: int, n: int) -> IccVerdict:
    """BS(m, n) has infinite conjugacy classes exactly when |m| != |n|.

    When m = n the class of b^m is {b^m} (central element); when m = -n it is
    {b^m, b^-m}.  Witness closure is verified before returning.
    """
    oracle = make_bs(m, n)
    if abs(m) != abs(n):
        return IccVerdict(ICC)
    if m == n:
        witness = (base_word(oracle, m),)
    else:
        witness = (base_word(oracle, m), base_word(oracle, -m))
    verify_finite_class(oracle, witness)
    return IccVerdict(NOT_ICC, witness=witness)


def icc_decide_zd(matrix) -> IccVerdict:
    """The ascending extension of Z^d by an injective integer matrix is ICC
    exactly when no eigenvalue is a root of unity.  In the negative case the
    witness is the phi-orbit of a nonzero integer vector fixed by phi^k."""
    oracle = make_zd(matrix)
    k = has_root_of_unity_eigenvalue(oracle.matrix)
    if k is None:
        return IccVerdict(ICC)
    lam = integer_fixed_vector(oracle.matrix, k)
    if lam is None:
        raise VerificationError(f"phi^{k} should have a nonzero fixed vector")
    orbit = [lam]
    v = oracle.phi(lam)
    while v != lam:
        orbit.append(v)
        v = oracle.phi(v)
    witness = tuple(base_word(oracle, x) for x in orbit)
    verify_finite_class(oracle, witness)
    return IccVerdict(NOT_ICC, witness=witness)


def icc_probe_orbit(x: HnnWord, radii: Sequence[int] = (2, 4, 6)) -> IccVerdict:
    """Orbit-growth evidence for a single element; never a decision.  Each
    radius gets the size of its :func:`orbit_sample`, read off one BFS run
    only as far as the radii need (it stops early once the orbit is
    complete); the first radius refused, in the order given, raises."""
    layers, limit = map(len, _orbit_layers(x)), _LIMITS["normal forms"]
    sizes: list[int] = []
    evidence = []
    for r in radii:
        if r < 0:
            raise ValueError("radius must be nonnegative")
        sizes += islice(layers, max(r + 1 - len(sizes), 0))
        size = sizes[min(r, len(sizes) - 1)]
        if size > limit:
            raise ValueError(f"the orbit within radius {r} holds {_more_than('normal forms')}")
        evidence.append((r, size))
    return IccVerdict(EMPIRICAL, evidence=tuple(evidence))


def thm1_hypothesis_bs(m: int, n: int, j_max: int) -> bool:
    """True when every phi^j with j <= j_max is fixed-point-free away from
    the identity.

    For BS(m, n) a fixed point z * (m/n)^j = z with z != 0 forces
    m1^j = n1^j, so the arithmetic test is exact; the closed-form domain
    generator is cross-checked through the oracle as a guard.
    """
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    oracle = make_bs(m, n)
    params = oracle.params
    result = True
    for j in range(1, j_max + 1):
        arithmetic_fixed = params.m1 ** j == params.n1 ** j
        g = dom_phi_j_closed_form(params, j)
        oracle_fixed = phi_iter(oracle, g, j) == g
        if arithmetic_fixed != oracle_fixed:
            raise VerificationError(f"fixed-point routes disagree at j = {j}")
        if arithmetic_fixed:
            result = False
    return result


def orbit_sample(x: HnnWord, radius: int) -> tuple[NormalForm, ...]:
    """Normal forms of g x g^-1 over all g in the generator ball of the given
    radius, deduplicated, sorted by canonical serialization: the set of
    :func:`_orbit_layers` after ``radius`` layers.  More than
    ``_LIMITS["normal forms"]`` normal forms raise ``ValueError``.  Each
    element is formatted once, for the sort, and keeps its text."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    *_, seen = islice(_orbit_layers(x), radius + 1)
    if len(seen) > _LIMITS["normal forms"]:
        raise ValueError(f"the orbit within radius {radius} holds {_more_than('normal forms')}")
    orbit = (NormalForm(_reduced_word(x.oracle, *key)) for key in seen)
    return tuple(sorted(orbit, key=str))


def _orbit_layers(x: HnnWord) -> Iterator[set]:
    """A BFS over the normal forms of the conjugates of ``x``: one set of
    ``(head, tail)`` keys, yielded once it holds those within radius 0, 1,
    2, ...  The generator ball B_r is B_{r-1} and l B_{r-1} for the
    one-letter words l, so radius r adds only the l c l^-1 with c first
    reached at radius r - 1.  Normal forms are unique (Britton's lemma), so
    l c l^-1 is made from that of c by one letter on each side; only ``x``
    is normalized in full.  The BFS stops after a layer that adds nothing,
    and cuts short the layer that takes the set past
    ``_LIMITS["normal forms"]``, which it yields last."""
    oracle, limit = x.oracle, _LIMITS["normal forms"]
    steps = _letter_conjugations(oracle)
    frontier = [normalize(x).key()]
    seen = set(frontier)
    while frontier:
        yield seen
        layer = []
        for c in frontier:
            for letter, inverse in steps:
                d = _nf_rmul_letter(oracle, _nf_lmul_letter(oracle, letter, c), inverse)
                if d not in seen:
                    seen.add(d)
                    layer.append(d)
                    if len(seen) > limit:
                        yield seen
                        return
        frontier = layer


@dataclass(frozen=True)
class FolnerChain:
    """A verified sequence h_0, ..., h_k of central base elements with
    h_i = phi(h_{i-1}); the inner-amenability witness."""

    oracle: BaseOracle
    label: str
    elements: tuple

    @property
    def k(self) -> int:
        return len(self.elements) - 1

    def verify(self, require_distinct: bool, interior_only: bool = False) -> None:
        """Check the phi-links, nontriviality, centrality and H/K membership.

        ``interior_only`` relaxes the H-and-K requirement to the window
        h_1..h_{k-1} (plus h_0 in H and h_k in K), which is what ascending
        chains starting from an arbitrary nontrivial element provide.
        """
        ora = self.oracle
        hs = self.elements
        if len(hs) < 2:
            raise VerificationError("chain needs at least two elements")
        for i, h in enumerate(hs):
            if ora.is_identity(h):
                raise VerificationError(f"h_{i} is trivial")
            if not ora.is_central(h):
                raise VerificationError(f"h_{i} is not central")
            need_h = not interior_only or i < len(hs) - 1
            need_k = not interior_only or i > 0
            if need_h and not ora.in_H(h):
                raise VerificationError(f"h_{i} is not in H")
            if need_k and not ora.in_K(h):
                raise VerificationError(f"h_{i} is not in K")
        for i in range(1, len(hs)):
            if ora.phi(hs[i - 1]) != hs[i]:
                raise VerificationError(f"h_{i} != phi(h_{i - 1})")
        if require_distinct and len(set(hs)) != len(hs):
            raise VerificationError("chain elements are not pairwise distinct")


def _digits(x) -> int:
    """The decimal digits of an integer, or of a tuple's integers, from bit
    lengths, not text: at least one each, and at most one over."""
    if isinstance(x, int):
        return x.bit_length() * 30103 // 100000 + 1
    return sum(map(_digits, x))


def folner_chain_bs(m: int, n: int, k: int) -> FolnerChain:
    """The chain h_i = b^(m^(i+1) n^(k-i+1)), i = 0..k, verified.

    Distinctness is asserted only when |m| != |n| (the ICC case); with
    |m| = |n| all elements share one exponent magnitude and the chain is
    still a valid certificate.  A chain predicted to hold more than
    ``_LIMITS["digits"]`` digits in all is refused before it is built."""
    if k < 1:
        raise ValueError("k must be >= 1")
    oracle = make_bs(m, n)
    # h_i has at most 1 + log10|m^(i+1) n^(k-i+1)| digits; log10 x <= 0.30103 ceil(log2 x)
    digits = k + 1 + (k + 1) * (k + 2) * (abs(m * n) - 1).bit_length() * 30103 // 200000
    if digits > _LIMITS["digits"]:
        raise ValueError(f"the chain with k = {k} holds {_more_than('digits')}")
    elements = tuple(m ** (i + 1) * n ** (k - i + 1) for i in range(k + 1))
    chain = FolnerChain(oracle, f"BS({m},{n})", elements)
    chain.verify(require_distinct=abs(m) != abs(n))
    return chain


def folner_chain_ascending(oracle: BaseOracle, lam, k: int) -> FolnerChain:
    """The chain phi^0(lam), ..., phi^k(lam) for an ascending oracle
    (H = whole base group) with abelian base; verified.  It is refused once
    its iterates pass ``_LIMITS["digits"]`` digits in all."""
    elements, digits, limit = [lam], _digits(lam), _LIMITS["digits"]
    for h in _phi_iterates(oracle, lam, k, "k"):
        digits += _digits(h)
        if digits > limit:
            raise ValueError(f"the chain with k = {k} holds {_more_than('digits')}")
        elements.append(h)
    if oracle.is_identity(lam):
        raise ValueError("lam must be nontrivial")
    if len(elements) <= k:
        left = oracle.format_element(elements[-1])
        raise DomainError(f"oracle is not ascending: {left} left H")
    chain = FolnerChain(oracle, f"{oracle.name} ascending", tuple(elements))
    chain.verify(require_distinct=False, interior_only=True)
    return chain


def symdiff_ratio(chain: FolnerChain, g: HnnWord) -> Fraction:
    """|g F g^-1 symdiff F| / |F| for the interior window
    F = {h_1, ..., h_{k-1}}, as an exact rational.

    ``g`` is reduced and inverted once, and each conjugate g h g^-1 is one
    pinch pass, of h times the reduced word of g^-1 onto that of g.
    Conjugation is injective, so |g F g^-1| = |F| and the symmetric
    difference has 2 (|F| - |F & gFg^-1|) elements.  By Britton's lemma a
    reduced word lies in the base group exactly when it has no stable
    letter, and then its head is the element, so no conjugate needs a
    normal form.
    """
    if chain.k < 2:
        raise ValueError("chain must have k >= 2")
    if g.oracle != chain.oracle:
        raise ValueError("word belongs to a different oracle")
    oracle = chain.oracle
    window = chain.elements[1:-1]
    f = set(window)
    r = britton_reduce(g)
    r_inv = inv(r)
    common = 0
    for h in f:
        head, tail = _seam(oracle, r.head, r.tail, oracle.mul(h, r_inv.head), r_inv.tail)
        if not tail and head in f:
            common += 1
    return Fraction(2 * (len(f) - common), len(window))


def escape_exponent(F: Sequence[HnnWord], n_max: int) -> int:
    """Smallest n0 such that a^-n x a^n stays outside the base group for all
    x in F and all n in [n0, n_max].

    Only meaningful when iterating phi eventually expels every nontrivial
    base element from H, which for BS(m, n) holds exactly when n does not
    divide m (some prime has a strictly larger valuation in n than in m, so
    the valuation drops at every step; if n | m the element b^n never
    leaves H).  Refuses otherwise.  The scan stops before n_max once every
    conjugate is outside the base group for good.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    words = list(F)
    if not words:
        raise ValueError("F must be nonempty")
    oracle = words[0].oracle
    if not isinstance(oracle, BsOracle):
        raise ValueError("escape exponents are implemented for BS oracles only")
    if any(w.oracle != oracle for w in words):
        raise ValueError("words belong to different oracles")
    m, n = oracle.params.m, oracle.params.n
    if m % n == 0:
        raise HypothesisViolationError(
            f"BS({m},{n}): {n} divides {m}, so phi^k(b^{n}) stays in H forever"
        )
    current = [britton_reduce(w) for w in words]
    for w in current:
        if not w.tail and oracle.is_identity(w.head):
            raise ValueError("every element of F must be nontrivial")
    a, a_inv = stable_word(oracle, 1), stable_word(oracle, -1)
    run_start: Optional[int] = None
    # the words inside at each step, formatted only for a refusal: an
    # answer that is an integer must not fail on a word's text
    trace: list[tuple[int, list[HnnWord]]] = []
    for step in range(1, n_max + 1):
        current = [mul(mul(a_inv, w), a) for w in current]
        inside = [w for w in current if not w.tail]
        trace.append((step, inside))
        if inside:
            run_start = None
        elif run_start is None:
            run_start = step
        # a word outside stays outside for good when its a-exponent sum is
        # nonzero, or when it reads a^-1 ... a, a shape conjugation by a
        # keeps with no pinch (Britton's lemma): then the run is final
        if run_start is not None and all(
            sum(s for s, _ in w.tail) or (w.tail[0][0], w.tail[-1][0]) == (-1, 1) for w in current
        ):
            return run_start
    if run_start is None:
        texts = [(step, [format_word(w) for w in inside]) for step, inside in trace]
        raise EscapeExhaustionError(
            f"no escape exponent up to n_max = {n_max}; "
            f"still inside the base group: {texts[-1][1]}",
            texts,
        )
    return run_start
