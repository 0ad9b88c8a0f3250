"""Exact word calculus for HNN extensions over a pluggable base-group oracle.

Elements of ``HNN(L, H, K, phi) = <L, t | t^-1 h t = phi(h), h in H>`` are
alternating words

    lam_0 t^e1 lam_1 ... t^en lam_n        (lam_i in L, e_i = +-1)

and everything here is parameterized by a :class:`BaseOracle` supplying exact
arithmetic in the base group L together with H/K membership, the isomorphism
phi and canonical coset representatives.  The module implements Britton
reduction (pinch removal), the normal form with canonical representatives,
multiplication, inversion, conjugation, equality, cyclic reduction with an
explicit conjugator certificate, and the iterated partial maps phi^j.

Reduced words are an invariant that holds by construction.  :func:`mul`,
:func:`inv`, :func:`britton_reduce`, the constructors :func:`identity_word`,
:func:`base_word` and :func:`stable_word`, the word of :func:`normalize` and
``VertexLabel.word()`` in :mod:`hnnkit.tree` return words marked pinch-free,
and so does :func:`parse_word` for a text in which no pinch is written.  A
word built directly with ``HnnWord(...)`` is treated as unreduced.  ``mul``
reduces an unmarked operand first; its
pinch pass then cancels pinches only at the seam, because by Britton's
lemma (Lyndon-Schupp, *Combinatorial Group Theory*, IV.2) no pinch can form
anywhere else in the product of two reduced words.  ``inv`` of a marked
word and ``britton_reduce`` of a marked word do no reduction at all; an
unmarked word that ``britton_reduce`` finds pinch-free is marked in place.

The sign convention of Britton's rule, t^-1 h t = phi(h) for h in H and
t k t^-1 = phi^-1(k) for k in K, is written out once: ``_is_pinch`` tests
membership, ``_unpinch`` also applies phi or phi^-1, and ``_split`` is the
carry step of a normal form, which splits a syllable by its coset and maps
the subgroup part across the stable letter; ``_carry`` runs it right to left
for :func:`normalize` and ``_nf_rmul_letter``.  ``_nf_lmul_letter`` and
``_nf_rmul_letter`` turn a normal form into that of its product with one
letter; :func:`cyclic_reduce` builds its rotations, and
:mod:`hnnkit.analysis` its conjugacy orbits, by them.

The two loops every word operation runs, the carry ``_carry`` and the pinch
pass ``_seam`` (``_reduce`` is its entry for a whole token stream), call the
oracle through this protocol.  An oracle class whose ``_kernels`` is true
runs its own integer loops for them instead: :class:`hnnkit.bs.BsOracle`
itself, and none of its subclasses, so arithmetic a subclass overrides is
honoured.

All values are immutable and all operations are pure functions, so the whole
calculus is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from operator import length_hint
from typing import Any, Iterable, Iterator, Optional

__all__ = [
    "BaseOracle",
    "HnnWord",
    "NormalForm",
    "WordParseError",
    "DomainError",
    "VerificationError",
    "UnboundedIndexError",
    "identity_word",
    "base_word",
    "stable_word",
    "britton_reduce",
    "length",
    "normalize",
    "mul",
    "inv",
    "conjugate",
    "equals",
    "cyclic_reduce",
    "phi_iter_domain",
    "phi_iter",
    "fixed_by_some_phi_j",
    "parse_word",
    "format_word",
]


class WordParseError(ValueError):
    """Malformed word text.  Carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(ValueError):
    """phi or phi^-1 was queried outside its domain."""


class VerificationError(ValueError):
    """A certificate or internal invariant failed its own consistency check
    (arithmetic bug)."""


class UnboundedIndexError(ValueError):
    """A coset transversal was requested for a subgroup of infinite index."""


# every size hnnkit refuses up front, keyed by the unit its refusal names;
# the path steps of a tree walk are the sum of its vertices' depths
_LIMITS = {
    "stable letters": 10**6,
    "vertices": 10**6,
    "path steps": 10**7,
    "normal forms": 10**5,
    "digits": 10**7,
    "dimensions": 100,
}


def _more_than(*units) -> str:
    """The phrase "more than <limit> <unit> or ..." of every refusal."""
    return "more than " + " or ".join(f"{_LIMITS[unit]} {unit}" for unit in units)


def _int_text(x: int) -> str:
    """``str(x)``, refused in one line past ``sys.get_int_max_str_digits()``."""
    try:
        return str(x)
    except ValueError:
        raise _too_many_digits() from None


def _check_int_text(bits: int) -> None:
    """Refuse as :func:`_int_text` would, before the integer is built, when
    it is at least 2^bits and so has more than bits log10(2) >= 0.30102
    bits digits, past the limit (0 means no limit)."""
    limit = sys.get_int_max_str_digits()
    if limit and bits * 30102 >= limit * 100000:
        raise _too_many_digits()


def _too_many_digits() -> ValueError:
    return ValueError(f"an integer of more than {sys.get_int_max_str_digits()} digits")


class BaseOracle:
    """Exact arithmetic and subgroup data for the base group of an HNN extension.

    A concrete oracle provides a group L with subgroups H and K, an
    isomorphism ``phi: H -> K``, and canonical coset representatives.  The
    decomposition contract is

    * ``decompose_left_H(x) == (h, r)`` with ``x == h * r``, ``h`` in H, and
      ``r`` the canonical representative of the right coset ``H x`` (``r`` is
      the identity exactly when ``x`` lies in H);
    * ``decompose_right_H(x) == (r, h)`` with ``x == r * h`` and ``r`` the
      canonical representative of the left coset ``x H``;

    and the same two shapes for K.  ``h_transversal`` and ``k_transversal``
    list the canonical representatives of the left cosets of H and K, first
    the identity, which represents the subgroup's own coset, as a sized
    iterable that builds a representative only when iteration reaches it (a
    ``range``, say): the tree walks count the children of a vertex by
    ``len`` and list the representatives only of the vertices they return.
    An index that ``len`` cannot take, past ``sys.maxsize``, raises
    ``OverflowError`` there, which the walks refuse as past the vertex limit.

    Element values must be canonical hashable Python values, so that
    ``eq(x, y)`` coincides with ``x == y``.  That makes words and labels
    directly usable as dictionary keys.

    A subclass overrides the methods that raise ``NotImplementedError``; the
    defaults of ``eq``, ``is_identity``, ``generators`` and ``power`` are
    overridden only for speed.
    """

    name = "base"
    stable_letter = "t"
    # True on an oracle class whose own integer loops stand in for the
    # protocol loops of _carry and _seam (bs.BsOracle itself only)
    _kernels = False

    @property
    def identity(self):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def eq(self, x, y) -> bool:
        return x == y

    def is_identity(self, x) -> bool:
        return x == self.identity

    def in_H(self, x) -> bool:
        raise NotImplementedError

    def in_K(self, x) -> bool:
        raise NotImplementedError

    def phi(self, x):
        raise NotImplementedError

    def phi_inv(self, x):
        raise NotImplementedError

    def decompose_left_H(self, x):
        raise NotImplementedError

    def decompose_right_H(self, x):
        raise NotImplementedError

    def decompose_left_K(self, x):
        raise NotImplementedError

    def decompose_right_K(self, x):
        raise NotImplementedError

    def is_central(self, x) -> bool:
        raise NotImplementedError

    def h_transversal(self) -> Iterable:
        raise UnboundedIndexError(f"[L:H] is not finite for oracle {self.name!r}")

    def k_transversal(self) -> Iterable:
        raise UnboundedIndexError(f"[L:K] is not finite for oracle {self.name!r}")

    def base_letters(self) -> dict[str, Any]:
        """Letter name -> base element, for the word grammar."""
        return {}

    def generators(self) -> tuple:
        """Base-group generators, the base letters of conjugacy orbits."""
        return tuple(self.base_letters().values())

    def power(self, x, k: int):
        if k < 0:
            x, k = self.inv(x), -k
        acc = self.identity
        while k:
            if k & 1:
                acc = self.mul(acc, x)
            x = self.mul(x, x)
            k >>= 1
        return acc

    def format_element(self, x) -> str:
        raise NotImplementedError

    @cached_property
    def _grammar(self):
        """The word grammar of this oracle's letters, looked up once."""
        return _grammar_for(self.stable_letter, tuple(self.base_letters().items()))


@dataclass(frozen=True, eq=False)
class HnnWord:
    """A word ``head t^s1 e1 t^s2 e2 ...`` over an oracle's base group.

    ``tail`` holds the pairs ``(s_i, lam_i)`` with ``s_i = +-1`` and ``lam_i``
    the base element following the i-th stable letter.  Words compare by
    identity; use :func:`equals` for group equality and :meth:`key` for
    structural keys.
    """

    oracle: BaseOracle
    head: Any
    tail: tuple[tuple[int, Any], ...] = ()

    # Not a field: True only on words this package built or found pinch-free
    # (see _reduced_word and britton_reduce).  A word built directly is
    # treated as unreduced until then.
    _reduced = False

    def key(self) -> tuple:
        return (self.head, self.tail)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"HnnWord({format_word(self)!r})"


@dataclass(frozen=True, eq=False)
class NormalForm:
    """A pinch-free word whose inter-letter segments are canonical coset
    representatives.  Two normal forms are componentwise equal exactly when
    they represent the same group element, so ``==`` here is group equality.
    """

    word: HnnWord

    def key(self) -> tuple:
        return self.word.key()

    def __eq__(self, other) -> bool:
        if not isinstance(other, NormalForm):
            return NotImplemented
        return self.word.oracle == other.word.oracle and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    @cached_property
    def text(self) -> str:
        """The :func:`format_word` text of the word, made on first use."""
        return format_word(self.word)

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"NormalForm({self.text!r})"


def identity_word(oracle: BaseOracle) -> HnnWord:
    return _reduced_word(oracle, oracle.identity, ())


def base_word(oracle: BaseOracle, x) -> HnnWord:
    return _reduced_word(oracle, x, ())


def stable_word(oracle: BaseOracle, sign: int = 1, count: int = 1) -> HnnWord:
    """The word t^(sign*count), printed with the oracle's stable letter.
    A count past the ``stable letters`` limit is refused, as by
    :func:`parse_word`."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count > _LIMITS["stable letters"]:
        raise ValueError(f"a word of {_more_than('stable letters')}")
    e = oracle.identity
    return _reduced_word(oracle, e, ((sign, e),) * count)


def _reduced_word(oracle: BaseOracle, head, tail: tuple) -> HnnWord:
    """A word marked pinch-free; the caller guarantees that it is.  Its
    fields are set directly, as the frozen dataclass's ``__init__`` would,
    at half the cost of calling it."""
    w = object.__new__(HnnWord)
    w.__dict__.update(oracle=oracle, head=head, tail=tail, _reduced=True)
    return w


def _same_oracle(u: HnnWord, v: HnnWord) -> BaseOracle:
    if u.oracle is not v.oracle and u.oracle != v.oracle:
        raise ValueError("words belong to different oracles")
    return u.oracle


def _is_pinch(oracle: BaseOracle, s1: int, x, s2: int) -> bool:
    """Whether ``t^s1 x t^s2`` is a pinch."""
    if s1 == -1 and s2 == 1:
        return oracle.in_H(x)
    if s1 == 1 and s2 == -1:
        return oracle.in_K(x)
    return False


def _unpinch(oracle: BaseOracle, s1: int, x, s2: int):
    """The base element ``t^s1 x t^s2`` equals when it is a pinch:
    ``phi(x)`` for ``t^-1 x t``, ``phi^-1(x)`` for ``t x t^-1``.  None when
    it is not a pinch."""
    if not _is_pinch(oracle, s1, x, s2):
        return None
    return oracle.phi(x) if s1 == -1 else oracle.phi_inv(x)


def _split(oracle: BaseOracle, sign: int, x, next_sign: int):
    """``(carry, rep)`` with ``t^sign x == carry t^sign rep``: ``x = s rep``
    with ``s`` in K (sign +1) or H (sign -1) and ``rep`` the canonical
    right-coset representative, and ``carry`` is ``phi^-1(s)`` resp.
    ``phi(s)``.

    ``next_sign`` is the sign of the stable letter after ``rep``, or 0 when
    none follows.  ``t^sign rep t^next_sign`` must not be a pinch; as a
    representative lies in its subgroup only when it is the identity, a
    pinch there means a decomposition broke its contract.
    """
    if sign == 1:
        s, rep = oracle.decompose_left_K(x)
        carry = oracle.phi_inv(s)
    else:
        s, rep = oracle.decompose_left_H(x)
        carry = oracle.phi(s)
    if sign == -next_sign and oracle.is_identity(rep):
        raise VerificationError("pinch re-created during canonicalization")
    return carry, rep


def _nf_lmul_letter(oracle: BaseOracle, letter: tuple[int, Any], nf: tuple) -> tuple:
    """The normal form ``(head, tail)`` of ``letter * w`` for the normal form
    ``nf`` of w; ``letter`` is ``(sign, x)``, the stable letter t^sign for
    sign +-1 and the base element x for sign 0.  Only the front changes: a
    stable letter cancels the first one when they pinch around the head,
    and splits the head into a carry and a representative otherwise."""
    sign, x = letter
    head, tail = nf
    if not sign:
        return oracle.mul(x, head), tail
    if tail:
        y = _unpinch(oracle, sign, head, tail[0][0])
        if y is not None:
            return oracle.mul(y, tail[0][1]), tail[1:]
    carry, rep = _split(oracle, sign, head, tail[0][0] if tail else 0)
    return carry, ((sign, rep),) + tail


def _nf_rmul_letter(oracle: BaseOracle, nf: tuple, letter: tuple[int, Any]) -> tuple:
    """The normal form of ``w * letter``, as for :func:`_nf_lmul_letter`.  A
    stable letter cancels the last one when they pinch, which for a
    representative means it is the identity, and is appended otherwise; a
    base letter starts a :func:`_carry`, which stops at the first identity
    carry."""
    sign, x = letter
    head, tail = nf
    if sign:
        if tail and tail[-1][0] == -sign and oracle.is_identity(tail[-1][1]):
            return head, tail[:-1]
        return head, tail + ((sign, oracle.identity),)
    return _carry(oracle, head, tail, x, canonical=True)


def _carry(oracle: BaseOracle, head, tail: tuple, x, canonical: bool) -> tuple:
    """The normal form of the pinch-free word ``(head, tail)`` times the base
    element x, by one right-to-left pass: each lam_i times the carry (x at
    first) is split by :func:`_split`, its representative replaces it and
    the carry moves left.  When the tail already holds representatives
    (``canonical``), the pass stops at the first identity carry."""
    if oracle._kernels:
        return oracle._carry_kernel(head, tail, x, canonical)
    pairs = list(tail)
    carry, next_sign = x, 0
    for j in range(len(pairs) - 1, -1, -1):
        s, elem = pairs[j]
        carry, rep = _split(oracle, s, oracle.mul(elem, carry), next_sign)
        pairs[j] = (s, rep)
        if canonical and oracle.is_identity(carry):
            return head, tuple(pairs)
        next_sign = s
    return oracle.mul(head, carry), tuple(pairs)


def _reduce(oracle: BaseOracle, head, tail):
    """One full leftmost-innermost pinch-removal pass over a token stream:
    :func:`_seam` from the identity word."""
    return _seam(oracle, oracle.identity, (), head, tail)


def _seam(oracle: BaseOracle, head, tail, vhead, vtail):
    """The pinch pass: the pinch-free word ``(head, tail)`` times the token
    stream ``(vhead, vtail)``.  Each stable letter of the stream is pushed
    onto a stack that starts as the left word, and cancels the top letter
    ``t^s x`` when the two pinch around x; the top is held apart, with
    s = 0 for the head, which never pinches.  For a pinch-free stream only
    letters at the seam cancel (Britton's lemma)."""
    if oracle._kernels:
        return oracle._seam_kernel(head, tail, vhead, vtail)
    omul = oracle.mul
    stack = list(tail)
    s, x = stack.pop() if stack else (0, head)
    x = omul(x, vhead)
    for sign, elem in vtail:
        y = _unpinch(oracle, s, x, sign)
        if y is not None:
            s, x = stack.pop() if stack else (0, head)
            x = omul(x, omul(y, elem))
            continue
        if s:
            stack.append((s, x))
        else:
            head = x
        s, x = sign, elem
    return (head, (*stack, (s, x))) if s else (x, ())


def britton_reduce(w: HnnWord) -> HnnWord:
    """Remove every pinch ``t^-1 h t`` (h in H) and ``t k t^-1`` (k in K).

    Returns a pinch-free word representing the same group element; adjacent
    base elements are merged eagerly.  Idempotent and total.  A word that
    is already pinch-free is returned as it is, marked reduced.
    """
    if w._reduced:
        return w
    head, tail = _reduce(w.oracle, w.head, w.tail)
    if head == w.head and tail == w.tail:
        object.__setattr__(w, "_reduced", True)
        return w
    return _reduced_word(w.oracle, head, tail)


def length(w: HnnWord) -> int:
    """Number of stable letters of the reduced form of ``w``."""
    return len(britton_reduce(w).tail)


def mul(u: HnnWord, v: HnnWord) -> HnnWord:
    """Product ``u * v``, Britton-reduced.

    An operand that is not marked reduced is reduced first; the pinch pass
    of :func:`_seam` then pushes the right factor onto the left one, and
    cancels only at the seam.
    """
    oracle = _same_oracle(u, v)
    u, v = britton_reduce(u), britton_reduce(v)
    return _reduced_word(oracle, *_seam(oracle, u.head, u.tail, v.head, v.tail))


def inv(u: HnnWord) -> HnnWord:
    """Formal inverse (reverse, negate signs, invert base letters), reduced.

    The formal inverse of a pinch-free word is pinch-free, so only an
    unmarked word is reduced.
    """
    oracle = u.oracle
    elems = [u.head] + [e for _, e in u.tail]
    signs = [s for s, _ in u.tail]
    head = oracle.inv(elems[-1])
    tail = tuple((-signs[i], oracle.inv(elems[i])) for i in range(len(signs) - 1, -1, -1))
    if not u._reduced:
        head, tail = _reduce(oracle, head, tail)
    return _reduced_word(oracle, head, tail)


def conjugate(g: HnnWord, x: HnnWord) -> HnnWord:
    """``g * x * g^-1``, reduced."""
    return mul(mul(g, x), inv(g))


def normalize(w: HnnWord) -> NormalForm:
    """Britton-reduce, then canonicalize in one right-to-left pass of
    :func:`_carry`.  A left push never re-creates a pinch because a
    representative lies in the subgroup only when it is the identity;
    ``_split`` checks that."""
    oracle = w.oracle
    r = britton_reduce(w)
    head, tail = _carry(oracle, r.head, r.tail, oracle.identity, canonical=False)
    return NormalForm(_reduced_word(oracle, head, tail))


def equals(u: HnnWord, v: HnnWord) -> bool:
    """Group equality, decided through normal forms."""
    _same_oracle(u, v)
    return normalize(u).key() == normalize(v).key()


def cyclic_reduce(w: HnnWord) -> tuple[HnnWord, HnnWord]:
    """Return ``(core, g)`` with ``w = g * core * g^-1`` and ``core`` of
    minimal stable-letter length among conjugates reachable by iterated
    wrap-pinch removal.

    A wrap pinch of the reduced word c = lam_0 t^s_1 lam_1 ... t^s_n lam_n
    is t^s_n lam_n lam_0 t^s_1, a pinch read around the end.  Removing it
    conjugates by the first syllable and forms no other pinch (Britton's
    lemma), so after i of them the word is the slice lam_i t^s_i+1 ... t^s_j
    of c with an element y joined to its end: the peel is one index scan
    that unpinches lam_j y lam_i into the next y.  An elliptic core is
    lam_i y, conjugated by c up to its i-th stable letter.  Otherwise the
    core is the rotation of the slice, ended by lam_j y lam_i, whose normal
    form has the least :func:`format_word` text (the earliest on a tie, so
    the core is canonical); the one starting at its k-th syllable is
    conjugated by the prefix of c up to syllable i + k.

    Cost: the peel (see :func:`_peel`) is O(n).  The rotation scan (see
    :func:`_least_rotation`) makes O(n) carry steps when carries die out
    within a bounded distance and O(n^2) at worst.
    """
    return _core(*_peel(w))


def _peel(w: HnnWord) -> tuple[HnnWord, int, int, Any]:
    """The peel of :func:`cyclic_reduce`: ``(c, i, j, x)`` for c the reduced
    word of w after i wrap pinches are removed from either end, so that the
    core has j - i stable letters.  x is lam_i y, the base element of an
    elliptic core, when i == j, and otherwise the wrap join lam_j y lam_i."""
    oracle = w.oracle
    c = britton_reduce(w)
    lam = (c.head, *(x for _, x in c.tail))
    i, j, y = 0, len(c.tail), oracle.identity
    while j > i:
        wrap = oracle.mul(oracle.mul(lam[j], y), lam[i])
        x = _unpinch(oracle, c.tail[j - 1][0], wrap, c.tail[i][0])
        if x is None:
            return c, i, j, wrap
        i, j, y = i + 1, j - 1, x
    return c, i, j, oracle.mul(lam[i], y)


def _core(c: HnnWord, i: int, j: int, x) -> tuple[HnnWord, HnnWord]:
    """``(core, g)`` of :func:`cyclic_reduce` from its peel ``(c, i, j, x)``:
    an elliptic core at once, a hyperbolic one by the rotation scan."""
    oracle = c.oracle
    if i == j:
        e = oracle.identity
        conj = (c.head, c.tail[: i - 1] + ((c.tail[i - 1][0], e),)) if i else (e, ())
        return base_word(oracle, x), _reduced_word(oracle, *conj)
    k, head, tail = _least_rotation(oracle, c.tail[i : j - 1] + ((c.tail[j - 1][0], x),))
    return _reduced_word(oracle, head, tail), _reduced_word(oracle, c.head, c.tail[: i + k])


def _least_rotation(oracle: BaseOracle, syllables: tuple) -> tuple[int, Any, tuple]:
    """``(k, head, tail)`` for the rotation ``syllables[k:] + syllables[:k]``
    whose normal form ``(head, tail)`` has the least :func:`format_word`
    text (the least k on a tie).

    Rotation 0 is normalized in full, then rotations n-1, ..., 1, each
    conjugated from the one before by its first syllable t^s lam:
    rotation k + 1 times lam^-1 t^-s is rotation k less that syllable, and
    t^s lam times that is rotation k.  So each rotation is two letters of
    :func:`_nf_rmul_letter` and two of :func:`_nf_lmul_letter` from the
    last one; the carry of lam^-1 stops at its first identity carry.
    Rotation k + q is rotation k for the least period q of the syllables.
    """
    # every adjacency but the wrap join lies in the pinch-free core
    if _is_pinch(oracle, syllables[-1][0], syllables[-1][1], syllables[0][0]):
        raise VerificationError("rotation of a cyclic core must stay reduced")
    n = len(syllables)
    q = next(q for q in range(1, n + 1) if n % q == 0 and syllables[q:] == syllables[: n - q])
    e = oracle.identity
    nf = normalize(_reduced_word(oracle, e, syllables)).key()
    best = (0, *nf)
    for k in range(q - 1, 0, -1):
        sign, lam = syllables[k]
        nf = _nf_rmul_letter(oracle, nf, (0, oracle.inv(lam)))
        nf = _nf_rmul_letter(oracle, nf, (-sign, e))
        nf = _nf_lmul_letter(oracle, (0, lam), nf)
        nf = _nf_lmul_letter(oracle, (sign, e), nf)
        order = _compare_text(_format_chunks(oracle, *nf), _format_chunks(oracle, *best[1:]))
        # rotation 0 came first, then the k run down: a tie goes to k unless
        # the best is rotation 0
        if order < 0 or order == 0 and best[0]:
            best = (k, *nf)
    return best


def _compare_text(xs: Iterator[str], ys: Iterator[str]) -> int:
    """-1, 0 or 1 as the concatenated strings of ``xs`` compare with those of
    ``ys``; reads both only up to the first difference."""
    a = b = ""
    while True:
        if not a:
            a = next(xs, None)
        if not b:
            b = next(ys, None)
        if a is None or b is None:
            return (b is None) - (a is None)
        m = min(len(a), len(b))
        if a[:m] != b[:m]:
            return -1 if a[:m] < b[:m] else 1
        a, b = a[m:], b[m:]


def _phi_iterates(oracle: BaseOracle, x, j: int, name: str = "j") -> Iterator:
    """``phi(x), ..., phi^j(x)``, stopping before phi is applied outside H,
    so shorter than ``j`` exactly when ``x`` is not in Dom(phi^j).  ``name``
    is the caller's name for ``j``, which must be at least 1."""
    if j < 1:
        raise ValueError(f"{name} must be >= 1")
    for _ in range(j):
        if not oracle.in_H(x):
            return
        x = oracle.phi(x)
        yield x


def phi_iter_domain(oracle: BaseOracle, x, j: int) -> bool:
    """Membership of ``x`` in Dom(phi^j), by the recursion
    Dom(phi^1) = H, Dom(phi^j) = phi^-1(Dom(phi^{j-1}) intersect K)."""
    return sum(1 for _ in _phi_iterates(oracle, x, j)) == j


def phi_iter(oracle: BaseOracle, x, j: int):
    """Apply phi j times; requires ``x`` in Dom(phi^j)."""
    steps, y = 0, x
    for steps, y in enumerate(_phi_iterates(oracle, x, j), 1):
        pass
    if steps < j:
        raise DomainError(
            f"{oracle.format_element(x)} is not in Dom(phi^{j}) "
            f"(leaves H after {steps} applications)"
        )
    return y


def fixed_by_some_phi_j(oracle: BaseOracle, x, j_max: int) -> Optional[int]:
    """Smallest ``j <= j_max`` with ``x`` in Dom(phi^j) and ``phi^j(x) == x``.

    Elements outside Dom(phi^j) are not fixed points of phi^j, so the scan
    stops as soon as the iterates leave H.
    """
    iterates = enumerate(_phi_iterates(oracle, x, j_max, "j_max"), 1)
    return next((j for j, y in iterates if y == x), None)


# ---------------------------------------------------------------------------
# word grammar:  word := term*;  term := letter ('^' signed-integer)?
# letter := stable letter | base letter (oracle-defined) | '1'
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _grammar_for(stable_letter: str, base_letters: tuple):
    """A compiled pattern for one item of word text, and each letter's
    ``(kind, value)``.  An item is whitespace, then either a term (a letter,
    then optionally ``^`` and an exponent of ASCII digits) or one stray
    visible character, so that ``findall`` reads a text item by item.
    Longer names are tried first, so that e.g. "e12" is not read as "e1"
    "2"; of equal names the first listed wins.  Kept for oracles with the
    same letters, not only per oracle: other libraries can evict the
    pattern from the re module's own cache, and compiling it again costs
    far more than a parse."""
    letters = {stable_letter: ("stable", None)}
    letters.setdefault("t", ("stable", None))
    letters.setdefault("1", ("identity", None))
    for name, value in base_letters:
        letters.setdefault(name, ("base", value))
    names = "|".join(re.escape(name) for name in sorted(letters, key=len, reverse=True))
    pattern = re.compile(
        rf"\s*(?:(?P<name>{names})(?P<caret>\s*\^\s*(?P<exp>[+-]?[0-9]+)?)?|(?P<stray>\S))"
    )
    return pattern, letters


# parse_word reads a long text in windows of about this many characters, so
# that the items of one window are all it holds at once
_WINDOW = 1 << 15
# whitespace with no '^' on either side: a term holds whitespace only next
# to its '^', so this lies between two terms
_CUT = re.compile(r"(?<=[^\s^])\s+(?=[^\s^])")


def _window_end(pattern: re.Pattern, text: str, start: int) -> int:
    """The end of the window of ``text`` that starts at ``start``, between
    two items: the first cut at least ``_WINDOW`` characters on, or, where
    none follows within another ``_WINDOW``, the end of the first item that
    reaches that far."""
    goal = start + _WINDOW
    cut = _CUT.search(text, goal, goal + _WINDOW)
    if cut:
        return cut.start()
    return next((m.end() for m in pattern.finditer(text, start) if m.end() >= goal), len(text))


def _item(pattern: re.Pattern, text: str, start: int, end: int, items: list, rest) -> re.Match:
    """The match of the item of the window ``text[start:end]`` last taken
    from ``rest``, an iterator over the window's ``findall`` ``items``,
    found again for the position of an error."""
    index = len(items) - length_hint(rest) - 1
    return next(islice(pattern.finditer(text, start, end), index, None))


def parse_word(oracle: BaseOracle, text: str) -> HnnWord:
    """Parse word text; raises :class:`WordParseError` with the position on
    malformed input, on an exponent too long for ``int``, or past the
    stable-letter limit.  The written form is preserved (no reduction); a
    word in which no pinch is written is already reduced, and is returned
    marked so.

    One ``findall`` per window reads the items; the last letter ``t^s x``
    is held apart, with s = 0 for the head, and a stable letter of the
    opposite sign pushed after it is tested once for a pinch around x."""
    pattern, letters = oracle._grammar
    omul, opower = oracle.mul, oracle.power
    e = oracle.identity
    head, tail = e, []
    s, x = 0, e
    pinched = False
    start, n, limit = 0, len(text), _LIMITS["stable letters"]
    while True:
        end = n if n - start <= _WINDOW else _window_end(pattern, text, start)
        items = pattern.findall(text, start, end)
        rest = iter(items)
        for name, caret, digits, stray in rest:
            if stray:
                item = _item(pattern, text, start, end, items, rest)
                raise WordParseError(f"unknown letter {stray!r}", item.start("stray"))
            exp = 1
            if caret:
                if not digits:
                    item = _item(pattern, text, start, end, items, rest)
                    raise WordParseError("expected an integer exponent after '^'", item.end())
                try:
                    exp = int(digits)
                except ValueError:
                    # more digits than int() converts (sys.get_int_max_str_digits)
                    item = _item(pattern, text, start, end, items, rest)
                    raise WordParseError(
                        f"an exponent of more than {sys.get_int_max_str_digits()} digits",
                        item.start("exp"),
                    ) from None
            kind, value = letters[name]
            if kind == "base":
                if exp:
                    x = omul(x, opower(value, exp))
            elif kind == "stable" and exp:
                # the held-apart letter counts
                if len(tail) + (s != 0) + abs(exp) > limit:
                    item = _item(pattern, text, start, end, items, rest)
                    raise WordParseError(
                        _more_than("stable letters"), item.start("exp" if digits else "name")
                    )
                sign = 1 if exp > 0 else -1
                # a pinch needs opposite signs; one found is enough
                if s == -sign and not pinched:
                    pinched = _is_pinch(oracle, s, x, sign)
                if s:
                    tail.append((s, x))
                else:
                    head = x
                if exp != sign:
                    tail += [(sign, e)] * (abs(exp) - 1)
                s, x = sign, e
        if end == n:
            break
        start = end
    if s:
        tail.append((s, x))
    else:
        head = x
    if pinched:
        return HnnWord(oracle, head, tuple(tail))
    return _reduced_word(oracle, head, tuple(tail))


def format_word(w: HnnWord) -> str:
    """Canonical serialization; consecutive stable letters of equal sign with
    identity segments between them are printed as one power."""
    return "".join(_format_chunks(w.oracle, w.head, w.tail)) or "1"


def _format_chunks(oracle: BaseOracle, head, pairs: Iterable) -> Iterator[str]:
    """The text of :func:`format_word` for ``head`` followed by the
    ``(sign, elem)`` pairs, in pieces, each made when it is read, so that
    comparisons can stop at the first difference."""
    is_identity, letter = oracle.is_identity, oracle.stable_letter
    sep = ""
    if not is_identity(head):
        yield oracle.format_element(head)
        sep = " "
    sign = run = 0
    for s, elem in pairs:
        if run and s != sign:
            yield sep + _power(letter, sign * run)
            sep, run = " ", 0
        sign, run = s, run + 1
        if not is_identity(elem):
            yield f"{sep}{_power(letter, sign * run)} {oracle.format_element(elem)}"
            sep, run = " ", 0
    if run:
        yield sep + _power(letter, sign * run)


def _power(letter: str, exp: int) -> str:
    return letter if exp == 1 else f"{letter}^{exp}"
