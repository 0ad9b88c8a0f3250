"""Baumslag-Solitar base oracle.

``BS(m, n) = <a, b | a b^m a^-1 = b^n>`` is the HNN extension of Z with
H = nZ, K = mZ and ``phi(nk) = mk``.  Base elements are represented by their
integer exponent (``b^z`` <-> ``z``), with arbitrary-precision arithmetic:
the chain elements used elsewhere overflow fixed-width integers quickly, so
exactness requires big integers.  The stable letter is printed ``a`` so that
``a^-1 b^n a = b^m``.

``BsOracle`` itself runs integer kernels for the carry and pinch loops of
:mod:`hnnkit.calculus`, with the coset split and phi^+-1 inline, so a
step of them is a few ``int`` operations instead of about eight calls
through the oracle.  A subclass runs the calculus's protocol loops, through
its methods, whichever of them it overrides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .calculus import _LIMITS, BaseOracle, DomainError, VerificationError, _int_text, _more_than

__all__ = [
    "BsParams",
    "BsOracle",
    "make_bs",
    "dom_phi_j_closed_form",
]


@dataclass(frozen=True)
class BsParams:
    """Nonzero integers m, n together with d = gcd(|m|, |n|), n1 = n/d and
    m1 = m/d."""

    m: int
    n: int
    d: int = field(init=False)
    n1: int = field(init=False)
    m1: int = field(init=False)

    def __post_init__(self):
        if self.m == 0 or self.n == 0:
            raise ValueError("BS(m, n) requires nonzero m and n")
        d = math.gcd(abs(self.m), abs(self.n))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n1", self.n // d)
        object.__setattr__(self, "m1", self.m // d)


@dataclass(frozen=True)
class BsOracle(BaseOracle):
    params: BsParams

    name = "bs"
    stable_letter = "a"

    @property
    def identity(self) -> int:
        return 0

    def mul(self, x: int, y: int) -> int:
        return x + y

    def inv(self, x: int) -> int:
        return -x

    def in_H(self, x: int) -> bool:
        return x % self.params.n == 0

    def in_K(self, x: int) -> bool:
        return x % self.params.m == 0

    def phi(self, x: int) -> int:
        n = self.params.n
        if x % n:
            raise DomainError(f"b^{x} is not in H = {abs(n)}Z")
        return self.params.m * (x // n)

    def phi_inv(self, x: int) -> int:
        m = self.params.m
        if x % m:
            raise DomainError(f"b^{x} is not in K = {abs(m)}Z")
        return self.params.n * (x // m)

    # coset representatives are b^r with r = z mod |n| (resp. |m|) in
    # [0, |subgroup generator|); negative m or n only changes phi's sign
    def decompose_left_H(self, x: int):
        r = x % abs(self.params.n)
        return (x - r, r)

    def decompose_right_H(self, x: int):
        r = x % abs(self.params.n)
        return (r, x - r)

    def decompose_left_K(self, x: int):
        r = x % abs(self.params.m)
        return (x - r, r)

    def decompose_right_K(self, x: int):
        r = x % abs(self.params.m)
        return (r, x - r)

    def is_central(self, x: int) -> bool:
        return True

    def h_transversal(self) -> range:
        return range(abs(self.params.n))

    def k_transversal(self) -> range:
        return range(abs(self.params.m))

    def base_letters(self):
        return {"b": 1}

    def power(self, x: int, k: int) -> int:
        return x * k

    def format_element(self, x: int) -> str:
        if x == 0:
            return "1"
        if x == 1:
            return "b"
        return f"b^{_int_text(x)}"

    # Integer kernels for calculus._carry and _seam (see the module
    # docstring); a subclass may override any of the arithmetic above, so
    # __init_subclass__ sends it back to the protocol loops.  A syllable
    # t^s y splits by, and the pinch t^s y t^-s unpinches across, K = mZ
    # with phi^-1 for s = +1 and H = nZ with phi for s = -1: y = g q + rep
    # maps to f q for (g, f) = (m, n), resp. (n, m).  y - rep is a multiple
    # of |g|, so it lies in the domain that phi and phi_inv check.
    _kernels = True

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._kernels = False

    def _carry_kernel(self, head: int, tail: tuple, x: int, canonical: bool) -> tuple:
        m, n = self.params.m, self.params.n
        am, an = abs(m), abs(n)
        pairs = list(tail)
        carry, next_sign = x, 0
        for j in range(len(pairs) - 1, -1, -1):
            s, y = pairs[j]
            y += carry
            if s == 1:
                rep = y % am
                carry = n * ((y - rep) // m)
            else:
                rep = y % an
                carry = m * ((y - rep) // n)
            if not rep and s == -next_sign:
                raise VerificationError("pinch re-created during canonicalization")
            pairs[j] = (s, rep)
            if canonical and not carry:
                return head, tuple(pairs)
            next_sign = s
        return head + carry, tuple(pairs)

    def _seam_kernel(self, head: int, tail: tuple, vhead: int, vtail: tuple) -> tuple:
        m, n = self.params.m, self.params.n
        stack = list(tail)
        s, x = stack.pop() if stack else (0, head)
        x += vhead
        for sign, elem in vtail:
            if s == -sign:
                g, f = (m, n) if s == 1 else (n, m)
                if not x % g:
                    s, y = stack.pop() if stack else (0, head)
                    x = y + f * (x // g) + elem
                    continue
            if s:
                stack.append((s, x))
            else:
                head = x
            s, x = sign, elem
        return (head, (*stack, (s, x))) if s else (x, ())


def make_bs(m: int, n: int) -> BsOracle:
    """Oracle for BS(m, n); rejects m = 0 or n = 0."""
    return BsOracle(BsParams(m, n))


def dom_phi_j_closed_form(params: BsParams, j: int) -> int:
    """Positive generator g with Dom(phi^j) = gZ, namely |n1|^j * d; refused
    past ``_LIMITS["digits"]`` digits before it is built."""
    if j < 1:
        raise ValueError("j must be >= 1")
    # g >= 2^e has more than e log10(2) >= 0.30102 e digits
    if _dom_bits(params, j) * 30102 >= _LIMITS["digits"] * 100000:
        raise ValueError(f"the generator of Dom(phi^{j}) has {_more_than('digits')}")
    return abs(params.n1) ** j * params.d


def _dom_bits(params: BsParams, j: int) -> int:
    """e = j (bits(n1) - 1) + bits(d) - 1, from bit lengths alone, with
    |n1|^j d >= 2^e."""
    return j * (abs(params.n1).bit_length() - 1) + params.d.bit_length() - 1
