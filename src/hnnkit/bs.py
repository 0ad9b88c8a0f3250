"""Baumslag-Solitar base oracle.

``BS(m, n) = <a, b | a b^m a^-1 = b^n>`` is the HNN extension of Z with
H = nZ, K = mZ and ``phi(nk) = mk``.  Base elements are represented by their
integer exponent (``b^z`` <-> ``z``), with arbitrary-precision arithmetic:
the chain elements used elsewhere overflow fixed-width integers quickly, so
exactness requires big integers.  The stable letter is printed ``a`` so that
``a^-1 b^n a = b^m``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .calculus import BaseOracle, DomainError, _int_text

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

    def h_transversal(self) -> tuple:
        return tuple(range(abs(self.params.n)))

    def k_transversal(self) -> tuple:
        return tuple(range(abs(self.params.m)))

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


def make_bs(m: int, n: int) -> BsOracle:
    """Oracle for BS(m, n); rejects m = 0 or n = 0."""
    return BsOracle(BsParams(m, n))


def dom_phi_j_closed_form(params: BsParams, j: int) -> int:
    """Positive generator g with Dom(phi^j) = gZ, namely |n1|^j * d."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return abs(params.n1) ** j * params.d

