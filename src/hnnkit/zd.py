"""Base oracle for L = Z^d with H = Z^d and K = phi(Z^d), phi an injective
integer matrix.

This is the ascending setting: every base element lies in H.  Membership in
K, the K-coset representatives and phi^-1 all come from one mixed-radix
residue against a column-style Hermite basis B = M U, U unimodular.  Every
determinant, rank and fixed vector comes from one fraction-free elimination,
``_echelon``; a primitive k-th root of unity, totient(k) <= d, is an
eigenvalue exactly when the cyclotomic polynomial Phi_k divides the
characteristic polynomial, which Berkowitz's recursion gives.  All of it is
integer arithmetic, never floating point or fractions."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, prod
from typing import Optional

from .calculus import _LIMITS, BaseOracle, DomainError, _int_text, _more_than

__all__ = [
    "IntegerMatrix",
    "ZdOracle",
    "make_zd",
    "parse_matrix",
    "mat_mul",
    "mat_vec",
    "mat_pow",
    "det_int",
    "column_hnf",
    "has_root_of_unity_eigenvalue",
    "cyclotomic_order_candidates",
    "fixed_lattice_rank",
    "integer_fixed_vector",
]

IntegerMatrix = tuple[tuple[int, ...], ...]


def as_matrix(rows) -> IntegerMatrix:
    M = tuple(tuple(int(x) for x in row) for row in rows)
    d = len(M)
    if d == 0 or any(len(row) != d for row in M):
        raise ValueError("matrix must be square and nonempty")
    return M


def identity_matrix(d: int) -> IntegerMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_mul(A: IntegerMatrix, B: IntegerMatrix) -> IntegerMatrix:
    d = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(d)) for j in range(d)) for i in range(d)
    )


def mat_vec(A: IntegerMatrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(A[i][k] * v[k] for k in range(len(v))) for i in range(len(A)))


def mat_pow(M: IntegerMatrix, j: int) -> IntegerMatrix:
    if j < 0:
        raise ValueError("nonnegative powers only")
    acc = identity_matrix(len(M))
    base = M
    while j:
        if j & 1:
            acc = mat_mul(acc, base)
        base = mat_mul(base, base)
        j >>= 1
    return acc


def mat_sub(A: IntegerMatrix, B: IntegerMatrix) -> IntegerMatrix:
    d = len(A)
    return tuple(tuple(A[i][j] - B[i][j] for j in range(d)) for i in range(d))


def _echelon(A) -> tuple[list[list[int]], list[int], int]:
    """Row echelon form of an integer matrix by fraction-free Bareiss
    elimination, skipping a column that has no pivot: the rows, the pivot
    column of each leading row, and the sign of the row swaps.  Once r
    pivots are placed, every entry of the rows below them is an (r+1)-minor
    of the swapped rows (Sylvester's identity), so each division is exact,
    and a pivot in column r after pivots in columns 0..r-1 is the leading
    (r+1) x (r+1) minor."""
    rows = [list(row) for row in A]
    pivots: list[int] = []
    sign, prev = 1, 1
    for col in range(len(rows[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        pv = rows[r][col]
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(x * pv - f * y) // prev for x, y in zip(rows[i], rows[r])]
        prev = pv
        pivots.append(col)
    return rows, pivots, sign


def det_int(M: IntegerMatrix) -> int:
    """Exact determinant: the signed last pivot of ``_echelon``, or 0 below
    full rank."""
    rows, pivots, sign = _echelon(M)
    return sign * rows[-1][-1] if len(pivots) == len(M) else 0


def column_hnf(M: IntegerMatrix) -> IntegerMatrix:
    """Lower-triangular Hermite basis of the lattice spanned by the columns
    of M (positive diagonal, left-of-diagonal entries reduced into
    [0, diagonal)).  Requires the top square block of M to be nonsingular.
    Rows below that block follow the same column operations, so on [M; I]
    they give the unimodular U with basis M U."""
    d, n = len(M[0]), len(M)
    cols = [[M[i][j] for i in range(n)] for j in range(d)]
    basis: list[list[int]] = []
    rest = cols
    for i in range(d):
        live = [c for c in rest if any(c)]
        while sum(1 for c in live if c[i] != 0) > 1:
            live.sort(key=lambda c: (c[i] == 0, abs(c[i])))
            pivot = live[0]
            for c in live[1:]:
                if c[i] != 0:
                    q = c[i] // pivot[i]
                    for r in range(n):
                        c[r] -= q * pivot[r]
            live = [c for c in live if any(c)]
        pivot = next((c for c in live if c[i] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        if pivot[i] < 0:
            pivot = [-x for x in pivot]
        basis.append(pivot)
        rest = [c for c in live if c[i] == 0]
    for i in range(d):
        for j in range(i):
            q = basis[j][i] // basis[i][i]
            if q:
                for r in range(n):
                    basis[j][r] -= q * basis[i][r]
    return tuple(tuple(basis[j][i] for j in range(d)) for i in range(n))


class HermiteBox:
    """The integer vectors r with 0 <= r_i < sizes[i], in the order of
    ``itertools.product`` (the last entry runs fastest), counted by ``len``
    without listing them and built one at a time by iteration: the K-coset
    representatives of Z^d are the box of the Hermite diagonal, |det M| of
    them.  Past ``sys.maxsize`` vectors, ``len`` raises ``OverflowError``."""

    def __init__(self, sizes: tuple[int, ...]):
        self.sizes = sizes

    def __len__(self) -> int:
        return prod(self.sizes)

    def __iter__(self):
        return itertools.product(*map(range, self.sizes))


@dataclass(frozen=True)
class ZdOracle(BaseOracle):
    matrix: IntegerMatrix

    name = "zd"
    stable_letter = "t"

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * self.dim

    @cached_property
    def hnf(self) -> IntegerMatrix:
        """The Hermite basis B of K = M Z^d stacked on the unimodular U with
        B = M U: ``column_hnf`` of [M; I]."""
        return column_hnf(self.matrix + identity_matrix(self.dim))

    def mul(self, x, y):
        return tuple(map(operator.add, x, y))

    def inv(self, x):
        return tuple(map(operator.neg, x))

    def in_H(self, x) -> bool:
        return True

    def _divmod(self, v) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(q, r)`` with v = B q + r and 0 <= r_i < B_ii: r is the canonical
        K-coset representative of v, and v lies in K exactly when r = 0."""
        B = self.hnf
        q, r = [], list(v)
        for i in range(self.dim):
            q.append(r[i] // B[i][i])
            if q[i]:
                for row in range(i, self.dim):
                    r[row] -= q[i] * B[row][i]
        return tuple(q), tuple(r)

    def in_K(self, x) -> bool:
        return self._divmod(x)[1] == self.identity

    def phi(self, x):
        return mat_vec(self.matrix, x)

    def phi_inv(self, x):
        # x = B q exactly when x lies in K, and then M^-1 x = U q, as B = M U
        q, r = self._divmod(x)
        if r != self.identity:
            raise DomainError(f"{self.format_element(x)} is not in K = phi(Z^{self.dim})")
        return mat_vec(self.hnf[self.dim:], q)

    def decompose_left_H(self, x):
        return (x, self.identity)

    def decompose_right_H(self, x):
        return (self.identity, x)

    def decompose_left_K(self, x):
        r = self._divmod(x)[1]
        return (self.mul(x, self.inv(r)), r)

    def decompose_right_K(self, x):
        r = self._divmod(x)[1]
        return (r, self.mul(self.inv(r), x))

    def is_central(self, x) -> bool:
        return True

    def h_transversal(self) -> tuple:
        return (self.identity,)

    def k_transversal(self) -> HermiteBox:
        # box vectors of the Hermite diagonal are exactly the residues
        B = self.hnf
        return HermiteBox(tuple(B[i][i] for i in range(self.dim)))

    def base_letters(self):
        letters = {}
        for i in range(self.dim):
            unit = tuple(1 if j == i else 0 for j in range(self.dim))
            letters[f"e{i + 1}"] = unit
        return letters

    def power(self, x, k: int):
        return tuple(map(operator.mul, itertools.repeat(k), x))

    def format_element(self, x) -> str:
        parts = []
        for i, a in enumerate(x):
            if a == 0:
                continue
            parts.append(f"e{i + 1}" if a == 1 else f"e{i + 1}^{_int_text(a)}")
        return " ".join(parts) if parts else "1"


def make_zd(rows) -> ZdOracle:
    """Oracle for Z^d with phi given by an integer matrix; rejects det = 0."""
    M = as_matrix(rows)
    if det_int(M) == 0:
        raise ValueError("phi must be injective: det(M) != 0 required")
    return ZdOracle(M)


def parse_matrix(text: str) -> IntegerMatrix:
    """Rows separated by ';', entries by ',' (e.g. "2,1;1,1")."""
    try:
        rows = [[int(x) for x in row.split(",")] for row in text.split(";")]
    except ValueError as exc:
        raise ValueError(f"bad matrix literal {text!r}: {exc}") from None
    return as_matrix(rows)


def cyclotomic_order_candidates(d: int) -> list[int]:
    """All k with Euler-totient(k) <= d, ascending, by a totient sieve.
    totient(k) >= sqrt(k/2) makes 2*d^2 + 1 a safe cutoff."""
    bound = 2 * d * d + 1
    tot = list(range(bound + 1))
    for p in range(2, bound + 1):
        if tot[p] == p:  # p is prime
            for q in range(p, bound + 1, p):
                tot[q] -= tot[q] // p
    return [k for k in range(1, bound + 1) if tot[k] <= d]


def _divmod_monic(p: list[int], q: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of the integer polynomial p by the monic q,
    coefficients constant term first; monic, so no division is needed."""
    r, n = list(p), len(q) - 1
    quotient = []
    for i in range(len(r) - 1, n - 1, -1):
        c = r[i]
        quotient.append(c)
        if c:
            for j in range(n):
                r[i - n + j] -= c * q[j]
    return quotient[::-1], r[:n]


@lru_cache(maxsize=8)
def _cyclotomic_table(d: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """``(k, Phi_k)`` for every candidate k of dimension d, ascending.  Each
    Phi_k is x^k - 1 divided exactly by Phi_e for the divisors e < k, which
    are candidates too, as totient(e) <= totient(k)."""
    table: dict[int, tuple[int, ...]] = {}
    for k in cyclotomic_order_candidates(d):
        phi = [-1] + [0] * (k - 1) + [1]
        for e, q in table.items():
            if k % e == 0:
                phi = _divmod_monic(phi, q)[0]
        table[k] = tuple(phi)
    return tuple(table.items())


def _charpoly(M: IntegerMatrix) -> list[int]:
    """Coefficients of det(x I - M), constant term first, by Berkowitz's
    division-free recursion over the leading principal blocks (Inform.
    Process. Lett. 18 (1984) 147-150).  With p that polynomial for the
    leading r x r block A, bordered to r + 1 by the column c, the row R and
    the corner a, the Schur complement gives the next as x p - a p minus the
    polynomial part of p times sum_i R A^i c x^-(i+1).  About d^4 / 4
    products in all."""
    p = [1]
    for r, row in enumerate(M):
        block, R = [M[i][:r] for i in range(r)], row[:r]
        c, s = [M[i][r] for i in range(r)], []
        for _ in range(r):
            s.append(sum(map(operator.mul, R, c)))
            c = [sum(map(operator.mul, b, c)) for b in block]
        q = [0, *p]
        for m in range(r + 1):
            q[m] -= row[r] * p[m] + sum(s[i] * p[m + i + 1] for i in range(r - m))
        p = q
    return p


def has_root_of_unity_eigenvalue(M) -> Optional[int]:
    """Smallest k >= 1 such that some eigenvalue of M is a primitive k-th
    root of unity; None if no eigenvalue is a root of unity.  Such an
    eigenvalue has degree totient(k) <= d, and as Phi_k is irreducible over
    the rationals it is an eigenvalue exactly when Phi_k divides the
    characteristic polynomial: the answer is the least candidate k with
    that.  A matrix of more than the dimension limit is refused up front."""
    M = as_matrix(M)
    if len(M) > _LIMITS["dimensions"]:
        raise ValueError(f"the root-of-unity test of a matrix of {_more_than('dimensions')}")
    chi = _charpoly(M)
    for k, phi in _cyclotomic_table(len(M)):
        if not any(_divmod_monic(chi, phi)[1]):
            return k
    return None


def _fixed_point_system(M, j: int) -> IntegerMatrix:
    """M^j - I, whose kernel holds the vectors fixed by phi^j."""
    if j < 1:
        raise ValueError("j must be >= 1")
    M = as_matrix(M)
    return mat_sub(mat_pow(M, j), identity_matrix(len(M)))


def fixed_lattice_rank(M, j: int) -> int:
    """Rank of the integer kernel of M^j - I; zero exactly when phi^j is
    fixed-point-free on Z^d, equivalently det(M^j - I) != 0."""
    A = _fixed_point_system(M, j)
    return len(A) - len(_echelon(A)[1])


def integer_fixed_vector(M, j: int) -> Optional[tuple[int, ...]]:
    """A nonzero primitive integer vector fixed by M^j, or None when M^j is
    fixed-point-free: the one supported on coordinates 0..f, f the first
    column without pivot, with first nonzero entry positive.  Its entry f is
    the leading f x f minor (the last pivot before f), and back-substitution
    through the triangular pivot rows divides exactly."""
    A = _fixed_point_system(M, j)
    rows, pivots, _ = _echelon(A)
    f = next((c for c in range(len(A)) if c not in pivots), None)
    if f is None:
        return None
    vec = [0] * len(A)
    vec[f] = rows[f - 1][f - 1] if f else 1
    for r in reversed(range(f)):
        vec[r] = -sum(rows[r][c] * vec[c] for c in range(r + 1, f + 1)) // rows[r][r]
    g = gcd(*vec)
    if next(a for a in vec if a) < 0:
        g = -g
    return tuple(a // g for a in vec)
