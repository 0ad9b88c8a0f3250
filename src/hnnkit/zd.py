"""Base oracle for L = Z^d with H = Z^d and K = phi(Z^d), phi an injective
integer matrix.

This is the ascending setting: every base element lies in H.  Membership in
K, the K-coset representatives and phi^-1 all come from one mixed-radix
residue against a column-style Hermite basis B = M U, U unimodular.  An
eigenvalue is a primitive k-th root of unity exactly when det(Phi_k(M)) = 0,
decided in integer arithmetic, never through floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm
from typing import Optional

from .calculus import BaseOracle, DomainError

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


def det_int(M: IntegerMatrix) -> int:
    """Fraction-free Bareiss elimination; exact for integer matrices."""
    d = len(M)
    a = [list(row) for row in M]
    sign = 1
    prev = 1
    for k in range(d - 1):
        if a[k][k] == 0:
            for r in range(k + 1, d):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[d - 1][d - 1]


def _rref(A) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of A over the rationals, by Gauss-Jordan
    elimination: the rows, and the pivot column of each nonzero row."""
    rows = [[Fraction(x) for x in row] for row in A]
    pivots: list[int] = []
    for col in range(len(rows[0])):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
    return rows, pivots


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
        return tuple(a + b for a, b in zip(x, y))

    def inv(self, x):
        return tuple(-a for a in x)

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

    def k_transversal(self) -> tuple:
        # box vectors of the Hermite diagonal are exactly the residues
        B = self.hnf
        ranges = [range(B[i][i]) for i in range(self.dim)]
        return tuple(itertools.product(*ranges))

    def base_letters(self):
        letters = {}
        for i in range(self.dim):
            unit = tuple(1 if j == i else 0 for j in range(self.dim))
            letters[f"e{i + 1}"] = unit
        return letters

    def power(self, x, k: int):
        return tuple(k * a for a in x)

    def format_element(self, x) -> str:
        parts = []
        for i, a in enumerate(x):
            if a == 0:
                continue
            parts.append(f"e{i + 1}" if a == 1 else f"e{i + 1}^{a}")
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
    """All k with Euler-totient(k) <= d, ascending.  totient(k) >= sqrt(k/2)
    makes 2*d^2 + 1 a safe enumeration cutoff."""
    return [k for k in range(1, 2 * d * d + 2)
            if sum(1 for i in range(1, k + 1) if gcd(i, k) == 1) <= d]


@cache
def _cyclotomic(k: int) -> tuple[int, ...]:
    """Integer coefficients of the k-th cyclotomic polynomial, constant term
    first: x^k - 1 divided exactly by Phi_e for every proper divisor e of k."""
    p = [-1] + [0] * (k - 1) + [1]
    for e in range(1, k):
        if k % e:
            continue
        q = _cyclotomic(e)  # monic, so the long division stays in the integers
        n = len(q) - 1
        quotient = [0] * (len(p) - n)
        for i in reversed(range(len(quotient))):
            c = quotient[i] = p[i + n]
            for j, qj in enumerate(q):
                p[i + j] -= c * qj
        p = quotient
    return tuple(p)


def has_root_of_unity_eigenvalue(M) -> Optional[int]:
    """Smallest k >= 1 such that some eigenvalue of M is a primitive k-th
    root of unity; None if no eigenvalue is a root of unity.  The eigenvalues
    of Phi_k(M) are the values Phi_k(lambda) at the eigenvalues lambda of M,
    so the test is det(Phi_k(M)) == 0, with Phi_k(M) by Horner's rule."""
    M = as_matrix(M)
    d = len(M)
    for k in cyclotomic_order_candidates(d):
        P = identity_matrix(d)  # Phi_k is monic; each step is P <- P M + c I
        for c in reversed(_cyclotomic(k)[:-1]):
            P = tuple(tuple(x + c if i == j else x for j, x in enumerate(row))
                      for i, row in enumerate(mat_mul(P, M)))
        if det_int(P) == 0:
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
    return len(A) - len(_rref(A)[1])


def integer_fixed_vector(M, j: int) -> Optional[tuple[int, ...]]:
    """A nonzero primitive integer vector fixed by M^j, or None when M^j is
    fixed-point-free."""
    A = _fixed_point_system(M, j)
    d = len(A)
    rows, pivots = _rref(A)
    free = next((c for c in range(d) if c not in pivots), None)
    if free is None:
        return None
    vec = [Fraction(0)] * d
    vec[free] = Fraction(1)
    for r, pcol in enumerate(pivots):
        vec[pcol] = -rows[r][free]
    denom = lcm(*(f.denominator for f in vec))
    ints = [int(f * denom) for f in vec]
    g = gcd(*(abs(a) for a in ints))
    ints = [a // g for a in ints]
    first = next(a for a in ints if a != 0)
    if first < 0:
        ints = [-a for a in ints]
    return tuple(ints)
