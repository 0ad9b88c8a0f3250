import itertools
import random
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnnkit import (
    DomainError,
    fixed_lattice_rank,
    format_word,
    has_root_of_unity_eigenvalue,
    integer_fixed_vector,
    make_zd,
    parse_matrix,
    parse_word,
)
from hnnkit import calculus
from hnnkit.zd import (
    _charpoly,
    column_hnf,
    cyclotomic_order_candidates,
    det_int,
    identity_matrix,
    mat_mul,
    mat_pow,
    mat_sub,
    mat_vec,
)

COMPANION_PHI6 = [[0, -1], [1, 1]]  # x^2 - x + 1
FIB = [[2, 1], [1, 1]]  # x^2 - 3x + 1


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


def solve_exact(M, v):
    """Unique rational solution of M x = v for nonsingular M: the reference
    for phi_inv and in_K, by Gauss-Jordan elimination over the rationals."""
    d = len(M)
    rows, pivots = _rref([list(row) + [x] for row, x in zip(M, v)])
    if pivots != list(range(d)):
        raise ValueError("matrix is singular")
    return tuple(row[d] for row in rows)


# --- the rational and cyclotomic routes, as references -----------------------


def reference_det(M):
    """Leibniz expansion: the sum over permutations of signed products."""
    d = len(M)
    total = 0
    for perm in itertools.permutations(range(d)):
        inversions = sum(1 for i, j in itertools.combinations(range(d), 2) if perm[i] > perm[j])
        total += (-1) ** inversions * prod(M[i][perm[i]] for i in range(d))
    return total


def reference_fixed_system(M, j):
    return tuple(tuple(x - (r == c) for c, x in enumerate(row))
                 for r, row in enumerate(mat_pow(tuple(map(tuple, M)), j)))


def reference_fixed_lattice_rank(M, j):
    A = reference_fixed_system(M, j)
    return len(A) - len(_rref(A)[1])


def reference_fixed_vector(M, j):
    """The kernel vector of M^j - I with a 1 at the first free column of the
    reduced row echelon form, cleared of denominators, made primitive and
    positive at its first nonzero entry."""
    A = reference_fixed_system(M, j)
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


def reference_cyclotomic_route(M):
    """Smallest candidate k with det(Phi_k(M)) = 0, Phi_k(M) by Horner's rule."""
    M = tuple(map(tuple, M))
    d = len(M)
    for k in cyclotomic_order_candidates(d):
        P = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        for c in reversed(_cyclotomic(k)[:-1]):  # monic: each step is P <- P M + c I
            P = tuple(tuple(x + c if i == j else x for j, x in enumerate(row))
                      for i, row in enumerate(mat_mul(P, M)))
        if reference_det(P) == 0:
            return k
    return None


def reference_power_route(M):
    """Smallest candidate k with det(M^k - I) = 0, the powers built one
    multiplication at a time.  As det(M^k - I) is the product of
    det(Phi_e(M)) over the divisors e of k, and each such e is a candidate,
    this is the least candidate k with Phi_k(M) singular."""
    M = tuple(map(tuple, M))
    ident = identity_matrix(len(M))
    candidates = cyclotomic_order_candidates(len(M))
    P = ident
    for k in range(1, candidates[-1] + 1):
        P = mat_mul(P, M)
        if k in candidates and det_int(mat_sub(P, ident)) == 0:
            return k
    return None


def with_cyclotomic_block(M, k):
    """M with its leading block replaced by the companion matrix of Phi_k
    and the block below it cleared: block upper triangular, so Phi_k
    divides its characteristic polynomial."""
    phi = _cyclotomic(k)
    n = len(phi) - 1
    M = [list(row) for row in M]
    for i in range(len(M)):
        for j in range(n):
            M[i][j] = (1 if i == j + 1 else 0) if i < n else 0
        if i < n:
            M[i][n - 1] = -phi[i]
    return M


def conjugate_elementary(M, i, j, s):
    """E M E^-1 for E = I + s e_ij, i != j: add s times row j to row i, then
    subtract s times column i from column j.  Same eigenvalues, no visible
    block."""
    M = [list(row) for row in M]
    M[i] = [x + s * y for x, y in zip(M[i], M[j])]
    for row in M:
        row[j] -= s * row[i]
    return M


def seeded_matrices(dim, count, seed):
    """Matrices with entries in [-3, 3]; every fourth has a last row that
    combines the others, so it is singular."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        M = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        if i % 4 == 0:
            coeffs = [rng.randint(-2, 2) for _ in range(dim - 1)]
            M[-1] = [sum(c * row[j] for c, row in zip(coeffs, M)) for j in range(dim)]
        out.append(tuple(map(tuple, M)))
    return out


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_echelon_matches_the_rational_references(dim):
    ranks = set()
    for M in seeded_matrices(dim, 60, 303 + dim):
        assert det_int(M) == reference_det(M), M
        for j in range(1, 9):
            rank = fixed_lattice_rank(M, j)
            assert rank == reference_fixed_lattice_rank(M, j), (M, j)
            assert integer_fixed_vector(M, j) == reference_fixed_vector(M, j), (M, j)
            ranks.add(rank)
    assert len(ranks) > 1


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_root_of_unity_matches_the_cyclotomic_route(dim):
    found = set()
    for M in seeded_matrices(dim, 60, 404 + dim):
        k = has_root_of_unity_eigenvalue(M)
        assert k == reference_cyclotomic_route(M), M
        found.add(k)
    assert None in found and len(found) > 1


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_root_of_unity_matches_the_power_route(dim):
    # seeded matrices, a quarter of them singular, then each candidate's
    # companion block, hidden by an elementary conjugation
    rng = random.Random(505 + dim)
    cases = seeded_matrices(dim, 60, 505 + dim)
    for k in cyclotomic_order_candidates(dim):
        for M in seeded_matrices(dim, 4, 606 + k):
            M = with_cyclotomic_block(M, k)
            if dim > 1:
                i, j = rng.sample(range(dim), 2)
                M = conjugate_elementary(M, i, j, rng.choice([-2, -1, 1, 2]))
            cases.append(M)
    found = set()
    for M in cases:
        k = has_root_of_unity_eigenvalue(M)
        assert k == reference_power_route(M), M
        found.add(k)
    assert None in found and found >= set(cyclotomic_order_candidates(dim))


@st.composite
def root_test_matrices(draw):
    """Matrices of dimension 1 to 5, entries in [-3, 3]: some with a last
    row combining the others, some with a cyclotomic companion block, then
    conjugated by elementary matrices."""
    dim = draw(st.integers(1, 5))
    row = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    M = draw(st.lists(row, min_size=dim, max_size=dim))
    kind = draw(st.sampled_from(["plain", "singular", "cyclotomic"]))
    if kind == "singular":
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=dim - 1, max_size=dim - 1))
        M[-1] = [sum(c * r[j] for c, r in zip(coeffs, M)) for j in range(dim)]
    elif kind == "cyclotomic":
        M = with_cyclotomic_block(M, draw(st.sampled_from(cyclotomic_order_candidates(dim))))
    if dim > 1:
        for i, j, s in draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(1, dim - 1),
                                               st.integers(-2, 2)), max_size=2)):
            M = conjugate_elementary(M, i, (i + j) % dim, s)
    return M


@given(root_test_matrices())
@settings(max_examples=300, deadline=None)
def test_root_of_unity_matches_the_power_route_on_random_matrices(M):
    assert has_root_of_unity_eigenvalue(M) == reference_power_route(M)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 7])
def test_charpoly_is_det_of_x_minus_m(dim):
    # a polynomial of degree d is fixed by its values at d + 1 points
    for M in seeded_matrices(dim, 20, 707 + dim):
        chi = _charpoly(M)
        assert len(chi) == dim + 1 and chi[-1] == 1
        for x in range(-(dim // 2), dim - dim // 2 + 1):
            xI_M = tuple(tuple(x * (i == j) - a for j, a in enumerate(row)) for i, row in enumerate(M))
            assert sum(c * x**i for i, c in enumerate(chi)) == det_int(xI_M), (M, x)


def test_root_test_refuses_past_the_dimension_limit(monkeypatch):
    # the characteristic polynomial costs about d^4 steps: a matrix past
    # the limit is refused before any of them
    monkeypatch.setitem(calculus._LIMITS, "dimensions", 3)
    monkeypatch.setattr("hnnkit.zd._charpoly", None)
    M = [[2 if i == j else 0 for j in range(4)] for i in range(4)]
    with pytest.raises(ValueError, match="^the root-of-unity test of a matrix of more than 3 dimensions$"):
        has_root_of_unity_eigenvalue(M)
    monkeypatch.undo()
    assert has_root_of_unity_eigenvalue(M) is None


def test_make_zd_rejects_singular():
    with pytest.raises(ValueError):
        make_zd([[1, 2], [2, 4]])


def test_phi_and_inverse(zd_fib):
    assert zd_fib.phi((1, 0)) == (2, 1)
    assert zd_fib.phi_inv((2, 1)) == (1, 0)


def test_format_round_trip(zd_fib):
    # Z^2 elements print with spaces of their own
    for text in ["e1 e2^-1 t^2 e2 t^-1", "t e1^3 e2 t^-1 t", "1"]:
        assert format_word(parse_word(zd_fib, text)) == text


def test_phi_inv_outside_lattice():
    z2 = make_zd([[2, 0], [0, 2]])
    with pytest.raises(DomainError):
        z2.phi_inv((1, 0))


@pytest.mark.parametrize("dim", [2, 3])
def test_phi_inv_matches_exact_solve(dim):
    rng = random.Random(17 + dim)
    dets = set()
    while len(dets) < 25:
        M = tuple(tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(dim))
        if det_int(M) == 0:
            continue
        dets.add(det_int(M))
        oracle = make_zd(M)
        for _ in range(20):
            v = tuple(rng.randint(-30, 30) for _ in range(dim))
            # an image of phi is always in K; a random vector mostly is not
            for x in (v, oracle.phi(v)):
                sol = solve_exact(oracle.matrix, x)
                if all(f.denominator == 1 for f in sol):
                    assert oracle.phi_inv(x) == tuple(int(f) for f in sol)
                else:
                    with pytest.raises(DomainError) as exc:
                        oracle.phi_inv(x)
                    assert str(exc.value) == (
                        f"{oracle.format_element(x)} is not in K = phi(Z^{dim})")
    assert min(dets) < 0 < max(dets)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_hermite_basis_is_m_times_a_unimodular_matrix(dim):
    # phi_inv(B q) = U q rests on B = M U with U invertible over the integers
    rng = random.Random(5 + dim)
    tried = 0
    while tried < 20:
        M = tuple(tuple(rng.randint(-5, 5) for _ in range(dim)) for _ in range(dim))
        if det_int(M) == 0:
            continue
        tried += 1
        BU = make_zd(M).hnf
        B, U = BU[:dim], BU[dim:]
        assert B == column_hnf(M)
        assert B == mat_mul(M, U)
        assert det_int(U) in (1, -1)


def test_phi_inv_in_dimension_one():
    oracle = make_zd([[-3]])
    assert oracle.phi_inv((6,)) == (-2,)
    with pytest.raises(DomainError, match="is not in K"):
        oracle.phi_inv((4,))


def test_solve_exact_rejects_singular():
    with pytest.raises(ValueError, match="matrix is singular"):
        solve_exact(((1, 2), (2, 4)), (1, 2))
    with pytest.raises(ValueError, match="matrix is singular"):
        solve_exact(((1, 2, 3), (2, 4, 7), (1, 2, 5)), (1, 0, 0))


def test_in_K_even_lattice():
    z2 = make_zd([[2, 0], [0, 2]])
    assert not z2.in_K((1, 0))
    assert z2.in_K((2, 4))


def test_in_K_matches_exact_solve():
    rng = random.Random(7)
    for _ in range(40):
        M = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        if det_int(tuple(map(tuple, M))) == 0:
            continue
        oracle = make_zd(M)
        v = tuple(rng.randint(-6, 6) for _ in range(2))
        by_solve = all(f.denominator == 1 for f in solve_exact(oracle.matrix, v))
        assert oracle.in_K(v) == by_solve


def test_k_decomposition_laws():
    rng = random.Random(11)
    oracle = make_zd([[2, 1], [0, 3]])
    for _ in range(60):
        v = tuple(rng.randint(-9, 9) for _ in range(2))
        k, r = oracle.decompose_left_K(v)
        assert oracle.in_K(k)
        assert oracle.mul(k, r) == v
        assert oracle.is_identity(r) == oracle.in_K(v)


def test_k_transversal_size_is_det():
    oracle = make_zd([[2, 1], [0, 3]])
    reps = oracle.k_transversal()
    assert len(reps) == 6
    assert len({oracle._divmod(r) for r in reps}) == 6
    for r in reps:
        assert oracle._divmod(r) == (oracle.identity, r)


def test_column_hnf_shape():
    B = column_hnf(tuple(map(tuple, [[2, 1], [1, 1]])))
    for i in range(2):
        assert B[i][i] > 0
        for j in range(i + 1, 2):
            assert B[i][j] == 0


def test_root_of_unity_companion_phi6():
    assert has_root_of_unity_eigenvalue(COMPANION_PHI6) == 6
    assert mat_pow(tuple(map(tuple, COMPANION_PHI6)), 6) == ((1, 0), (0, 1))


def test_root_of_unity_trivial():
    assert has_root_of_unity_eigenvalue([[1]]) == 1


def test_root_of_unity_absent():
    assert has_root_of_unity_eigenvalue(FIB) is None


def test_fixed_lattice_rank_values():
    assert fixed_lattice_rank(COMPANION_PHI6, 6) == 2
    assert [fixed_lattice_rank(FIB, j) for j in range(1, 7)] == [0] * 6
    assert fixed_lattice_rank([[1]], 1) == 1


def test_integer_fixed_vector_is_fixed():
    v = integer_fixed_vector(COMPANION_PHI6, 6)
    assert v is not None and any(v)
    M6 = mat_pow(tuple(map(tuple, COMPANION_PHI6)), 6)
    assert mat_vec(M6, v) == v
    assert integer_fixed_vector(FIB, 3) is None


@pytest.mark.parametrize("j", [0, -1])
def test_fixed_point_functions_reject_small_j(j):
    for fn in (fixed_lattice_rank, integer_fixed_vector):
        with pytest.raises(ValueError, match="j must be >= 1"):
            fn(COMPANION_PHI6, j)


def test_totient_candidates_small_dims():
    assert cyclotomic_order_candidates(1) == [1, 2]
    assert cyclotomic_order_candidates(2) == [1, 2, 3, 4, 6]
    assert cyclotomic_order_candidates(3) == [1, 2, 3, 4, 6]


def test_totient_cutoff_is_exhaustive():
    # plain sieve, independent of the library's candidate enumeration
    for d in (1, 2, 3, 4):
        bound = 8 * d * d + 16
        tot = list(range(bound + 1))
        for p in range(2, bound + 1):
            if tot[p] == p:  # p prime
                for q in range(p, bound + 1, p):
                    tot[q] -= tot[q] // p
        small = [k for k in range(1, bound + 1) if tot[k] <= d]
        assert max(small) <= 2 * d * d + 1
        assert small == cyclotomic_order_candidates(d)


def equivalence_order_bound(d):
    return lcm(*cyclotomic_order_candidates(d))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_root_of_unity_iff_fixed_points(dim):
    rng = random.Random(101 + dim)
    bound = equivalence_order_bound(dim)
    checked = 0
    while checked < 40:
        M = tuple(tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim))
        if det_int(M) == 0:
            continue
        checked += 1
        has_rou = has_root_of_unity_eigenvalue(M) is not None
        has_fixed = any(fixed_lattice_rank(M, j) > 0 for j in range(1, bound + 1))
        assert has_rou == has_fixed, M


def test_phi_image_always_in_K(zd_fib):
    rng = random.Random(3)
    for _ in range(50):
        v = tuple(rng.randint(-9, 9) for _ in range(2))
        assert zd_fib.in_K(zd_fib.phi(v))
        assert zd_fib.phi_inv(zd_fib.phi(v)) == v


def test_parse_matrix():
    assert parse_matrix("2,1;1,1") == ((2, 1), (1, 1))
    with pytest.raises(ValueError):
        parse_matrix("2,1;1")
    with pytest.raises(ValueError):
        parse_matrix("2,x;1,1")


# --- differential test against the sympy route -------------------------------


def reference_root_of_unity(M):
    """Smallest k such that the characteristic polynomial of M shares a
    nonconstant factor with the k-th cyclotomic polynomial, by sympy
    polynomial gcds; None if there is none."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    d = len(M)
    charpoly = sympy.Matrix(M).charpoly(x).as_expr()
    for k in range(1, 2 * d * d + 2):
        if sympy.totient(k) <= d and sympy.degree(
                sympy.gcd(charpoly, sympy.cyclotomic_poly(k, x)), x) >= 1:
            return k
    return None


def reference_cyclotomic(k):
    """Coefficients of Phi_k from sympy, constant term first."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    return tuple(int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(k, x), x).all_coeffs()))


def companion(k):
    """Companion matrix of Phi_k; its characteristic polynomial is Phi_k."""
    coeffs = reference_cyclotomic(k)
    n = len(coeffs) - 1
    C = [[1 if i == j + 1 else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        C[i][n - 1] = -coeffs[i]
    return C


def block_diag(*blocks):
    d = sum(len(b) for b in blocks)
    M = [[0] * d for _ in range(d)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            M[at + i][at:at + len(row)] = row
        at += len(b)
    return M


def test_cyclotomic_coefficients_match_sympy():
    for k in range(1, 61):
        assert _cyclotomic(k) == reference_cyclotomic(k), k


def test_root_of_unity_matches_sympy_on_2x2_grid():
    grid = [((a, b), (c, d)) for a, b, c, d in itertools.product(range(-2, 3), repeat=4)
            if a * d != b * c]
    assert len(grid) == 496
    found = [has_root_of_unity_eigenvalue(M) for M in grid]
    assert found == [reference_root_of_unity(M) for M in grid]
    assert set(found) == {None, 1, 2, 3, 4, 6}


@pytest.mark.parametrize("dim", [3, 4])
def test_root_of_unity_matches_sympy_on_random(dim):
    rng = random.Random(41 + dim)
    found = set()
    for _ in range(60):
        M = tuple(tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(dim))
        k = has_root_of_unity_eigenvalue(M)
        assert k == reference_root_of_unity(M), M
        found.add(k)
    assert None in found and len(found) > 2


def test_root_of_unity_matches_sympy_on_cyclotomic_blocks():
    ks = cyclotomic_order_candidates(4)
    assert ks == [1, 2, 3, 4, 5, 6, 8, 10, 12]
    for k in ks:
        C = companion(k)
        n = 4 - len(C)
        twos = [[2 if i == j else 0 for j in range(n)] for i in range(n)]  # no root of unity
        M = block_diag(C, twos)
        assert has_root_of_unity_eigenvalue(M) == reference_root_of_unity(M) == k
    for k1, k2 in itertools.permutations(ks, 2):
        C1, C2 = companion(k1), companion(k2)
        if len(C1) + len(C2) <= 4:
            M = block_diag(C1, C2)
            assert has_root_of_unity_eigenvalue(M) == reference_root_of_unity(M) == min(k1, k2)
    phi6_phi4 = block_diag(COMPANION_PHI6, [[0, -1], [1, 0]])
    assert has_root_of_unity_eigenvalue(phi6_phi4) == reference_root_of_unity(phi6_phi4) == 4
