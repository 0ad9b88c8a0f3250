import itertools
import random
from math import lcm

import pytest

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
from hnnkit.zd import (
    _cyclotomic,
    _rref,
    column_hnf,
    cyclotomic_order_candidates,
    det_int,
    mat_mul,
    mat_pow,
    mat_vec,
)

COMPANION_PHI6 = [[0, -1], [1, 1]]  # x^2 - x + 1
FIB = [[2, 1], [1, 1]]  # x^2 - 3x + 1


def solve_exact(M, v):
    """Unique rational solution of M x = v for nonsingular M: the reference
    for phi_inv and in_K, by Gauss-Jordan elimination over the rationals."""
    d = len(M)
    rows, pivots = _rref([list(row) + [x] for row, x in zip(M, v)])
    if pivots != list(range(d)):
        raise ValueError("matrix is singular")
    return tuple(row[d] for row in rows)


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
