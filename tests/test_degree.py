"""Tree walks whatever the degree: the descent reads one candidate step per
level off its conjugate, the class walk counts a central class's children
by the transversal's size, and a tree of degree 10^8 or 10^9 is answered or
refused from predicted sizes, without listing its steps."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden_corpus
from hnnkit import (
    BsOracle,
    HnnWord,
    ball,
    base_vertex,
    britton_reduce,
    fixed_subtree,
    inv,
    make_bs,
    make_zd,
    min_displacement_bfs,
    mul,
    neighbors,
    parse_word,
    tree,
    tree_dot,
)
from hnnkit import cli
from hnnkit.bs import BsParams
from hnnkit.calculus import _seam

from conftest import count_cells, protocol_bs
from test_analysis import NoncentralBs

ZD_MATRICES = [((2, 0), (0, 2)), ((1, 1), (-1, 2)), ((2, 1), (1, 1)), ((2, 1), (0, 3)), ((3, 1), (1, -2))]
DESCENT_ORACLES = (
    [make_bs(m, n) for m in range(-6, 7) for n in range(-6, 7) if m and n]
    + [make_zd(rows) for rows in ZD_MATRICES]
    + [oracle for _, oracle in golden_corpus.oracles()]
    + [golden_corpus._DropsKRepresentative(BsParams(2, 3)), protocol_bs(2, 3), protocol_bs(-4, 6)]
)


def reference_descend(gamma, radius=None):
    """The descent by trial: at each level, try the child steps in
    transversal order, each by two pinch passes over v^-1 gamma v, and move
    to the first whose conjugate has strictly fewer stable letters."""
    oracle = gamma.oracle
    e = oracle.identity
    steps = [(rep, 1) for rep in oracle.h_transversal()] + [(rep, -1) for rep in oracle.k_transversal()]
    g = britton_reduce(gamma)
    path, head, tail = (), g.head, g.tail
    while tail and (radius is None or len(path) < radius):
        for rep, sign in steps:
            if path and sign == -path[-1][1] and oracle.is_identity(rep):
                continue  # the step back to the parent
            h, t = _seam(oracle, e, ((-sign, oracle.inv(rep)),), head, tail)
            h, t = _seam(oracle, h, t, rep, ((sign, e),))
            if len(t) < len(tail):
                path, head, tail = path + ((rep, sign),), h, t
                break
        else:
            break
    return path, head, tail


def elements(oracle):
    if isinstance(oracle, BsOracle):
        return st.integers(-40, 40)
    return st.tuples(*[st.integers(-5, 5)] * oracle.dim)


@st.composite
def descents(draw):
    # plain words, mostly hyperbolic, and conjugates g w g^-1 of short words,
    # which descend along g; reduced by the calculus or written out
    oracle = draw(st.sampled_from(DESCENT_ORACLES))
    elem = elements(oracle)

    def word(max_size):
        tail = draw(st.lists(st.tuples(st.sampled_from((1, -1)), elem), max_size=max_size))
        return HnnWord(oracle, draw(elem), tuple(tail))

    g, w = word(12), word(3)
    gamma = draw(st.sampled_from([w, g, mul(mul(g, w), inv(g))]))
    if draw(st.booleans()):
        gamma = HnnWord(oracle, gamma.head, gamma.tail)
    return gamma, draw(st.none() | st.integers(0, 10))


@given(descents())
@settings(max_examples=400, deadline=None)
def test_descent_matches_the_trial_descent(case):
    # the same path and the same conjugate: the dropping neighbor is unique
    gamma, radius = case
    assert tree._descend(gamma, radius) == reference_descend(gamma, radius), (str(gamma), radius)


def conjugates_of_b6(oracle, lengths, seed):
    """BS(2,3) words g b^6 g^-1 for random g of the given stable-letter
    counts, whose exponents +-1 lie in neither subgroup, so g is reduced."""
    for n in lengths:
        rng = random.Random(seed)
        g = HnnWord(oracle, 0, tuple((rng.choice((1, -1)), rng.choice((1, -1))) for _ in range(n)))
        yield mul(mul(g, parse_word(oracle, "b^6")), inv(g))


def test_descent_is_linear_in_the_word(monkeypatch):
    # one candidate per level and O(1) base operations each, counted on an
    # oracle that runs the protocol: g b^6 g^-1 of reduced length 1,006,
    # 2,206 and 4,254 descends g's 503, 1,103 and 2,127 levels
    oracle = protocol_bs(2, 3)
    calls = []
    for name in ("mul", "decompose_right_H", "decompose_right_K", "in_H", "in_K"):
        real = getattr(type(oracle), name)
        monkeypatch.setattr(type(oracle), name, lambda self, *args, real=real: calls.append(1) or real(self, *args))
    seen = []
    for gamma in conjugates_of_b6(oracle, (504, 1104, 2128), 14):
        calls.clear()
        path, head, tail = tree._descend(gamma)
        seen.append((len(gamma.tail), len(path), tail, len(calls) <= 7 * len(path) + 7))
    assert seen == [(1006, 503, (), True), (2206, 1103, (), True), (4254, 2127, (), True)]
    # and the trial descent agrees where it is still quick
    gamma = next(conjugates_of_b6(make_bs(2, 3), (504,), 14))
    assert tree._descend(gamma) == reference_descend(gamma)


@pytest.mark.parametrize("m,n", [(2, 3), (2, -2), (1, 2), (-3, 4)])
def test_the_per_representative_walk_agrees_with_the_central_one(m, n):
    # a central class counts its children by the transversal's size; the
    # per-representative loop of any other class finds the same vertices in
    # the same order
    central, other = make_bs(m, n), NoncentralBs(BsParams(m, n))
    rng = random.Random(m * 100 + n)
    for r in range(4):
        assert [v.path for v in ball(other, r)] == [v.path for v in ball(central, r)]
    for _ in range(40):
        text = " ".join(rng.choice(["a", "a^-1", "b", "b^-1", "b^6"]) for _ in range(rng.randint(0, 6)))
        words = [parse_word(oracle, text) for oracle in (central, other)]
        if tree._descend(words[0])[2]:
            continue
        fixed = [fixed_subtree(w, 3) for w in words]
        assert {v.path for v in fixed[1][0]} == {v.path for v in fixed[0][0]} and fixed[1][1] == fixed[0][1]


def test_the_hermite_box_is_indexed_in_product_order():
    box = make_zd(((2, 1), (0, 3))).k_transversal()
    assert len(box) == 6
    assert list(box) == list(itertools.product(range(box.sizes[0]), range(box.sizes[1])))
    huge = make_zd(((10_000, 0), (0, 10_000))).k_transversal()
    assert len(huge) == 10**8


# BS(10^9, 2): [L:H] = 2, [L:K] = 10^9; Z^2 by 10^4 I: [L:H] = 1, [L:K] = 10^8
HUGE = [make_bs(10**9, 2), make_zd(((10_000, 0), (0, 10_000)))]
REFUSED = "radius {} holds more than 1000000 vertices or 10000000 path steps"


@pytest.mark.parametrize("oracle", HUGE, ids=["BS(10^9,2)", "Z2-10^4"])
def test_huge_degrees_are_answered_or_refused_from_their_counts(oracle, monkeypatch):
    # the counts alone: a central class has one child test per sign, however
    # large the transversal, and no step is listed before the size check
    built = count_cells(monkeypatch)
    # gamma fixes the children across H of the base vertex and their
    # 10^9 - 1 resp. 10^8 - 1 children across K; big fixes them all
    texts = ["b^2", "b^1000000000"] if isinstance(oracle, BsOracle) else ["e1", "e1^10000"]
    gamma, big = (parse_word(oracle, text) for text in texts)
    for walk, args, radius in [
        (ball, (oracle,), 1),
        (ball, (oracle,), 10**9),
        (tree_dot, (oracle,), 1),
        (fixed_subtree, (gamma,), 2),
        (fixed_subtree, (big,), 1),
    ]:
        with pytest.raises(ValueError, match=REFUSED.format(radius)):
            walk(*args, radius)
    with pytest.raises(ValueError, match=REFUSED.format(1)):
        neighbors(tree.VertexLabel(oracle))
    assert len(built) == 1  # the vertex passed to neighbors
    built.clear()

    assert ball(oracle, 0) == [tree.VertexLabel(oracle)]
    assert tree_dot(oracle, 0) == 'digraph bass_serre_ball {\n  "1";\n}\n'
    # two children across H in BS(10^9, 2), one in the Z^2 extension
    fixed, touches = fixed_subtree(gamma, 1)
    assert touches and len(fixed) == 1 + len(oracle.h_transversal())
    assert min_displacement_bfs(gamma, 5)[0] == 0
    if isinstance(oracle, BsOracle):
        assert fixed_subtree(parse_word(oracle, "b"), 5) == (frozenset([base_vertex(oracle)]), False)
    assert len(built) < 20


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out.splitlines(), err.splitlines()


# BS(10^20, 2) and the Z^2 extension by diag(10^20, 1): [L:K] = 10^20 is
# past sys.maxsize, so len cannot count the children across K.  The first
# word fixes children across K (b^(2 * 10^20) the base vertex's, e1 those of
# t), the second none, so its walk never takes that len
OVERFLOWING = [
    (make_bs(10**20, 2), "b^200000000000000000000", 1, "b^2", ["1", "a", "b a"]),
    (make_zd(((10**20, 0), (0, 1))), "e1", 2, "e1", ["1", "t"]),
]


@pytest.mark.parametrize("oracle,big,radius,small,answer", OVERFLOWING, ids=["BS(10^20,2)", "Z2-10^20"])
def test_transversals_past_len_are_refused_at_the_vertex_limit(oracle, big, radius, small, answer, monkeypatch):
    # a transversal too large for len is past the vertex limit: the walks
    # refuse it as any other oversized request, before the first cell
    origin, big = base_vertex(oracle), parse_word(oracle, big)
    built = count_cells(monkeypatch)
    for walk, args, r in [(ball, (oracle,), 1), (tree_dot, (oracle,), 1), (fixed_subtree, (big,), radius)]:
        with pytest.raises(ValueError, match=REFUSED.format(r)):
            walk(*args, r)
    with pytest.raises(ValueError, match=REFUSED.format(1)):
        neighbors(origin)
    assert built == []
    fixed, touches = fixed_subtree(parse_word(oracle, small), 1)
    assert touches and sorted(map(str, fixed)) == answer
    assert len(built) == len(answer)


def test_transversals_past_len_are_refused_in_one_line_by_the_cli(monkeypatch, capsys):
    built = count_cells(monkeypatch)
    bs, zd = ["--m", "100000000000000000000", "--n", "2"], ["--matrix", "100000000000000000000,0;0,1"]
    refused = [
        (bs + ["tree-dot", "--radius", "1"], "the tree ball", 1),
        (zd + ["tree-dot", "--radius", "1"], "the tree ball", 1),
        (bs + ["fixed", "b^200000000000000000000", "--radius", "1"], "the fixed subtree", 1),
        (zd + ["fixed", "e1", "--radius", "2"], "the fixed subtree", 2),
    ]
    for argv, what, radius in refused:
        assert run_cli(argv, capsys) == (1, [], [f"error: {what} within " + REFUSED.format(radius)]), argv
    assert built == []
    answer = run_cli(bs + ["fixed", "b^2", "--radius", "1"], capsys)
    assert answer == (0, ["1", "a", "b a", "touches_boundary: true"], [])


def test_the_huge_degree_cli_calls_answer_or_refuse_in_one_line(monkeypatch, capsys):
    # the calls of the README's table of huge degrees: BS(3*10^6, 2), the
    # Z^2 extensions of index 3*10^6 and 10^8, BS(10^9, 2), and the descent
    # through a representative of 3*10^6 - 1
    built = count_cells(monkeypatch)
    refused = [
        ["--m", "3000000", "--n", "2", "tree-dot", "--radius", "1"],
        ["--matrix", "3000,0;0,1000", "tree-dot", "--radius", "1"],
        ["--matrix", "10000,0;0,10000", "tree-dot", "--radius", "1"],
        ["--m", "1000000000", "--n", "2", "tree-dot", "--radius", "1"],
    ]
    for argv in refused:
        assert run_cli(argv, capsys) == (1, [], ["error: the tree ball within " + REFUSED.format(1)])
    assert built == []
    conjugate = "b^2999999 a^-1 b a b^-2999999"
    answered = [
        (["--m", "3000000", "--n", "2", "fixed", "b", "--radius", "1"], ["1"], "false"),
        (["--matrix", "3000,0;0,1000", "fixed", "e1", "--radius", "1"], ["1", "t"], "true"),
        (["--matrix", "10000,0;0,10000", "fixed", "e1", "--radius", "1"], ["1", "t"], "true"),
        (["--m", "3000000", "--n", "2", "fixed", conjugate, "--radius", "0"], [], "false"),
        (["--m", "3000000", "--n", "2", "fixed", conjugate, "--radius", "1"], ["b^2999999 a^-1"], "true"),
    ]
    for argv, labels, touches in answered:
        assert run_cli(argv, capsys) == (0, labels + [f"touches_boundary: {touches}"], []), argv
    assert len(built) < 20
