import random
from itertools import cycle

import pytest

from hnnkit import (
    ELLIPTIC,
    HYPERBOLIC,
    HnnWord,
    NotEllipticError,
    NotHyperbolicError,
    TrivialElementError,
    VerificationError,
    act,
    axes_overlap,
    ball,
    base_vertex,
    base_word,
    britton_reduce,
    center,
    classify,
    conjugate,
    cyclic_reduce,
    delta,
    distance,
    equals,
    fixed_subtree,
    identity_word,
    inv,
    label_str,
    make_bs,
    make_zd,
    min_displacement_bfs,
    mul,
    neighbors,
    normalize,
    orbit_sample,
    parse_word,
    stable_word,
    to_vertex_label,
    tree_dot,
    unbounded_fixed_witness_bs,
)
from hnnkit import calculus, cli, tree
from hnnkit.tree import _geodesic

from conftest import count_cells


def rand_word(oracle, rng, letters, max_len=6):
    text = " ".join(rng.choice(letters) for _ in range(rng.randint(0, max_len)))
    return parse_word(oracle, text)


BS_LETTERS = ["a", "a^-1", "b", "b^-1"]
ZD_LETTERS = ["t", "t^-1", "e1", "e1^-1", "e2", "e2^-1"]


# --- labels, neighbors, distance -------------------------------------------


def test_base_vertex_neighbors(bs23):
    targets = [label_str(e.target) for e in neighbors(base_vertex(bs23))]
    assert targets == ["a", "b a", "b^2 a", "a^-1", "b a^-1"]


@pytest.mark.parametrize(
    "oracle",
    [make_bs(2, 3), make_bs(1, 2), make_bs(2, -2), make_zd(((2, 0), (0, 2)))],
    ids=["BS(2,3)", "BS(1,2)", "BS(2,-2)", "Z2-diag2"],
)
def test_neighbors_list_the_transversals_in_order(oracle):
    # the outgoing edges in h_transversal order, then the incoming ones in
    # k_transversal order, at the base vertex and below it
    expected = [(rep, 1) for rep in oracle.h_transversal()] + [(rep, -1) for rep in oracle.k_transversal()]
    for v in ball(oracle, 2):
        assert [(e.rep, e.sign) for e in neighbors(v)] == expected
        assert all(e.source is v for e in neighbors(v))


def test_distance_refuses_labels_of_different_oracles():
    u, w = base_vertex(make_bs(2, 3)), base_vertex(make_bs(3, 2))
    with pytest.raises(ValueError, match="labels belong to different oracles"):
        distance(u, w)


def test_neighbor_counts_and_parent(bs23):
    v = to_vertex_label(stable_word(bs23))
    edges = neighbors(v)
    out = [e for e in edges if e.sign == 1]
    inc = [e for e in edges if e.sign == -1]
    assert len(out) == 3 and len(inc) == 2
    parents = [e.target for e in edges if e.target.depth < v.depth]
    assert parents == [base_vertex(bs23)]
    assert [e.target for e in neighbors(base_vertex(bs23)) if e.target.depth == 0] == []


def test_biregular_ball(bs23):
    for v in ball(bs23, 3):
        edges = neighbors(v)
        assert sum(1 for e in edges if e.sign == 1) == 3
        assert sum(1 for e in edges if e.sign == -1) == 2
        assert len({e.target for e in edges}) == 5


def test_ball_sizes(bs23):
    # degree-5 bi-regular tree: 1, 5, 5*4, 5*4^2, ...
    sizes = [len(ball(bs23, r)) for r in range(4)]
    assert sizes == [1, 6, 26, 106]


@pytest.mark.parametrize("m,n", [(2, -2), (3, 2), (-2, 2), (4, 6)])
def test_degree_is_abs_m_plus_abs_n(m, n):
    oracle = make_bs(m, n)
    for v in ball(oracle, 3):
        assert len(neighbors(v)) == abs(m) + abs(n)


def reference_ball(oracle, radius):
    """The ball as a BFS over neighbors, keeping each edge whose target lies
    deeper than its source."""
    vs = [base_vertex(oracle)]
    start = 0
    for _ in range(radius):
        end = len(vs)
        for v in vs[start:end]:
            vs += [e.target for e in neighbors(v) if e.target.depth > v.depth]
        start = end
    return vs


BALL_ORACLES = pytest.mark.parametrize(
    "oracle",
    [make_bs(2, 3), make_bs(2, -2), make_bs(-3, 4), make_zd(((2, 0), (0, 2)))],
    ids=["BS(2,3)", "BS(2,-2)", "BS(-3,4)", "Z2-diag2"],
)


@BALL_ORACLES
def test_ball_matches_neighbor_bfs(oracle):
    for r in range(5):
        assert ball(oracle, r) == reference_ball(oracle, r)


@BALL_ORACLES
def test_ball_is_the_fixed_set_of_the_identity(oracle):
    for r in range(5):
        assert set(ball(oracle, r)) == fixed_subtree(identity_word(oracle), r)[0]


def test_a_central_class_is_tested_once_per_sign(monkeypatch):
    # every BS element is central: rep^-1 x rep = x for every rep, so the
    # children of one sign are all fixed, in one class, or none is; the class
    # walk runs one child test per class and sign, where a test per step
    # would run 5 + 7, and counts the children by the transversal's size
    oracle = make_bs(5, 7)
    calls = []
    real = tree._unpinch
    monkeypatch.setattr(tree, "_unpinch", lambda *args: calls.append(args) or real(*args))
    for x, radius in [(0, 2), (35, 3), (35, 6), (5, 4), (7, 4)]:
        children, levels = tree._class_levels(oracle, (), x, radius)
        counts = [sum(level.values()) for level in levels]
        assert len(calls) == 2 * len(children)
        calls.clear()
        fixed, _ = fixed_subtree(base_word(oracle, x), radius)
        assert len(calls) == 2 * len(children) and len(fixed) == sum(counts)
        calls.clear()
        if x == 0:
            assert counts == [1, 12, 12 * 11] and len(children) == 3
            assert len(ball(oracle, radius)) == sum(counts) and len(calls) == 6
            calls.clear()


def ball_size(degree, radius):
    """Vertices within ``radius`` of a vertex of the ``degree``-regular tree:
    the base vertex has ``degree`` neighbors and every other vertex
    ``degree - 1`` children."""
    if degree == 2:
        return 1 + 2 * radius
    return 1 + degree * ((degree - 1) ** radius - 1) // (degree - 2)


def class_walk_counts(gamma, radius):
    """The vertices of fixed_subtree(gamma, radius) per depth, from the
    counts of the class walk alone; with gamma the identity, of the ball."""
    oracle = gamma.oracle
    entry, c, _ = tree._descend(gamma)
    _, levels = tree._class_levels(oracle, entry, c, radius)
    return {depth: sum(level.values()) for depth, level in enumerate(levels, len(entry))}


def class_walk_size(gamma, radius):
    """|fixed_subtree(gamma, radius)| and its boundary flag, from the counts
    of the class walk alone."""
    counts = class_walk_counts(gamma, radius)
    return sum(counts.values()), radius in counts


@pytest.mark.parametrize(
    "oracle",
    [make_bs(2, 3), make_bs(4, 6), make_zd(((2, 1), (1, 1)))],
    ids=["BS(2,3)", "BS(4,6)", "Z2-fib"],
)
def test_ball_size_formula(oracle):
    # the last has [L:H] + [L:K] = 2: the tree is a line
    degree = len(oracle.h_transversal()) + len(oracle.k_transversal())
    for r in range(5):
        assert ball_size(degree, r) == len(ball(oracle, r))
        assert ball_size(degree, r) == class_walk_size(identity_word(oracle), r)[0]


def test_ball_refuses_an_oversized_request_up_front(monkeypatch, capsys):
    bs23, line = make_bs(2, 3), make_zd(((2, 1), (1, 1)))

    def totals(oracle, radius):
        # vertices and path steps in all, from the counts alone
        counts = class_walk_counts(identity_word(oracle), radius)
        return sum(counts.values()), sum(depth * k for depth, k in counts.items())

    # the limits in force: BS(2,3) meets the vertex limit first, the line
    # (a tree of degree 2) the step limit
    assert totals(bs23, 9) == (436_906, 3_786_525)
    assert totals(bs23, 10)[0] == 1_747_626 > calculus._LIMITS["vertices"]
    assert totals(line, 3161) == (6323, 9_995_082)
    assert totals(line, 3162)[1] == 10_001_406 > calculus._LIMITS["path steps"]
    assert totals(make_bs(1, 2), 18) == (786_430, 13_369_347)

    # the refusal comes before any label is built
    built = count_cells(monkeypatch)
    for oracle, radius in [
        (bs23, 10), (bs23, 10**9), (line, 3162), (line, 499_999), (line, 10**6), (make_bs(1, 2), 18),
    ]:
        with pytest.raises(ValueError, match=f"radius {radius} "):
            ball(oracle, radius)
    assert built == []

    # each limit alone at its boundary, lowered so that the walks stay small:
    # BS(2,3) at radius 5 passes only the vertex limit, the line at radius
    # 100 only the step limit
    monkeypatch.setitem(calculus._LIMITS, "vertices", 1000)
    monkeypatch.setitem(calculus._LIMITS, "path steps", 10_000)
    assert totals(bs23, 4) == (426, 1565) and totals(bs23, 5) == (1706, 7965)
    assert totals(line, 99) == (199, 9900) and totals(line, 100) == (201, 10_100)
    for oracle, radius in [(bs23, 5), (line, 100)]:
        with pytest.raises(ValueError, match=f"radius {radius} "):
            ball(oracle, radius)
    assert built == []
    assert len(ball(bs23, 4)) == 426 and len(ball(line, 99)) == 199
    code = cli.main(["--m", "2", "--n", "3", "tree-dot", "--radius", "10"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_equal_labels_hash_equal_across_oracles():
    bs23, bs32 = make_bs(2, 3), make_bs(3, 2)
    u = to_vertex_label(parse_word(bs23, "a b a^-1 b^-1"))
    same = tree.VertexLabel(make_bs(2, 3), u.path)
    assert u == same and hash(u) == hash(same)
    # the same path over another oracle names another vertex
    other = tree.VertexLabel(bs32, u.path)
    assert u != other and len({u, other}) == 2


def test_to_vertex_label_examples(bs23):
    assert to_vertex_label(parse_word(bs23, "b^5")) == base_vertex(bs23)
    lbl = to_vertex_label(parse_word(bs23, "a b a^-1 b^-1"))
    assert lbl.depth == 2
    assert label_str(lbl) == "a b a^-1"
    assert to_vertex_label(parse_word(bs23, "a^-1 b^3 a b")) == base_vertex(bs23)


def test_label_same_coset_same_label(bs23):
    rng = random.Random(5)
    for _ in range(200):
        g = rand_word(bs23, rng, BS_LETTERS)
        h = mul(g, base_word(bs23, rng.randint(-9, 9)))
        assert to_vertex_label(g) == to_vertex_label(h)
        k = mul(g, stable_word(bs23))
        assert to_vertex_label(g) != to_vertex_label(k)


@pytest.mark.parametrize(
    "oracle",
    [make_bs(2, 3), make_bs(-3, 4), make_bs(2, 2), make_zd([[2, 1], [1, 1]])],
    ids=["BS(2,3)", "BS(-3,4)", "BS(2,2)", "Z2-fib"],
)
def test_step_is_the_label_of_the_product(oracle):
    # any base element x names an edge: the one from v to v x t^s L, which a
    # representative outside the transversal reaches through its coset
    rng = random.Random(23)
    if oracle.name == "bs":
        xs = range(-7, 8)
    else:
        xs = [tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(12)]
    for v in ball(oracle, 2):
        for x in xs:
            for sign in (1, -1):
                u = v.step(x, sign)
                g = mul(v.word(), mul(base_word(oracle, x), stable_word(oracle, sign)))
                assert u == to_vertex_label(g)
                assert distance(v, u) == 1


def test_step_outside_the_transversal(bs23):
    # b^2 a b^2 a^-1 = b^5, and b^5 a L = b^2 a L
    o = base_vertex(bs23)
    assert o.step(2, 1).step(2, -1) == o
    assert o.step(5, 1) == o.step(2, 1)
    assert o.step(2, 1).step(4, -1) == o.step(2, 1).step(0, -1) == o


def test_act_examples(bs23):
    t_vertex = to_vertex_label(stable_word(bs23))
    assert label_str(act(base_word(bs23, 1), t_vertex)) == "b a"
    assert act(base_word(bs23, 3), t_vertex) == t_vertex
    assert act(identity_word(bs23), t_vertex) == t_vertex


def test_distance_examples(bs23):
    t_vertex = to_vertex_label(stable_word(bs23))
    assert distance(t_vertex, t_vertex) == 0
    assert distance(base_vertex(bs23), t_vertex) == 1
    assert distance(t_vertex, to_vertex_label(parse_word(bs23, "b a^-1"))) == 2


def test_metric_coherence(bs23):
    rng = random.Random(9)
    for _ in range(500):
        gu = rand_word(bs23, rng, BS_LETTERS)
        gv = rand_word(bs23, rng, BS_LETTERS)
        u, v = to_vertex_label(gu), to_vertex_label(gv)
        expected = len(normalize(mul(inv(u.word()), v.word())).word.tail)
        assert distance(u, v) == expected


def test_metric_coherence_negative_parameter(bs2m2):
    rng = random.Random(10)
    for _ in range(150):
        u = to_vertex_label(rand_word(bs2m2, rng, BS_LETTERS))
        v = to_vertex_label(rand_word(bs2m2, rng, BS_LETTERS))
        expected = len(normalize(mul(inv(u.word()), v.word())).word.tail)
        assert distance(u, v) == expected


def test_action_is_isometric(bs23):
    rng = random.Random(13)
    for _ in range(200):
        g = rand_word(bs23, rng, BS_LETTERS)
        u = to_vertex_label(rand_word(bs23, rng, BS_LETTERS))
        v = to_vertex_label(rand_word(bs23, rng, BS_LETTERS))
        assert distance(act(g, u), act(g, v)) == distance(u, v)


def test_action_law(bs23):
    rng = random.Random(17)
    for _ in range(100):
        g = rand_word(bs23, rng, BS_LETTERS)
        h = rand_word(bs23, rng, BS_LETTERS)
        v = to_vertex_label(rand_word(bs23, rng, BS_LETTERS))
        assert act(g, act(h, v)) == act(mul(g, h), v)


# --- classification -----------------------------------------------------------


def test_classify_stable_letter(bs23):
    cls = classify(stable_word(bs23))
    assert cls.kind == HYPERBOLIC and cls.translation_length == 1
    assert cls.axis_sample[0] == base_vertex(bs23)


def test_classify_base_element(bs23):
    cls = classify(base_word(bs23, 1))
    assert cls.kind == ELLIPTIC
    assert cls.fixed_vertex == base_vertex(bs23)


def test_classify_conjugate_elliptic(bs23):
    cls = classify(parse_word(bs23, "a b^3 a^-1"))
    assert cls.kind == ELLIPTIC
    assert act(parse_word(bs23, "a b^3 a^-1"), cls.fixed_vertex) == cls.fixed_vertex


@pytest.mark.parametrize("text", ["a^-1 b a b a", "a^-1 b^3 a a b", "b a b^4 a^-1 a"])
def test_classify_reduces_its_input_once(bs23, monkeypatch, text):
    # a parse with a written pinch is reduced once, and one with none (1 is
    # not in 3Z, so a^-1 b a is no pinch) is parsed marked and never; the
    # core, the conjugator and every word the checks multiply by are built
    # reduced
    written_pinch = text != "a^-1 b a b a"
    g = parse_word(bs23, text)
    calls = []
    real = calculus._reduce

    def _reduce(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(calculus, "_reduce", _reduce)
    classify(g)
    assert calls == [(bs23, g.head, g.tail)] * written_pinch


def test_isometry_classes_compare_without_their_conjugator(bs23):
    hyperbolic = [classify(parse_word(bs23, "a^66")) for _ in range(2)]
    elliptic = [classify(parse_word(bs23, "b^3")) for _ in range(2)]
    for one, other in (hyperbolic, elliptic):
        assert one.conjugator is not other.conjugator
        assert one == other and hash(one) == hash(other)
    assert hyperbolic[0].kind == HYPERBOLIC and elliptic[0].kind == ELLIPTIC
    assert hyperbolic[0] != elliptic[0]


def test_min_displacement_examples(bs23):
    assert min_displacement_bfs(base_word(bs23, 1), 0) == (0, base_vertex(bs23))
    value, argmin = min_displacement_bfs(stable_word(bs23), 3)
    assert value == 1 and argmin == base_vertex(bs23)
    assert min_displacement_bfs(base_word(bs23, 3), 2)[0] == 0


def test_classification_agrees_with_displacement_oracle(bs23):
    rng = random.Random(77)
    for _ in range(60):
        g = rand_word(bs23, rng, BS_LETTERS)
        cls = classify(g)
        value, _ = min_displacement_bfs(g, 6)
        assert (cls.kind == HYPERBOLIC) == (value >= 1)
        if cls.kind == HYPERBOLIC:
            assert value == cls.translation_length


@pytest.mark.parametrize("m,n", [(2, 3), (2, -2), (3, 2), (1, 5), (-3, 4)])
def test_min_displacement_matches_brute_force(m, n):
    oracle = make_bs(m, n)
    vs = ball(oracle, 4)
    rng = random.Random(31 + m * n)
    words = [rand_word(oracle, rng, BS_LETTERS, 8) for _ in range(40)]
    # a^k b a^-k with k at and just past the radius: for BS(2, 3) Min gamma
    # is the one vertex a^k L, on the ball boundary and one step outside it
    words += [parse_word(oracle, f"a^{k} b a^-{k}") for k in (4, 5)]
    for g in words:
        moved = [distance(v, act(g, v)) for v in vs]
        best = min(moved)
        assert min_displacement_bfs(g, 4) == (best, vs[moved.index(best)]), str(g)


def test_min_displacement_far_from_the_base(bs23):
    # distance(v, gamma v) = l(gamma) + 2 d(v, Min gamma): Min gamma is a^60 L
    # for the elliptic word and the axis through a^60 L for the hyperbolic one
    a = lambda k: to_vertex_label(stable_word(bs23, 1, k))
    elliptic = parse_word(bs23, "a^60 b a^-60")
    hyperbolic = parse_word(bs23, "a^60 b a b^-1 a^-60")
    assert min_displacement_bfs(elliptic, 50) == (20, a(50))
    assert min_displacement_bfs(elliptic, 60) == (0, a(60))
    assert min_displacement_bfs(hyperbolic, 50) == (21, a(50))
    assert min_displacement_bfs(hyperbolic, 70) == (1, a(60))
    assert fixed_subtree(elliptic, 59) == (frozenset(), False)
    assert fixed_subtree(elliptic, 60) == (frozenset({a(60)}), True)
    with pytest.raises(NotEllipticError):
        fixed_subtree(hyperbolic, 70)


def test_classify_raises_when_a_certificate_fails(bs23, monkeypatch):
    # an action that moves every vertex: no elliptic witness is fixed
    monkeypatch.setattr(tree, "act", lambda g, v: v.step(0, 1))
    with pytest.raises(VerificationError):
        classify(base_word(bs23, 1))
    # an action that fixes every vertex: the axis has no translation
    monkeypatch.setattr(tree, "act", lambda g, v: v)
    with pytest.raises(VerificationError):
        classify(stable_word(bs23))


HYPERBOLIC_PERIOD = "a b^5 a b^-7 a^-1 b a^-1 b^2"  # BS(2, 3), translation length 4


@pytest.mark.parametrize("p", [1, 5, 30])
def test_classify_and_delta_take_at_most_three_act_walks(bs23, monkeypatch, p):
    # one certificate rule: three act walks on an axis sample of any length,
    # one on an elliptic witness, however long the power
    calls = []
    real = tree.act
    monkeypatch.setattr(tree, "act", lambda g, v: calls.append(v) or real(g, v))

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    hyperbolic = parse_word(bs23, " ".join([HYPERBOLIC_PERIOD] * p))
    elliptic = parse_word(bs23, " ".join(["a b a^-1"] * p))
    assert classify(hyperbolic).translation_length == 4 * p
    assert count(classify, hyperbolic) == 3
    assert count(classify, elliptic) == 1
    assert count(delta, hyperbolic, 3) <= 3
    assert count(delta, hyperbolic, 300) <= 3
    assert count(delta, elliptic, 3) <= 3


def test_classify_and_delta_check_the_last_period(bs23, monkeypatch):
    # an axis sample that is right but for its last period is caught, on
    # classify's three periods and on a delta ray of six
    g = parse_word(bs23, "b a b^-1 a")
    tl, ray = classify(g).translation_length, delta(g, 12).ray
    assert len(ray) == 1 + 6 * tl
    real_act = tree.act
    for fn, sample in ((classify, classify(g).axis_sample), (lambda w: delta(w, 12), ray)):
        last, end = sample[-1 - tl], sample[-1]
        # an action that is correct except at the start of the last period
        with monkeypatch.context() as patch:
            patch.setattr(tree, "act", lambda h, v: real_act(h, v).step(0, 1) if v == last else real_act(h, v))
            with pytest.raises(VerificationError):
                fn(g)
        # a walk whose final vertex is replaced by a sibling
        parent = tree.VertexLabel(bs23, end.path[:-1])
        sibling = next(e.target for e in neighbors(parent) if e.target.depth > parent.depth and e.target != end)
        with monkeypatch.context() as patch:
            patch.setattr(tree, "_axis_labels", lambda conj, core: iter(sample[:-1] + (sibling,)))
            with pytest.raises(VerificationError):
                fn(g)
    # a walk that turns back, which an action swapping its two vertices
    # moves along itself: only the geodesic check sees it
    v, w = ray[:2]
    with monkeypatch.context() as patch:
        patch.setattr(tree, "act", lambda h, u: w if u == v else v)
        patch.setattr(tree, "_axis_labels", lambda conj, core: cycle((v, w)))
        with pytest.raises(VerificationError):
            classify(stable_word(bs23))


@pytest.mark.parametrize("call", [
    lambda o: ball(o, -1),
    lambda o: tree_dot(o, -1),
    lambda o: fixed_subtree(base_word(o, 1), -1),
    lambda o: min_displacement_bfs(stable_word(o), -1),
    lambda o: orbit_sample(base_word(o, 1), -1),
    lambda o: delta(base_word(o, 1), -1),
    lambda o: delta(stable_word(o), -1),
    lambda o: axes_overlap(stable_word(o), stable_word(o), -1),
], ids=["ball", "tree_dot", "fixed_subtree", "min_displacement_bfs", "orbit_sample",
        "delta elliptic", "delta hyperbolic", "axes_overlap"])
def test_a_negative_radius_is_refused(bs23, call):
    with pytest.raises(ValueError, match="^radius must be nonnegative$"):
        call(bs23)


def test_axes_overlap_refuses_words_of_two_groups(bs23):
    with pytest.raises(ValueError, match="different oracles"):
        axes_overlap(stable_word(bs23), stable_word(make_bs(3, 2)), 3)


# --- fixed subtrees -------------------------------------------------------------


def test_fixed_subtree_b3(bs23):
    fixed, touches = fixed_subtree(parse_word(bs23, "b^3"), 2)
    names = {label_str(v) for v in fixed}
    assert {"1", "a", "b a", "b^2 a", "a b a^-1"} <= names
    assert touches


def test_fixed_subtree_central_whole_ball(bs22):
    fixed, touches = fixed_subtree(base_word(bs22, 2), 3)
    assert fixed == frozenset(ball(bs22, 3))
    assert touches


def test_fixed_subtree_singleton(bs23):
    fixed, touches = fixed_subtree(base_word(bs23, 1), 1)
    assert fixed == frozenset({base_vertex(bs23)})
    assert not touches


def test_fixed_subtree_equals_brute_force(bs23):
    for text, radius in [("b^3", 3), ("b", 2), ("a b^3 a^-1", 3)]:
        g = parse_word(bs23, text)
        fixed, _ = fixed_subtree(g, radius)
        brute = {v for v in ball(bs23, radius) if act(g, v) == v}
        assert fixed == brute, text


@pytest.mark.parametrize("m,n", [(2, 3), (2, -2)])
def test_fixed_subtree_matches_brute_force_on_random_words(m, n):
    oracle = make_bs(m, n)
    vs = ball(oracle, 4)
    rng = random.Random(47 + m * n)
    elliptic = 0
    for _ in range(60):
        g = rand_word(oracle, rng, BS_LETTERS, 8)
        if classify(g).kind != ELLIPTIC:
            continue
        elliptic += 1
        fixed, touches = fixed_subtree(g, 4)
        brute = {v for v in vs if act(g, v) == v}
        assert fixed == brute, str(g)
        assert touches == any(v.depth == 4 for v in brute), str(g)
    assert elliptic >= 10


@pytest.mark.parametrize("rows", [((2, 0), (0, 2)), ((1, 1), (-1, 2))])
def test_fixed_subtree_matches_brute_force_over_zd(rows):
    # [L:K] = |det M| > 1: a vertex has a child v r t^-1 for each residue r,
    # fixed when t x t^-1 is a pinch (x in K = M Z^2, mapped by phi^-1)
    oracle = make_zd(rows)
    vs = ball(oracle, 3)
    rng = random.Random(59)
    several = 0
    for _ in range(80):
        g = rand_word(oracle, rng, ZD_LETTERS, 8)
        if classify(g).kind != ELLIPTIC:
            continue
        fixed, touches = fixed_subtree(g, 3)
        brute = {v for v in vs if act(g, v) == v}
        assert fixed == brute, str(g)
        assert touches == any(v.depth == 3 for v in brute), str(g)
        several += len(fixed) > 1
    assert several >= 20


def reference_fixed_subtree(gamma, radius):
    """fixed_subtree as a search over fixed vertices, one level at a time:
    one child test for every child of every fixed vertex."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    oracle = gamma.oracle
    steps = [(rep, 1) for rep in oracle.h_transversal()] + [(rep, -1) for rep in oracle.k_transversal()]
    entry, c, tail = tree._descend(gamma)
    if tail:
        raise NotEllipticError("fixed subtrees exist only for elliptic elements")
    if len(entry) > radius:
        return frozenset(), False
    fixed = [tree.VertexLabel(oracle, entry)]
    level = [(entry, c)]
    depth = len(entry)
    while depth < radius:
        nxt = []
        for path, c in level:
            for rep, sign in steps:
                if path and sign == -path[-1][1] and oracle.is_identity(rep):
                    continue  # the step back to the parent
                conj = oracle.mul(oracle.inv(rep), oracle.mul(c, rep))
                x = calculus._unpinch(oracle, -sign, conj, sign)
                if x is not None:
                    nxt.append((path + ((rep, sign),), x))
        if not nxt:
            break
        fixed += [tree.VertexLabel(oracle, path) for path, _ in nxt]
        level = nxt
        depth += 1
    return frozenset(fixed), depth == radius


@pytest.mark.parametrize(
    "oracle, letters",
    [
        (make_bs(2, 3), BS_LETTERS),
        (make_bs(2, -2), BS_LETTERS),
        (make_zd(((2, 0), (0, 2))), ZD_LETTERS),
        (make_zd(((1, 1), (-1, 2))), ZD_LETTERS),
    ],
    ids=["BS(2,3)", "BS(2,-2)", "Z2-diag2", "Z2-rot"],
)
def test_fixed_subtree_matches_the_per_vertex_search(oracle, letters):
    rng = random.Random(61)
    elliptic = 0
    for _ in range(60):
        g = rand_word(oracle, rng, letters, 8)
        if classify(g).kind != ELLIPTIC:
            continue
        elliptic += 1
        for radius in range(5):
            got = fixed_subtree(g, radius)
            assert got == reference_fixed_subtree(g, radius), (str(g), radius)
            assert class_walk_size(g, radius) == (len(got[0]), got[1]), (str(g), radius)
    assert elliptic >= 10


def test_fixed_subtree_size_in_closed_form():
    # b^6 is central in BS(6,6), so it fixes the whole 12-regular tree; the
    # count needs no enumeration
    gamma = parse_word(make_bs(6, 6), "b^6")
    assert class_walk_size(gamma, 8) == (ball_size(12, 8), True) == (257_230_657, True)


def test_fixed_subtree_tests_each_class_once(bs23, monkeypatch):
    calls = []
    real = tree._unpinch

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tree, "_unpinch", counted)
    fixed, touches = fixed_subtree(parse_word(bs23, "b^6"), 5)
    # a child test per child of every fixed vertex would be several per vertex
    assert touches and len(fixed) == 231
    assert 0 < len(calls) <= len(fixed) // 10


def test_fixed_subtree_refuses_an_oversized_request_up_front(monkeypatch, capsys):
    gamma = parse_word(make_bs(6, 6), "b^6")
    built = count_cells(monkeypatch)
    with pytest.raises(ValueError, match="radius 8 holds more than 1000000 vertices"):
        fixed_subtree(gamma, 8)
    # a broken refusal enumerates 1,597 vertices, not the whole radius-8 ball
    monkeypatch.setitem(calculus._LIMITS, "vertices", 1000)
    assert class_walk_size(gamma, 3) == (1597, True)
    with pytest.raises(ValueError, match="radius 3 holds more than 1000 vertices"):
        fixed_subtree(gamma, 3)
    assert built == []
    assert len(fixed_subtree(gamma, 2)[0]) == 145
    code = cli.main(["--m", "6", "--n", "6", "fixed", "b^6", "--radius", "3"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("m,n", [(2, 3), (2, -2)])
def test_vertex_words_are_pinch_free(m, n):
    oracle = make_bs(m, n)
    rng = random.Random(53 + m * n)
    labels = ball(oracle, 4) + [
        to_vertex_label(rand_word(oracle, rng, BS_LETTERS, 8)) for _ in range(100)
    ]
    for v in labels:
        w = v.word()
        unmarked = HnnWord(oracle, w.head, w.tail)
        assert britton_reduce(unmarked).key() == w.key(), str(v)
        assert len(w.tail) == v.depth


def test_fixed_subtree_is_connected(bs23):
    g = parse_word(bs23, "b^3")
    fixed, _ = fixed_subtree(g, 4)
    by_depth = sorted(fixed, key=lambda v: v.depth)
    for v in by_depth:
        if v.depth:
            assert any(u.path == v.path[:-1] or distance(u, v) == 1 for u in fixed)


def test_fixed_subtree_rejects_hyperbolic(bs23):
    with pytest.raises(NotEllipticError):
        fixed_subtree(stable_word(bs23), 2)


def test_fixed_subtree_witness_off_center(bs23):
    # element fixing a vertex away from the base: a b^3 a^-1 fixes a L
    g = parse_word(bs23, "a b^3 a^-1")
    fixed, _ = fixed_subtree(g, 1)
    assert to_vertex_label(stable_word(bs23)) in fixed


# --- unbounded fixed families ------------------------------------------------


def test_unbounded_family_multiple_cases():
    origin_cases = [
        (4, 2, "b^2", 1),   # n | m: gamma = b^n fixes a^l
        (2, 4, "b^2", 1),   # m | n: gamma = b^m fixes a^-l
        (2, 3, "b^3", 2),   # transverse case: commutator family
    ]
    for m, n, gamma_text, step in origin_cases:
        oracle = make_bs(m, n)
        gamma, family = unbounded_fixed_witness_bs(m, n)
        assert equals(gamma, parse_word(oracle, gamma_text))
        for l in range(9 if step == 1 else 6):
            v = family(l)
            assert act(gamma, v) == v
            assert distance(base_vertex(oracle), v) == step * l


def test_unbounded_family_check_raises_verification_error(monkeypatch, capsys):
    # an action that sends every vertex to the base vertex fixes only index 0
    monkeypatch.setattr(tree, "act", lambda g, v: base_vertex(v.oracle))
    for m, n in [(4, 2), (2, 4), (2, 3)]:
        with pytest.raises(VerificationError, match="index 1"):
            unbounded_fixed_witness_bs(m, n)
    assert cli.main(["--m", "2", "--n", "3", "witness-unbounded"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: unbounded fixed family fails at index 1\n"


def test_unbounded_family_direction():
    _, family = unbounded_fixed_witness_bs(4, 2)
    assert family(2).path == ((0, 1), (0, 1))
    _, family = unbounded_fixed_witness_bs(2, 4)
    assert family(2).path == ((0, -1), (0, -1))


# --- center ---------------------------------------------------------------------


def test_center_singleton(bs23):
    v = to_vertex_label(parse_word(bs23, "b a"))
    assert center([v]) == v


def test_center_path_midpoint(bs23):
    u = to_vertex_label(stable_word(bs23))
    w = to_vertex_label(parse_word(bs23, "b a"))
    assert center([u, w, base_vertex(bs23)]) == base_vertex(bs23)


def test_center_two_siblings(bs23):
    u = to_vertex_label(stable_word(bs23))
    w = to_vertex_label(parse_word(bs23, "b a"))
    assert center([u, w]) == base_vertex(bs23)


def test_center_minimizes_eccentricity(bs23):
    rng = random.Random(21)
    candidates = ball(bs23, 5)
    for _ in range(25):
        pts = [to_vertex_label(rand_word(bs23, rng, BS_LETTERS, 4)) for _ in range(4)]
        c = center(pts)
        ecc = max(distance(c, p) for p in pts)
        best = min(max(distance(v, p) for p in pts) for v in candidates)
        assert ecc == best


def test_geodesic_endpoints(bs23):
    u = to_vertex_label(parse_word(bs23, "a b a^-1"))
    w = to_vertex_label(parse_word(bs23, "b a"))
    geo = _geodesic(u, w)
    assert geo[0] == u and geo[-1] == w
    assert len(geo) == distance(u, w) + 1
    for x, y in zip(geo, geo[1:]):
        assert distance(x, y) == 1


# --- delta ------------------------------------------------------------------------


def test_delta_hyperbolic_end(bs23):
    d = delta(stable_word(bs23), 3)
    assert d.kind == "end"
    assert equals(d.period, stable_word(bs23))
    assert d.ray[0] == base_vertex(bs23)
    assert [label_str(v) for v in d.ray[:3]] == ["1", "a", "a^2"]


def test_delta_elliptic_center(bs23):
    d = delta(base_word(bs23, 1), 3)
    assert d.kind == "vertex"
    assert d.vertex == base_vertex(bs23)


def test_delta_possibly_unbounded(bs23):
    d = delta(base_word(bs23, 3), 4)
    assert d.kind == "possibly_unbounded"
    assert "radius 4" in d.note


def test_delta_rejects_trivial(bs23):
    with pytest.raises(TrivialElementError):
        delta(identity_word(bs23), 3)
    with pytest.raises(TrivialElementError):
        delta(parse_word(bs23, "a^-1 b^3 a b^-2"), 3)


def test_delta_reduces_once(bs23, zd_fib, monkeypatch):
    # one cyclic reduction decides triviality, the class and the ray: its
    # peel once, and its rotation scan once unless gamma is trivial
    calls = []

    def counted(fn):
        def call(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return call

    monkeypatch.setattr(tree, "_peel", counted(calculus._peel))
    monkeypatch.setattr(tree, "_core", counted(calculus._core))
    cases = [(bs23, "b a b^-1 a", "end"), (bs23, "b", "vertex"), (bs23, "b^3", "possibly_unbounded"),
             (bs23, "a^-1 b^3 a b^-2", None), (zd_fib, "e1 t e2 t^-1 e1^-1", "possibly_unbounded"),
             (zd_fib, "t e1 t^-1 e1 e1^-1 t e1^-1 t^-1", None)]
    for oracle, text, kind in cases:
        calls.clear()
        if kind is None:
            with pytest.raises(TrivialElementError):
                delta(parse_word(oracle, text), 5)
        else:
            assert delta(parse_word(oracle, text), 5).kind == kind
        assert calls == (["_peel"] if kind is None else ["_peel", "_core"]), text


def test_delta_equivariance_elliptic(bs23):
    gamma = base_word(bs23, 1)
    for text in ["a", "b a", "a^-1", "a b"]:
        g = parse_word(bs23, text)
        left = delta(conjugate(g, gamma), 4)
        right = act(g, delta(gamma, 4).vertex)
        assert left.kind == "vertex"
        assert left.vertex == right, text


def test_delta_equivariance_possibly_unbounded(bs23):
    gamma = base_word(bs23, 3)
    g = parse_word(bs23, "a b")
    assert delta(gamma, 4).kind == "possibly_unbounded"
    assert delta(conjugate(g, gamma), 4).kind == "possibly_unbounded"


def test_delta_equivariance_hyperbolic_axis(bs23):
    gamma = stable_word(bs23)
    g = parse_word(bs23, "b")
    moved = delta(conjugate(g, gamma), 6)
    original = delta(gamma, 6)
    translated = {act(g, v) for v in original.ray}
    assert moved.kind == "end"
    # rays to the same end eventually coincide
    assert set(moved.ray[2:]) & translated


# --- transverse axes ----------------------------------------------------------------


def test_axes_overlap_same_axis(bs23):
    a = stable_word(bs23)
    small = axes_overlap(a, a, 2)
    big = axes_overlap(a, a, 6)
    assert small < big
    assert small == 5  # a^-2 ... a^2
    assert big == 13  # a^-6 ... a^6


def test_axes_overlap_transverse(bs23):
    a = stable_word(bs23)
    assert axes_overlap(a, parse_word(bs23, "b a b^-1"), 6) == 1
    # b^2 lies in K = 2Z, so t b^2 t^-1 = b^3 pulls one extra shared vertex
    # (the t^-1 coset) onto both axes; the overlap is still finite
    assert axes_overlap(a, parse_word(bs23, "b^2 a b^-2"), 6) == 2
    assert axes_overlap(a, parse_word(bs23, "b^2 a b^-2"), 8) == 2


def test_axes_overlap_stabilizes(bs23):
    a = stable_word(bs23)
    other = parse_word(bs23, "b a b^-1")
    assert [axes_overlap(a, other, r) for r in (4, 6, 8)] == [1, 1, 1]


def test_axes_take_one_walk(bs23, monkeypatch):
    # each axis vertex is one step of a walk: no product and no label from
    # scratch per vertex, so the calls do not grow with the radius or the core
    calls = []

    def counted(real):
        def call(*args):
            calls.append(real.__name__)
            return real(*args)
        return call

    monkeypatch.setattr(tree, "to_vertex_label", counted(tree.to_vertex_label))
    # tree.py has no mul of its own; a patched one would count a new import
    monkeypatch.setattr(tree, "mul", counted(calculus.mul), raising=False)
    monkeypatch.setattr(calculus, "mul", counted(calculus.mul))
    g = parse_word(bs23, "b^2 a b a^-1 b a b^-2")
    h = parse_word(bs23, "b a b^2 a b^-1")

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    assert count(classify, parse_word(bs23, "b a b^-1")) == count(
        classify, parse_word(bs23, "b " + "a b " * 12 + "b^-1"))
    assert count(delta, g, 10) == count(delta, g, 300)
    assert count(axes_overlap, g, h, 10) == count(axes_overlap, g, h, 300)
    assert count(delta, g, 300) < 10
    # the counters are wired: cyclic_reduce multiplies no words, so a call
    # that still does shows it, and an elliptic witness gets one label
    assert 0 < count(calculus.conjugate, g, h)
    assert 0 < count(classify, parse_word(bs23, "a b a^-1"))


def test_axis_walks_past_the_vertex_limit_are_refused(bs23, monkeypatch):
    # delta's ray holds 1 + periods * tl labels, classify's sample 1 + 3 tl
    # and an axis of axes_overlap 1 + 2 count, count labels each way from a
    # start at depth len(conj.tail); past the vertex limit each is refused
    # before a cell is built, and a request just under it answers as at the
    # default limit
    a = stable_word(bs23)
    far = parse_word(bs23, "a^100 b a a^-100")
    assert classify(far).translation_length == 1 and len(cyclic_reduce(far)[1].tail) >= 99
    ray, overlap = delta(a, 199).ray, axes_overlap(a, a, 98)
    assert (len(ray), overlap) == (200, 197)
    under, over = parse_word(bs23, "a^66"), parse_word(bs23, "b a^67 b^-1")
    sample = classify(under).axis_sample
    assert len(sample) == 199 and classify(over).translation_length == 67
    monkeypatch.setitem(calculus._LIMITS, "vertices", 200)
    built = count_cells(monkeypatch)
    refused = [(lambda r: delta(a, r), 200), (lambda r: axes_overlap(a, a, r), 99),
               (lambda r: axes_overlap(a, far, r), 2), (lambda r: axes_overlap(far, a, r), 2)]
    for call, radius in refused:
        with pytest.raises(ValueError, match=f"^the axis (ray )?within radius {radius} holds more than 200 vertices$"):
            call(radius)
    with pytest.raises(ValueError, match="^the axis sample holds more than 200 vertices$"):
        classify(over)
    assert built == []
    assert delta(a, 199).ray == ray and axes_overlap(a, a, 98) == overlap
    assert classify(under).axis_sample == sample
    assert built


def test_axis_refusals_come_before_the_rotation_scan(bs23, monkeypatch):
    # the translation length is known after the O(n) peel of the cyclic
    # reduction, so classify and delta refuse past the vertex limit before
    # the rotation scan, which is O(n^2) on an aperiodic core
    gamma = parse_word(bs23, " ".join(f"a b^{k}" for k in range(1, 40)))
    cls, ray = classify(gamma), delta(gamma, 100).ray
    assert cls.translation_length == 39 and len(ray) == 1 + 3 * 39

    def scan(*args):
        raise AssertionError("the rotation scan ran")

    monkeypatch.setattr(calculus, "_least_rotation", scan)
    monkeypatch.setitem(calculus._LIMITS, "vertices", 117)
    with pytest.raises(ValueError, match="^the axis sample holds more than 117 vertices$"):
        classify(gamma)
    with pytest.raises(ValueError, match="^the axis ray within radius 100 holds more than 117 vertices$"):
        delta(gamma, 100)
    # under the limit the scan runs, so the refusals above did skip it
    with pytest.raises(AssertionError, match="the rotation scan ran"):
        delta(gamma, 78)
    monkeypatch.setitem(calculus._LIMITS, "vertices", 118)
    with pytest.raises(AssertionError, match="the rotation scan ran"):
        classify(gamma)
    monkeypatch.undo()
    assert classify(gamma) == cls and delta(gamma, 100).ray == ray


def test_axes_overlap_rejects_elliptic(bs23):
    with pytest.raises(NotHyperbolicError):
        axes_overlap(base_word(bs23, 1), stable_word(bs23), 4)


# --- zd tree ----------------------------------------------------------------------


def test_zd_tree_degrees(zd_fib):
    # det = 1: one outgoing, one incoming edge per vertex
    v = base_vertex(zd_fib)
    edges = neighbors(v)
    assert len(edges) == 2
    z4 = make_zd([[2, 0], [0, 2]])
    assert len(neighbors(base_vertex(z4))) == 1 + 4


def test_zd_action(zd_fib):
    # H is the whole base group, so base translations fix every t-direction coset
    t_vertex = to_vertex_label(stable_word(zd_fib))
    assert act(base_word(zd_fib, (1, 0)), t_vertex) == t_vertex


# --- DOT emission -------------------------------------------------------------------


def test_tree_dot_deterministic(bs23):
    first = tree_dot(bs23, 2, parse_word(bs23, "b^3"))
    second = tree_dot(bs23, 2, parse_word(bs23, "b^3"))
    assert first == second
    assert first.startswith("digraph")


def test_tree_dot_structure(bs23):
    dot = tree_dot(bs23, 1)
    lines = dot.strip().splitlines()
    assert lines[0] == "digraph bass_serre_ball {"
    assert '  "1";' in lines
    assert '  "1" -> "a";' in lines
    assert '  "a^-1" -> "1";' in lines
    assert "dashed" not in dot


def test_tree_dot_formats_each_label_once(bs23, monkeypatch):
    calls = []
    real = tree.label_str

    def label_str(v):
        calls.append(v.path)
        return real(v)

    monkeypatch.setattr(tree, "label_str", label_str)
    tree_dot(bs23, 4, parse_word(bs23, "b^3"))
    assert len(calls) == len(set(calls)) == len(ball(bs23, 4))


def test_tree_dot_action_overlay(bs23):
    dot = tree_dot(bs23, 1, base_word(bs23, 1))
    assert '"a" -> "b a" [style=dashed];' in dot
