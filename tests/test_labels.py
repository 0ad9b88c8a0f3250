"""Vertex labels as cons cells: equality, hashes and distances agree with
the path tuples whatever route built a label, and the axes cost memory
linear in their length."""

import copy
import pickle
import tracemalloc
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnnkit import (
    ELLIPTIC,
    VertexLabel,
    act,
    axes_overlap,
    ball,
    base_vertex,
    classify,
    distance,
    fixed_subtree,
    inv,
    make_bs,
    make_zd,
    mul,
    parse_word,
    to_vertex_label,
    tree_dot,
)
from hnnkit import calculus, cli

from conftest import count_cells

# BS(2,3) has degree 5, BS(1,2) degree 3, and the Z^2 extension by a
# matrix of determinant 1 is a line
ORACLES = [
    (make_bs(2, 3), ["a", "a^-1", "b", "b^-1", "b^2"]),
    (make_bs(1, 2), ["a", "a^-1", "b", "b^-1", "b^3"]),
    (make_zd(((2, 1), (1, 1))), ["t", "t^-1", "e1", "e1^-1", "e2"]),
]


@st.composite
def label_inputs(draw):
    oracle, letters = draw(st.sampled_from(ORACLES))
    texts = draw(st.lists(st.lists(st.sampled_from(letters), max_size=8), min_size=2, max_size=5))
    words = [parse_word(oracle, " ".join(text)) for text in texts]
    return oracle, words, draw(st.integers(0, 2))


def labels_by_every_route(oracle, words, radius):
    """Labels of the walk (``to_vertex_label``, ``act``, ``step``), of the
    public constructor and of the class walk (``ball``, ``fixed_subtree``),
    many of them naming one vertex.  ``act(g, g^-1 h L)`` is h L, by a
    resumed walk that pops back through every cell g's walk built."""
    labels = []
    for w in words:
        v = to_vertex_label(w)
        labels += [v, VertexLabel(oracle, v.path), reduce(lambda u, s: u.step(*s), v.path, base_vertex(oracle))]
    for g, h in zip(words, words[1:]):
        labels += [act(g, to_vertex_label(h)), to_vertex_label(mul(g, h)), act(g, labels[-1]),
                   act(g, to_vertex_label(mul(inv(g), h)))]
    labels.append(labels[0].step(oracle.identity, 1))
    labels += ball(oracle, radius)
    for w in words:
        if classify(w).kind == ELLIPTIC:
            labels += fixed_subtree(w, radius)[0]
    return labels


def tuple_distance(p, q):
    common = 0
    for a, b in zip(p, q):
        if a != b:
            break
        common += 1
    return len(p) + len(q) - 2 * common


@given(label_inputs())
@settings(max_examples=60, deadline=None)
def test_labels_agree_with_their_paths_whatever_built_them(inputs):
    labels = labels_by_every_route(*inputs)
    paths = [v.path for v in labels]
    for u, p in zip(labels, paths):
        for v, q in zip(labels, paths):
            assert (u == v) == (p == q)
            if p == q:
                assert hash(u) == hash(v)
            assert distance(u, v) == tuple_distance(p, q)
    # comparing equal labels lets them share cells, which changes no path
    assert [v.path for v in labels] == paths
    assert len(set(labels)) == len(set(paths))


def test_equal_hashes_do_not_make_labels_equal(bs23):
    # the hash only rules pairs out: a collision still compares the steps
    u, w = (to_vertex_label(parse_word(bs23, text)) for text in ("a b a", "a b^-1 a"))
    assert u.depth == w.depth == 2 and u != w
    u._hash = w._hash
    assert u != w and w != u


def test_labels_compare_their_oracles_by_value():
    # the same path over two BS(2,3) objects names one vertex, over BS(2,3)
    # and BS(3,2) two, though the hash, made from the path, is the same
    first, second, other = make_bs(2, 3), make_bs(2, 3), make_bs(3, 2)
    assert first is not second
    paths = [(), ((1, 1),), ((1, 1), (1, -1)), ((1, -1), (0, -1), (1, 1))]
    for path in paths:
        u, v, w = (VertexLabel(oracle, path) for oracle in (first, second, other))
        assert u == v and v == u and hash(u) == hash(v)
        assert u != w and w != u and v != w and w != v and hash(u) == hash(w)
        assert u.path == v.path == w.path == path


@given(label_inputs())
@settings(max_examples=30, deadline=None)
def test_every_label_round_trips_through_the_constructor(inputs):
    # every route builds child steps only, so the constructor takes its paths
    oracle = inputs[0]
    for v in labels_by_every_route(*inputs):
        u = VertexLabel(oracle, v.path)
        assert u.path == v.path and u == v and hash(u) == hash(v)


def test_the_constructor_takes_child_steps_only(bs23):
    # b^5 a L = b^2 a L, and (0, 1) then (0, -1) leads back to the base
    # vertex: a second path to a vertex would compare unequal to the first
    # and lie at a distance from it
    assert to_vertex_label(parse_word(bs23, "b^5 a")) == VertexLabel(bs23, ((2, 1),))
    for path in [((5, 1),), ((3, 1),), ((0, 1), (0, -1)), ((1, -1), (0, 1)), ((0, 1), (1, -1), (2, -1))]:
        with pytest.raises(ValueError, match=r"is not a child step at depth \d+$"):
            VertexLabel(bs23, path)
    assert VertexLabel(bs23, ((0, 1), (1, -1), (1, -1))).depth == 3


def test_class_walk_builds_one_cell_per_vertex(bs23, monkeypatch):
    # a vertex of the ball or the fixed subtree costs one cell, a child of
    # its parent's, and the entry of the fixed subtree one per step
    built = count_cells(monkeypatch)
    vs = ball(bs23, 4)
    assert len(built) == len(vs) == 426
    built.clear()
    fixed, touches = fixed_subtree(parse_word(bs23, "b^6"), 4)
    assert touches and len(fixed) > 20
    assert len(built) == len(fixed)
    built.clear()
    fixed, _ = fixed_subtree(parse_word(bs23, "a b a b a b^6 a^-1 b^-1 a^-1 b^-1 a^-1"), 6)
    entry = min(v.depth for v in fixed)
    assert entry == 2 and len(fixed) > 20
    assert len(built) == len(fixed) + entry


def test_refusals_build_no_cell(monkeypatch, capsys):
    # every refused ball and fixed subtree is refused before its first cell,
    # at the limits in force and at lowered ones
    bs23, line, b6 = make_bs(2, 3), make_zd(((2, 1), (1, 1))), parse_word(make_bs(6, 6), "b^6")
    built = count_cells(monkeypatch)
    refused = [(ball, bs23, 10), (ball, bs23, 10**9), (ball, line, 3162), (ball, line, 499_999),
               (ball, line, 10**6), (ball, make_bs(1, 2), 18), (fixed_subtree, b6, 8)]
    for walk, arg, radius in refused:
        with pytest.raises(ValueError, match=f"radius {radius} holds more than"):
            walk(arg, radius)
    monkeypatch.setitem(calculus._LIMITS, "vertices", 1000)
    monkeypatch.setitem(calculus._LIMITS, "path steps", 10_000)
    for walk, arg, radius in [(ball, bs23, 5), (ball, line, 100), (fixed_subtree, b6, 3)]:
        with pytest.raises(ValueError, match=f"radius {radius} holds more than"):
            walk(arg, radius)
    for argv in (["--m", "2", "--n", "3", "tree-dot", "--radius", "5"],
                 ["--m", "6", "--n", "6", "fixed", "b^6", "--radius", "3"]):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")
    assert built == []
    # the count sees the cells of what is admitted
    assert len(ball(bs23, 4)) == len(built) == 426


def test_lookups_leave_stored_labels_on_their_cells(bs23):
    # a dict or set compares its stored key on the left: the probe moves
    # onto the stored cells, and its own chain is freed with it
    vs = ball(bs23, 6)
    stored = set(vs)
    parents = [v.parent for v in vs]
    g = parse_word(bs23, "b")
    tracemalloc.start()
    try:
        assert all(act(g, v) in stored for v in vs)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(v.parent is p for v, p in zip(vs, parents))
    assert kept < 64 * 1024
    probe = act(g, vs[-1])
    match = next(v for v in vs if v == probe)
    assert probe.parent is match.parent


def test_deep_labels_pickle_and_copy_by_their_path(bs23):
    # a chain of cells would pickle and copy one nested call per step
    v = to_vertex_label(parse_word(bs23, " ".join(["a b"] * 3000)))
    assert v.depth == 3000
    for back in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v), copy.copy(v)):
        assert back == v and hash(back) == hash(v) and back.path == v.path


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_axis_memory_is_linear(bs23):
    # one cell per axis vertex: twice the axis takes about twice the memory,
    # where labels that each held their path took four times as much
    words = [parse_word(bs23, " ".join(["a b"] * n)) for n in (2000, 4000)]
    small, large = (traced_peak(classify, w) for w in words)
    assert large < 2.5 * small
    g = parse_word(bs23, "a b")
    small, large = (traced_peak(axes_overlap, g, g, r) for r in (1000, 2000))
    assert large < 2.5 * small


def test_tree_dot_memory_stays_near_the_dot_without_gamma(bs23):
    # the dashed edges cost their lines, not a chain of cells per matched
    # vertex, which labels kept when a lookup moved the stored key instead
    plain = traced_peak(tree_dot, bs23, 6)
    for text in ("b", "b^6", "a b a^-1"):
        assert traced_peak(tree_dot, bs23, 6, parse_word(bs23, text)) < 1.75 * plain, text
