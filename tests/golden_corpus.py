"""Seeded corpus of library outputs, pinned by digest to keep them byte-identical.

For every (function, oracle) pair the corpus makes a fixed list of calls and
keeps one record per call: the ``repr`` of the output in a canonical form
(words, normal forms and vertex labels by their text, sets sorted, result
dataclasses as tuples of their fields), or of the ``ValueError`` the call
raised.  ``golden_outputs.json`` holds, per pair, the record count, one
sha256 over the records (each ``repr`` on its own line) and the first four
hex digits of each record's own sha256, so that a mismatch can be traced to
the first record that differs.

    PYTHONPATH=src python3 tests/golden_corpus.py            # compare
    PYTHONPATH=src python3 tests/golden_corpus.py --record   # rewrite the file

A digest changes only with an intended change of output.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import random
import sys
from collections import defaultdict
from functools import reduce
from pathlib import Path

from hnnkit import (
    HnnWord,
    NormalForm,
    VertexLabel,
    act,
    axes_overlap,
    ball,
    base_vertex,
    center,
    classify,
    cyclic_reduce,
    delta,
    distance,
    escape_exponent,
    fixed_by_some_phi_j,
    fixed_lattice_rank,
    fixed_subtree,
    folner_chain_ascending,
    folner_chain_bs,
    has_root_of_unity_eigenvalue,
    icc_decide_bs,
    icc_decide_zd,
    icc_probe_orbit,
    integer_fixed_vector,
    make_bs,
    make_zd,
    min_displacement_bfs,
    normalize,
    orbit_sample,
    parse_word,
    phi_iter,
    phi_iter_domain,
    symdiff_ratio,
    thm1_hypothesis_bs,
    to_vertex_label,
    tree_dot,
    unbounded_fixed_witness_bs,
)
from hnnkit import calculus
from hnnkit.analysis import verify_finite_class
from hnnkit.bs import BsOracle, BsParams
from hnnkit.zd import det_int

GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"
SEED = 20261018

BS_GROUPS = [(2, 3), (3, 2), (2, -2), (2, 2), (1, 2), (1, -1), (-3, 4), (4, 2), (2, 4), (1, 5)]
ZD_MATRICES = [((2, 0), (0, 2)), ((1, 1), (-1, 2)), ((2, 1), (1, 1))]
# radii for icc_probe_orbit: unsorted, repeated, zero, none, negative; the
# second list runs under an orbit limit of PROBE_LIMIT normal forms
PROBE_RADII = [(2, 0, 1), (1, 3, 1, 3), (0,), (), (2, -1, 3), (-2, 1)]
LIMITED_PROBE_RADII = [(1, 3, 2, -1), (3, 0), (-1, 4), (2, 2)]
PROBE_LIMIT = 20
# the vertex limit under which the deep records take fixed subtrees
DEEP_VERTEX_LIMIT = 2000


class _DropsKRepresentative(BsOracle):
    """BS(2, 3) whose ``decompose_left_K`` breaks the oracle contract: it
    always returns the identity as the representative, so a normal form can
    re-create a pinch ``t 1 t^-1``, which the calculus must refuse."""

    def decompose_left_K(self, x):
        return x - x % 2, 0


def oracles() -> list[tuple[str, object]]:
    out = [(f"BS({m},{n})", make_bs(m, n)) for m, n in BS_GROUPS]
    out += [(f"Z2{[list(row) for row in rows]}".replace(" ", ""), make_zd(rows)) for rows in ZD_MATRICES]
    return out


def canon(x):
    """A canonical, hash-seed-independent stand-in for an output."""
    if isinstance(x, (HnnWord, NormalForm, VertexLabel)):
        return str(x)
    if isinstance(x, (set, frozenset)):
        return sorted(canon(y) for y in x)
    if isinstance(x, (tuple, list)):
        return tuple(canon(y) for y in x)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__,) + tuple(canon(getattr(x, f.name)) for f in dataclasses.fields(x))
    return x


def outcome(fn, *args) -> str:
    try:
        return repr(canon(fn(*args)))
    except ValueError as exc:
        return repr(("raises", type(exc).__name__, str(exc)))


def _random_words(oracle, rng: random.Random, count: int) -> list[HnnWord]:
    if isinstance(oracle, BsOracle):
        return [
            HnnWord(
                oracle,
                rng.randint(-6, 6),
                tuple((rng.choice((1, -1)), rng.randint(-6, 6)) for _ in range(rng.randint(0, 6))),
            )
            for _ in range(count)
        ]
    letters = ["t", "t^-1", "e1", "e1^-1", "e2", "e2^-1", "e1^2"]
    return [
        parse_word(oracle, " ".join(rng.choice(letters) for _ in range(rng.randint(0, 8))))
        for _ in range(count)
    ]


def _random_texts(oracle, rng: random.Random, count: int) -> list[str]:
    stable = oracle.stable_letter
    letters = [stable, f"{stable}^-1", f"{stable}^2", "1"] + [
        f"{name}^{k}" for name in oracle.base_letters() for k in (-3, -1, 2, 5)
    ] + list(oracle.base_letters())
    return [" ".join(rng.choice(letters) for _ in range(rng.randint(0, 7))) for _ in range(count)]


def _base_elements(oracle) -> list:
    if isinstance(oracle, BsOracle):
        return [0, 1, -1, 2, -2, 3, -3, 4, 6, -8, 9, 12, 18, 36, -54, 81, 2**40 * 3**5]
    return list(itertools.product(range(-1, 2), repeat=oracle.dim)) + [(2, 0), (0, 2), (8, -4), (6, 6)]


def _limited(unit: str, limit: int, fn, *args):
    """``fn(*args)`` with the ``calculus._LIMITS`` entry of ``unit`` lowered."""
    saved, calculus._LIMITS[unit] = calculus._LIMITS[unit], limit
    try:
        return fn(*args)
    finally:
        calculus._LIMITS[unit] = saved


def _witness_family(m: int, n: int):
    gamma, family = unbounded_fixed_witness_bs(m, n)
    return gamma, [family(l) for l in range(8)]


def _finite_class_sets(oracle, words: list[HnnWord]) -> list[tuple[HnnWord, ...]]:
    """Candidate sets for ``verify_finite_class``: empty, holding the
    identity, the stable letter (which conjugation by the stable letter
    fixes), single words, radius-1 orbits and, when the group is not ICC,
    its witness class as written and unreduced, alone and with a word added.
    Each set is closed exactly when its words make up finite classes."""
    e = oracle.identity
    sets = [(), (HnnWord(oracle, e, ((1, e), (-1, e))), words[0]), (HnnWord(oracle, e, ((1, e),)),)]
    for w in words[:3]:
        sets.append((w,))
        sets.append(tuple(nf.word for nf in orbit_sample(w, 1)))
    if isinstance(oracle, BsOracle) and abs(oracle.params.m) == abs(oracle.params.n):
        witness = icc_decide_bs(oracle.params.m, oracle.params.n).witness
        written = tuple(HnnWord(oracle, w.head, ((1, e), (-1, e))) for w in witness)
        sets += [witness, written + witness, witness + (words[0],)]
    return sets


def _oracle_records(name: str, oracle, add) -> None:
    rng = random.Random(f"{SEED}:{name}")
    for text in _random_texts(oracle, rng, 20):
        add("parse_word", outcome(parse_word, oracle, text))
    words = _random_words(oracle, rng, 30)
    for i, w in enumerate(words):
        add("normalize", outcome(normalize, w))
        add("cyclic_reduce", outcome(cyclic_reduce, w))
        add("classify", outcome(classify, w))
        for r in (0, 2, 4):
            add("min_displacement_bfs", outcome(min_displacement_bfs, w, r))
        add("fixed_subtree", outcome(fixed_subtree, w, 3))
        add("delta", outcome(delta, w, 3))
        if i % 3 == 0:
            add("orbit_sample", outcome(orbit_sample, w, 2))
            for r in range(5):
                add("orbit_sample r0-4", outcome(orbit_sample, w, r))
            for radii in PROBE_RADII:
                add("icc_probe_orbit", outcome(icc_probe_orbit, w, radii))
            for radii in LIMITED_PROBE_RADII:
                add(f"icc_probe_orbit limit {PROBE_LIMIT}", outcome(
                    _limited, "normal forms", PROBE_LIMIT, icc_probe_orbit, w, radii))
    for candidate in _finite_class_sets(oracle, words):
        add("verify_finite_class", outcome(verify_finite_class, oracle, candidate))
    for r in range(4):
        add("ball", outcome(ball, oracle, r))
    steps = [(rep, 1) for rep in oracle.h_transversal()] + [(rep, -1) for rep in oracle.k_transversal()]
    for v in ball(oracle, 2):
        add("VertexLabel.step", outcome(lambda: [v.step(rep, sign) for rep, sign in steps]))
    vs = ball(oracle, 3)
    for _ in range(30):
        add("distance", outcome(distance, rng.choice(vs), rng.choice(vs)))
    for size in [0] + [rng.randint(1, 8) for _ in range(12)]:
        add("center", outcome(center, rng.sample(vs, min(size, len(vs)))))
    add("tree_dot", outcome(tree_dot, oracle, 2))
    for w in words[:3]:
        add("tree_dot", outcome(tree_dot, oracle, 2, w))
    for x in _base_elements(oracle):
        for j in range(5):
            add("phi_iter_domain", outcome(phi_iter_domain, oracle, x, j))
            add("phi_iter", outcome(phi_iter, oracle, x, j))
            add("fixed_by_some_phi_j", outcome(fixed_by_some_phi_j, oracle, x, j))
    if isinstance(oracle, BsOracle):
        m, n = oracle.params.m, oracle.params.n
        add("icc_decide_bs", outcome(icc_decide_bs, m, n))
        for j_max in range(6):
            add("thm1_hypothesis_bs", outcome(thm1_hypothesis_bs, m, n, j_max))
        for k in range(7):
            add("folner_chain_bs", outcome(lambda: folner_chain_bs(m, n, k).elements))
        chains = [folner_chain_bs(m, n, k) for k in (2, 3, 5)]
        add("unbounded_fixed_witness_bs", outcome(_witness_family, m, n))
        for zs, n_max in [([1], 6), ([n], 8), ([m * n, 1], 10), ([3, -2, 7], 12), ([0], 3), ([2], 0)]:
            add("escape_exponent", outcome(
                escape_exponent, [HnnWord(oracle, z) for z in zs], n_max
            ))
    else:
        add("icc_decide_zd", outcome(icc_decide_zd, oracle.matrix))
        for lam in [(1, 0), (0, 1), (1, 1), (0, 0)]:
            for k in range(6):
                add("folner_chain_ascending", outcome(
                    lambda: folner_chain_ascending(oracle, lam, k).elements
                ))
        chains = [folner_chain_ascending(oracle, (1, 0), k) for k in (2, 3, 5)]
    for chain in chains:
        for w in words[:10]:
            add("symdiff_ratio", outcome(symdiff_ratio, chain, w))
    # unreduced words, whose pinches the label walk pops off its path; the
    # backward axes of axes_overlap pop back through their conjugators
    unreduced = _random_words(oracle, rng, 40)
    for w in unreduced:
        add("to_vertex_label", outcome(to_vertex_label, w))
        add("act", outcome(act, w, rng.choice(vs)))
    add("act", outcome(act, unreduced[0], base_vertex(make_bs(5, 7))))
    for g, h in zip(unreduced[::2], unreduced[1::2]):
        for r in (3, 6):
            add("axes_overlap", outcome(axes_overlap, g, h, r))
        add("axes_overlap", outcome(axes_overlap, g, g, 6))


def _formal_inverse(oracle, g: HnnWord) -> HnnWord:
    """g^-1 letter by letter, unreduced."""
    elems = [g.head] + [x for _, x in g.tail]
    tail = tuple((-s, oracle.inv(x)) for (s, _), x in zip(reversed(g.tail), reversed(elems[:-1])))
    return HnnWord(oracle, oracle.inv(elems[-1]), tail)


def _join(oracle, *words: HnnWord) -> HnnWord:
    """The concatenation of the words' tokens, unreduced."""
    head, tail = oracle.identity, []
    for w in words:
        if tail:
            tail[-1] = (tail[-1][0], oracle.mul(tail[-1][1], w.head))
        else:
            head = oracle.mul(head, w.head)
        tail += w.tail
    return HnnWord(oracle, head, tuple(tail))


def _wrap_heavy_words(oracle, rng: random.Random, count: int) -> list[HnnWord]:
    """Words g w g^-1, written out unreduced, with g of up to 30 syllables,
    so that cyclic reduction peels g off by wrap pinches.  The cores w cycle
    through a base element, t^-1 h t with h in H and t k t^-1 with k in K
    (both cancel to a base element), one syllable, and up to six."""
    elems = _base_elements(oracle)
    e = oracle.identity

    def syllables(size):
        # signs in runs, so that fewer adjacent letters pinch
        sign, out = rng.choice((1, -1)), []
        for _ in range(size):
            sign = -sign if rng.random() < 0.3 else sign
            out.append((sign, rng.choice(elems)))
        return tuple(out)

    words = []
    for i in range(count):
        g = HnnWord(oracle, rng.choice(elems), syllables(rng.randint(0, 30)))
        x = rng.choice(elems)
        cores = [
            HnnWord(oracle, x),
            HnnWord(oracle, e, ((-1, oracle.decompose_left_H(x)[0]), (1, e))),
            HnnWord(oracle, e, ((1, oracle.decompose_left_K(x)[0]), (-1, e))),
            HnnWord(oracle, x, syllables(1)),
            HnnWord(oracle, x, syllables(rng.randint(2, 6))),
        ]
        words.append(_join(oracle, g, cores[i % len(cores)], _formal_inverse(oracle, g)))
    return words


def _wrap_records(name: str, oracle, add) -> None:
    """Cyclic reduction and classification of wrap-heavy conjugates, from a
    seed of their own, so that the other records keep their inputs."""
    rng = random.Random(f"{SEED}:{name}:wrap")
    for w in _wrap_heavy_words(oracle, rng, 40):
        add("cyclic_reduce g w g^-1", outcome(cyclic_reduce, w))
        add("classify g w g^-1", outcome(classify, w))


def _periodic_words(oracle, rng: random.Random, count: int, most: int) -> list[HnnWord]:
    """Words u^p, written out unreduced, with u of one to four syllables and
    p up to ``most``, so that the cyclic core is itself a power of a shorter
    word and many of its rotations are equal."""
    elems = _base_elements(oracle)
    words = []
    for _ in range(count):
        syllables = tuple((rng.choice((1, -1)), rng.choice(elems)) for _ in range(rng.randint(1, 4)))
        u = HnnWord(oracle, rng.choice(elems), syllables)
        words.append(_join(oracle, *[u] * rng.randint(1, most)))
    return words


def _periodic_records(name: str, oracle, add) -> None:
    """Cyclic reduction, classification and attracting points of powers u^p,
    from a seed of their own, so that the other records keep their inputs.
    At radius 12 a hyperbolic ray runs max(2, ceil(12 / tl)) periods.  The
    powers that are classified stop at 6: a record holds one label per
    vertex of its axis sample or ray, each as long as its depth, so its text
    grows as p^2."""
    rng = random.Random(f"{SEED}:{name}:power")
    for w in _periodic_words(oracle, rng, 20, 30):
        add("cyclic_reduce u^p", outcome(cyclic_reduce, w))
    for w in _periodic_words(oracle, rng, 20, 6):
        add("classify u^p", outcome(classify, w))
        add("delta u^p", outcome(delta, w, 12))


def _deep_words(oracle, rng: random.Random, count: int) -> list[HnnWord]:
    """Words of 70 syllables whose vertex lies at depth 50 or more: nearly
    every stable letter has sign +1, so few of them pinch."""
    elems = _base_elements(oracle)
    words = []
    while len(words) < count:
        tail = tuple((1 if rng.random() < 0.9 else -1, rng.choice(elems)) for _ in range(70))
        w = HnnWord(oracle, rng.choice(elems), tail)
        if to_vertex_label(w).depth >= 50:
            words.append(w)
    return words


def _deep_records(name: str, oracle, add) -> None:
    """Labels at depth 50 or more, each built by several routes: the walk
    of a word, ``act`` of a prefix on the vertex of the suffix, the public
    constructor, one ``VertexLabel.step`` per path step from the base
    vertex, and ``act`` of the identity.  Their equality and hash agreement,
    distances, actions, centers and attracting points, from a seed of their
    own, so that the other records keep their inputs.  Elliptic attracting
    points run under a vertex limit of DEEP_VERTEX_LIMIT, which refuses the
    large fixed subtrees before they are built."""
    rng = random.Random(f"{SEED}:{name}:deep")
    e = oracle.identity
    steps = [(rep, 1) for rep in oracle.h_transversal()] + [(rep, -1) for rep in oracle.k_transversal()]
    words = _deep_words(oracle, rng, 4)
    others = []
    for w in words:
        cut = rng.randint(1, len(w.tail) - 1)
        g, h = HnnWord(oracle, w.head, w.tail[:cut]), HnnWord(oracle, e, w.tail[cut:])
        v = to_vertex_label(w)
        routes = [
            v,
            act(g, to_vertex_label(h)),
            VertexLabel(oracle, v.path),
            reduce(lambda u, step: u.step(*step), v.path, base_vertex(oracle)),
            act(HnnWord(oracle, e), v),
        ]
        add("deep labels", outcome(lambda: (v.depth, v)))
        for a, b in itertools.combinations(routes, 2):
            add("deep ==", repr((a == b, hash(a) == hash(b))))
        parent = VertexLabel(oracle, v.path[:-1])
        siblings = [u for u in (parent.step(rep, sign) for rep, sign in steps) if u.depth > parent.depth]
        for u in [parent, *siblings]:
            add("deep ==", repr((u == v, v == u, u in set(routes))))
        # a vertex sharing the prefix g, and a vertex of another deep word
        fork = to_vertex_label(_join(oracle, g, _random_words(oracle, rng, 1)[0]))
        other = to_vertex_label(rng.choice(words))
        short = _random_words(oracle, rng, 3)
        for a in routes:
            for b in (fork, other, parent, *siblings, base_vertex(oracle), act(short[0], a)):
                add("deep distance", outcome(distance, a, b))
        for x in [*short, _formal_inverse(oracle, w), _formal_inverse(oracle, g), rng.choice(words)]:
            add("deep act", outcome(act, x, rng.choice(routes)))
        add("deep center", outcome(center, routes))
        add("deep center", outcome(center, routes + [fork, other, parent]))
        add("deep center", outcome(center, [rng.choice(routes), fork, *siblings]))
        others.append(fork)
        add("deep delta", outcome(delta, w, 60))
        add("deep delta", outcome(delta, _formal_inverse(oracle, w), 60))
        depth = to_vertex_label(g).depth
        for x in _base_elements(oracle)[1:4]:
            conjugate = _join(oracle, g, HnnWord(oracle, x), _formal_inverse(oracle, g))
            for r in (depth - 1, depth + 3):
                add(f"deep delta limit {DEEP_VERTEX_LIMIT}", outcome(
                    _limited, "vertices", DEEP_VERTEX_LIMIT, delta, conjugate, r))
    if len(ball(oracle, 1)) == 3:
        # a line: the class walk reaches depth 60 with 121 vertices
        line = set(ball(oracle, 60))
        for v in others + [to_vertex_label(w) for w in words]:
            add("deep ==", repr((v.depth, v in line)))


def _guard_records(name: str, oracle, add) -> None:
    """The calculus's own consistency check, on an oracle that breaks the
    decomposition contract."""
    rng = random.Random(f"{SEED}:{name}")
    for w in _random_words(oracle, rng, 30):
        add("normalize", outcome(normalize, w))
        add("cyclic_reduce", outcome(cyclic_reduce, w))


def _matrix_records(d: int, add) -> None:
    """The integer linear algebra behind the Z^d ICC decision, on seeded
    d x d matrices with entries in [-3, 3]; every fifth is made singular by
    a last row that combines the others (the zero row when d = 1)."""
    rng = random.Random(f"{SEED}:Z^{d}")
    for i in range(60):
        M = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        if i % 5 == 0:
            coeffs = [rng.randint(-1, 1) for _ in range(d - 1)]
            M[-1] = [sum(c * row[j] for c, row in zip(coeffs, M)) for j in range(d)]
        M = tuple(map(tuple, M))
        add("det_int", outcome(det_int, M))
        for j in range(1, 7):
            add("fixed_lattice_rank", outcome(fixed_lattice_rank, M, j))
        for j in range(1, 13):
            add("integer_fixed_vector", outcome(integer_fixed_vector, M, j))
        add("has_root_of_unity_eigenvalue", outcome(has_root_of_unity_eigenvalue, M))


def corpus() -> dict[tuple[str, str], list[str]]:
    """The records of every (function, oracle) pair, in call order."""
    records: dict[tuple[str, str], list[str]] = defaultdict(list)

    def add_to(name):
        return lambda fn, rec: records[(fn, name)].append(rec)

    for name, oracle in oracles():
        _oracle_records(name, oracle, add_to(name))
        _wrap_records(name, oracle, add_to(name))
        _periodic_records(name, oracle, add_to(name))
        _deep_records(name, oracle, add_to(name))
    name = "BS(2,3) dropping K-representatives"
    _guard_records(name, _DropsKRepresentative(BsParams(2, 3)), add_to(name))
    for d in range(1, 5):
        _matrix_records(d, add_to(f"Z^{d} matrices"))
    return dict(records)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(records: list[str]) -> dict:
    return {
        "records": len(records),
        "sha256": _sha("".join(rec + "\n" for rec in records)),
        "marks": "".join(_sha(rec)[:4] for rec in records),
    }


def digests(records: dict[tuple[str, str], list[str]]) -> dict[str, dict[str, dict]]:
    out: dict[str, dict[str, dict]] = {}
    for (fn, name), recs in sorted(records.items()):
        out.setdefault(fn, {})[name] = digest(recs)
    return out


def mismatches(expected: dict, records: dict[tuple[str, str], list[str]]) -> list[str]:
    """One line per (function, oracle) pair whose records differ from the
    expected digests, naming the first record that differs."""
    found = []
    pairs = {(fn, name) for fn, table in expected.items() for name in table} | set(records)
    for fn, name in sorted(pairs):
        want = expected.get(fn, {}).get(name)
        recs = records.get((fn, name))
        if want is None or recs is None:
            found.append(f"{fn} on {name}: {'not recorded' if want is None else 'no longer produced'}")
            continue
        got = digest(recs)
        if got["sha256"] == want["sha256"]:
            continue
        marks = want["marks"]
        first = next(
            (i for i, rec in enumerate(recs) if _sha(rec)[:4] != marks[4 * i:4 * i + 4]),
            min(len(recs), want["records"]),
        )
        shown = recs[first] if first < len(recs) else "<missing>"
        found.append(
            f"{fn} on {name}: {len(recs)} records, {want['records']} expected; "
            f"record {first} differs: {shown}"
        )
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true", help=f"rewrite {GOLDEN.name}")
    args = parser.parse_args(argv)
    records = corpus()
    if args.record:
        table = digests(records)
        lines = ["{"]
        for i, fn in enumerate(table):
            lines.append(f"  {json.dumps(fn)}: {{")
            for j, name in enumerate(table[fn]):
                comma = "," if j < len(table[fn]) - 1 else ""
                lines.append(f"    {json.dumps(name)}: {json.dumps(table[fn][name])}{comma}")
            lines.append("  }," if i < len(table) - 1 else "  }")
        lines.append("}")
        GOLDEN.write_text("\n".join(lines) + "\n")
        print(f"recorded {sum(map(len, records.values()))} records of {len(records)} pairs")
        return 0
    found = mismatches(json.loads(GOLDEN.read_text()), records)
    print("\n".join(found) or f"all {len(records)} pairs match")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
