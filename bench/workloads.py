"""The four benchmark workloads.

Each workload turns a seeded ``random.Random`` into a list of plain-data
items (strings, integers, lists), so the inputs can be digested and shown to
be identical across runs.  ``prepare`` builds oracles and warms the caches a
long-running caller would have warm, ``run`` is the timed operation, and
``canon``/``check`` judge its output outside the timed interval: ``canon`` is
a cheap summary compared across repeats of one item, ``check`` compares the
first output of each item with an independent reference.

Library calls go through attributes of the package (``H.classify``), so
that the traced run's wrappers, installed where callers bind the functions,
see them.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import hnnkit as H

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "cli_golden.json"


def _power(letter: str, k: int) -> str:
    return letter if k == 1 else f"{letter}^{k}"


def _text(terms) -> str:
    return " ".join(_power(letter, k) for letter, k in terms) or "1"


def _inverse(terms):
    return [(letter, -k) for letter, k in reversed(terms)]


class TreeScan:
    """classify + min_displacement_bfs (+ fixed_subtree for elliptic
    elements) on seeded random words of BS(2, 3): the pattern of the tree
    acceptance test."""

    name = "tree-scan"
    pool = 250
    trace_items = 20
    max_letters = 8
    bfs_radius = 6
    fixed_radius = 5

    def generate(self, rng):
        # as the tree acceptance test draws its words, with up to 8 letters
        letters = ["a", "a^-1", "b", "b^-1"]
        return [" ".join(rng.choice(letters) for _ in range(rng.randint(0, self.max_letters)))
                or "1" for _ in range(self.pool)]

    def prepare(self):
        self.oracle = H.make_bs(2, 3)
        t0 = time.perf_counter()
        vertices = len(H.ball(self.oracle, self.bfs_radius))
        return {"tree.ball.vertices": vertices, "tree.ball.build_s": time.perf_counter() - t0}

    def run(self, text):
        w = H.parse_word(self.oracle, text)
        cls = H.classify(w)
        d, v = H.min_displacement_bfs(w, self.bfs_radius)
        fixed = None
        if cls.kind == H.ELLIPTIC:
            fixed = H.fixed_subtree(w, self.fixed_radius)
        return w, cls, d, v, fixed

    def canon(self, out):
        _, cls, d, v, fixed = out
        fv = cls.fixed_vertex.path if cls.fixed_vertex is not None else None
        fs = None if fixed is None else (frozenset(u.path for u in fixed[0]), fixed[1])
        return cls.kind, cls.translation_length, fv, d, v.path, fs

    def check(self, item, out):
        w, cls, d, v, fixed = out
        # classification against the brute-force displacement over the ball
        if cls.kind == H.HYPERBOLIC:
            if d != cls.translation_length or fixed is not None:
                return False
        elif cls.kind != H.ELLIPTIC or d != 0:
            return False
        if d == 0 and H.act(w, v) != v:
            return False
        if cls.kind == H.ELLIPTIC and H.act(w, cls.fixed_vertex) != cls.fixed_vertex:
            return False
        if fixed is None:
            return True
        # fixed subtree against a brute-force filter of the whole ball
        ball = H.ball(self.oracle, self.fixed_radius)
        brute = {u.path for u in ball if H.act(w, u) == u}
        got = {u.path for u in fixed[0]}
        touches = any(len(p) == self.fixed_radius for p in brute)
        return got == brute and fixed[1] == touches

    def vertices_scanned(self, outs):
        """Ball vertices min_displacement_bfs visited: all of them unless it
        stopped at a fixed vertex, which it returns as the witness."""
        ball = [u.path for u in H.ball(self.oracle, self.bfs_radius)]
        return sum(ball.index(v.path) + 1 if d == 0 else len(ball)
                   for _, _, d, v, _ in outs)


BS_GROUPS = [(2, 3), (3, 2), (2, -2), (-3, 4), (1, 5)]
ZD_MATRIX = ((2, 1), (1, 1))


class WordAlgebra:
    """Long products with spliced-in relators over five BS groups and the
    Z^2 extension by [[2, 1], [1, 1]]; inverse, normal form, both outcomes
    of ``equals`` and the cyclic-reduction certificate.  One operation is a
    round over all six groups: the cost of a Z^2 product swings with the
    walk of its stable-letter exponent, and summing over the groups keeps
    the latency percentiles from hanging on where a seed puts those."""

    name = "word-algebra"
    # a Z^2 product's cost grows steeply with its walk's largest excursion;
    # with fewer rounds a seed's few heaviest ones set the 90th percentile
    pool = 120
    trace_items = 8
    factors = 200
    relators = 10

    def _base_term(self, rng, group):
        # small exponents, multiples of m*n that create pinches, and huge
        # exponents up to about 10^30 for the big-integer path
        r = rng.random()
        if r < 0.5:
            k = rng.randint(1, 6)
        elif r < 0.8:
            k = rng.randint(1, 4) * (abs(group[0] * group[1]) if group != "zd" else 1)
        else:
            k = rng.randint(1, 10**30)
        return k * rng.choice((1, -1))

    def _factor(self, rng, group):
        terms = []
        stable, bases = ("t", ("e1", "e2")) if group == "zd" else ("a", ("b",))
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.4:
                terms.append((stable, rng.choice((1, -1))))
            else:
                terms.append((rng.choice(bases), self._base_term(rng, group)))
        return terms

    def _relator(self, rng, group):
        if group == "zd":
            p, q = rng.randint(-9, 9), rng.randint(-9, 9)
            (a, b), (c, d) = ZD_MATRIX
            rel = [("t", -1), ("e1", p), ("e2", q), ("t", 1),
                   ("e1", -(a * p + b * q)), ("e2", -(c * p + d * q))]
            rel = [(x, k) for x, k in rel if k]
        else:
            m, n = group
            rel = [("a", 1), ("b", m), ("a", -1), ("b", -n)]
        g = self._factor(rng, group)
        return g + rel + _inverse(g)

    def _product(self, rng, group):
        plain = [_text(self._factor(rng, group)) for _ in range(self.factors)]
        spliced = list(plain)
        for _ in range(self.relators):
            spliced.insert(rng.randint(0, len(spliced)), _text(self._relator(rng, group)))
        return {"group": group if group == "zd" else list(group),
                "factors": spliced, "plain": " ".join(plain)}

    def generate(self, rng):
        return [[self._product(rng, g) for g in (*BS_GROUPS, "zd")] for _ in range(self.pool)]

    def prepare(self):
        self.oracles = {tuple(g): H.make_bs(*g) for g in BS_GROUPS}
        self.oracles["zd"] = H.make_zd(ZD_MATRIX)
        return {}

    def _one(self, product):
        g = product["group"]
        o = self.oracles[g if g == "zd" else tuple(g)]
        p = H.identity_word(o)
        for text in product["factors"]:
            p = H.mul(p, H.parse_word(o, text))
        p_inv = H.inv(p)
        nf = H.normalize(p)
        same = H.equals(p, H.parse_word(o, product["plain"]))
        extra = "e1" if g == "zd" else "b"
        differ = H.equals(p, H.parse_word(o, product["plain"] + " " + extra))
        core, conj = H.cyclic_reduce(p)
        return p, p_inv, nf, same, differ, core, conj

    def run(self, item):
        return [self._one(product) for product in item]

    def canon(self, out):
        return tuple((p.key(), p_inv.key(), nf.key(), same, differ, core.key(), g.key())
                     for p, p_inv, nf, same, differ, core, g in out)

    def check(self, item, out):
        for product, (p, p_inv, nf, same, differ, core, g) in zip(item, out):
            if same is not True or differ is not False:
                return False
            # normal forms are unique: the relator-free product has the same
            if nf.key() != H.normalize(H.parse_word(p.oracle, product["plain"])).key():
                return False
            one = H.mul(p, p_inv)
            if one.tail or not one.oracle.is_identity(one.head):
                return False
            # the conjugator certificate: g core g^-1 == p
            if not H.equals(H.mul(H.mul(g, core), H.inv(g)), p):
                return False
        return True


def _det2(M):
    return M[0][0] * M[1][1] - M[0][1] * M[1][0]


def _matmul2(A, B):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


def _has_fixed_power(M, j_max=12):
    """Whether det(M^j - I) == 0 for some j <= j_max; for 2x2 integer
    matrices every root-of-unity eigenvalue has order dividing 12."""
    P = M
    for _ in range(j_max):
        if _det2(((P[0][0] - 1, P[0][1]), (P[1][0], P[1][1] - 1))) == 0:
            return True
        P = _matmul2(P, M)
    return False


def _bs_element(z: int) -> str:
    return "b" if z == 1 else f"b^{z}"


def _a_exponent_sum(text: str) -> int:
    total = 0
    for token in text.split():
        letter, _, exp = token.partition("^")
        if letter == "a":
            total += int(exp) if exp else 1
    return total


def _steps_inside(m: int, n: int, z: int) -> int:
    """How many conjugations by a keep b^z inside the base group: a^-1 b^z a
    is b^(z m / n) when n divides z and a reduced word outside it otherwise."""
    steps = 0
    while z % n == 0:
        z = z // n * m
        steps += 1
    return steps


ORBIT_GROUPS = [(2, 3), (3, 2), (2, -2), (1, 5), (2, 4)]
ORBIT_RADII = (3, 4, 5)
ESCAPE_GROUPS = [(2, 3), (3, 2), (2, 4), (4, 6), (-3, 2)]


class Certificates:
    """One round of the L3 experiment scripts: four of the 496 Z^2 ICC
    decisions, one or two of the 144 BS ones, a Folner chain with two ratios,
    an orbit sample and an escape exponent."""

    name = "certificates"
    rounds = 124
    trace_items = 24

    def generate(self, rng):
        # Each parameter walks a shuffled list of all its values, round after
        # round, so every seed gives the pool the same mix of costs.
        mats = [((a, b), (c, d)) for a, b, c, d in itertools.product(range(-2, 3), repeat=4)
                if a * d - b * c != 0]
        pairs = [(m, n) for m in range(-6, 7) for n in range(-6, 7) if m and n]
        folner = [(m, n) for m in range(-4, 5) for n in range(-4, 5) if m and n and abs(m) != abs(n)]
        ks = list(range(100, 201))
        orbits = list(itertools.product(ORBIT_GROUPS, ORBIT_RADII))
        escapes = list(ESCAPE_GROUPS)
        for values in (mats, pairs, folner, ks, orbits, escapes):
            rng.shuffle(values)
        items = []
        for r in range(self.rounds):
            m, n = folner[r % len(folner)]
            word = [("a", rng.choice((1, -1))) if rng.random() < 0.5
                    else ("b", rng.randint(-9, 9) or 1) for _ in range(rng.randint(1, 4))]
            (om, on), radius = orbits[r % len(orbits)]
            em, en = escapes[r % len(escapes)]
            items.append({
                "zd": [list(map(list, M)) for M in mats[r::self.rounds]],
                "bs": [list(p) for p in pairs[r::self.rounds]],
                "folner": [m, n, ks[r % len(ks)], _text(word)],
                "orbit": [om, on,
                          _text([("b", rng.randint(1, 6)), ("a", rng.choice((1, -1)))][: rng.randint(1, 2)]),
                          radius],
                "escape": [em, en, [rng.randint(1, 99) * en ** rng.randint(0, 6) * rng.choice((1, -1))
                                    for _ in range(3)], 40],
            })
        return items

    def prepare(self):
        # lazy sympy import and the cached conjugator balls are warm-up
        H.icc_decide_zd([[0, -1], [1, 1]])
        for (m, n), r in itertools.product(ORBIT_GROUPS, ORBIT_RADII):
            H.orbit_sample(H.parse_word(H.make_bs(m, n), "b"), r)
        return {}

    def run(self, item):
        zd = [H.icc_decide_zd(M) for M in item["zd"]]
        bs = [H.icc_decide_bs(m, n) for m, n in item["bs"]]
        m, n, k, word = item["folner"]
        chain = H.folner_chain_bs(m, n, k)
        o = chain.oracle
        g = H.parse_word(o, word)
        ratios = (H.symdiff_ratio(chain, H.stable_word(o)), H.symdiff_ratio(chain, g), H.length(g))
        om, on, x, radius = item["orbit"]
        orbit = H.orbit_sample(H.parse_word(H.make_bs(om, on), x), radius)
        em, en, zs, n_max = item["escape"]
        eo = H.make_bs(em, en)
        n0 = H.escape_exponent([H.base_word(eo, z) for z in zs], n_max)
        return zd, bs, k, ratios, [str(nf) for nf in orbit], n0

    def canon(self, out):
        zd, bs, k, ratios, orbit, n0 = out
        return (tuple((v.status, tuple(v.witness_strings() or ())) for v in zd + bs),
                ratios, tuple(orbit), n0)

    def check(self, item, out):
        zd, bs, k, (r_a, r_g, length_g), orbit, n0 = out
        for M, v in zip(item["zd"], zd):
            finite = _has_fixed_power(M)
            if (v.status == H.NOT_ICC) != finite or (finite and not v.witness):
                return False
        for (m, n), v in zip(item["bs"], bs):
            if (v.status == H.NOT_ICC) != (abs(m) == abs(n)):
                return False
            if v.status == H.NOT_ICC:
                expected = sorted({_bs_element(m), _bs_element(m if m == n else -m)})
                if v.witness_strings() != expected:
                    return False
        # Folner ratios: exactly 2/(k-1) for a, at most 2*len/(k-1) in general
        if r_a != Fraction(2, k - 1) or r_g > Fraction(2 * length_g, k - 1):
            return False
        # conjugation preserves the a-exponent sum; the orbit contains x
        om, on, x, _ = item["orbit"]
        own = str(H.normalize(H.parse_word(H.make_bs(om, on), x)))
        if own not in orbit or orbit != sorted(set(orbit)):
            return False
        if any(_a_exponent_sum(s) != _a_exponent_sum(x) for s in orbit):
            return False
        em, en, zs, _ = item["escape"]
        return n0 == 1 + max(_steps_inside(em, en, z) for z in zs)


# The CLI mix: every README example, three sympy-path ICC decisions (so the
# 90th percentile of the 20 calls sits inside that slow cluster), --json
# output, a parse error (exit 1) and a violated arithmetic hypothesis (exit 2).
CLI_MIX = [
    ["--m", "2", "--n", "3", "reduce", "a^-1 b^3 a"],
    ["--m", "2", "--n", "3", "normal", "b a b^5"],
    ["--m", "2", "--n", "3", "eq", "a b^2 a^-1", "b^3"],
    ["--m", "2", "--n", "3", "len", "a^-1 b a"],
    ["--m", "2", "--n", "2", "icc"],
    ["--m", "2", "--n", "3", "orbit", "b^3", "--radius", "4"],
    ["--m", "2", "--n", "3", "folner", "--k", "10", "--gamma", "a"],
    ["--m", "2", "--n", "3", "classify", "a"],
    ["--m", "2", "--n", "3", "fixed", "b^3", "--radius", "2"],
    ["--m", "4", "--n", "2", "witness-unbounded"],
    ["--m", "2", "--n", "3", "escape", "b^3", "--max", "10"],
    ["--m", "2", "--n", "3", "tree-dot", "--radius", "2", "--gamma", "b^3"],
    ["--m", "2", "--n", "3", "domj", "--j", "2"],
    ["--matrix", "0,-1;1,1", "icc"],
    ["--matrix", "2,1;1,1", "icc"],
    ["--json", "--matrix", "0,1;-1,0", "icc"],
    ["--json", "--matrix", "2,1;1,1", "folner", "--k", "6", "--gamma", "t"],
    ["--json", "--m", "2", "--n", "3", "classify", "a b"],
    ["--m", "2", "--n", "3", "reduce", "a^x"],
    ["--m", "4", "--n", "2", "escape", "b", "--max", "5"],
]


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_cli(args, extra_flags=()):
    """One ``hnnkit`` call as a subprocess of this interpreter."""
    return subprocess.run(
        [sys.executable, *extra_flags, "-m", "hnnkit.cli", *args],
        capture_output=True, env=cli_env(), cwd=ROOT, timeout=120,
    )


def record_golden():
    golden = []
    for args in CLI_MIX:
        proc = run_cli(args)
        golden.append({"args": args, "exit": proc.returncode, "stdout": proc.stdout.decode()})
    calls = ",\n  ".join(json.dumps(g) for g in golden)
    GOLDEN.write_text(
        f'{{"regenerate": "python3 bench/run.py --record-golden",\n "calls": [\n  {calls}\n]}}\n')


class Cli:
    """The README's subcommands, one fresh ``hnnkit`` process per call."""

    name = "cli"
    trace_items = len(CLI_MIX)

    def generate(self, rng):
        order = list(range(len(CLI_MIX)))
        rng.shuffle(order)
        return [CLI_MIX[i] for i in order]

    def prepare(self):
        calls = json.loads(GOLDEN.read_text())["calls"]
        self.golden = {json.dumps(g["args"]): g for g in calls}
        if set(self.golden) != {json.dumps(a) for a in CLI_MIX}:
            raise RuntimeError(f"{GOLDEN.name} does not match the CLI mix; re-record it")
        run_cli(CLI_MIX[0])  # page cache and bytecode warm-up
        return {}

    def run(self, args):
        proc = run_cli(args)
        return proc.returncode, proc.stdout

    def canon(self, out):
        return out

    def check(self, args, out):
        g = self.golden[json.dumps(args)]
        return out == (g["exit"], g["stdout"].encode())


WORKLOADS = {w.name: w for w in (TreeScan, WordAlgebra, Certificates, Cli)}
