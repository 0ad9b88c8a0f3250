"""Spans and counters for the traced benchmark run.

Spans are recorded around calls into the library, from the benchmark's own
code: every public function of ``hnnkit.calculus``, ``bs``, ``zd``, ``tree``
and ``analysis`` is replaced, in every hnnkit module that binds it, by a
wrapper that times the call and charges its duration to the enclosing span.
A span's self time is its duration minus the time its child spans cover.
Spans are aggregated in memory per function name (calls, self time), because
the hot functions run millions of times; conjugations made directly inside
``orbit_sample`` are counted on their own.

Base-group work is counted by swapping every oracle the library builds
through ``make_bs``/``make_zd`` for a counting subclass.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

import hnnkit
from hnnkit import analysis, bs, calculus, cli, tree, zd
from hnnkit.bs import BsOracle
from hnnkit.zd import ZdOracle

MODULES = (hnnkit, calculus, bs, zd, tree, analysis, cli)
SPAN_MODULES = (calculus, bs, zd, tree, analysis)
EXTRA_SPANS = {analysis: ("verify_finite_class",)}
FACTORIES = {bs: "make_bs", zd: "make_zd"}
ORACLE_METHODS = (
    "mul", "inv", "eq", "is_identity", "in_H", "in_K", "phi", "phi_inv",
    "decompose_left_H", "decompose_right_H", "decompose_left_K", "decompose_right_K",
    "is_central", "power", "h_transversal", "k_transversal",
)


def _layer(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.max_int_bits = 0
        self._stack = []
        self._undo = []

    def reset(self):
        for table in (self.calls, self.self_s, self.counts):
            table.clear()
        self.max_int_bits = 0

    def _span(self, name, fn):
        calls, self_s, counts, stack = self.calls, self.self_s, self.counts, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name == "calculus.mul":
                counts["calculus.mul.tokens_in"] += sum(1 + len(w.tail) for w in args)
            elif name == "calculus.conjugate" and stack and stack[-1][0] == "analysis.orbit_sample":
                counts["analysis.orbit_sample.conjugators"] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        traced.__wrapped__ = fn
        return traced

    def _counting_class(self, base, prefix):
        counts, tracer = self.counts, self

        def make(meth, orig):
            key = f"{prefix}.{meth}.calls"
            if meth in ("in_H", "in_K"):
                def method(self, *args):
                    counts[key] += 1
                    if prefix == "bs":
                        tracer._bits(args)
                    hit = orig(self, *args)
                    counts[f"{prefix}.membership_hits"] += bool(hit)
                    return hit
            else:
                def method(self, *args):
                    counts[key] += 1
                    if prefix == "bs":
                        tracer._bits(args)
                    return orig(self, *args)
            return method

        ns = {meth: make(meth, getattr(base, meth)) for meth in ORACLE_METHODS}
        return type(f"Counting{base.__name__}", (base,), ns)

    def _bits(self, args):
        for x in args:
            if type(x) is int and x.bit_length() > self.max_int_bits:
                self.max_int_bits = x.bit_length()

    def _replace(self, original, replacement):
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install_oracles(self):
        for mod, attr in FACTORIES.items():
            factory = getattr(mod, attr)
            base = BsOracle if mod is bs else ZdOracle
            cls = self._counting_class(base, mod.__name__.rsplit(".", 1)[-1])

            def counting_factory(*args, _factory=factory, _cls=cls, **kwargs):
                oracle = _factory(*args, **kwargs)
                object.__setattr__(oracle, "__class__", _cls)
                return oracle

            self._replace(factory, counting_factory)

    def install_spans(self):
        seen = set()
        for mod in SPAN_MODULES:
            names = list(getattr(mod, "__all__", ())) + list(EXTRA_SPANS.get(mod, ()))
            for attr in names:
                fn = getattr(mod, attr, None)
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or attr in FACTORIES.values() or fn in seen):
                    continue
                seen.add(fn)
                self._replace(fn, self._span(_layer(fn), fn))

    def uninstall(self):
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)


CALCULUS = ("mul", "inv", "normalize", "britton_reduce", "equals", "cyclic_reduce",
            "parse_word", "format_word")
TREE = ("min_displacement_bfs", "classify", "to_vertex_label", "fixed_subtree")
ANALYSIS = ("icc_decide_zd", "icc_decide_bs", "verify_finite_class", "orbit_sample",
            "folner_chain_bs", "symdiff_ratio", "escape_exponent")


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer values of one traced pass (all zero for a layer the pass
    never entered)."""
    out = {}
    for prefix in ("bs", "zd"):
        out[f"{prefix}.calls"] = sum(
            v for k, v in t.counts.items() if k.startswith(prefix + ".") and k.endswith(".calls"))
    membership = t.counts["bs.in_H.calls"] + t.counts["bs.in_K.calls"]
    out["bs.membership_calls"] = membership
    out["bs.membership_hit_ratio"] = t.counts["bs.membership_hits"] / membership if membership else 0.0
    out["bs.max_int_bits"] = t.max_int_bits
    out["zd.phi_inv.calls"] = t.counts["zd.phi_inv.calls"]
    for name in ["zd.has_root_of_unity_eigenvalue"] + [f"calculus.{f}" for f in CALCULUS] \
            + [f"tree.{f}" for f in TREE]:
        out[f"{name}.calls"] = t.calls[name]
        out[f"{name}.self_s"] = t.self_s[name]
    for f in ANALYSIS:
        out[f"analysis.{f}.self_s"] = t.self_s[f"analysis.{f}"]
    mul_calls = t.calls["calculus.mul"]
    out["calculus.mul.tokens_in"] = t.counts["calculus.mul.tokens_in"] / mul_calls if mul_calls else 0.0
    out["analysis.orbit_sample.conjugators"] = t.counts["analysis.orbit_sample.conjugators"]
    return out
