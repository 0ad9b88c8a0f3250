"""Command-line front end.

All subcommands read the group from ``--m``/``--n`` (Baumslag-Solitar mode)
or ``--matrix`` (Z^d mode), take words as positional arguments, and print
deterministic text; ``--json`` switches to the documented JSON schemas.
Exit status 1 signals a parse or domain error, 2 a violated arithmetic
hypothesis.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from .calculus import (
    BaseOracle,
    _check_int_text,
    _int_text,
    britton_reduce,
    equals,
    format_word,
    length,
    normalize,
    parse_word,
)
from .bs import BsOracle, _dom_bits, dom_phi_j_closed_form, make_bs
from .zd import make_zd, parse_matrix
from . import analysis, tree

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # one-line diagnostics, exit status 1 for every usage problem
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="hnnkit", description=__doc__)
    p.add_argument("--m", type=int, help="BS mode: exponent m")
    p.add_argument("--n", type=int, help="BS mode: exponent n")
    p.add_argument("--matrix", help="Z^d mode: rows ';'-separated, entries ','-separated")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("reduce", help="Britton-reduce a word")
    sp.add_argument("word")
    sp = sub.add_parser("normal", help="normal form of a word")
    sp.add_argument("word")
    sp = sub.add_parser("eq", help="decide equality of two words")
    sp.add_argument("word1")
    sp.add_argument("word2")
    sp = sub.add_parser("len", help="stable-letter length of the reduced word")
    sp.add_argument("word")
    sub.add_parser("icc", help="ICC decision with witness")
    sp = sub.add_parser("orbit", help="conjugacy orbit sample")
    sp.add_argument("word")
    sp.add_argument("--radius", type=int, required=True)
    sp = sub.add_parser("folner", help="Folner-type chain and symmetric-difference ratio")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--gamma")
    sp = sub.add_parser("classify", help="elliptic/hyperbolic classification")
    sp.add_argument("word")
    sp = sub.add_parser("fixed", help="fixed vertices of an elliptic element")
    sp.add_argument("word")
    sp.add_argument("--radius", type=int, required=True)
    sub.add_parser("witness-unbounded", help="element fixing an unbounded vertex family")
    sp = sub.add_parser("escape", help="escape exponent of a finite set")
    sp.add_argument("words", nargs="+")
    sp.add_argument("--max", type=int, required=True, dest="n_max")
    sp = sub.add_parser("tree-dot", help="DOT graph of a tree ball")
    sp.add_argument("--radius", type=int, required=True)
    sp.add_argument("--gamma")
    sp = sub.add_parser("domj", help="closed-form generator of Dom(phi^j) (BS mode)")
    sp.add_argument("--j", type=int, required=True)
    return p


def _make_oracle(args) -> BaseOracle:
    if args.matrix is not None:
        if args.m is not None or args.n is not None:
            raise ValueError("--matrix excludes --m/--n")
        return make_zd(parse_matrix(args.matrix))
    if args.m is None or args.n is None:
        raise ValueError("a group is required: --m M --n N or --matrix ROWS")
    return make_bs(args.m, args.n)


def _require_bs(oracle, what: str) -> BsOracle:
    if not isinstance(oracle, BsOracle):
        raise ValueError(f"{what} is available in BS mode only")
    return oracle


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _verdict_json(verdict: analysis.IccVerdict) -> dict:
    return {
        "status": verdict.status,
        "witness": verdict.witness_strings(),
        "evidence": None
        if verdict.evidence is None
        else [{"radius": r, "orbit_size": s} for r, s in verdict.evidence],
    }


def _emit(args, text: str, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=False))
    else:
        print(text)


def _run(args) -> int:
    oracle = _make_oracle(args)
    cmd = args.command

    if cmd == "reduce":
        w = format_word(britton_reduce(parse_word(oracle, args.word)))
        _emit(args, w, {"word": w})
    elif cmd == "normal":
        w = str(normalize(parse_word(oracle, args.word)))
        _emit(args, w, {"word": w})
    elif cmd == "eq":
        res = equals(parse_word(oracle, args.word1), parse_word(oracle, args.word2))
        _emit(args, "true" if res else "false", {"equal": res})
    elif cmd == "len":
        n = length(parse_word(oracle, args.word))
        _emit(args, str(n), {"length": n})
    elif cmd == "icc":
        if args.matrix is not None:
            verdict = analysis.icc_decide_zd(oracle.matrix)
        else:
            verdict = analysis.icc_decide_bs(args.m, args.n)
        if verdict.status == analysis.NOT_ICC:
            text = f"{verdict.status} witness: " + ", ".join(verdict.witness_strings())
        else:
            text = verdict.status
        _emit(args, text, _verdict_json(verdict))
    elif cmd == "orbit":
        orbit = analysis.orbit_sample(parse_word(oracle, args.word), args.radius)
        strings = [str(nf) for nf in orbit]
        _emit(args, "\n".join(strings), {"radius": args.radius, "orbit": strings})
    elif cmd == "folner":
        if args.matrix is not None:
            lam = oracle.base_letters()["e1"]
            chain = analysis.folner_chain_ascending(oracle, lam, args.k)
            shown = [list(h) for h in chain.elements]
            text = "elements: " + " ".join(oracle.format_element(h) for h in chain.elements)
            payload = {"k": chain.k, "elements": shown}
        else:
            chain = analysis.folner_chain_bs(args.m, args.n, args.k)
            text = "exponents: " + " ".join(map(_int_text, chain.elements))
            payload = {"k": chain.k, "exponents": list(chain.elements)}
        if args.gamma is not None:
            g = parse_word(oracle, args.gamma)
            ratio = analysis.symdiff_ratio(chain, g)
            text += f"\nratio: {_rat(ratio)}"
            payload["gamma"] = args.gamma
            payload["ratio"] = _rat(ratio)
        _emit(args, text, payload)
    elif cmd == "classify":
        cls = tree.classify(parse_word(oracle, args.word))
        if cls.kind == tree.HYPERBOLIC:
            text = f"{cls.kind} translation_length={cls.translation_length}"
            payload = {
                "kind": cls.kind,
                "translation_length": cls.translation_length,
                "axis_sample": [tree.label_str(v) for v in cls.axis_sample[:6]],
            }
        else:
            text = f"{cls.kind} fixes {tree.label_str(cls.fixed_vertex)}"
            payload = {"kind": cls.kind, "fixed_vertex": tree.label_str(cls.fixed_vertex)}
        _emit(args, text, payload)
    elif cmd == "fixed":
        fixed, touches = tree.fixed_subtree(parse_word(oracle, args.word), args.radius)
        labels = sorted(tree.label_str(v) for v in fixed)
        text = "\n".join(labels + [f"touches_boundary: {'true' if touches else 'false'}"])
        _emit(
            args,
            text,
            {"radius": args.radius, "fixed": labels, "touches_boundary": touches},
        )
    elif cmd == "witness-unbounded":
        _require_bs(oracle, "witness-unbounded")
        gamma, family = tree.unbounded_fixed_witness_bs(args.m, args.n)
        labels = [tree.label_str(family(l)) for l in range(6)]
        text = f"gamma: {format_word(gamma)}\n" + "\n".join(labels)
        _emit(args, text, {"gamma": format_word(gamma), "family": labels})
    elif cmd == "escape":
        _require_bs(oracle, "escape")
        words = [parse_word(oracle, w) for w in args.words]
        n0 = analysis.escape_exponent(words, args.n_max)
        _emit(args, str(n0), {"exponent": n0})
    elif cmd == "tree-dot":
        gamma = None if args.gamma is None else parse_word(oracle, args.gamma)
        sys.stdout.write(tree.tree_dot(oracle, args.radius, gamma))
    elif cmd == "domj":
        params = _require_bs(oracle, "domj").params
        # refuse a generator past the int-to-str limit before building it
        _check_int_text(_dom_bits(params, args.j))
        g = dom_phi_j_closed_form(params, args.j)
        _emit(args, _int_text(g), {"generator": g})
    else:  # pragma: no cover
        raise ValueError(f"unknown command {cmd!r}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except analysis.HypothesisViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # WordParseError, DomainError and every refusal
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # a request that no limit refused, past the host's memory
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
