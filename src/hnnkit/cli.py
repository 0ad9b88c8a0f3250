"""Command-line front end.

All subcommands read the group from ``--m``/``--n`` (Baumslag-Solitar mode)
or ``--matrix`` (Z^d mode), take words as positional arguments, and print
deterministic text; ``--json`` switches to the documented JSON schemas.
Exit status 1 signals a parse or domain error, a request refused as too
large, a BS-only subcommand in Z^d mode, or a request that ran out of memory,
each with a one-line diagnostic on stderr; 2 signals a violated
arithmetic hypothesis.
"""

from __future__ import annotations

import argparse
import json
import sys
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


def _run(args) -> int:
    oracle = _make_oracle(args)
    cmd, bs = args.command, isinstance(oracle, BsOracle)
    if cmd in ("witness-unbounded", "escape", "domj") and not bs:
        raise ValueError(f"{cmd} is available in BS mode only")
    if cmd == "tree-dot":
        gamma = None if args.gamma is None else parse_word(oracle, args.gamma)
        sys.stdout.write(tree.tree_dot(oracle, args.radius, gamma))
        return 0
    # each subcommand makes its text even under --json, so that an integer
    # too long for text is refused before anything is printed
    if cmd in ("reduce", "normal"):
        w = parse_word(oracle, args.word)
        text = format_word(britton_reduce(w)) if cmd == "reduce" else str(normalize(w))
        payload = {"word": text}
    elif cmd == "eq":
        res = equals(parse_word(oracle, args.word1), parse_word(oracle, args.word2))
        text, payload = str(res).lower(), {"equal": res}
    elif cmd == "len":
        n = length(parse_word(oracle, args.word))
        text, payload = str(n), {"length": n}
    elif cmd == "icc":
        if bs:
            verdict = analysis.icc_decide_bs(args.m, args.n)
        else:
            verdict = analysis.icc_decide_zd(oracle.matrix)
        text, witness, evidence = verdict.status, verdict.witness_strings(), verdict.evidence
        if verdict.status == analysis.NOT_ICC:
            text += " witness: " + ", ".join(witness)
        if evidence is not None:
            evidence = [{"radius": r, "orbit_size": s} for r, s in evidence]
        payload = {"status": verdict.status, "witness": witness, "evidence": evidence}
    elif cmd == "orbit":
        orbit = list(map(str, analysis.orbit_sample(parse_word(oracle, args.word), args.radius)))
        text, payload = "\n".join(orbit), {"radius": args.radius, "orbit": orbit}
    elif cmd == "folner":
        if bs:
            chain = analysis.folner_chain_bs(args.m, args.n, args.k)
            text = "exponents: " + " ".join(map(_int_text, chain.elements))
            payload = {"k": chain.k, "exponents": list(chain.elements)}
        else:
            chain = analysis.folner_chain_ascending(oracle, oracle.base_letters()["e1"], args.k)
            text = "elements: " + " ".join(map(oracle.format_element, chain.elements))
            payload = {"k": chain.k, "elements": [list(h) for h in chain.elements]}
        if args.gamma is not None:
            ratio = analysis.symdiff_ratio(chain, parse_word(oracle, args.gamma))
            payload.update(gamma=args.gamma, ratio=f"{ratio.numerator}/{ratio.denominator}")
            text += f"\nratio: {payload['ratio']}"
    elif cmd == "classify":
        cls = tree.classify(parse_word(oracle, args.word))
        payload = {"kind": cls.kind}
        if cls.kind == tree.HYPERBOLIC:
            text = f"{cls.kind} translation_length={cls.translation_length}"
            payload.update(
                translation_length=cls.translation_length,
                axis_sample=[tree.label_str(v) for v in cls.axis_sample[:6]],
            )
        else:
            payload["fixed_vertex"] = tree.label_str(cls.fixed_vertex)
            text = f"{cls.kind} fixes {payload['fixed_vertex']}"
    elif cmd == "fixed":
        fixed, touches = tree.fixed_subtree(parse_word(oracle, args.word), args.radius)
        labels = sorted(map(tree.label_str, fixed))
        text = "\n".join(labels + [f"touches_boundary: {str(touches).lower()}"])
        payload = {"radius": args.radius, "fixed": labels, "touches_boundary": touches}
    elif cmd == "witness-unbounded":
        gamma, family = tree.unbounded_fixed_witness_bs(args.m, args.n)
        labels = [tree.label_str(family(l)) for l in range(6)]
        text = "\n".join([f"gamma: {format_word(gamma)}", *labels])
        payload = {"gamma": format_word(gamma), "family": labels}
    elif cmd == "escape":
        n0 = analysis.escape_exponent([parse_word(oracle, w) for w in args.words], args.n_max)
        text, payload = str(n0), {"exponent": n0}
    else:  # domj; a generator past the int-to-str limit is refused before it is built
        _check_int_text(_dom_bits(oracle.params, args.j))
        g = dom_phi_j_closed_form(oracle.params, args.j)
        text, payload = _int_text(g), {"generator": g}
    print(json.dumps(payload) if args.json else text)
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
