"""
Command-line surface: invariant, trace, multiply, reduce, enumerate-fc,
verify.  Exit codes: 0 on success, 1 when a verification check fails, 2 on
usage or parse errors, 3 on an internal fault (``InexactDivision``, which
must never happen).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import verify as verify_mod
from .algebra import (
    TLElement,
    element_to_json,
    format_element,
    multiply,
    parse_element,
    reduce_letters,
)
from .coxeter import DEFAULT_MAX_LEN, affine, enumerate_fc, parse_word, path, word_text
from .errors import InexactDivision, ParseError
from .morphisms import parse_braid
from .scalars import delta_pow
from .traces import invariant, jones_trace, rho

# the most characters one element, word or input line may have; the parse
# work grows with the text, and no printed value comes near this
MAX_INPUT_CHARS = 8192


def _graph(args):
    return affine(args.gens) if args.type == "affine" else path(args.gens)


def _capped(text: str) -> str:
    if len(text) > MAX_INPUT_CHARS:
        raise ParseError(f"input of {len(text)} characters is over the cap of {MAX_INPUT_CHARS}")
    return text


def _emit(args, payload, text):
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(text)


def cmd_invariant(args) -> int:
    lines = list(args.words)
    if args.file:
        with open(args.file) as fh:
            lines.extend(line.rstrip("\n") for line in fh)
    elif not lines and not sys.stdin.isatty():
        lines.extend(line.rstrip("\n") for line in sys.stdin)
    braids = []
    for lineno, line in enumerate(lines, start=1):
        try:
            braids.append(parse_braid(_capped(line), args.gens))
        except (ParseError, ValueError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    # the pool starts all of its workers at once, so never more than the CPUs
    # this process may run on (its affinity mask, where the platform has one);
    # it is imported here alone, because loading it costs a cold process more
    # than a small invariant
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(args.jobs, len(braids), cpus)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(invariant, braids))
    else:
        values = [invariant(b) for b in braids]
    for line, value in zip(lines, map(str, values)):
        _emit(args, {"input": line, "gens": args.gens, "invariant": value}, value)
    return 0


def cmd_trace(args) -> int:
    g = _graph(args)
    x = parse_element(_capped(args.element), g)
    value = rho(x) if g.is_affine else jones_trace(x)
    _emit(args, {"element": args.element, "gens": args.gens, "trace": str(value)}, str(value))
    return 0


def cmd_multiply(args) -> int:
    g = _graph(args)
    out = TLElement.one(g)
    for arg in args.elements:
        out = multiply(out, parse_element(_capped(arg), g))
    # only the printed form is made, so the g-basis conversion runs once
    form = element_to_json if args.format == "json" else format_element
    shown = form(out, args.basis)
    _emit(args, {"gens": args.gens, "basis": args.basis, "terms": shown}, shown)
    return 0


def cmd_reduce(args) -> int:
    g = _graph(args)
    letters = parse_word(g, _capped(args.word))
    loops, w = reduce_letters(g, letters)
    scalar, body = delta_pow(loops), word_text(g, w)
    text = body if scalar.is_one() else f"{scalar} * {body}"
    _emit(
        args,
        {"input": args.word, "scalar": str(scalar), "word": [g.letter_name(s) for s in w]},
        text,
    )
    return 0


def cmd_enumerate(args) -> int:
    g = _graph(args)
    words = enumerate_fc(g, args.max_len)
    _emit(args, [[g.letter_name(s) for s in w] for w in words],
          "\n".join(word_text(g, w) for w in words))
    return 0


def cmd_verify(args) -> int:
    results = verify_mod.run_suite(args.suite, args.seed, args.gens, args.kmax)
    ok = all(r.ok for r in results)
    checks = [{"name": r.name, "ok": r.ok, **({"detail": r.detail} if r.detail else {})}
              for r in results]
    lines = [f"{'PASS' if r.ok else 'FAIL'} {r.name}" + (f"  {r.detail}" if r.detail else "")
             for r in results]
    lines.append(f"{'PASS' if ok else 'FAIL'} {args.suite}: {sum(r.ok for r in results)}/{len(results)} checks")
    _emit(args, {"suite": args.suite, "seed": args.seed, "ok": ok, "checks": checks},
          "\n".join(lines))
    return 0 if ok else 1


def _at_least(lo: int):
    """An argparse type: an int no smaller than ``lo``."""
    def count(text: str) -> int:
        if (n := int(text)) < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, not {n}")
        return n
    return count


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="affinetl")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, typed=True, gens=int):
        p.add_argument("--gens", type=gens, default=2, help="generator count")
        if typed:
            p.add_argument("--type", choices=("affine", "classical"), default="affine")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("invariant", help="link invariant of braid-word closures")
    common(p, typed=False, gens=_at_least(2))
    p.add_argument("words", nargs="*", help="braid words, e.g. 's1 s1 s1'")
    p.add_argument("--file", help="newline-delimited braid words")
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.set_defaults(fn=cmd_invariant)

    p = sub.add_parser("trace", help="Markov trace of an element")
    common(p)
    p.add_argument("element")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("multiply", help="product of elements")
    common(p)
    p.add_argument("elements", nargs="+")
    p.add_argument("--basis", choices=("f", "g"), default="f")
    p.set_defaults(fn=cmd_multiply)

    p = sub.add_parser("reduce", help="normal form of a raw basis word")
    common(p)
    p.add_argument("word", help="letters without brackets, e.g. 's1 s2 s1'")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("enumerate-fc", help="canonical FC words up to a length")
    common(p)
    p.add_argument("--max-len", type=_at_least(0), default=DEFAULT_MAX_LEN)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify", help="run a named check battery")
    common(p, typed=False)
    p.add_argument("--suite", choices=("all",) + verify_mod.SUITES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kmax", type=int, default=3)
    p.set_defaults(fn=cmd_verify, gens=4)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InexactDivision as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
