"""Command line interface.

Subcommands: commute, insert, rsk, lr-coeff, schur-product, verify, golden.
Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial

from .commutor import METHODS
from .insertion import GluedPair, NotBallotPair, glued_pair, order_word_steps
from .tableaux import (SkewTableau, as_partition, brief, from_json_dict,
                       from_text, json_ints, parse_int, read_json,
                       to_json_dict, to_text)


class UsageError(Exception):
    pass


# The --help lists of ``verify.CHECKS`` and ``golden.RUNNERS``, kept here so
# that building the parser imports neither module: ``knuth``, ``schur``,
# ``verify`` and ``golden`` load only in the commands that run them.
CHECK_NAMES = ("coincidence", "confluence", "involution", "knuth-commutativity",
               "lr-oracle", "recursion", "route-geometry", "skew-rsk")
EXAMPLE_IDS = ("companion-word", "ballot-words", "switch-sequence",
               "insertion-words", "staged-switching", "row-recursion",
               "factored-commutor")


# The most inner-border cells ``commute`` and ``insert`` take.  The border is
# the one size a short input can make huge, one JSON number, and both
# commands allocate it; 2**22 admits the 3,200-letter blocks (3.09 M cells).
MAX_BORDER = 1 << 22


def check_border(t: SkewTableau) -> SkewTableau:
    """t, if its inner border has at most ``MAX_BORDER`` cells."""
    cells = sum(t.inner)
    if cells > MAX_BORDER:
        raise UsageError(f"the inner border has {cells} cells, over the limit "
                         f"of {MAX_BORDER}")
    return t


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def parse_tableau(text: str) -> SkewTableau:
    text = text.removeprefix("\ufeff").strip()  # a BOM, as some editors save
    if not text:
        return SkewTableau((), (), ())
    try:
        if text.startswith(("{", "[")):
            return read_json(text, from_json_dict)
        return from_text(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot parse tableau: {exc}")


def parse_partition(text: str):
    try:
        if text.strip().startswith("["):
            return as_partition(read_json(text, json_ints))
        if text.strip() in ("", "0", "()"):
            return ()
        return as_partition(parse_int(x.strip()) for x in text.split(","))
    except (ValueError, TypeError) as exc:
        raise UsageError(f"cannot parse partition {brief(text)!r}: {exc}")


def parse_word(text: str):
    text = text.strip()
    try:
        if text.startswith("["):
            return read_json(text, json_ints)
        if "," in text:
            return tuple(parse_int(x.strip()) for x in text.split(","))
        return tuple(parse_int(ch) for ch in text)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"cannot parse word {brief(text)!r}: {exc}")


def emit_tableau(t: SkewTableau, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(to_json_dict(t))
    return to_text(t)


def _emit_pair(p: GluedPair, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"yam": to_json_dict(p.yam),
                           "skew": to_json_dict(p.skew)})
    return to_text(p.skew)


def cmd_commute(args) -> int:
    skew = check_border(parse_tableau(_read_input(args.input)))
    # each frame is encoded as it arrives, so the trace keeps its text only
    method, frames = METHODS[args.method], []

    def on_frame(site, cells):
        frames.append(json.dumps({
            "switch": [list(site.cell_u), list(site.cell_v)],
            "cells": [[r, c, val, color]
                      for (r, c), (val, color) in sorted(cells.items())]}))

    def on_step(step, trace, state):
        frame = {"op": step.op, "row": step.i, "state": to_json_dict(state)}
        if trace is not None:
            frame["trace"] = trace._asdict()
        frames.append(json.dumps(frame))

    hook = {"on_frame": on_frame, "on_step": on_step}[method.family]
    try:
        result = method.rho(glued_pair(skew), hook if args.trace else None)
    except NotBallotPair as exc:
        raise UsageError(f"input is not a ballot pair: {exc.why}")
    print(_emit_pair(result, args.format))
    if args.trace:
        # as json.dumps of the frames, written piece by piece
        print("[", end="")
        print(*frames, sep=", ", end="]\n")
    return 0


def cmd_insert(args) -> int:
    t = check_border(parse_tableau(_read_input(args.input)))
    word = parse_word(args.word)
    try:
        result, traces = order_word_steps(t, word)
    except ValueError as exc:
        raise UsageError(str(exc))
    print(emit_tableau(result, args.format))
    if args.trace:
        print(json.dumps([tr._asdict() for tr in traces]))
    return 0


def cmd_rsk(args) -> int:
    from .knuth import rsk
    word = parse_word(args.word)
    try:
        pair = rsk(word)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.format == "json":
        print(json.dumps({"p": to_json_dict(pair.p), "q": to_json_dict(pair.q)}))
    else:
        print("P:")
        print(to_text(pair.p))
        print("Q:")
        print(to_text(pair.q))
    return 0


def cmd_lr_coeff(args) -> int:
    from .schur import lr_coefficient
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    nu = parse_partition(args.nu)
    print(lr_coefficient(lam, mu, nu))
    return 0


def cmd_schur_product(args) -> int:
    from .schur import schur_product
    mu = parse_partition(args.mu)
    nu = parse_partition(args.nu)
    max_rows = args.max_rows
    if max_rows is None:
        max_rows = sum(mu) + sum(nu) if mu or nu else 1
    try:
        terms = schur_product(mu, nu, max_rows)
    except ValueError as exc:
        raise UsageError(str(exc))
    items = sorted(terms.items(), key=lambda kv: (-kv[1], kv[0]))
    if args.format == "json":
        print(json.dumps([{"shape": list(lam), "coeff": c}
                          for lam, c in sorted(terms.items())]))
    else:
        for lam, c in items:
            print(f"{c} * s{lam}")
    return 0


def cmd_verify(args) -> int:
    from . import verify
    names = args.checks.split(",") if args.checks else sorted(verify.CHECKS)
    try:
        # checks the arguments only: the checks run in the loop below, and a
        # check that fails, or whose instances raise, reports FAIL (exit 1)
        reports = verify.run_checks(names, max_size=args.max_size)
    except ValueError as exc:
        raise UsageError(str(exc))
    failed = False
    for rep in reports:
        if args.format == "json":
            shown = [dict(zip(("instance", "expected", "actual"), f))
                     for f in rep.failures[:5]]
            print(json.dumps({"name": rep.name, "passed": rep.passed,
                              "instances": rep.instances,
                              "skipped": rep.skipped,
                              "digest": f"{rep.digest:016x}",
                              "failures": rep.failure_count,
                              "seconds": rep.seconds, "first_failures": shown}))
        else:
            print(rep.line())
            for f in rep.failures[:5]:
                print(f"    {f}")
        failed = failed or not rep.passed
    return 1 if failed else 0


def cmd_golden(args) -> int:
    from . import golden
    ids = args.only.split(",") if args.only else None
    try:
        results = golden.run_golden(ids)
    except ValueError as exc:
        raise UsageError(str(exc))
    failed = False
    for res in results:
        if args.format == "json":
            print(json.dumps({"name": res.name, "passed": res.passed,
                              "messages": res.messages}))
        else:
            print(res.line())
            for m in res.messages:
                print("    " + m.replace("\n", "\n    "))
        failed = failed or not res.passed
    return 1 if failed else 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls.

    ``add_argument`` makes a formatter to check each metavar, and
    ``HelpFormatter`` reads the terminal width through ``shutil``, which
    loads ``bz2``, ``lzma``, ``zlib`` and ``fnmatch``.  So the parsers are
    built with a fixed-width formatter, and get ``HelpFormatter`` back at
    the end, for help and usage messages to follow the terminal."""
    fixed = partial(argparse.HelpFormatter, width=80)
    ap = argparse.ArgumentParser(
        prog="lrcommute", formatter_class=fixed,
        description="Littlewood-Richardson commutor toolkit: switching, "
                    "internal row insertion, LR coefficients, verification.")
    ap.add_argument("--format", choices=("json", "text"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)
    add_parser = partial(sub.add_parser, formatter_class=fixed)

    p = add_parser("commute", help="apply the LR commutor to a ballot pair")
    p.add_argument("input", help="skew tableau (JSON or grid), path or - for stdin")
    p.add_argument("--method", choices=tuple(METHODS), default="switching")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=cmd_commute)

    p = add_parser("insert", help="apply an internal insertion order word")
    p.add_argument("input", help="skew tableau (JSON or grid), path or - for stdin")
    p.add_argument("word", help="order word, e.g. 12121 or [1,2,1,2,1]")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=cmd_insert)

    p = add_parser("rsk", help="insertion and recording tableaux of a word")
    p.add_argument("word")
    p.set_defaults(fn=cmd_rsk)

    p = add_parser("lr-coeff", help="one Littlewood-Richardson coefficient")
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("nu")
    p.set_defaults(fn=cmd_lr_coeff)

    p = add_parser("schur-product", help="expand a product of Schur functions")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--max-rows", type=int, default=None)
    p.set_defaults(fn=cmd_schur_product)

    p = add_parser("verify", help="run exhaustive property sweeps")
    p.add_argument("--max-size", type=int, default=6)
    p.add_argument("--checks", default=None,
                   help="comma separated, from: " + ", ".join(CHECK_NAMES))
    p.set_defaults(fn=cmd_verify)

    p = add_parser("golden", help="replay the worked examples")
    p.add_argument("--only", default=None,
                   help="comma separated example ids, from: "
                        + ", ".join(EXAMPLE_IDS))
    p.set_defaults(fn=cmd_golden)
    for parser in (ap, *sub.choices.values()):
        parser.formatter_class = argparse.HelpFormatter
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
