"""Command-line front end: one subcommand per capability, CSV reports.

Codes come from plain key=value spec files (see ``parse_code_spec``);
words and polynomials are comma-separated canonical element codes.  All
enumeration orders are fixed and scans run in one process, so identical
inputs give byte-identical output at any ``--jobs`` count.  Exit status:
0 success, 1 domain error (message on stderr), 2 usage error, 3 internal
error (a broken invariant such as "no multiplicative generator found";
``internal error: <message>`` on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys

from .code import (DEFAULT_ORACLE_CAP, METRICS, dist_to_code_exhaustive,
                   load_code_spec, min_distance)
from .deephole import (DEFAULT_CLASS_SCAN_CAP, DEFAULT_SUBSPACE_CAP,
                       FAMILY_KINDS, _witness_codes, covering_radius_scan,
                       distance_by_search, family_check, quadric_census)
from .linpoly import LinPoly


def _parse_codes(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"malformed code list {text!r}; expected comma-separated integers") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _out(args):
    if args.out:
        return open(args.out, "w", encoding="utf-8", newline="")
    return contextlib.nullcontext(sys.stdout)


def _emit(args, text: str) -> None:
    with _out(args) as fh:
        fh.write(text)


def _emit_csv(args, header: list[str], rows) -> None:
    with _out(args) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _word(args, code):
    return code.word(_parse_codes(args.word))


def _witness_str(wit) -> str:
    codes = _witness_codes(wit)
    return "" if codes is None else ",".join(str(c) for c in codes)


# -- subcommand bodies -------------------------------------------------------


def _cmd_field(args) -> int:
    code = load_code_spec(args.spec)
    ctx = code.ctx
    lines = [
        f"p={ctx.p}",
        f"s={ctx.s}",
        f"m={ctx.m}",
        f"q={ctx.q}",
        f"order={ctx.order}",
        "modulus=" + ",".join(str(c) for c in ctx.modulus),
        f"n={code.n}",
        f"k={code.k}",
        "g=" + ",".join(str(c) for c in code.span.codes),
    ]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_encode(args) -> int:
    code = load_code_spec(args.spec)
    msg = LinPoly(code.ctx, _parse_codes(args.poly))
    word = code.encode(msg)
    _emit(args, ",".join(str(c) for c in word.codes) + "\n")
    return 0


def _cmd_dist(args) -> int:
    code = load_code_spec(args.spec)
    w = _word(args, code)
    d, msg = dist_to_code_exhaustive(code, w, args.metric, oracle_cap=args.cap)
    padded = list(msg.codes) + [0] * (code.k - len(msg.codes))
    _emit(args, f"distance={d} witness={','.join(str(c) for c in padded)}\n")
    return 0


def _cmd_search(args) -> int:
    """``search`` and ``classify``; the latter omits the bound and witness."""
    code = load_code_spec(args.spec)
    res = distance_by_search(code, _word(args, code), args.metric, subspace_cap=args.cap)
    if args.command == "search":
        _emit(args, f"distance={res.distance} bound={res.bound} "
                    f"deep_hole={_bool(res.is_deep_hole)} witness={_witness_str(res.witness)}\n")
    else:
        _emit(args, f"distance={res.distance} deep_hole={_bool(res.is_deep_hole)}\n")
    return 0


def _cmd_mindist(args) -> int:
    code = load_code_spec(args.spec)
    _emit(args, f"{min_distance(code, args.metric, oracle_cap=args.cap)}\n")
    return 0


def _cmd_radius(args) -> int:
    code = load_code_spec(args.spec)
    scan = covering_radius_scan(code, args.metric, scan_cap=args.cap)
    _emit(args, f"{scan.radius}\n")
    return 0


def _cmd_census(args) -> int:
    """One CSV row per class.  A sieve hit's witness stands for many rows,
    so each witness string is rendered once, keyed by its codes."""
    code = load_code_spec(args.spec)
    scan = covering_radius_scan(code, args.metric, scan_cap=args.cap)
    witness_strs = {None: ""}

    def witness_str(wit):
        text = witness_strs.get(wit)
        if text is None:
            text = witness_strs[wit] = ",".join(map(str, wit))
        return text

    _emit_csv(args, ["class_id", "coeffs", "metric", "distance", "is_deep_hole", "witness"],
              ((idx, ",".join(map(str, coeffs)), args.metric, dist, _bool(deep),
                witness_str(wit))
               for idx, coeffs, dist, deep, wit in scan.rows()))
    return 0


def _cmd_family(args) -> int:
    code = load_code_spec(args.spec)
    low = None if args.low is None else LinPoly(code.ctx, _parse_codes(args.low))
    verdict = family_check(code, args.kind, a=args.a, b=args.b, c=args.c, low=low,
                           metric=args.metric, subspace_cap=args.cap)
    parts = [f"{key}=" + (",".join(str(v) for v in val) if isinstance(val, (list, tuple))
                          else str(val)) for key, val in verdict.params.items()]
    observed = "deep_hole" if verdict.observed.is_deep_hole else "not_deep_hole"
    _emit_csv(args, ["family", "params", "predicted", "observed", "agree"],
              [[verdict.kind, ";".join(parts), verdict.predicted, observed,
                _bool(verdict.agree)]])
    return 0


def _cmd_quadric(args) -> int:
    code = load_code_spec(args.spec)
    census = quadric_census(code.ctx, args.b, materialize=args.solutions, cap=args.cap)
    lines = [str(census.count)]
    if args.solutions:
        lines.extend(f"{c1.code},{c2.code}" for c1, c2 in census.solutions)
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_selftest(args) -> int:
    from . import acceptance  # only this command needs it

    results = acceptance.run_all(numbers=args.numbers or None, seed=args.seed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"criterion {r.number}: {status} - {r.title}: {r.detail}")
    return 0 if all(r.passed for r in results) else 1


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gab",
        description="distance and deep-hole laboratory for rank-metric evaluation codes")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, *, metric=False, word=False, poly=False,
            cap=None, jobs=False):
        """A subcommand with --spec and --out; ``cap`` is the default of
        its --cap, None for a command with no enumeration guard."""
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=fn)
        p.add_argument("--spec", required=True, help="path to the code spec file")
        if metric:
            p.add_argument("--metric", choices=METRICS, default="rank")
        if word:
            p.add_argument("--word", required=True,
                           help="comma-separated element codes, one per point")
        if poly:
            p.add_argument("--poly", required=True,
                           help="comma-separated coefficient codes, degree 0 first")
        if cap is not None:
            p.add_argument("--cap", type=_positive_int, default=cap,
                           help="enumeration cap (default: %(default)s)")
        if jobs:
            p.add_argument("--jobs", type=_positive_int, default=1,
                           help="validated only: scans run in one process")
        p.add_argument("--out", default=None, help="write output to a file")
        return p

    add("field", _cmd_field, "print the field and code parameters")
    add("encode", _cmd_encode, "evaluate a message polynomial at the points", poly=True)
    add("dist", _cmd_dist, "exhaustive distance of a word to the code",
        metric=True, word=True, cap=DEFAULT_ORACLE_CAP)
    add("search", _cmd_search, "distance by the ascending witness search",
        metric=True, word=True, cap=DEFAULT_SUBSPACE_CAP)
    add("classify", _cmd_search, "deep-hole status of a word",
        metric=True, word=True, cap=DEFAULT_SUBSPACE_CAP)
    add("mindist", _cmd_mindist, "exhaustive minimum distance",
        metric=True, cap=DEFAULT_ORACLE_CAP)
    add("radius", _cmd_radius, "covering radius by the class scan",
        metric=True, cap=DEFAULT_CLASS_SCAN_CAP, jobs=True)
    add("census", _cmd_census, "CSV of every translation class",
        metric=True, cap=DEFAULT_CLASS_SCAN_CAP, jobs=True)
    fam = add("family", _cmd_family, "build and verify one structured-family word",
              metric=True, cap=DEFAULT_SUBSPACE_CAP)
    fam.add_argument("kind", choices=FAMILY_KINDS)
    fam.add_argument("--a", type=int, default=None, help="leading parameter code")
    fam.add_argument("--b", type=int, default=None, help="quartic middle coefficient code")
    fam.add_argument("--c", type=int, default=None, help="linear coefficient code")
    fam.add_argument("--low", default=None,
                     help="low-part coefficient codes, degree 0 first")
    quad = add("quadric", _cmd_quadric, "census of x1^2+x1x2+x2^2 = b over the field",
               cap=DEFAULT_CLASS_SCAN_CAP)
    quad.add_argument("--b", type=int, required=True, help="right-hand side code")
    quad.add_argument("--solutions", action="store_true",
                      help="also list the distinct-coordinate pairs")
    st = sub.add_parser("selftest", help="run the built-in verification suite")
    st.set_defaults(func=_cmd_selftest)
    st.add_argument("numbers", nargs="*", type=int,
                    help="criterion numbers to run (default: all)")
    st.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
