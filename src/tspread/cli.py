"""Command-line front end.

Subcommands map one-to-one onto the library: ``enumerate`` (t-spread
monomials of one degree), ``betti`` (diagram and corners of an ideal),
``construct`` (the maximal-corner witness ideal), ``table`` (maximal corner
counts over a parameter grid) and ``validate`` (brute force against closed
forms).  This module writes every text and JSON document; the library
returns plain data.  Exit codes: 0 success, 1 a ``validate`` check that
disagrees, 2 argument error, 3 domain error (bad monomial, unstable ideal,
inapplicable parameters, an ideal file given with --gens, -n or -t), 4
partial results from an exhausted search budget.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys

from .betti import corners_from_table, graded_betti, proj_dim, regularity
from .construction import construct_extremal_ideal
from .errors import TSpreadError
from .ideals import SpreadIdeal, borel_ideal
from .monomials import (Context, format_monomial, parse_monomial, spread_count,
                        spread_monomials)
from .oracle import SearchBudget, cross_validate, regenerate_table

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_PARTIAL = 4


@contextlib.contextmanager
def _exact_digits():
    """Lift Python's cap on int-to-str digits (4,300 by default) while a
    command writes exact results; input stays capped, so argparse and
    ``json.loads`` of an ideal file still refuse oversized integers."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before Python 3.10.7: no cap
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _parse_range(text: str) -> tuple[int, int]:
    """Inclusive integer range ``a:b``; a bare ``a`` means ``a:a``.

    Raises ArgumentTypeError, whose message argparse prints after the
    subcommand's usage, as for :func:`_budget_field`.
    """
    parts = text.split(":")
    try:
        a, b = map(int, parts * 2 if len(parts) == 1 else parts)
    except ValueError:  # a non-integer, or three or more parts
        raise argparse.ArgumentTypeError(
            f"bad range {text!r}, expected integers a:b") from None
    if a > b:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return a, b


def _load_ideal(args) -> SpreadIdeal:
    if args.ideal_file:
        given = [opt for opt, value in (("--gens", args.gens), ("-n", args.n),
                                         ("-t", args.t)) if value is not None]
        if given:
            raise TSpreadError(f"an ideal file carries its own generators, n "
                               f"and t; drop {', '.join(given)}")
        with open(args.ideal_file, "rb") as fh:  # from_json rejects undecodable bytes
            ideal = SpreadIdeal.from_json(fh.read())
    else:
        if args.gens is None:
            raise TSpreadError("provide an ideal JSON file or --gens")
        if args.n is None or args.t is None:
            raise TSpreadError("--gens requires -n and -t")
        ctx = Context(args.n, args.t)
        gens = [parse_monomial(g) for g in args.gens.split(",") if g.strip()]
        ideal = SpreadIdeal.from_generators(ctx, gens)
    if args.borel:
        ideal = borel_ideal(ideal.all_generators(), ideal.ctx)
    return ideal


def cmd_enumerate(args) -> int:
    ctx = Context(args.n, args.t)
    if args.count:
        with _exact_digits():
            print(spread_count(ctx.n_vars, args.d, ctx.spread_t))
    elif args.format == "json":
        print(json.dumps(spread_monomials(ctx, args.d)))
    else:
        for u in spread_monomials(ctx, args.d):
            print(format_monomial(u))
    return EXIT_OK


def _corner_lines(corners) -> list[str]:
    if not corners.corners:
        return ["corners: none"]
    return [
        "corners: " + ", ".join(f"({k}, {l})" for k, l in corners.corners),
        "values: " + ", ".join(str(v) for v in corners.values),
    ]


def _diagram_lines(table) -> list[str]:
    """The Betti diagram of a nonempty table: a header row of k, then one
    row per degree l, with ``-`` for each zero inside the rectangle."""
    width = proj_dim(table) + 1
    cells = [[str(k) for k in range(width)]]
    cells += [[str(b) if b else "-" for b in row + [0] * (width - len(row))]
              for row in table.rows.values()]
    labels = [""] + [f"{l}:" for l in table.rows]
    col_w = [max(len(r[k]) for r in cells) for k in range(width)]
    lab_w = max(len(s) for s in labels)
    return [(label.ljust(lab_w) + "  " + "  ".join(
                s.rjust(col_w[k]) for k, s in enumerate(row))).rstrip()
            for label, row in zip(labels, cells)]


def _csv_lines(cells) -> list[str]:
    return ["t,n,ell1,value,provenance"] + [
        f"{c.t},{c.n},{c.ell1},{'-' if c.value is None else c.value},"
        f"{c.provenance}{' (partial)' if c.partial else ''}" for c in cells]


def _markdown_lines(cells) -> list[str]:
    """Rows labelled by l1, columns by n: a dash for a cell with no
    qualifying ideal, ``?`` for a partial cell whose search found no value
    yet, and ``+`` after a partial cell's lower bound."""
    ns = sorted({c.n for c in cells})
    grid = {(c.ell1, c.n): c for c in cells}
    header = ["l1 \\ n"] + [str(n) for n in ns]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for ell in sorted({c.ell1 for c in cells}):
        row = [str(ell)]
        for n in ns:
            c = grid[ell, n]  # regenerate_table fills the whole grid
            if c.value is None:
                row.append("?" if c.partial else "-")
            else:
                row.append(str(c.value) + ("+" if c.partial else ""))
        lines.append("| " + " | ".join(row) + " |")
    return lines


def cmd_betti(args) -> int:
    ideal = _load_ideal(args)
    table = graded_betti(ideal)
    corners = corners_from_table(table)
    with _exact_digits():
        if args.format == "json":
            payload = {
                "betti": {"rows": {str(l): row for l, row in table.rows.items()}},
                "corners": {"corners": corners.corners, "values": corners.values},
            }
            if not table.is_empty:
                payload["regularity"] = regularity(table)
                payload["proj_dim"] = proj_dim(table)
            print(json.dumps(payload))
        else:
            lines = _corner_lines(corners)
            if not table.is_empty:
                lines = _diagram_lines(table) + [""] + lines + [
                    f"regularity: {regularity(table)}",
                    f"projective dimension: {proj_dim(table)}"]
            print("\n".join(lines))
    return EXIT_OK


def cmd_construct(args) -> int:
    ideal, report = construct_extremal_ideal(args.n, args.t, args.l)
    if args.format == "json":
        head = json.dumps({
            "n": args.n, "t": args.t, "ell1": args.l,
            "d": report.decomp.d, "k": report.decomp.k, "j_max": report.j_max,
            "s": report.s, "nu_max": report.nu_max, "omegas": report.omegas,
            "corners": report.predicted_corners.corners, "total": report.total,
            "regime": report.regime, "critic_index": report.critic_index,
        })
        # written in pieces: the generators' text is not copied again
        print(head[:-1], ', "gens": ', ideal.generators_json(), "}", sep="")
        return EXIT_OK
    d, k = report.decomp.d, report.decomp.k
    note = " (small-k regime)" if report.regime == "small-k" else ""
    print(f"n={args.n} t={args.t} ell1={args.l}: n = {d} + {k}*{args.t}{note}")
    plural = "monomial" if report.total == 1 else "monomials"
    print(f"j_max={report.j_max} s={report.s} nu_max={report.nu_max}; "
          f"{report.total} {plural}, "
          + (f"critic at index {report.critic_index}" if report.critic_index
             else "no critic monomial"))
    for j, w in enumerate(report.omegas):
        print(f"omega_{j} = {format_monomial(w)}")
    for line in _corner_lines(report.predicted_corners):
        print(line)
    sizes = ", ".join(f"{len(ideal.gens[dd])} in degree {dd}"
                      for dd in sorted(ideal.gens))
    print(f"minimal generators: {sizes}")
    return EXIT_OK


def cmd_table(args) -> int:
    cells = regenerate_table(args.t, args.n, args.l, args.budget,
                             brute_force_upto=args.brute_force_upto)
    if args.format == "json":
        print(json.dumps([
            {"t": c.t, "n": c.n, "ell1": c.ell1, "value": c.value,
             "provenance": c.provenance, "partial": c.partial}
            for c in cells
        ]))
    else:
        lines = _csv_lines(cells) if args.format == "csv" else _markdown_lines(cells)
        print("\n".join(lines))
    return EXIT_PARTIAL if any(c.partial for c in cells) else EXIT_OK


def cmd_validate(args) -> int:
    report = cross_validate(args.n, args.t, args.l, args.budget)
    print("\n".join(json.dumps(r, sort_keys=True) for r in report.records))
    if not report.ok:
        return EXIT_DISAGREE
    if report.partial:
        return EXIT_PARTIAL
    return EXIT_OK


def _budget_field(name: str, convert):
    """An argparse type for one :class:`SearchBudget` field, which refuses
    the values the budget refuses, so the subcommand's usage is printed."""
    def parse(text: str):
        value = convert(text)
        try:
            SearchBudget(**{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def _budget_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-seconds", type=_budget_field("timeout", float),
                   default=None, help="wall-clock cap on each search")
    p.add_argument("--max-states", type=_budget_field("max_states", int),
                   default=SearchBudget.max_states,
                   help="cap on the work of each search (default %(default)s)")


def _range_parser(sub, name: str, **kwargs) -> argparse.ArgumentParser:
    """A subcommand parser whose ranges may start with a minus sign.

    argparse reads ``-3:1`` in ``--n -3:1`` as an option, since it is not a
    plain negative number.  These parsers read every argument that starts
    with ``-`` and a digit as a value, so ``--n -3:1`` and ``--n=-3:1``
    reach the same domain check.  ``_negative_number_matcher`` is private
    to argparse.
    """
    p = sub.add_parser(name, **kwargs)
    p._negative_number_matcher = re.compile(r"-\.?\d")
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared
    by every later one, so a process that calls :func:`main` many times
    builds it once.

    Sharing is safe because parsing keeps no state: ``parse_args`` returns
    a fresh namespace, and the ``type=`` callables are pure.  Callers must
    not change the parser.
    """
    parser = argparse.ArgumentParser(
        prog="tspread",
        description="t-spread strongly stable ideals: enumeration, Betti "
                    "numbers, extremal corners",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list M_{n,d,t} in slex order")
    p.add_argument("-n", type=int, required=True, help="number of variables")
    p.add_argument("-t", type=int, required=True, help="spread t")
    p.add_argument("-d", type=int, required=True, help="degree")
    p.add_argument("--count", action="store_true", help="print only the count")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("betti", help="Betti diagram and corners of an ideal")
    p.add_argument("ideal_file", nargs="?", help="ideal as JSON")
    p.add_argument("--gens", help='inline generators, e.g. "x1*x14,x2*x5*x14"')
    p.add_argument("-n", type=int, help="number of variables (with --gens)")
    p.add_argument("-t", type=int, help="spread t (with --gens)")
    p.add_argument("--borel", action="store_true",
                   help="take the Borel closure of the input generators first")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("construct", help="maximal-corner witness ideal")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-t", type=int, required=True)
    p.add_argument("-l", type=int, default=2, help="initial degree (default 2)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_construct)

    p = _range_parser(sub, "table", help="maximal corner counts over a grid")
    p.add_argument("-t", type=int, required=True)
    p.add_argument("--n", type=_parse_range, required=True, metavar="A:B")
    p.add_argument("--l", type=_parse_range, required=True, metavar="A:B")
    p.add_argument("--brute-force-upto", type=int, default=0, metavar="N",
                   help="verify cells with n <= N by exhaustive enumeration")
    _budget_arguments(p)
    p.add_argument("--format", choices=["text", "json", "markdown", "csv"],
                   default="text",
                   help="text and markdown print the same Markdown grid")
    p.set_defaults(func=cmd_table)

    p = _range_parser(sub, "validate", help="cross-validate oracle vs formulas")
    p.add_argument("--n", type=_parse_range, required=True, metavar="A:B")
    p.add_argument("--t", type=_parse_range, required=True, metavar="A:B")
    p.add_argument("--l", type=_parse_range, required=True, metavar="A:B")
    _budget_arguments(p)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)  # argparse exits 2 on bad arguments
    if hasattr(args, "max_states"):
        args.budget = SearchBudget(args.max_states, args.budget_seconds)
    try:
        return args.func(args)
    except TSpreadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
