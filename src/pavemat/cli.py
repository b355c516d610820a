"""Command-line surface: family construction, component listing, counting,
reference-table checks, file validation, and exports.

Exit codes: 0 success, 1 validation or computation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import counting, decomposition, io
from .bitset import remap
from .errors import MatroidError
from .families import ci_ideal_generators, grid_matroid, line_matroid
from .quasi import decompose_to_tame, paving_to_matroid, quasi_matroid

# Reference counts independently reproduced by all three counting routes.
EXPECTED_GRID_COUNTS: dict[tuple[int, int], int] = {
    (4, 4): 2,
    (4, 5): 22,
    (5, 5): 127,
    (4, 6): 86,
    (5, 6): 417,
}
EXPECTED_LINE_COUNTS: dict[int, int] = {4: 2, 5: 2, 6: 17, 7: 58, 8: 191}

BUDGET_ENV = "PAVEMAT_ENUM_BUDGET"


class CliError(Exception):
    """Bad input met while running a command; exits with the given code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _budget(args: argparse.Namespace, default: int) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get(BUDGET_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"{BUDGET_ENV} must be an integer, got {env!r}", 2) from None
    return default


def _load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # malformed JSON or bytes that are not text
            raise CliError(f"{path}: {exc}", 1) from None


def _print_json(obj: dict) -> None:
    """obj as indented JSON and a newline, written piece by piece."""
    write = sys.stdout.write
    for piece in io.json_pieces(obj):
        write(piece)
    write("\n")


def _print_rows(masks) -> None:
    """One line per mask: two spaces, then its 1-based labels separated by spaces."""
    write = sys.stdout.write
    for piece in io.label_pieces(masks, "  ", " ", "\n"):
        write(piece)


def _cmd_matroid(args: argparse.Namespace) -> int:
    if args.family == "grid":
        paving = grid_matroid(args.k, args.l)
        m = paving_to_matroid(paving)
        hyps = paving.hyperplanes
    elif args.family == "lines":
        paving = line_matroid(args.n)
        m = paving_to_matroid(paving)
        hyps = paving.hyperplanes
    else:
        rep = io.quasi_from_dict(_load_json(args.file), n_override=args.n)
        m = quasi_matroid(rep)
        hyps = rep.members
    if args.format == "json":
        obj = io.matroid_to_dict(m, include_circuits=args.circuits)
        obj["hyperplanes"] = io.MaskRows(hyps)
        _print_json(obj)
        return 0
    print(f"ground size: {m.d}")
    print(f"rank: {m.rank_value}")
    print(f"hyperplanes ({len(hyps)}):")
    _print_rows(hyps)
    if args.circuits:
        circuits = m.circuits()
        print(f"circuits ({len(circuits)}):")
        _print_rows(circuits)
    else:
        hist = m.circuit_count_by_size()
        parts = ", ".join(f"{count} of size {size}" for size, count in sorted(hist.items()))
        print(f"circuits: {parts if parts else 'none'}")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    # counting only walks the codes, as count --method enumerate does, so it
    # takes that route's budget; listing also classifies each component
    if args.family == "grid":
        default = decomposition.GRID_ENUM_BUDGET if args.list else counting.GRID_COUNT_BUDGET
        size = (args.k, args.l)
        listing, decompose = decomposition.grid_listing, decomposition.decompose_grid
    else:
        default = decomposition.LINE_ENUM_BUDGET if args.list else counting.LINE_COUNT_BUDGET
        size = (args.n,)
        listing, decompose = decomposition.line_listing, decomposition.decompose_lines
    budget = _budget(args, default)
    if not args.list:
        print(sum(1 for _ in listing(*size, budget=budget)))
        return 0
    result = decompose(*size, budget=budget)
    if args.format == "text":
        print(f"{len(result.components)} components")
        for rep in result.components:
            blocks = [
                "{" + ",".join(result.hyperplane_labels[i] for i in block) + "}"
                for block in rep.blocks
            ]
            kind = rep.classification.kind
            if rep.classification.uniform_params:
                r, d = rep.classification.uniform_params
                kind = f"uniform({r},{d})"
            print("  " + " ".join(blocks) + f"  ->  {kind}")
    else:
        _print_json(io.decomposition_to_dict(result, include_circuits=args.circuits))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    if args.family == "grid":
        value = counting.grid_component_count(args.k, args.l, args.method)
        if args.format == "csv":
            print("k,l,c")
            print(f"{args.k},{args.l},{value}")
            return 0
    else:
        value = counting.line_component_count(args.n, args.method)
        if args.format == "csv":
            print("n,c")
            print(f"{args.n},{value}")
            return 0
    print(value)
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    ok = True
    rows = []
    for (k, l), expected in sorted(EXPECTED_GRID_COUNTS.items()):
        values = {m: counting.grid_component_count(k, l, m) for m in ("enumerate", "formula", "egf")}
        passed = all(v == expected for v in values.values())
        ok = ok and passed
        rows.append((f"grid ({k},{l})", expected, values, passed))
    for n, expected in sorted(EXPECTED_LINE_COUNTS.items()):
        methods = ("enumerate",) if n < counting.LINE_FORMULA_MIN else ("enumerate", "formula", "egf")
        values = {m: counting.line_component_count(n, m) for m in methods}
        passed = all(v == expected for v in values.values())
        ok = ok and passed
        rows.append((f"lines n={n}", expected, values, passed))
    if args.format == "csv":
        print("case,expected,computed,status")
        for name, expected, values, passed in rows:
            computed = ";".join(f"{m}={v}" for m, v in values.items())
            print(f"{name},{expected},{computed},{'PASS' if passed else 'FAIL'}")
    else:
        for name, expected, values, passed in rows:
            computed = " ".join(f"{m}={v}" for m, v in values.items())
            print(f"{name}: expected {expected} {computed}  {'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    obj = _load_json(args.file)
    try:
        m = io.matroid_from_dict(obj, validate=True)
    except MatroidError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    print(f"valid matroid: d={m.d} rank={m.rank_value} circuits={len(m.circuits())}")
    return 0


def _cmd_generators(args: argparse.Namespace) -> int:
    gens = ci_ideal_generators(args.k, args.l, args.s, args.t, args.n)
    text = io.generators_to_csv(gens)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {len(gens)} generators to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_decompose_to_tame(args: argparse.Namespace) -> int:
    rep = io.quasi_from_dict(_load_json(args.file), n_override=args.n)
    dec = decompose_to_tame(rep)
    core_hyps = [remap(h, dec.core_elements) for h in dec.core.hyperplanes]
    if args.format == "json":
        _print_json(
            {
                "steps": [
                    {
                        "element": s.element + 1,
                        "flat": io.mask_to_labels(s.flat),
                        "member_pair": [s.source_pair[0] + 1, s.source_pair[1] + 1],
                    }
                    for s in dec.steps
                ],
                "core": {
                    "elements": [e + 1 for e in dec.core_elements],
                    "d": dec.core.d,
                    "n": dec.core.n,
                    "hyperplanes": io.MaskRows(core_hyps),
                },
            }
        )
        return 0
    print(f"extension steps ({len(dec.steps)}):")
    for s in dec.steps:
        flat = " ".join(str(x) for x in io.mask_to_labels(s.flat))
        print(f"  element {s.element + 1} over flat {{{flat}}}")
    print(f"core on elements {[e + 1 for e in dec.core_elements]}:")
    _print_rows(core_hyps)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pavemat",
        description="exact constructions, decompositions, and counts for grid and line matroid families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mat = sub.add_parser("matroid", help="construct a family matroid and print it")
    mat_sub = p_mat.add_subparsers(dest="family", required=True)
    m_grid = mat_sub.add_parser("grid")
    m_grid.add_argument("--k", type=int, required=True)
    m_grid.add_argument("--l", type=int, required=True)
    m_lines = mat_sub.add_parser("lines")
    m_lines.add_argument("--n", type=int, required=True)
    m_quasi = mat_sub.add_parser("quasi")
    m_quasi.add_argument("--file", required=True)
    m_quasi.add_argument("--n", type=int, default=None, help="override the level stored in the file")
    for p in (m_grid, m_lines, m_quasi):
        p.add_argument("--circuits", action="store_true", help="print the full circuit list")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=_cmd_matroid)

    p_dec = sub.add_parser("decompose", help="list or count the components of a family")
    dec_sub = p_dec.add_subparsers(dest="family", required=True)
    d_grid = dec_sub.add_parser("grid")
    d_grid.add_argument("--k", type=int, required=True)
    d_grid.add_argument("--l", type=int, required=True)
    d_lines = dec_sub.add_parser("lines")
    d_lines.add_argument("--n", type=int, required=True)
    for p in (d_grid, d_lines):
        p.add_argument("--list", action="store_true", help="emit every component, not just the count")
        p.add_argument("--circuits", action="store_true", help="inline circuit lists in JSON output")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--budget", type=int, default=None, help=f"enumeration budget override (env {BUDGET_ENV})")
        p.set_defaults(func=_cmd_decompose)

    p_count = sub.add_parser("count", help="count components by one method")
    count_sub = p_count.add_subparsers(dest="family", required=True)
    c_grid = count_sub.add_parser("grid")
    c_grid.add_argument("--k", type=int, required=True)
    c_grid.add_argument("--l", type=int, required=True)
    c_lines = count_sub.add_parser("lines")
    c_lines.add_argument("--n", type=int, required=True)
    for p in (c_grid, c_lines):
        p.add_argument("--method", choices=("enumerate", "formula", "egf"), default="enumerate")
        p.add_argument("--format", choices=("text", "csv"), default="text")
        p.set_defaults(func=_cmd_count)

    p_tables = sub.add_parser("tables", help="recompute the reference tables and report PASS/FAIL")
    p_tables.add_argument("--format", choices=("text", "csv"), default="text")
    p_tables.set_defaults(func=_cmd_tables)

    p_val = sub.add_parser("validate", help="check the circuit axioms of a matroid JSON file")
    p_val.add_argument("--file", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_gen = sub.add_parser("ci-generators", help="export determinantal generators as CSV 'A;B' lines")
    for flag in ("--k", "--l", "--s", "--t", "--n"):
        p_gen.add_argument(flag, type=int, required=True)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=_cmd_generators)

    p_dtt = sub.add_parser(
        "decompose-to-tame", help="peel a hypergraph file down to its tame paving core"
    )
    p_dtt.add_argument("--file", required=True)
    p_dtt.add_argument("--n", type=int, default=None, help="override the level stored in the file")
    p_dtt.add_argument("--format", choices=("text", "json"), default="text")
    p_dtt.set_defaults(func=_cmd_decompose_to_tame)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except MatroidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
