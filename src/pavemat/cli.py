"""Command-line surface: family construction, component listing, counting,
reference-table checks, file validation, and exports.

Exit codes: 0 success, 1 validation or computation failure, 2 usage error,
141 when the reader of stdout closed it early.
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


# Options as add_argument's arguments.
_INT = {"type": int, "required": True}
_GRID = (("--k", _INT), ("--l", _INT))
_LINES = (("--n", _INT),)
_FILE = ("--file", {"required": True})
_LEVEL = ("--n", {"type": int, "default": None, "help": "override the level stored in the file"})
_TEXT_OR_JSON = ("--format", {"choices": ("text", "json"), "default": "text"})
_TEXT_OR_CSV = ("--format", {"choices": ("text", "csv"), "default": "text"})
_BUDGET = (
    "--budget",
    {"type": int, "default": None, "help": f"enumeration budget override (env {BUDGET_ENV})"},
)

# Each command's help, handler, options and families. A command with families
# takes its family as a second argument; each family's parser holds the
# family's own options and then the command's.
_COMMANDS: dict[str, tuple] = {
    "matroid": (
        "construct a family matroid and print it",
        _cmd_matroid,
        (("--circuits", {"action": "store_true", "help": "print the full circuit list"}), _TEXT_OR_JSON),
        {"grid": _GRID, "lines": _LINES, "quasi": (_FILE, _LEVEL)},
    ),
    "decompose": (
        "list or count the components of a family",
        _cmd_decompose,
        (
            ("--list", {"action": "store_true", "help": "emit every component, not just the count"}),
            ("--circuits", {"action": "store_true", "help": "inline circuit lists in JSON output"}),
            _TEXT_OR_JSON,
            _BUDGET,
        ),
        {"grid": _GRID, "lines": _LINES},
    ),
    "count": (
        "count components by one method",
        _cmd_count,
        (("--method", {"choices": ("enumerate", "formula", "egf"), "default": "enumerate"}), _TEXT_OR_CSV),
        {"grid": _GRID, "lines": _LINES},
    ),
    "tables": ("recompute the reference tables and report PASS/FAIL", _cmd_tables, (_TEXT_OR_CSV,), None),
    "validate": ("check the circuit axioms of a matroid JSON file", _cmd_validate, (_FILE,), None),
    "ci-generators": (
        "export determinantal generators as CSV 'A;B' lines",
        _cmd_generators,
        _GRID + (("--s", _INT), ("--t", _INT), ("--n", _INT), ("--out", {"default": None})),
        None,
    ),
    "decompose-to-tame": (
        "peel a hypergraph file down to its tame paving core",
        _cmd_decompose_to_tame,
        (_FILE, _LEVEL, _TEXT_OR_JSON),
        None,
    ),
}
# How the full tree lists the commands in its usage line.
_COMMAND_CHOICES = "{" + ",".join(_COMMANDS) + "}"


def _add_options(parser: argparse.ArgumentParser, options: tuple) -> None:
    for flag, kwargs in options:
        parser.add_argument(flag, **kwargs)


def build_parser(argv: Optional[Sequence[str]] = None) -> argparse.ArgumentParser:
    """The parser for argv (sys.argv[1:] when None), holding only what
    parsing argv visits.

    When argv[0] names a command, only that command is registered, with all
    of its families, and only the family argv[1] names gets its options (all
    of them do when argv[1] names none). Any other argv gets the whole tree.
    Both read the same on every usage line and error message.
    """
    argv = sys.argv[1:] if argv is None else argv
    selected = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = argparse.ArgumentParser(
        prog="pavemat",
        description="exact constructions, decompositions, and counts for grid and line matroid families",
    )
    # With one command registered, the metavar keeps all seven in the usage
    # line, as the full tree writes it. It would also rename the "required:
    # command" error, but only the full tree, built for an empty argv, raises it.
    sub = parser.add_subparsers(
        dest="command", required=True, metavar=_COMMAND_CHOICES if selected else None
    )
    for name in (selected,) if selected else _COMMANDS:
        help_text, run, options, families = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=run)
        if families is None:
            _add_options(p, options)
            continue
        family_sub = p.add_subparsers(dest="family", required=True)
        family = argv[1] if selected and len(argv) > 1 and argv[1] in families else None
        for family_name, own in families.items():
            f = family_sub.add_parser(family_name)
            if family in (None, family_name):
                _add_options(f, own + options)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        try:
            args = build_parser(argv).parse_args(argv)
        except SystemExit as exc:  # after help or a usage error
            code = int(exc.code) if exc.code else 0
        else:
            code = args.func(args)
        sys.stdout.flush()  # so that a reader gone before the last write shows here
        return code
    except MatroidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout, as `| head` does: stop quietly, and point
        # stdout at devnull so that the interpreter's final flush stays quiet.
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        except OSError:  # stdout has no file descriptor
            pass
        return 141  # 128 + SIGPIPE, as a shell reports for a writer killed by it
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
