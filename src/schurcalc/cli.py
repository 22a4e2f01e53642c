"""Command-line interface.

JSON on stdout by default (--pretty for plain text).  Exit codes: 0 on
success, 1 when a certification comes out NOT_NONNEGATIVE (so pipelines
can gate on positivity), 2 on usage or parse errors.  Output is
byte-deterministic: every ordering is fixed.

Each command imports the modules it runs when it starts, so a fresh
process loads and compiles no module that its command does not call.  The
front end is no exception: COMMANDS describes every command once.
read_argv reads the canonical form `[--pretty] [--input FILE] COMMAND
[--opt VALUE ...] [POSITIONAL ...]` from it into the namespace argparse
would build, and to_json writes the bytes json.dumps would write, so a
computing command loads neither argparse nor json.  Every other argv (help,
abbreviations, `--opt=value`, `--`, usage errors) goes to the argparse
parser that build_parser makes from the same table, so help texts and
usage errors stay argparse's own.

The Pieri layer (partitions, schur, rings) imports the polynomial and
Q-tilde layers only in the functions that build c-polynomials, so lr loads
cli, partitions and schur, and gr/lg pairing, dual and restrict load rings
besides; README.md lists what every command loads.

run(), the entry point of `python -m schurcalc` and of the console script,
ends the process with os._exit once main() has returned and stdout and
stderr are flushed.  Freeing the modules and memos of a finished command
costs more than many commands compute, and no output needs it.  main()
itself returns its exit code and never exits, so it can be called in-process.
"""

import os
import sys

# The command line, described once.  command -> (help, options, positionals);
# an option is (flag, dest, type, choices, required, metavar) and a positional
# (dest, choices, optional).  build_parser() turns it into argparse parsers and
# read_argv() reads the canonical form from it.
_LENGTH_BOUND = ("--length-bound", "length_bound", int, None, False, None)
_R = ("--r", "r", int, None, True, None)
_N = ("--n", "n", int, None, True, None)
_ARG = ("arg", None, True)
COMMANDS = {
    "to-schur": ("expand an expression in the Schur basis",
                 (_LENGTH_BOUND,), (("expr", None, True),)),
    "certify": ("Schur-positivity certificate",
                (_LENGTH_BOUND,), (("expr", None, True),)),
    "lr": ("Littlewood-Richardson product s_lam * s_mu",
           (), (("lam", None, False), ("mu", None, False))),
    "qtilde": ("Q-tilde polynomial of a partition", (), (("mu", None, False),)),
    "gr": ("Grassmannian cohomology ring operations", (_R, _N),
           (("action", ("reduce", "integrate", "dual", "pairing"), False), _ARG)),
    "lg": ("Lagrangian Grassmannian ring operations", (_N,),
           (("action", ("reduce", "integrate", "dual", "restrict", "pairing"), False), _ARG)),
    "thom-verify": ("verify a built-in positivity table",
                    (("--table", "table", None, ("classical", "lagrangian", "legendrian"),
                      True, None),), ()),
    "schur-bundle": ("Schur class of a Schur bundle in the Schur basis",
                     (("--rank", "rank", int, None, True, None),
                      ("--functor", "functor", None, None, True, "LAMBDA"),
                      ("--class", "class_", None, None, True, "MU")), ()),
}


def build_parser():
    """The argparse parser of COMMANDS: help, usage errors and every
    spelling that read_argv does not take."""
    import argparse

    top = argparse.ArgumentParser(
        prog="schurcalc",
        description="Exact Schur/Q-tilde calculus with positivity certification",
    )
    top.add_argument("--pretty", action="store_true",
                     help="plain-text output instead of JSON")
    top.add_argument("--input", metavar="FILE",
                     help="read the expression argument from FILE")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, options, positionals) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        # options first: argparse lists missing required arguments in this order
        for flag, dest, kind, choices, required, metavar in options:
            p.add_argument(flag, dest=dest, type=kind, choices=choices,
                           required=required, metavar=metavar)
        for dest, choices, optional in positionals:
            p.add_argument(dest, choices=choices, nargs="?" if optional else None)
    return top


class Arguments:
    """The namespace read_argv returns; its vars() equal argparse's."""

    def __init__(self, values: dict):
        self.__dict__.update(values)


def read_argv(argv) -> Arguments | None:
    """argparse's namespace for argv in the canonical form
    `[--pretty] [--input FILE] COMMAND [--opt VALUE ...] [POSITIONAL ...]`,
    each value checked as argparse checks it; None for any other argv (help,
    abbreviations, --opt=value, --, a value starting with -, a repeated
    option, a missing or surplus argument, a bad value)."""
    values = {"pretty": False, "input": None}
    rest = list(argv)
    while rest and rest[0] in ("--pretty", "--input"):
        flag = rest.pop(0)
        if flag == "--pretty" and not values["pretty"]:
            values["pretty"] = True
        elif flag == "--input" and values["input"] is None and rest \
                and not rest[0].startswith("-"):
            values["input"] = rest.pop(0)
        else:
            return None
    if not rest or rest[0] not in COMMANDS:
        return None
    values["command"] = rest[0]
    _, options, positionals = COMMANDS[rest.pop(0)]
    unread = {}
    for option in options:
        unread[option[0]] = option
        values[option[1]] = None
    while rest and rest[0].startswith("-"):
        option = unread.pop(rest[0], None)
        if option is None or len(rest) < 2 or rest[1].startswith("-"):
            return None
        _, dest, kind, choices, _, _ = option
        value = rest[1]
        del rest[:2]
        if kind is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    for option in unread.values():
        if option[4]:  # a required option is missing
            return None
    for dest, choices, optional in positionals:
        if not rest:
            if not optional:
                return None
            values[dest] = None
            continue
        value = rest.pop(0)
        if value.startswith("-") or choices is not None and value not in choices:
            return None
        values[dest] = value
    if rest:
        return None
    return Arguments(values)


def _expression_text(args, value: str | None) -> str:
    if value is not None:
        return value
    if args.input:
        with open(args.input, "r", encoding="utf-8") as handle:
            return handle.read().strip()
    raise ValueError("an expression is required (positional or via --input)")


def _emit(payload, pretty: bool) -> None:
    if sys.stdout is None:  # the process started with its stdout closed
        raise OSError("standard output is closed")
    sys.stdout.write((_render(payload, 0) if pretty else to_json(payload)) + "\n")


_JSON_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
                 "\b": "\\b", "\f": "\\f"}


def to_json(value) -> str:
    """json.dumps(value, separators=(",", ":")), byte for byte, for values
    built of dict (str keys), list, tuple, str, int, bool and None, each of
    exactly that type; TypeError on any other."""
    kind = type(value)
    if kind is str:
        return _json_string(value)
    if kind is dict:
        return "{" + ",".join([f"{_json_key(k)}:{to_json(v)}" for k, v in value.items()]) + "}"
    if kind is list or kind is tuple:
        if all(type(v) is int for v in value):  # partitions and matrix rows
            return "[" + ",".join(map(repr, value)) + "]"
        return "[" + ",".join(map(to_json, value)) + "]"
    if kind is int:
        return repr(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_key(key) -> str:
    if type(key) is not str:
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _json_string(key)


def _json_string(text: str) -> str:
    """text as json's ensure_ascii writes it: short escapes, \\u00XX for the
    other controls and DEL, \\uXXXX past ASCII, surrogate pairs past the BMP."""
    if text.isascii() and text.isprintable():
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
    out = []
    for ch in text:
        code = ord(ch)
        if ch in _JSON_ESCAPES:
            out.append(_JSON_ESCAPES[ch])
        elif 0x20 <= code < 0x7F:
            out.append(ch)
        elif code < 0x10000:
            out.append(f"\\u{code:04x}")
        else:
            code -= 0x10000
            out.append(f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}")
    return '"' + "".join(out) + '"'


def _render(value, depth: int) -> str:
    pad = "  " * depth
    if isinstance(value, dict):
        lines = []
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.append(_render(v, depth + 1))
            else:
                lines.append(f"{pad}{k}: {_render_scalar(v)}")
        return "\n".join(lines)
    if isinstance(value, list):
        lines = []
        for item in value:
            if isinstance(item, (dict, list)) and item:
                body = _render(item, depth + 1)
                lines.append(f"{pad}-\n{body}")
            else:
                lines.append(f"{pad}- {_render_scalar(item)}")
        return "\n".join(lines)
    return f"{pad}{_render_scalar(value)}"


def _render_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, dict):
        return "{}"
    if isinstance(value, list):
        return "[]"
    return str(value)


def _expansion_payload(expansion) -> dict:
    return {"degree": expansion.degree, "expansion": expansion.to_json()}


def _pairing_payload(ring) -> dict:
    ring.check_pairing_budget()
    degrees = []
    for d in range(ring.top_degree + 1):
        rows, cols, matrix = ring.pairing_matrix(d)
        degrees.append({
            "degree": d,
            "rows": [list(p.parts) for p in rows],
            "cols": [list(p.parts) for p in cols],
            "matrix": matrix,
            "is_dual_permutation": ring.is_dual_permutation(rows, cols, matrix),
        })
    ok = all(block["is_dual_permutation"] for block in degrees)
    return {"ring": ring.label, "degrees": degrees, "is_dual_permutation": ok}


def _run_command(args) -> int:
    pretty = args.pretty

    if args.command == "to-schur":
        from .schur import to_schur

        expansion = to_schur(_schur_input(args), length_bound=args.length_bound)
        _emit(_expansion_payload(expansion), pretty)
        return 0

    if args.command == "certify":
        from .positivity import certify

        poly = _schur_input(args)
        report = certify(poly, length_bound=args.length_bound)
        _emit(report.to_json(), pretty)
        return 0 if report.nonnegative else 1

    if args.command == "lr":
        from .partitions import parse_partition_arg
        from .schur import lr_multiply

        lam = parse_partition_arg(args.lam)
        mu = parse_partition_arg(args.mu)
        _emit(_expansion_payload(lr_multiply(lam, mu)), pretty)
        return 0

    if args.command == "qtilde":
        from .partitions import parse_partition_arg
        from .qtilde import qtilde

        mu = parse_partition_arg(args.mu)
        poly = qtilde(mu)
        _emit({"partition": list(mu.parts), "degree": mu.weight,
               "polynomial": str(poly)}, pretty)
        return 0

    if args.command in ("gr", "lg"):
        return _ring_command(args, pretty)

    if args.command == "thom-verify":
        return _thom_verify(args.table, pretty)

    if args.command == "schur-bundle":
        from .partitions import parse_partition_arg
        from .positivity import schur_bundle_class

        lam = parse_partition_arg(args.functor)
        mu = parse_partition_arg(args.class_)
        expansion = schur_bundle_class(lam, mu, args.rank)
        _emit(_expansion_payload(expansion), pretty)
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def _schur_input(args):
    """The expression of to-schur or certify, evaluated once its length
    bound and the output size of its degree (read as in _ring_command) pass."""
    from .parsing import evaluate_text, expression_degree, parse
    from .partitions import check_term_budget

    if args.length_bound is not None and args.length_bound < 0:
        raise ValueError(f"length bound must be nonnegative, got {args.length_bound}")
    text = _expression_text(args, args.expr)
    check_term_budget(expression_degree(parse(text)))
    return evaluate_text(text)


def _ring_command(args, pretty: bool) -> int:
    from .partitions import StrictPartition, number_text, parse_partition_arg
    from .rings import GrassmannianRing, LagrangianRing

    if args.command == "gr":
        ring = GrassmannianRing(args.r, args.n)
    else:
        ring = LagrangianRing(args.n)
    if args.action == "pairing":
        _emit(_pairing_payload(ring), pretty)
        return 0
    if args.action in ("dual", "restrict") and args.arg is None:
        raise ValueError(f"{args.command} {args.action} needs a partition argument "
                         "(\"\", 0 or [] for the empty partition)")
    if args.action == "dual":
        lam = parse_partition_arg(args.arg, strict=ring.key is StrictPartition)
        _emit({ring.key.json_key: list(ring.dual(lam).parts)}, pretty)
        return 0
    if args.action == "restrict":
        expansion = ring.restrict(parse_partition_arg(args.arg))
    else:
        # the degree read from the syntax tree rejects a class above the top
        # degree before any evaluation, and is the degree of a zero value;
        # evaluate_text parses again (linear in the text) so that evaluation
        # stays one function for schurbench's tracer
        from .parsing import evaluate_text, expression_degree, parse

        text = _expression_text(args, args.arg)
        degree = ring.check_degree(expression_degree(parse(text)))
        expansion = ring.reduce_tautological(evaluate_text(text), degree)
    if args.action == "integrate":
        _emit({"ring": ring.label, "value": number_text(ring.integrate(expansion))}, pretty)
    else:
        _emit({"ring": ring.label, **_expansion_payload(expansion)}, pretty)
    return 0


def _thom_verify(table: str, pretty: bool) -> int:
    # per table: its reports, and the fields each entry adds to its report
    if table == "classical":
        from .partitions import number_text
        from .positivity import CLASSICAL_THOM_TABLE, minimal_hook_rank, verify_thom_table

        reports = verify_thom_table()
        extras = [{"expression": entry.expression, "codimension": entry.codimension,
                   "coefficient_sum": number_text(report.expansion.coefficient_sum()),
                   "hook_rank": minimal_hook_rank(report.expansion)}
                  for entry, report in zip(CLASSICAL_THOM_TABLE, reports)]
    elif table == "lagrangian":
        from .legendrian import LEGENDRIAN_TABLE, verify_lagrangian_table

        reports = verify_lagrangian_table()
        extras = [{"bold_expression": entry.lagrangian_expression}
                  for entry in LEGENDRIAN_TABLE]
    else:
        from .legendrian import LEGENDRIAN_TABLE, verify_legendrian_table

        reports = verify_legendrian_table()
        extras = [{"codimension": entry.codimension, "degree": report.expansion.degree}
                  for entry, report in zip(LEGENDRIAN_TABLE, reports)]
    entries = [{**report.to_json(), **extra} for report, extra in zip(reports, extras)]
    ok = all(report.nonnegative for report in reports)
    _emit({"table": table, "entries": entries, "all_nonnegative": ok}, pretty)
    return 0 if ok else 1


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except (ValueError, OSError) as exc:
        # a ParseError can only come from a loaded grammar
        parsing = sys.modules.get(f"{__package__}.parsing")
        kind = "parse error" if parsing and isinstance(exc, parsing.ParseError) else "error"
        sys.stderr.write(f"{kind}: {exc}\n")
        return 2


def run() -> None:
    """main(argv from sys.argv), then an exit without interpreter teardown.

    argparse's SystemExit (help, usage errors) counts as main's return.
    After stdout and stderr are flushed, os._exit ends the process.  A flush
    that raises (a closed pipe, a full disk) hands the exit to sys.exit, so
    the interpreter reports the failure as it does after any return; any
    other exception from main takes the normal path, with its traceback and
    exit code 1.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
