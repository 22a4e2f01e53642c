"""Command-line interface.

JSON on stdout by default (--pretty for plain text).  Exit codes: 0 on
success, 1 when a certification comes out NOT_NONNEGATIVE (so pipelines
can gate on positivity), 2 on usage or parse errors.  Output is
byte-deterministic: every ordering is fixed.

Each command imports the modules it runs when it starts, so a fresh
process loads and compiles no module that its command does not call.
"""

import argparse
import sys


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="schurcalc",
        description="Exact Schur/Q-tilde calculus with positivity certification",
    )
    top.add_argument("--pretty", action="store_true",
                     help="plain-text output instead of JSON")
    top.add_argument("--input", metavar="FILE",
                     help="read the expression argument from FILE")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("to-schur", help="expand an expression in the Schur basis")
    p.add_argument("expr", nargs="?")
    p.add_argument("--length-bound", type=int, default=None)

    p = sub.add_parser("certify", help="Schur-positivity certificate")
    p.add_argument("expr", nargs="?")
    p.add_argument("--length-bound", type=int, default=None)

    p = sub.add_parser("lr", help="Littlewood-Richardson product s_lam * s_mu")
    p.add_argument("lam")
    p.add_argument("mu")

    p = sub.add_parser("qtilde", help="Q-tilde polynomial of a partition")
    p.add_argument("mu")

    p = sub.add_parser("gr", help="Grassmannian cohomology ring operations")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("action", choices=["reduce", "integrate", "dual", "pairing"])
    p.add_argument("arg", nargs="?")

    p = sub.add_parser("lg", help="Lagrangian Grassmannian ring operations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("action",
                   choices=["reduce", "integrate", "dual", "restrict", "pairing"])
    p.add_argument("arg", nargs="?")

    p = sub.add_parser("thom-verify", help="verify a built-in positivity table")
    p.add_argument("--table", choices=["classical", "lagrangian", "legendrian"],
                   required=True)

    p = sub.add_parser("schur-bundle",
                       help="Schur class of a Schur bundle in the Schur basis")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--functor", required=True, metavar="LAMBDA")
    p.add_argument("--class", dest="class_", required=True, metavar="MU")

    return top


def _expression_text(args, value: str | None) -> str:
    if value is not None:
        return value
    if args.input:
        with open(args.input, "r", encoding="utf-8") as handle:
            return handle.read().strip()
    raise ValueError("an expression is required (positional or via --input)")


def _emit(payload, pretty: bool) -> None:
    if pretty:
        sys.stdout.write(_render(payload, 0) + "\n")
    else:
        import json

        sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")


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
    from .partitions import StrictPartition, parse_partition_arg
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
        _emit({"ring": ring.label, "value": str(ring.integrate(expansion))}, pretty)
    else:
        _emit({"ring": ring.label, **_expansion_payload(expansion)}, pretty)
    return 0


def _thom_verify(table: str, pretty: bool) -> int:
    # per table: its reports, and the fields each entry adds to its report
    if table == "classical":
        from .positivity import CLASSICAL_THOM_TABLE, minimal_hook_rank, verify_thom_table

        reports = verify_thom_table()
        extras = [{"expression": entry.expression, "codimension": entry.codimension,
                   "coefficient_sum": str(report.expansion.coefficient_sum()),
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run_command(args)
    except (ValueError, OSError) as exc:
        # a ParseError can only come from a loaded grammar
        parsing = sys.modules.get(f"{__package__}.parsing")
        kind = "parse error" if parsing and isinstance(exc, parsing.ParseError) else "error"
        sys.stderr.write(f"{kind}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
