"""The ring and table commands of the command line: gr, lg and thom-verify.

cli.py reads every command's argv and writes its JSON; these handlers run
the commands that drive a ring or a built-in table, and only those
commands load this module, so to-schur, certify, lr and the others compile
none of it.
"""

from .cli import emit, expansion_payload, expression_text


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


def ring_command(args, pretty: bool) -> int:
    from .partitions import StrictPartition, number_text, parse_partition_arg
    from .rings import GrassmannianRing, LagrangianRing

    if args.command == "gr":
        ring = GrassmannianRing(args.r, args.n)
    else:
        ring = LagrangianRing(args.n)
    if args.action == "pairing":
        emit(_pairing_payload(ring), pretty)
        return 0
    if args.action in ("dual", "restrict") and args.arg is None:
        raise ValueError(f"{args.command} {args.action} needs a partition argument "
                         "(\"\", 0 or [] for the empty partition)")
    if args.action == "dual":
        lam = parse_partition_arg(args.arg, strict=ring.key is StrictPartition)
        emit({ring.key.json_key: list(ring.dual(lam).parts)}, pretty)
        return 0
    if args.action == "restrict":
        expansion = ring.restrict(parse_partition_arg(args.arg))
    else:
        # the degree read from the syntax tree rejects a class above the top
        # degree before any evaluation, and is the degree of a zero value;
        # evaluate_text parses again (linear in the text) so that evaluation
        # stays one function for schurbench's tracer
        from .parsing import evaluate_text, expression_degree, parse

        text = expression_text(args, args.arg)
        degree = ring.check_degree(expression_degree(parse(text)))
        expansion = ring.reduce_tautological(evaluate_text(text), degree)
    if args.action == "integrate":
        emit({"ring": ring.label, "value": number_text(ring.integrate(expansion))}, pretty)
    else:
        emit({"ring": ring.label, **expansion_payload(expansion)}, pretty)
    return 0


def thom_verify(table: str, pretty: bool) -> int:
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
    emit({"table": table, "entries": entries, "all_nonnegative": ok}, pretty)
    return 0 if ok else 1
