"""The gr and lg commands that build a ring: pairing, reduce and integrate.

Only these commands load this module; cli.py hands every other command,
gr/lg dual and lg restrict among them, to commands.run.
"""

from .cli import emit, expansion_payload


def _pairing_payload(ring) -> dict:
    ring.check_pairing_budget()
    degrees = []
    for d in range(ring.top_degree + 1):
        rows, cols, matrix = ring.pairing_matrix(d)
        degrees.append({
            "degree": d,
            "rows": [list(p) for p in rows],
            "cols": [list(p) for p in cols],
            "matrix": matrix,
            "is_dual_permutation": ring.is_dual_permutation(rows, cols, matrix),
        })
    ok = all(block["is_dual_permutation"] for block in degrees)
    return {"ring": ring.label, "degrees": degrees, "is_dual_permutation": ok}


def run(args, pretty: bool) -> int:
    from .rings import GrassmannianRing, LagrangianRing

    ring = GrassmannianRing(args.r, args.n) if args.command == "gr" else LagrangianRing(args.n)
    if args.action == "pairing":
        emit(_pairing_payload(ring), pretty)
        return 0
    # the degree read from the syntax tree rejects a class above the top
    # degree before any evaluation, and is the degree of a zero value;
    # evaluate_text parses again (linear in the text) so that evaluation
    # stays one function for schurbench's tracer
    from .parsing import evaluate_text, expression_degree, expression_text, parse

    text = expression_text(args, args.arg)
    degree = ring.check_degree(expression_degree(parse(text)))
    expansion = ring.reduce_tautological(evaluate_text(text), degree)
    if args.action == "integrate":
        from .partitions import number_text

        emit({"ring": ring.label, "value": number_text(ring.integrate(expansion))}, pretty)
    else:
        emit({"ring": ring.label, **expansion_payload(expansion)}, pretty)
    return 0
