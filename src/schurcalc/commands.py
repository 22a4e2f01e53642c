"""The commands of the command line that neither build a ring nor read an
expression: lr, qtilde, schur-bundle, thom-verify, gr/lg dual and lg
restrict.

cli.py reads every command's argv and writes its JSON.  It hands to-schur
and certify to schureval.run, gr/lg reduce and integrate to
ringcommands.run, gr/lg pairing to pairing.run, and every other command to
run here, so none of those compiles this, and dual and restrict, which read
only schubert.py, compile no ring class.  Only these commands read
partition arguments, so parse_partition_arg is here and not in
partitions.py, which every library process compiles.
"""

import sys

from .cli import emit, expansion_payload
from .partitions import Partition, StrictPartition


def parse_partition_arg(text: str, strict: bool = False) -> Partition:
    """Partitions on the command line: comma-separated parts, e.g. '3,1'.

    '0', '[]' and the empty string all denote the empty partition.
    """
    kind = StrictPartition if strict else Partition
    cleaned = text.strip()
    if cleaned in ("", "0", "[]"):
        return kind()
    if cleaned.startswith("[") and cleaned.endswith("]"):
        cleaned = cleaned[1:-1]
    pieces = cleaned.split(",")
    limit = sys.get_int_max_str_digits()
    for piece in pieces:
        # int() of a part past the digit limit raises with Python's advice;
        # name the limit instead, and do not echo the argument
        if len(piece) > limit:
            digits = sum(ch.isdecimal() for ch in piece)
            if digits > limit:
                raise ValueError(f"bad partition argument: a part of {digits} digits "
                                 f"exceeds the limit of {limit} digits")
    try:
        return kind([int(p) for p in pieces])
    except ValueError as exc:
        raise ValueError(f"bad partition argument {text!r}: {exc}") from exc


def run(args, pretty: bool) -> int:
    command = args.command
    if command == "thom-verify":
        from .positivity import table_payload

        payload = table_payload(args.table)
        emit(payload, pretty)
        return 0 if payload["all_nonnegative"] else 1

    if command == "lr":
        from .schur import lr_multiply

        payload = expansion_payload(lr_multiply(parse_partition_arg(args.lam),
                                                parse_partition_arg(args.mu)))
    elif command == "qtilde":
        from .qtilde import qtilde

        mu = parse_partition_arg(args.mu)
        payload = {"partition": list(mu), "degree": mu.weight, "polynomial": str(qtilde(mu))}
    elif command == "schur-bundle":
        from .bundles import schur_bundle_class

        payload = expansion_payload(schur_bundle_class(parse_partition_arg(args.functor),
                                                       parse_partition_arg(args.class_),
                                                       args.rank))
    else:
        # gr/lg dual and lg restrict; the labels check the ring as its class does
        from .schubert import (grassmannian_label, lagrangian_label, rectangle_dual, restrict,
                               strict_complement)

        gr = command == "gr"
        label = grassmannian_label(args.r, args.n) if gr else lagrangian_label(args.n)
        if args.arg is None:
            raise ValueError(f"{command} {args.action} needs a partition argument "
                             "(\"\", 0 or [] for the empty partition)")
        # only an lg dual reads a strict partition
        lam = parse_partition_arg(args.arg, strict=not gr and args.action == "dual")
        if args.action == "restrict":
            payload = {"ring": label, **expansion_payload(restrict(args, lam))}
        elif gr:
            payload = {"partition": list(rectangle_dual(lam, args.r, args.n))}
        else:
            payload = {"strict_partition": list(strict_complement(lam, args.n))}
    emit(payload, pretty)
    return 0
