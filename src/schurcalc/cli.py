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
parser that plaintext.build_parser makes from the same table, so help texts
and usage errors stay argparse's own; plaintext also holds the --pretty
renderer, and no other command loads it.  _run_command hands to-schur and
certify to schureval.run, gr/lg reduce and integrate to ringcommands.run,
gr/lg pairing to pairing.run and every other command to commands.py.

The Pieri core (partitions, pieri), the Schur functions (schur), the
rings and the grammar import the polynomial and Q-tilde layers only in the
functions that build c-polynomials.  lr loads cli, commands, partitions,
pieri and schur; to-schur and certify cli, the grammar, schureval and schur;
gr/lg dual and lg restrict schubert on the Pieri core, pairing the rings and
pairing.py too, and reduce and integrate the rings, ringcommands, the
grammar and schureval.  The tree reading lives in schureval and the
partition arguments are read in commands, so neither the grammar nor
partitions, which a library process loads, holds command-line code.
Only a q atom, input of mixed degrees or a table loads the polynomial layer.
README.md lists what every command loads.

run(), the entry point of `python -m schurcalc` and of the console script,
ends the process with os._exit once main() has returned and stdout and
stderr are flushed.  Freeing the modules and memos of a finished command
costs more than many commands compute, and no output needs it.  main()
itself returns its exit code and never exits, so it can be called in-process.
"""

import os
import sys
from types import SimpleNamespace

# The command line, described once.  command -> (help, options, positionals);
# an option is (flag, dest, type, choices, required, metavar) and a positional
# (dest, choices, optional).  plaintext.build_parser() turns it into argparse
# parsers and read_argv() reads the canonical form from it.
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


def read_argv(argv) -> SimpleNamespace | None:
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
    return SimpleNamespace(**values)


def emit(payload, pretty: bool) -> None:
    if sys.stdout is None:  # the process started with its stdout closed
        raise OSError("standard output is closed")
    if pretty:
        from .plaintext import render

        text = render(payload, 0)
    else:
        text = to_json(payload)
    sys.stdout.write(text + "\n")


def to_json(value) -> str:
    """json.dumps(value, separators=(",", ":")), byte for byte, for values
    built of dict (str keys), list, tuple, str, int, bool and None, each of
    exactly that type; TypeError on any other."""
    kind = type(value)
    if kind is str:
        return _json_string(value)
    if kind is dict:
        return "{" + ",".join([f"{_json_key(k)}:{to_json(v)}" for k, v in value.items()]) + "}"
    if kind in (list, tuple):
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
    """text as json's ensure_ascii writes it.  Computed output is printable
    ASCII; other text is written by json.dumps."""
    if text.isascii() and text.isprintable():
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
    import json

    return json.dumps(text)


def expansion_payload(expansion) -> dict:
    return {"degree": expansion.degree, "expansion": expansion.to_json()}


def _run_command(args):
    action = getattr(args, "action", args.command)  # only gr and lg have actions
    if action == "pairing":
        from .pairing import run
    elif action in ("reduce", "integrate"):
        from .ringcommands import run
    elif action in ("to-schur", "certify"):
        from .schureval import run
    else:
        from .commands import run
    return run(args, args.pretty)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_argv(argv)
    if args is None:
        from .plaintext import build_parser

        args = build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except (ValueError, OSError) as exc:
        # a ParseError can only come from a loaded grammar
        parsing = sys.modules.get(f"{__package__}.parsing")
        kind = "parse error" if parsing and isinstance(exc, parsing.ParseError) else "error"
        from .plaintext import shown_message

        sys.stderr.write(f"{kind}: {shown_message(str(exc))}\n")
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
