"""The command line's plain-text side: the argparse parser, the --pretty
renderer and the error messages that would echo a huge number.

cli.py reads the canonical argv from its command table and writes JSON
itself.  Only help, usage errors and the other spellings that read_argv
does not take build the argparse parser, and only --pretty renders plain
text, so every other command neither loads nor compiles this module, and
--pretty does not load argparse.
"""

import sys

from .cli import COMMANDS


def _integer(text: str) -> int:
    """int(text) for an int option.  argparse names a bad value by its repr;
    one past Python's int/str digit limit is named by its digit count instead
    of being echoed."""
    import argparse

    try:
        return int(text)
    except ValueError:
        digits, limit = sum(ch.isdecimal() for ch in text), sys.get_int_max_str_digits()
        if digits > limit:
            message = f"a value of {digits} digits exceeds the limit of {limit} digits"
        else:
            message = f"invalid int value: {text!r}"
        raise argparse.ArgumentTypeError(message) from None


# An error message writes a number of more than SHOWN_DIGITS digits, such as
# a huge --r or --n repeated in a ring label, by its digit count.
SHOWN_DIGITS = 40


def shown_message(message: str) -> str:
    """message with each run of more than SHOWN_DIGITS digits written as
    <k digits>; a message without one is returned as it is."""
    from itertools import groupby

    runs = ["".join(run) for _, run in groupby(message, str.isdecimal)]
    return "".join(f"<{len(run)} digits>" if len(run) > SHOWN_DIGITS and run.isdecimal()
                   else run for run in runs)


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
            p.add_argument(flag, dest=dest, type=_integer if kind is int else kind,
                           choices=choices, required=required, metavar=metavar)
        for dest, choices, optional in positionals:
            p.add_argument(dest, choices=choices, nargs="?" if optional else None)
    return top


def render(value, depth: int) -> str:
    """value as indented plain text, for --pretty."""
    pad = "  " * depth
    if isinstance(value, dict):
        lines = []
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.append(render(v, depth + 1))
            else:
                lines.append(f"{pad}{k}: {_render_scalar(v)}")
        return "\n".join(lines)
    if isinstance(value, list):
        lines = []
        for item in value:
            if isinstance(item, (dict, list)) and item:
                body = render(item, depth + 1)
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

