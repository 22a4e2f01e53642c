import ast
import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import tokenize
from functools import lru_cache
from math import comb, factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schurcalc
from schurcalc import cli, linalg
from schurcalc.cli import COMMANDS, main, read_argv, to_json
from schurcalc.plaintext import build_parser

import oracles


def run_cli(*argv, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "schurcalc", *argv],
        capture_output=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_certify_positive_exit_zero(capsys):
    code, payload = run_json(capsys, "certify", "c2^2 - c1*c3")
    assert code == 0
    assert payload["verdict"] == "POSITIVE"
    assert payload["expansion"] == [{"partition": [2, 2], "coeff": "1"}]


def test_certify_negative_exit_one(capsys):
    code, payload = run_json(capsys, "certify", "c2 - c1^2")
    assert code == 1
    assert payload["verdict"] == "NOT_NONNEGATIVE"
    assert payload["witnesses"] == [{"partition": [2], "coeff": "-1"}]


def test_certify_zero_exit_zero(capsys):
    code, payload = run_json(capsys, "certify", "c1 - c1")
    assert code == 0
    assert payload["verdict"] == "ZERO"
    assert payload["expansion"] == []


def test_parse_error_exit_two():
    code, out, err = run_cli("certify", "c2 - - c1")
    assert code == 2
    assert b"parse error" in err


def test_usage_error_exit_two():
    code, out, err = run_cli("nonsense")
    assert code == 2


def test_to_schur(capsys):
    code, payload = run_json(capsys, "to-schur", "c1^3 + 3*c1*c2 + 2*c3")
    assert code == 0
    assert payload == {
        "degree": 3,
        "expansion": [
            {"partition": [3], "coeff": "1"},
            {"partition": [2, 1], "coeff": "5"},
            {"partition": [1, 1, 1], "coeff": "6"},
        ],
    }


def test_to_schur_length_bound_error():
    code, out, err = run_cli("to-schur", "c2^2", "--length-bound", "2")
    assert code == 2
    assert b"length bound" in err


def test_lr(capsys):
    code, payload = run_json(capsys, "lr", "2,1", "1")
    assert code == 0
    assert payload["expansion"] == [
        {"partition": [3, 1], "coeff": "1"},
        {"partition": [2, 2], "coeff": "1"},
        {"partition": [2, 1, 1], "coeff": "1"},
    ]


def test_qtilde(capsys):
    code, payload = run_json(capsys, "qtilde", "2,1")
    assert code == 0
    assert payload == {"partition": [2, 1], "degree": 3,
                       "polynomial": "c1*c2 - 2*c3"}


def test_gr_subcommands(capsys):
    code, payload = run_json(capsys, "gr", "--r", "2", "--n", "4", "dual", "1")
    assert (code, payload) == (0, {"partition": [2, 1]})

    code, payload = run_json(capsys, "gr", "--r", "2", "--n", "4",
                             "integrate", "s[1]^4")
    assert (code, payload["value"]) == (0, "2")

    code, payload = run_json(capsys, "gr", "--r", "2", "--n", "4",
                             "reduce", "c1^2")
    assert payload["expansion"] == [
        {"partition": [2], "coeff": "1"},
        {"partition": [1, 1], "coeff": "1"},
    ]

    code, payload = run_json(capsys, "gr", "--r", "2", "--n", "4", "pairing")
    assert code == 0
    assert payload["is_dual_permutation"] is True


def test_lg_subcommands(capsys):
    code, payload = run_json(capsys, "lg", "--n", "2", "restrict", "2")
    assert code == 0
    assert payload["expansion"] == [{"strict_partition": [2], "coeff": "1"}]

    code, payload = run_json(capsys, "lg", "--n", "2", "dual", "1")
    assert (code, payload) == (0, {"strict_partition": [2]})

    code, payload = run_json(capsys, "lg", "--n", "2", "reduce", "q[2,1]")
    assert payload["expansion"] == [{"strict_partition": [2, 1], "coeff": "1"}]

    code, payload = run_json(capsys, "lg", "--n", "2", "integrate", "c1*c2")
    assert (code, payload["value"]) == (0, "1")

    code, payload = run_json(capsys, "lg", "--n", "3", "pairing")
    assert payload["is_dual_permutation"] is True


def test_thom_verify_tables(capsys):
    for table in ("classical", "lagrangian", "legendrian"):
        code, payload = run_json(capsys, "thom-verify", "--table", table)
        assert code == 0
        assert payload["all_nonnegative"] is True
        assert payload["table"] == table
    code, payload = run_json(capsys, "thom-verify", "--table", "classical")
    names = [e["name"] for e in payload["entries"]]
    assert names == ["A_3", "A_4", "A_5", "I_2,2", "I_2,3", "I_2,4"]


def test_schur_bundle(capsys):
    code, payload = run_json(capsys, "schur-bundle", "--rank", "2",
                             "--functor", "2", "--class", "1,1")
    assert code == 0
    assert payload["expansion"] == [
        {"partition": [2], "coeff": "2"},
        {"partition": [1, 1], "coeff": "6"},
    ]


def test_pinned_commands_print_their_pinned_bytes(capsysbinary):
    # the three tables, as JSON and with --pretty, and the classes (1), (2),
    # (1,1) and (2,1) of the eleven (functor, rank) pairs of the benchmark's
    # bundles, byte for byte as the c-polynomial routes printed them; then
    # the 65 other commands of seed 1's certify_cold and pairing_cold cycles
    # that exit 0 (certify, to-schur, lr, gr/lg pairing and integrate, lg
    # restrict), taken before the syntax-tree nodes and reports became
    # named tuples
    pinned = json.loads((Path(__file__).parent / "pinned_stdout.json").read_text())
    assert len(pinned) == 6 + 11 * 4 + 65
    for argv, stdout in pinned:
        assert main(argv) == 0, argv
        assert capsysbinary.readouterr() == (stdout.encode("ascii"), b""), argv


def test_input_file(tmp_path, capsys):
    path = tmp_path / "expr.txt"
    path.write_text("c2^2 - c1*c3\n")
    code, payload = run_json(capsys, "--input", str(path), "certify")
    assert code == 0
    assert payload["verdict"] == "POSITIVE"


def test_missing_expression_is_usage_error():
    code, out, err = run_cli("certify")
    assert code == 2


def test_pretty_output(capsys):
    code = main(["--pretty", "certify", "c1^2 - c2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: POSITIVE" in out


def test_output_bytes_stable_across_runs():
    for argv in (["lr", "2,1", "2,1"], ["certify", "c2^2 - c1*c3"]):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second
        assert first[0] == 0


def test_public_names_resolve():
    assert set(schurcalc.__all__) <= set(dir(schurcalc))
    for name in schurcalc.__all__:
        assert hasattr(schurcalc, name), name
    # qtilde names a submodule and its function; the package keeps the function
    from schurcalc.qtilde import qtilde
    assert schurcalc.qtilde is qtilde
    try:
        schurcalc.no_such_name
    except AttributeError as exc:
        assert str(exc) == "module 'schurcalc' has no attribute 'no_such_name'"
    else:
        raise AssertionError("an unknown attribute resolved")


def test_production_is_integer_only():
    # no rational arithmetic and no test oracle on any production path;
    # linalg.py is the tests' reference solver, which no module imports
    package = Path(schurcalc.__file__).parent
    for path in package.glob("*.py"):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert name.rpartition(".")[2] not in ("fractions", "linalg"), path.name

    def defined_in(module):
        return {name for name, value in vars(module).items()
                if getattr(value, "__module__", None) == module.__name__}
    oracle_names = defined_in(oracles) | defined_in(linalg)
    # the supersymmetric layer, substitution, the syntax-tree printer and
    # partitions_up_to are reached by no command: they live with the oracles
    test_only = {"BundleSymbol", "chern_class", "complete_from_elementary",
                 "supersymmetric_s", "elementary_super", "schur_jt", "supersymmetrize",
                 "super_split_poly", "super_split", "specialize", "to_text",
                 "partitions_up_to"}
    assert {"lr_oracle", "to_schur_oracle", "lg_reduce_by_solve", "poly_det",
            "schur_jt_h_form", "solve_exact", "NonUniqueSolutionError"} | test_only \
        <= oracle_names
    assert not oracle_names & set(schurcalc.__all__)
    for path in package.glob("*.py"):
        text = path.read_text()
        # Schur classes come from the Pieri fold: no determinant is expanded
        assert "poly_det" not in text, path.name
        defined = {node.name for node in ast.parse(text).body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not defined & test_only, path.name


@lru_cache(maxsize=None)
def _python_s_imports(*command):
    """Every module a fresh `python -S COMMAND` imports; -S keeps site's own
    imports out."""
    src = str(Path(schurcalc.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", *command],
                          capture_output=True, text=True, timeout=60,
                          env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, (command, proc.stderr)
    names = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    assert "schurcalc" in names
    return names


def _cold_imports(*argv):
    """Every module a fresh `python -S -m schurcalc ARGV` (or, with no ARGV,
    `import schurcalc`) imports.  python -m runs __main__ as a script, so
    schurcalc.__main__ is not listed."""
    return _python_s_imports(*(["-m", "schurcalc", *argv] if argv else
                               ["-c", "import schurcalc"]))


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


# From Python 3.12 an f-string is FSTRING_START, its pieces and the tokens
# of its expressions, and FSTRING_END (PEP 701); before, it is one STRING
_FSTRING_START = getattr(tokenize, "FSTRING_START", None)
_FSTRING_END = getattr(tokenize, "FSTRING_END", None)


def _count_code_tokens(readline):
    """The code tokens that readline yields: its tokens less comments, line
    breaks, indentation and the encoding and end markers.  A docstring is
    one token, and so is an f-string on every Python version."""
    count = depth = 0
    for token in tokenize.tokenize(readline):
        if token.type == _FSTRING_START:
            count += not depth
            depth += 1
        elif token.type == _FSTRING_END:
            depth -= 1
        elif not depth:
            count += token.type not in _NOT_CODE
    return count


def _code_tokens(path):
    """The code tokens of a source file (see _count_code_tokens)."""
    with open(path, "rb") as handle:
        return _count_code_tokens(handle.readline)


def _cold_tokens(*argv):
    """The code tokens of every schurcalc module that a fresh
    `python -S -m schurcalc ARGV` loads, the package itself included: the
    volume of source the command compiles when no bytecode exists."""
    return _package_tokens(_cold_imports(*argv))


def _package_tokens(modules):
    """The code tokens of the schurcalc modules among the module names."""
    package = Path(schurcalc.__file__).parent
    names = [name.partition(".")[2] for name in modules
             if name == "schurcalc" or name.startswith("schurcalc.")]
    return sum(_code_tokens(package / (f"{name}.py" if name else "__init__.py"))
               for name in names)


# the Pieri core: partitions, expansions, steps, peels and the build
_PIERI = {"partitions", "pieri"}
# the commands that neither build a ring nor read an expression, the
# pairing, which reads nothing but its ring and pairing.py, and the
# expression commands:
# to-schur and certify, which schureval runs on the Schur basis, and gr/lg
# reduce and integrate, which ringcommands runs on the ring's basis with
# schureval's evaluator
_COMMAND = {"cli", "commands"}
_RING = {"cli", "rings", "schubert"} | _PIERI
# the grammar: the parser and its syntax-tree nodes
_GRAMMAR = {"parsing"} | _PIERI
_RING_INPUT = {"ringcommands", "schureval"} | _RING | _GRAMMAR
_SCHUR_INPUT = {"cli", "schur", "schureval"} | _GRAMMAR
_POSITIVITY = {"positivity"} | _COMMAND

# per command, exactly the schurcalc submodules it loads and the most code
# tokens they may hold (see _cold_tokens): the grammar and the basis
# evaluator schureval only where an expression is read (the classical table
# reads its entries), legendrian only for the Legendrian tables, the
# polynomial layer only where a c-polynomial is built (a q atom outside
# LG(n), a sum whose terms differ in degree) and qtilde only for q, schur
# only where Schur functions are computed, plaintext only for help, --pretty
# and argv outside the canonical form, commands only for the commands that
# read no expression and build no ring, rings only for the gr/lg commands
# that build a ring, pairing only for the pairing and ringcommands only for
# reduce and integrate,
# schubert only for gr and lg, bundles only for schur-bundle
_COLD_LOADS = [
    ((), set(), 400),
    (("--help",), {"cli", "plaintext"}, 2100),
    (("lr", "2,1", "1"), {"schur"} | _COMMAND | _PIERI, 4500),
    (("--pretty", "lr", "2,1", "1"), {"plaintext", "schur"} | _COMMAND | _PIERI, 5000),
    (("lr", "--", "2,1", "1"), {"plaintext", "schur"} | _COMMAND | _PIERI, 5000),
    (("qtilde", "2,1"), {"partitions", "polynomial", "qtilde"} | _COMMAND, 4500),
    (("schur-bundle", "--rank", "2", "--functor", "1", "--class", "1"),
     {"bundles", "schur"} | _COMMAND | _PIERI, 5700),
    (("to-schur", "c1^2"), _SCHUR_INPUT, 6800),
    (("to-schur", "s[3,1]*c2 - 2*c1^6"), _SCHUR_INPUT, 6800),
    (("to-schur", "q[2,1]*c1"), {"polynomial", "qtilde"} | _SCHUR_INPUT, 8600),
    (("certify", "c1^2"), {"positivity"} | _SCHUR_INPUT, 7600),
    (("certify", "c1 - c1 + c2"), {"positivity", "polynomial"} | _SCHUR_INPUT, 9100),
    (("gr", "--r", "2", "--n", "4", "pairing"), {"pairing"} | _RING, 6300),
    (("lg", "--n", "3", "pairing"), {"pairing"} | _RING, 6300),
    (("gr", "--r", "2", "--n", "4", "dual", "1"), {"schubert"} | _COMMAND | _PIERI, 4600),
    (("lg", "--n", "3", "dual", "1"), {"schubert"} | _COMMAND | _PIERI, 4600),
    (("lg", "--n", "5", "restrict", "3,2,1"), {"schubert"} | _COMMAND | _PIERI, 4600),
    (("gr", "--r", "2", "--n", "4", "reduce", "c1^2"), _RING_INPUT, 9000),
    (("gr", "--r", "2", "--n", "7", "integrate", "s[5,4]*s[1]"), _RING_INPUT, 9000),
    (("lg", "--n", "3", "integrate", "q[2,1]*c3"), _RING_INPUT, 9000),
    (("gr", "--r", "2", "--n", "4", "integrate", "q[2,1]*c1"),
     _RING_INPUT | {"polynomial", "qtilde"}, 10800),
    (("gr", "--r", "2", "--n", "4", "reduce", "c1 + c2 - c2"), _RING_INPUT | {"polynomial"}, 10500),
    (("thom-verify", "--table", "classical"),
     {"schur", "schureval"} | _POSITIVITY | _GRAMMAR, 8000),
    (("thom-verify", "--table", "lagrangian"), {"legendrian"} | _POSITIVITY | _GRAMMAR, 7100),
    (("thom-verify", "--table", "legendrian"), {"legendrian"} | _POSITIVITY | _GRAMMAR, 7100),
]

# a library process, as the rings_warm worker starts: it reduces a truncated
# c-polynomial on a Grassmannian and on a Lagrangian Grassmannian, and
# compiles neither the tree reading, the basis evaluator, the pairing nor
# the command line
_LIBRARY = """import schurcalc
for ring in (schurcalc.GrassmannianRing(2, 4), schurcalc.LagrangianRing(3)):
    p = schurcalc.truncate_family(schurcalc.evaluate_text("c1^2"), schurcalc.FAMILY_C, ring.rank)
    ring.reduce(p)
"""
_LIBRARY_LOAD = ({"rings", "schubert", "parsing", "polynomial"} | _PIERI, 7200)


def _library_imports():
    """Every module loaded once _LIBRARY has run in a fresh `python -S`;
    the package loads its submodules with importlib, which -X importtime
    does not list, so they are read from sys.modules."""
    src = str(Path(schurcalc.__file__).parent.parent)
    code = _LIBRARY + "import sys\nprint(*sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60,
                          env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_a_library_process_compiles_only_the_ring_layers():
    loaded = _library_imports()
    expected, ceiling = _LIBRARY_LOAD
    assert {name.partition(".")[2] for name in loaded if name.startswith("schurcalc.")} == \
        expected
    assert _package_tokens(loaded) <= ceiling


def test_cli_import_path_is_free_of_heavy_modules():
    # dataclasses pulls in inspect, ast, dis and tokenize, and typing is
    # as heavy; no module postpones its annotations, so none imports
    # __future__
    denied = {"dataclasses", "inspect", "ast", "typing", "fractions", "schurcalc.linalg",
              "__future__"}
    for argv, _, _ in _COLD_LOADS:
        loaded = _cold_imports(*argv)
        assert not denied & loaded, argv
        # a computing command reads its argv without argparse and writes its
        # JSON without json; help and argv outside the canonical form stay
        # argparse's own, and --pretty needs neither
        assert "json" not in loaded, argv
        if argv:
            assert ("argparse" in loaded) == (read_argv(argv) is None), argv
    assert "argparse" in _cold_imports("--help")


def test_cold_commands_load_only_the_modules_they_run():
    for argv, expected, _ in _COLD_LOADS:
        loaded = {name.partition(".")[2] for name in _cold_imports(*argv)
                  if name.startswith("schurcalc.")}
        assert loaded == expected, argv


def test_cold_commands_compile_at_most_their_token_ceilings():
    # without bytecode a command compiles every module it loads, so the code
    # tokens of those modules gauge its compile cost without timing it
    for argv, _, ceiling in _COLD_LOADS:
        assert _cold_tokens(*argv) <= ceiling, argv


def test_the_token_gauge_counts_code_only():
    source = '"""doc"""\n# comment\n\nif x:\n    y = 1  # more\n'
    tokens = tokenize.tokenize(io.BytesIO(source.encode()).readline)
    assert [t.string for t in tokens if t.type not in _NOT_CODE] == \
        ['"""doc"""', "if", "x", ":", "y", "=", "1"]
    assert _count_code_tokens(io.BytesIO(source.encode()).readline) == 7


def test_the_token_gauge_counts_an_f_string_as_one_token():
    # as tokenize does before Python 3.12, nested f-strings and format specs
    # included; a plain string beside an f-string stays a token of its own
    source = 'x = f"{a!r:>{w}} {f\'{b}\'}" "tail" + f"{c}"\n'
    assert _count_code_tokens(io.BytesIO(source.encode()).readline) == 6


def test_the_pieri_layer_loads_no_polynomial_code():
    # rings, schur, the grammar, the Schur-basis evaluation and positivity
    # import polynomial and qtilde only in the functions that build
    # c-polynomials, and the rings import no Schur function
    loaded = _python_s_imports("-c", "import schurcalc.rings")
    assert {"schurcalc.rings", "schurcalc.schubert", "schurcalc.pieri",
            "schurcalc.partitions"} <= loaded
    assert not {"schurcalc.polynomial", "schurcalc.qtilde", "schurcalc.schur"} & loaded
    # nor do the rings and the grammar load the pairing, the tree reading or
    # the command line, which a library process never runs
    for module in ("rings", "parsing"):
        loaded = _python_s_imports("-c", f"import schurcalc.{module}")
        assert f"schurcalc.{module}" in loaded
        assert not {"schurcalc.pairing", "schurcalc.schureval", "schurcalc.cli",
                    "schurcalc.commands"} & loaded, module
    # the basis evaluator imports the Schur functions only where they run
    loaded = _python_s_imports("-c", "import schurcalc.rings, schurcalc.schureval, "
                                     "schurcalc.positivity")
    assert {"schurcalc.schureval", "schurcalc.parsing", "schurcalc.positivity"} <= loaded
    assert not {"schurcalc.polynomial", "schurcalc.qtilde", "schurcalc.schur"} & loaded


def test_only_the_c_polynomial_builders_import_when_called():
    # so no warm reduce, integrate, basis_product or restrict runs an import
    # statement, which costs about 2 us, an eighth of a warm reduce
    # (positivity.certify loads the Schur layer, verify_thom_table the
    # Schur-basis evaluation and table_payload the Legendrian tables, for
    # thom-verify; evaluate_schur the Schur layer, and the commands
    # schureval.run, to-schur and certify, and pairing.run, the pairing, what
    # they run; the rings' basis lists a whole degree with pairing.py's
    # enumerators, which only a pairing and the tests run)
    from schurcalc import pairing, parsing, pieri, positivity, rings, schubert, schur, schureval

    builders = {schur: {"schur_dual_jt", "from_schur"},
                rings: {"basis"},
                pairing: {"run"},
                parsing: {"_polynomial_atom"},
                schureval: {"basis_atom", "evaluate_schur", "run"},
                positivity: {"certify", "_entry_polynomial", "verify_thom_table",
                             "table_payload"},
                pieri: set(), schubert: set()}
    for module, names in builders.items():
        tree = ast.parse(Path(module.__file__).read_text())
        importing = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                     and any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(node))}
        assert importing == names, module.__name__


def test_error_messages_are_exact(tmp_path):
    missing = tmp_path / "missing.txt"
    cases = [
        (["to-schur", "c2 - - c1"], b"parse error: unexpected '-' (at position 5)\n"),
        (["certify", "c1 +"], b"parse error: unexpected end of input (at position 4)\n"),
        (["gr", "--r", "2", "--n", "4", "reduce", "c1^^2"],
         b"parse error: expected a natural number (at position 3)\n"),
        (["lg", "--n", "3", "integrate", "q[1,1]"],
         b"parse error: q-indices must be strictly decreasing: [1, 1] (at position 6)\n"),
        (["lr", "1,2", "1"], b"error: bad partition argument '1,2': "
                             b"partition parts must be weakly decreasing: (1, 2)\n"),
        (["lg", "--n", "3", "dual", "2,2"],
         b"error: bad partition argument '2,2': parts must be strictly decreasing: (2, 2)\n"),
        (["--input", str(missing), "certify"],
         f"error: [Errno 2] No such file or directory: {str(missing)!r}\n".encode()),
    ]
    for argv, err in cases:
        assert run_cli(*argv) == (2, b"", err), argv


def test_inhomogeneous_message_is_capped():
    # to-schur and certify hold the highest degree to the output budget, so
    # their sum stays within it
    for argv, degrees in ((["to-schur", "(c1+c2)^20"], b"[20, 21, 22, ..., 40], 21"),
                          (["certify", "(c1+c2)^20"], b"[20, 21, 22, ..., 40], 21"),
                          (["gr", "--r", "2", "--n", "400", "reduce", "(c1+c2)^300"],
                           b"[300, 301, 302, ..., 600], 301"),
                          (["lg", "--n", "2", "integrate", "(c1+c2)^300"],
                           b"[300, 301, 302, ..., 600], 301")):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, b""), argv
        assert b"Traceback" not in err
        assert len(err) < 200, argv
        assert b"(degrees " + degrees + b" in all)" in err, argv
    # up to four degrees the message lists them all
    code, out, err = run_cli("to-schur", "c1 + c2 + c3 + c4")
    assert (code, out, err) == \
        (2, b"", b"error: polynomial is not homogeneous (degrees [1, 2, 3, 4])\n")


def test_terms_of_other_degrees_cost_only_their_c_polynomial():
    # input whose terms differ in degree builds its c-polynomial only to
    # check homogeneity and is then evaluated on the basis: a base of mixed
    # degrees stays c-monomials under a power, and a ring cuts each atom to
    # its rank before it multiplies
    cases = [
        (["to-schur", "c1 - c1 + s[30]"], 0,
         b'{"degree":30,"expansion":[{"partition":[30],"coeff":"1"}]}\n', b""),
        (["to-schur", "(c1+c2)^20 - (c1+c2)^20 + c3"], 0,
         b'{"degree":3,"expansion":[{"partition":[1,1,1],"coeff":"1"}]}\n', b""),
        (["lg", "--n", "4", "integrate", "s[5,4,4,1]^4 - c1"], 2,
         b"", b"error: polynomial is not homogeneous (degrees [1, 56])\n"),
        (["gr", "--r", "2", "--n", "30", "integrate", "s[28]*s[28] + c1 - c1"], 0,
         b'{"ring":"Gr(2,30)","value":"1"}\n', b""),
    ]
    for argv, code, out, err in cases:
        assert run_cli(*argv, timeout=10) == (code, out, err), argv


def test_a_literal_zero_is_the_zero_value():
    # a term with a literal 0 factor is no term of the value: the other terms
    # give its degrees and families, and the highest degree of every
    # subexpression still meets the output budget
    s1 = b'{"degree":1,"expansion":[{"partition":[1],"coeff":"1"}]}\n'
    cases = [
        (["lg", "--n", "5", "integrate", "c6*c5*0 + s[6,5,5,3,2,1]^2*c3*q[4,3,1]^4"], 2,
         b"", b"error: degree 79 exceeds the top degree 15 of LG(5)\n"),
        (["to-schur", "c'1*0 + c1"], 0, s1, b""),
        (["certify", "v1*0 + c1"], 0,
         b'{"verdict":"POSITIVE","expansion":[{"partition":[1],"coeff":"1"}]}\n', b""),
        (["gr", "--r", "2", "--n", "4", "reduce", "v2*0 + c1"], 0,
         b'{"ring":"Gr(2,4)","degree":1,"expansion":[{"partition":[1],"coeff":"1"}]}\n', b""),
        (["gr", "--r", "2", "--n", "4", "reduce", "c1*0 + c2 - c2"], 0,
         b'{"ring":"Gr(2,4)","degree":2,"expansion":[]}\n', b""),
        # a value whose terms are all zero reads as before
        (["to-schur", "0*c1^40"], 0, b'{"degree":null,"expansion":[]}\n', b""),
        (["gr", "--r", "2", "--n", "100000000", "integrate", "0*c1^199999996"], 0,
         b'{"ring":"Gr(2,100000000)","value":"0"}\n', b""),
        (["certify", "c1^41*0 + c1"], 2,
         b"", b"error: degree 41 exceeds the output budget: p(41) > 37338 terms\n"),
    ]
    for argv, code, out, err in cases:
        assert run_cli(*argv, timeout=10) == (code, out, err), argv
    # c1^40 is a term of the value, so the sum fails on homogeneity at once
    assert run_cli("certify", "c1^40 + c1", timeout=2) == \
        (2, b"", b"error: polynomial is not homogeneous (degrees [1, 40])\n")


def test_ring_input_reads_its_families_from_the_syntax_tree():
    # a c', v1 or v2 in a term without a literal 0 factor is the ring's
    # family error, even when it cancels or a c_k above the rank kills it;
    # a term of other degrees is evaluated on the basis too, where a long
    # c-monomial is held to the fold budget although the c-polynomial
    # cancels it
    family = b"error: Gr(2,4) expects a polynomial in the c family only\n"
    s1 = b'{"ring":"Gr(2,4)","degree":1,"expansion":[{"partition":[1],"coeff":"1"}]}\n'
    cases = [
        (["--r", "2", "--n", "4", "reduce", "c'1 - c'1 + c1"], 2, b"", family),
        (["--r", "2", "--n", "4", "integrate", "c'1 - c'1 + c1"], 2, b"", family),
        (["--r", "2", "--n", "4", "reduce", "c'1^2 - c'1^2"], 2, b"", family),
        (["--r", "1", "--n", "8", "reduce", "(3*c3)*(2*c'1)"], 2, b"",
         b"error: Gr(1,8) expects a polynomial in the c family only\n"),
        (["--r", "2", "--n", "4", "reduce", "v2*0 + c1"], 0, s1, b""),
        (["--r", "2", "--n", "4", "reduce", "s[2]*c1^5000 - (c1^2 - c2)*c1^5000 + c1"], 2, b"",
         b"error: a monomial of 5002 factors exceeds the fold budget of 5000 factors\n"),
    ]
    for args, code, out, err in cases:
        assert run_cli("gr", *args, timeout=10) == (code, out, err), args


def test_schur_input_errors_by_class():
    # to-schur and certify fail alike, in the order of the table; the
    # budget and the families are read from the syntax tree before any
    # evaluation, so a sum whose high terms cancel and a family that cancels
    # out are rejected too
    budget = b"error: degree 41 exceeds the output budget: p(41) > 37338 terms\n"
    mixed = b"error: polynomial mixes generator families: ['c', \"c'\"]\n"
    cases = [
        (["c1 +"], b"parse error: unexpected end of input (at position 4)\n"),
        (["--length-bound", "-1", "c1"], b"error: length bound must be nonnegative, got -1\n"),
        (["--length-bound", "2", "c1^3"],
         b"error: not expressible with length bound 2: support on [(1, 1, 1)]\n"),
        (["c1^41"], budget),
        (["c1^41 - c1^41 + c1"], budget),
        (["(c1^41)^0"], budget),
        (["(c1 + 1)^3000"],
         b"error: degree 3000 exceeds the output budget: p(3000) > 37338 terms\n"),
        (["c1*c'1"], mixed),
        (["c1 - c1 + c'1"], mixed),
        (["v1^2"], b"error: Schur expansion is defined for c-type families only\n"),
        (["v1 - v1"], b"error: Schur expansion is defined for c-type families only\n"),
        (["c1 + c2"], b"error: polynomial is not homogeneous (degrees [1, 2])\n"),
        (["s[2]*s[1] - q[3] + 1"],
         b"error: polynomial is not homogeneous (degrees [0, 3])\n"),
    ]
    for command in ("to-schur", "certify"):
        for args, err in cases:
            assert run_cli(command, *args) == (2, b"", err), (command, args)


def test_over_long_int_options_are_not_echoed():
    limit = sys.get_int_max_str_digits()
    ones = "1" * (limit + 100)
    for argv, flag in ((["lg", "--n", ones, "pairing"], "--n"),
                       (["gr", "--r", ones, "--n", "4", "pairing"], "--r"),
                       (["to-schur", "--length-bound", ones, "c1"], "--length-bound"),
                       (["schur-bundle", "--rank", "-" + ones, "--functor", "1",
                         "--class", "1"], "--rank")):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, b""), flag
        assert err.startswith(b"usage: schurcalc "), flag
        assert err.endswith(f"error: argument {flag}: a value of {limit + 100} digits "
                            f"exceeds the limit of {limit} digits\n".encode()), flag
        assert len(err) < 400, flag
    # a value within the limit keeps argparse's own message
    code, out, err = run_cli("gr", "--r", "x", "--n", "4", "pairing")
    assert err.endswith(b"error: argument --r: invalid int value: 'x'\n")


def test_zero_class_keeps_its_degree(capsys):
    code, payload = run_json(capsys, "gr", "--r", "2", "--n", "4", "integrate", "c3*c1")
    assert (code, payload) == (0, {"ring": "Gr(2,4)", "value": "0"})
    code, payload = run_json(capsys, "gr", "--r", "2", "--n", "4", "reduce", "c3")
    assert (code, payload) == (0, {"ring": "Gr(2,4)", "degree": 3, "expansion": []})
    code, payload = run_json(capsys, "lg", "--n", "2", "integrate", "c3")
    assert (code, payload) == (0, {"ring": "LG(2)", "value": "0"})
    code, payload = run_json(capsys, "lg", "--n", "2", "reduce", "c3")
    assert (code, payload) == (0, {"ring": "LG(2)", "degree": 3, "expansion": []})
    # degree 4 lies above the top degree 3 of LG(2)
    assert main(["lg", "--n", "2", "integrate", "c3*c1"]) == 2
    assert "exceeds the top degree 3" in capsys.readouterr().err


def test_degree_above_top_fails_before_evaluation(capsys):
    # evaluation would build s[25] and c1^100000000 before any check
    for argv, err in ((["gr", "--r", "2", "--n", "4", "reduce", "s[25]"],
                       b"error: degree 25 exceeds the top degree 4 of Gr(2,4)\n"),
                      (["gr", "--r", "2", "--n", "4", "reduce", "0*s[25]"],
                       b"error: degree 25 exceeds the top degree 4 of Gr(2,4)\n"),
                      (["lg", "--n", "2", "integrate", "c1^100000000"],
                       b"error: degree 100000000 exceeds the top degree 3 of LG(2)\n")):
        proc = subprocess.run([sys.executable, "-m", "schurcalc", *argv],
                              capture_output=True, timeout=30)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", err), argv
    # a value that cancels to zero keeps the degree read from the syntax tree
    code, payload = run_json(capsys, "gr", "--r", "2", "--n", "4", "reduce", "c1^2-c1^2")
    assert (code, payload) == (0, {"ring": "Gr(2,4)", "degree": 2, "expansion": []})
    code, payload = run_json(capsys, "gr", "--r", "2", "--n", "4", "integrate", "c1^4-c1^4")
    assert (code, payload) == (0, {"ring": "Gr(2,4)", "value": "0"})
    # an unknown degree still takes the evaluated polynomial's checks, and a
    # polynomial that c_k above the rank kills keeps its own degree
    code, out, err = run_cli("gr", "--r", "2", "--n", "4", "reduce", "c1 + c2")
    assert (code, err) == (2, b"error: polynomial is not homogeneous (degrees [1, 2])\n")
    code, out, err = run_cli("gr", "--r", "2", "--n", "4", "integrate", "c1^5+c1^4")
    assert (code, err) == (2, b"error: polynomial is not homogeneous (degrees [4, 5])\n")
    code, payload = run_json(capsys, "gr", "--r", "2", "--n", "4", "reduce", "c3+c1-c1")
    assert (code, payload) == (0, {"ring": "Gr(2,4)", "degree": 3, "expansion": []})


def test_deep_nesting_is_a_parse_error():
    deep = "(" * 3000 + "c1" + ")" * 3000
    code, out, err = run_cli("certify", deep)
    assert code == 2
    assert b"parse error" in err
    assert b"Traceback" not in err


def test_negative_rank_is_rejected():
    code, out, err = run_cli("schur-bundle", "--rank", "-1", "--functor", "2",
                             "--class", "1")
    assert code == 2
    assert out == b""
    assert b"rank must be nonnegative" in err


def test_omitted_partition_argument_is_usage_error(capsys):
    for argv in (["gr", "--r", "2", "--n", "4", "dual"], ["lg", "--n", "3", "dual"],
                 ["lg", "--n", "3", "restrict"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "needs a partition argument" in captured.err
    code, out, err = run_cli("gr", "--r", "2", "--n", "4", "dual")
    assert (code, out) == (2, b"")
    assert b"Traceback" not in err


def test_empty_partition_spellings(capsys):
    for spelling in ("", "0", "[]"):
        code, payload = run_json(capsys, "gr", "--r", "2", "--n", "4", "dual", spelling)
        assert (code, payload) == (0, {"partition": [2, 2]})
        code, payload = run_json(capsys, "lg", "--n", "3", "dual", spelling)
        assert (code, payload) == (0, {"strict_partition": [3, 2, 1]})
        code, payload = run_json(capsys, "lg", "--n", "3", "restrict", spelling)
        assert (code, payload["expansion"]) == \
            (0, [{"strict_partition": [], "coeff": "1"}])


def test_pairing_budget_rejects_before_enumerating():
    # LG(12) (4096 classes) fails on its cells; Gr(10,20) (184756 classes) and
    # LG(100000) fail on their class counts before any cell is counted
    for argv, label in ((["gr", "--r", "10", "--n", "20", "pairing"], "Gr(10,20)"),
                        (["lg", "--n", "12", "pairing"], "LG(12)"),
                        (["lg", "--n", "100000", "pairing"], "LG(100000)")):
        proc = subprocess.run([sys.executable, "-m", "schurcalc", *argv],
                              capture_output=True, timeout=30)
        err = f"error: {label} exceeds the pairing budget: more than 75000 matrix cells\n"
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", err.encode()), argv


def test_thin_grassmannian_pairings_pass_the_product_budget():
    # basis_product held the lighter class to p(w) <= 37338 terms, so both
    # exited 2 with "degree 41 exceeds the output budget"; their degrees
    # hold at most 1 and 25 classes
    for argv in (["gr", "--r", "1", "--n", "90", "pairing"],
                 ["gr", "--r", "2", "--n", "50", "pairing"]):
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, b""), argv
        assert out.endswith(b'"is_dual_permutation":true}\n'), argv
    # Gr(1,803) passes the pairing budget with 803 cells, but its products
    # of two classes of weight 401 pass the product budget's weight
    assert run_cli("gr", "--r", "1", "--n", "803", "pairing") == \
        (2, b"", b"error: a factor of weight 401 exceeds the product budget of Gr(1,803): "
                 b"weights up to 400\n")


def test_negative_length_bound_is_rejected():
    for argv in (["to-schur", "--length-bound", "-1", "c1"],
                 ["to-schur", "--length-bound", "-1", "0"],
                 ["certify", "--length-bound", "-2", "c1"]):
        code, out, err = run_cli(*argv)
        bound = argv[2]
        assert (code, out, err) == \
            (2, b"", f"error: length bound must be nonnegative, got {bound}\n".encode()), argv


def test_output_budget_rejects_before_evaluation(capsys):
    # p(60) = 966467 terms: c1^60 grew to gigabytes before the budget
    for argv, degree in ((["to-schur", "c1^60"], 60), (["certify", "c1^100000000"], 100000000),
                         (["to-schur", "s[400]"], 400), (["to-schur", "q[400]"], 400),
                         # restrict builds s[lam] of LG(n) within the budget
                         (["lg", "--n", "10", "reduce", "s[10,10,10,10,10]"], 50),
                         # the builders of s_lam and Q_mu check their own weight
                         (["lr", "41", "41"], 41),
                         (["qtilde", "12,11,10,9,8,7,6,5,4,3,2,1"], 78),
                         (["lg", "--n", "10", "restrict", "10,10,10,10,10"], 50)):
        proc = subprocess.run([sys.executable, "-m", "schurcalc", *argv],
                              capture_output=True, timeout=30)
        err = f"error: degree {degree} exceeds the output budget: p({degree}) > 37338 terms\n"
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", err.encode()), argv
    # degree 40 is within the budget, and ring commands on c-monomials are
    # bounded by their ring, not by p(d)
    code, payload = run_json(capsys, "to-schur", "0*c1^40")
    assert (code, payload) == (0, {"degree": None, "expansion": []})
    code, payload = run_json(capsys, "gr", "--r", "6", "--n", "14", "integrate", "c1^48")
    hooks = prod(13 - i - j for i in range(6) for j in range(8))
    assert (code, payload) == (0, {"ring": "Gr(6,14)", "value": str(factorial(48) // hooks)})


def test_ring_commands_read_basis_atoms_as_schubert_classes(capsys):
    # an s or q atom is a Schubert class of the ring, not a c-polynomial of
    # p(d) terms: point classes and products of heavy classes past the
    # output budget print their value, and s[2]^3000 is 3000 products of
    # one class
    for argv in (["gr", "--r", "2", "--n", "30", "integrate", "s[28]*s[28]"],
                 ["gr", "--r", "2", "--n", "24", "integrate", "s[22,22]"],
                 ["gr", "--r", "5", "--n", "14", "integrate", "s[9,9,9,9,9]"],
                 ["gr", "--r", "1", "--n", "50", "integrate", "s[49]"],
                 ["lg", "--n", "9", "integrate", "q[9,8,7,6,5,4,3,2,1]"],
                 ["gr", "--r", "1", "--n", "6001", "integrate", "s[2]^3000"]):
        code, payload = run_json(capsys, *argv)
        assert (code, payload["value"]) == (0, "1"), argv
    # a class outside its box is 0, and keeps its degree
    code, payload = run_json(capsys, "gr", "--r", "20", "--n", "40", "reduce", "s[400]")
    assert (code, payload) == (0, {"ring": "Gr(20,40)", "degree": 400, "expansion": []})
    code, payload = run_json(capsys, "lg", "--n", "3", "reduce", "s[4]*c1 + q[4,1]")
    assert (code, payload) == (0, {"ring": "LG(3)", "degree": 5, "expansion": []})


def _limit_address_space():
    # an index of 10^8 parts takes gigabytes, so a regression fails fast
    # with a MemoryError instead of filling the machine
    limit = 1536 * 2 ** 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_huge_rings_build_only_what_the_command_prints():
    # the point class is built on first use and only integrate reads it, so
    # a huge ring reduces and rejects at once; a dual index of more than
    # 37338 parts is rejected before it is built
    cases = [
        (["lg", "--n", "100000000", "reduce", "c1"], 0,
         b'{"ring":"LG(100000000)","degree":1,'
         b'"expansion":[{"strict_partition":[1],"coeff":"1"}]}\n', b""),
        (["gr", "--r", "50000000", "--n", "100000000", "reduce", "c1"], 0,
         b'{"ring":"Gr(50000000,100000000)","degree":1,'
         b'"expansion":[{"partition":[1],"coeff":"1"}]}\n', b""),
        (["lg", "--n", "100000000", "integrate", "c1"], 2, b"",
         b"error: integration needs degree 5000000050000000, got 1\n"),
        (["lg", "--n", "100000000", "dual", "1"], 2, b"",
         b"error: the dual index exceeds the output budget: 99999999 > 37338 parts\n"),
        (["gr", "--r", "50000000", "--n", "100000000", "dual", "1"], 2, b"",
         b"error: the dual index exceeds the output budget: 50000000 > 37338 parts\n"),
        (["lg", "--n", "37340", "dual", "1"], 2, b"",
         b"error: the dual index exceeds the output budget: 37339 > 37338 parts\n"),
        # an index outside the ring is reported before the budget
        (["lg", "--n", "100000000", "dual", "100000001"], 2, b"",
         b"error: StrictPartition([100000001]) is not contained in the staircase "
         b"of 100000000\n"),
    ]
    for argv, code, out, err in cases:
        proc = subprocess.run([sys.executable, "-m", "schurcalc", *argv], capture_output=True,
                              timeout=30, preexec_fn=_limit_address_space)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), argv
    # the largest dual within the budget has 37338 parts
    code, out, err = run_cli("lg", "--n", "37339", "dual", "1")
    assert (code, err) == (0, b"")
    assert json.loads(out) == {"strict_partition": list(range(37339, 1, -1))}


def test_fold_budget_rejects_huge_exponents_at_once():
    # the exponent equals the top degree, so the degree check passes; the
    # fold then listed one index per factor and died with a MemoryError
    cases = [
        (["gr", "--r", "2", "--n", "100000000", "integrate", "c1^199999996"], 199999996),
        (["lg", "--n", "100000000", "integrate", "c1^5000000050000000"], 5000000050000000),
        (["gr", "--r", "1", "--n", "5002", "integrate", "c1^5001"], 5001),
    ]
    for argv, factors in cases:
        proc = subprocess.run([sys.executable, "-m", "schurcalc", *argv], capture_output=True,
                              timeout=30, preexec_fn=_limit_address_space)
        err = f"error: a monomial of {factors} factors exceeds the fold budget of 5000 factors\n"
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", err.encode()), argv
    # a power of c_k keeps its exponent until the fold, so a zero multiple
    # of one is never folded
    code, out, err = run_cli("gr", "--r", "2", "--n", "100000000", "integrate", "0*c1^199999996")
    assert (code, out, err) == (0, b'{"ring":"Gr(2,100000000)","value":"0"}\n', b"")


def test_the_fold_budget_names_the_first_long_monomial_whatever_the_hash_seed():
    # the pending c-monomials are folded in the order of the expression's
    # terms, so the message does not follow the hash seed
    argv = [sys.executable, "-m", "schurcalc", "gr", "--r", "1", "--n", "5004", "reduce",
            "s[2]*c1^5001+c1^5003"]
    err = b"error: a monomial of 5001 factors exceeds the fold budget of 5000 factors\n"
    for seed in range(6):
        proc = subprocess.run(argv, capture_output=True, timeout=30,
                              env={**os.environ, "PYTHONHASHSEED": str(seed)})
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", err), seed


# A spawned child starts as a copy of its parent, whose peak RSS its
# ru_maxrss keeps, so a small Python spawns the command and reads its peak
_PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
out, err = proc.stdout.read(), proc.stderr.read()
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(repr((proc.returncode, out, err, usage.ru_maxrss)))
"""


# a fold keeps neither its prefixes nor its steps: c1^5000 in P^5000, the
# budget itself, peaks near 16 MB, where a memo of its prefixes took 112 MB;
# c1^800 in Gr(2,402) and c1^136 in LG(16) near 15 MB, where a memo of every
# step the fold took held 48 and 144 MB, and a memo of the Q-tilde step's
# tails 89 MB in LG(16)
@pytest.mark.parametrize("command, ring, value, megabytes", [
    ("gr --r 1 --n 5001 integrate c1^5000", "Gr(1,5001)", 1, 40),
    ("gr --r 2 --n 402 integrate c1^800", "Gr(2,402)", comb(800, 400) // 401, 30),
    ("lg --n 16 integrate c1^136", "LG(16)",
     2 ** 120 * oracles.shifted_tableaux_count(tuple(range(16, 0, -1))), 40),
], ids=["Gr(1,5001)", "Gr(2,402)", "LG(16)"])
def test_a_long_fold_keeps_a_small_peak(command, ring, value, megabytes):
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "schurcalc",
                           *command.split()], capture_output=True, check=True, timeout=60)
    code, out, err, peak = ast.literal_eval(proc.stdout.decode())
    assert (code, out, err) == (0, f'{{"ring":"{ring}","value":"{value}"}}\n'.encode(), b"")
    assert peak < megabytes * 1024  # kilobytes on Linux


def test_readme_library_quick_start():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme[readme.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    src = str(Path(schurcalc.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "POSITIVE",
        "[{'partition': [4], 'coeff': '1'}, {'partition': [3, 1], 'coeff': '9'}, "
        "{'partition': [2, 2], 'coeff': '10'}, {'partition': [2, 1, 1], 'coeff': '26'}, "
        "{'partition': [1, 1, 1, 1], 'coeff': '24'}]",
        "2",
        "[{'strict_partition': [3], 'coeff': '1'}, {'strict_partition': [2, 1], 'coeff': '1'}]",
    ]


def test_schur_bundle_bounds_are_checked_before_any_tableau():
    # the root count comes from Weyl's formula, so a huge rank or functor is
    # rejected at once; det(E)^k and the zero functor have one root, read in
    # |mu| variables
    ones = ",".join(["1"] * 30)
    many_ones = ",".join(["1"] * 1200)
    bound = b" roots exceed the work bound 20\n"
    line = b'{"degree":1,"expansion":[{"partition":[1],"coeff":"1"}]}\n'
    cases = [
        (["--rank", "20", "--functor", "10,10"], 2, b"", b"error: 23896002230100" + bound),
        (["--rank", "100000000", "--functor", "1"], 2, b"", b"error: 100000000" + bound),
        (["--rank", "2", "--functor", "1000000"], 2, b"", b"error: 1000001" + bound),
        (["--rank", "30", "--functor", ones], 0, line, b""),
        (["--rank", "1200", "--functor", many_ones], 0, line, b""),
        (["--rank", "1000000000", "--functor", "0"], 0,
         b'{"degree":1,"expansion":[]}\n', b""),
    ]
    for args, code, out, err in cases:
        argv = ["schur-bundle", *args, "--class", "1"]
        proc = subprocess.run([sys.executable, "-m", "schurcalc", *argv], capture_output=True,
                              timeout=30, preexec_fn=_limit_address_space)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), args[:2]


def test_graded_leaves_are_held_to_the_budgets(capsys):
    # c'_k has degree k and v1, v2 degree 1, so the output budget and the
    # top degree see them before evaluation
    budget = "error: degree {0} exceeds the output budget: p({0}) > 37338 terms\n"
    cases = [
        (["to-schur", "c'1^41"], budget.format(41)),
        (["to-schur", "c'1^50"], budget.format(50)),
        (["to-schur", "(v1+v2)^3000"], budget.format(3000)),
        (["lg", "--n", "5", "reduce", "(v1+v2)^3000"],
         "error: degree 3000 exceeds the top degree 15 of LG(5)\n"),
    ]
    for argv, err in cases:
        proc = subprocess.run([sys.executable, "-m", "schurcalc", *argv], capture_output=True,
                              timeout=30, preexec_fn=_limit_address_space)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", err.encode()), argv
    # within the top degree a c' input gets the family message, even when
    # it cancels to zero
    for text in ("c'1", "c'1^2 - c'1^2"):
        code, out, err = run_cli("gr", "--r", "2", "--n", "4", "reduce", text)
        assert (code, out, err) == \
            (2, b"", b"error: Gr(2,4) expects a polynomial in the c family only\n"), text


def test_integers_past_the_digit_limit_are_budget_errors():
    limit = sys.get_int_max_str_digits()
    # a coefficient too long for str() is held to the output budget
    code, out, err = run_cli("certify", "99^9999*c1")
    assert (code, out, err) == (2, b"", f"error: a coefficient exceeds the output budget: "
                                        f"more than {limit} digits\n".encode())
    # a literal too long for int() is a parse error at its position
    digits = limit + 100
    code, out, err = run_cli("certify", "c1 + " + "1" * digits + "*c1")
    assert (code, out, err) == (2, b"", f"parse error: a number of {digits} digits exceeds "
                                        f"the limit of {limit} digits (at position 5)\n".encode())
    # 7^5000 has 4226 digits, within the limit
    code, out, err = run_cli("gr", "--r", "2", "--n", "4", "integrate", "7^5000*c1^4")
    assert (code, err) == (0, b"")
    assert json.loads(out) == {"ring": "Gr(2,4)", "value": str(2 * 7**5000)}


def test_degrees_and_parts_past_the_digit_limit_are_not_echoed():
    limit = sys.get_int_max_str_digits()
    n = "7" * 3000  # (c1^n)^n has a degree of about 6000 digits
    for argv in (["to-schur", f"(c1^{n})^{n}"],
                 ["gr", "--r", "2", "--n", "4", "integrate", f"(c1^{n})^{n}"]):
        assert run_cli(*argv) == (2, b"", f"error: the degree exceeds the output budget: "
                                          f"more than {limit} digits\n".encode()), argv[0]
    # the highest degree of a sum is checked first in certify, and its degree
    # list in a ring reduction
    assert run_cli("certify", f"(c1^{n})^{n} + c1") == \
        (2, b"", f"error: the degree exceeds the output budget: more than {limit} digits\n".encode())
    assert run_cli("gr", "--r", "2", "--n", "4", "reduce", f"(c1^{n})^{n} + c1") == \
        (2, b"", f"error: a degree exceeds the output budget: more than {limit} digits\n".encode())
    # r (n - r) has about 4500 digits
    r, m = "1" * (limit // 2 + 100), "2" * (limit // 2 + 100)
    assert run_cli("gr", "--r", r, "--n", m, "integrate", "c1") == \
        (2, b"", f"error: the top degree exceeds the output budget: "
                 f"more than {limit} digits\n".encode())
    # a monomial of more factors than the limit writes fails the fold budget
    # without writing its count: (c1^e)^e has a degree of about 8000 digits,
    # below the top degree 2 . 10^(2 (limit - 10)) of this ring
    zeros, e = "0" * (limit - 10), "9" * 4000
    code, out, err = run_cli("gr", "--r", "1" + zeros, "--n", "3" + zeros, "reduce",
                             f"(c1^{e})^{e}")
    assert (code, out) == (2, b"")
    assert len(err) < 300 and b"set_int_max_str_digits" not in err
    ones = "1" * (limit + 100)
    for argv in (["lr", ones, "1"], ["gr", "--r", "2", "--n", "4", "dual", ones],
                 ["lg", "--n", "3", "dual", f"2,{ones}"]):
        assert run_cli(*argv) == (2, b"", f"error: bad partition argument: a part of "
                                          f"{limit + 100} digits exceeds the limit of "
                                          f"{limit} digits\n".encode()), argv[0]


def test_error_messages_write_huge_numbers_by_their_digit_count():
    # a ring label and the dual-index budget repeat --r and --n; within the
    # int/str digit limit they pass int(), and a message names a number of
    # more than 40 digits by its digit count
    ones, twos = "1" * 2200, "2" * 2200
    cases = [
        (["gr", "--r", ones, "--n", twos, "pairing"],
         b"error: Gr(<2200 digits>,<2200 digits>) exceeds the pairing budget: "
         b"more than 75000 matrix cells\n"),
        (["lg", "--n", ones, "dual", "1"],
         b"error: the dual index exceeds the output budget: <2200 digits> > 37338 parts\n"),
        (["lg", "--n", "9" * 41, "dual", "1"],
         b"error: the dual index exceeds the output budget: <41 digits> > 37338 parts\n"),
        (["lg", "--n", "9" * 40, "dual", "1"],
         b"error: the dual index exceeds the output budget: " + b"9" * 39 +
         b"8 > 37338 parts\n"),
    ]
    for argv, err in cases:
        assert run_cli(*argv) == (2, b"", err), argv
        assert len(err) < 300
    # an output names its ring in full
    code, out, err = run_cli("lg", "--n", ones, "reduce", "c1")
    assert (code, err) == (0, b"")
    assert json.loads(out)["ring"] == f"LG({ones})"


def test_closed_stdout_is_one_error_line():
    proc = subprocess.run([sys.executable, "-m", "schurcalc", "lr", "2,1", "1"],
                          stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), timeout=60)
    assert (proc.returncode, proc.stderr) == (2, b"error: standard output is closed\n")


def _exits(argv, stdout=subprocess.PIPE, unbuffered=False):
    """(code, stdout, stderr) of `python -m schurcalc ARGV`, which ends in
    cli.run's exit without teardown, and of the same command ending in
    sys.exit(main()) and the interpreter's teardown."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    results = []
    for command in (["-m", "schurcalc"],
                    ["-c", "import sys; from schurcalc.cli import main; sys.exit(main())"]):
        proc = subprocess.run([sys.executable, *command, *argv], stdout=stdout,
                              stderr=subprocess.PIPE, env=env, timeout=60)
        results.append((proc.returncode, proc.stdout, proc.stderr))
    return results


def test_fast_exit_keeps_codes_and_bytes():
    for argv, code in ((["lg", "--n", "3", "pairing"], 0),
                       (["certify", "c1^2-3*s[2]"], 1),
                       (["certify", "c1 +"], 2),
                       (["--help"], 0), (["gr", "--help"], 0),
                       (["gr", "--r", "x", "--n", "4", "pairing"], 2)):
        fast, slow = _exits(argv)
        assert fast == slow, argv
        # an answer or help on stdout, or one message on stderr
        assert (fast[0], bool(fast[1]), bool(fast[2])) == (code, code < 2, code == 2), argv


def test_fast_exit_reports_failed_writes_as_teardown_does():
    # the output sits in stdout's buffer until the exit flushes it; that
    # flush fails, and the interpreter reports it with exit code 120
    if Path("/dev/full").exists():
        with open("/dev/full", "wb") as full:
            fast, slow = _exits(["lr", "2,1", "1"], stdout=full)
        assert fast == slow
        assert fast[0] == 120 and fast[2].endswith(b"No space left on device\n")
    for unbuffered in (False, True):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the command writes
        try:
            fast, slow = _exits(["lg", "--n", "3", "pairing"], stdout=write,
                                unbuffered=unbuffered)
        finally:
            os.close(write)
        assert fast == slow, unbuffered
        if unbuffered:  # the write itself fails, and main reports it
            assert fast == (2, None, b"error: [Errno 32] Broken pipe\n")
        else:
            assert fast[0] == 120 and fast[2].endswith(b"BrokenPipeError: [Errno 32] Broken pipe\n")
            assert b"Traceback" not in fast[2]


def test_an_exception_in_main_prints_its_traceback():
    failing = ("import schurcalc.cli as cli; "
               "cli._run_command = lambda args: 1 // 0; cli.run()")
    proc = subprocess.run([sys.executable, "-c", failing, "lr", "1", "1"],
                          capture_output=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"Traceback (most recent call last):\n")
    assert proc.stderr.endswith(b"ZeroDivisionError: integer division or modulo by zero\n")


def test_main_returns_and_run_exits(monkeypatch, capsys):
    # main never exits, so tests and the benchmark call it in-process
    assert main(["lr", "1", "1"]) == 0
    assert main(["certify", "c1 +"]) == 2
    # run turns main's return and argparse's SystemExit into os._exit
    exits = []
    monkeypatch.setattr(os, "_exit", exits.append)
    for argv in (["lr", "1", "1"], ["certify", "c1^2-3*s[2]"], ["bogus"], ["--help"]):
        monkeypatch.setattr(sys, "argv", ["schurcalc", *argv])
        cli.run()
    assert exits == [0, 1, 2, 0]
    capsys.readouterr()

    # a flush that fails hands the exit to sys.exit
    class Closed(io.StringIO):
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    monkeypatch.setattr(sys, "argv", ["schurcalc", "lr", "1", "1"])
    try:
        cli.run()
    except SystemExit as exc:
        assert exc.code == 0
    else:
        raise AssertionError("run did not exit")
    assert exits == [0, 1, 2, 0]


def test_unicode_digits_outside_decimal_are_parse_errors():
    code, out, err = run_cli("certify", "c\u00b2")
    assert (code, out, err) == \
        (2, b"", b"parse error: expected a natural number (at position 1)\n")


# The reader's alphabet: every flag of COMMANDS, their abbreviations and
# --flag=value spellings, help, --, and values in and out of each choice,
# negative, non-numeric and starting with a dash
_FLAGS = sorted({"--pretty", "--input"} | {option[0] for _, options, _ in COMMANDS.values()
                                         for option in options})
_INTS = ["2", "4", "0", "-1", " 3", "3_0", "x", ""]
_TEXTS = ["c1^2", "2,1", "FILE", "", "-", "-1", "-x", "-h", "--r", "--"]
_TOKENS = [*_FLAGS, *(f[:k] for f in _FLAGS for k in (3, 4)), *(f"{f}=2" for f in _FLAGS),
           "--help", "--bogus", *COMMANDS, "cert", "nonsense", "reduce", "classical", *_INTS,
           *_TEXTS]


def _values(kind, choices):
    if choices is not None:
        return [*choices, "nope", "-x", ""]
    return _INTS if kind is int else _TEXTS


@st.composite
def _argv(draw):
    """A canonical argv of a drawn command, then a few tokens replaced,
    inserted or dropped."""
    argv = []
    for flag in draw(st.lists(st.sampled_from(["--pretty", "--input"]), max_size=2)):
        argv += [flag] if flag == "--pretty" else [flag, draw(st.sampled_from(_TEXTS))]
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv.append(command)
    _, options, positionals = COMMANDS[command]
    for flag, _, kind, choices, _, _ in draw(st.permutations(options)):
        if draw(st.integers(0, 4)):
            argv += [flag, draw(st.sampled_from(_values(kind, choices)))]
    for _, choices, _ in positionals:
        if draw(st.integers(0, 4)):
            argv.append(draw(st.sampled_from(_values(None, choices))))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["replace", "insert", "drop"]))
        if edit == "insert" or not argv[at:]:
            argv.insert(at, draw(st.sampled_from(_TOKENS)))
        elif edit == "replace":
            argv[at] = draw(st.sampled_from(_TOKENS))
        else:
            del argv[at]
    return argv


@settings(derandomize=True, deadline=None, max_examples=1500)
@given(_argv())
def test_read_argv_agrees_with_argparse(argv):
    args = read_argv(argv)
    if args is not None:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                expected = build_parser().parse_args(argv)
            except SystemExit:
                raise AssertionError(f"argparse rejects {argv}: {err.getvalue()}") from None
        assert vars(args) == vars(expected), argv


_JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\\b\f\n\r\t\x00\x1f\x7f\x80\u2028\U0001f600'),
                               st.characters(blacklist_categories=())))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**60, 10**60) | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.lists(st.integers(), max_size=4)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=20)


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(_JSON_VALUES)
def test_to_json_equals_json_dumps(value):
    assert to_json(value) == json.dumps(value, separators=(",", ":"))
