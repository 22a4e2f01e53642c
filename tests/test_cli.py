import ast
import json
import subprocess
import sys
from pathlib import Path

import schurcalc
from schurcalc import linalg
from schurcalc.cli import SUBCOMMAND_OPERATIONS, main

import oracles


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "schurcalc", *argv],
        capture_output=True,
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


def test_audit_each_operation_has_one_subcommand():
    seen = {}
    for command, ops in SUBCOMMAND_OPERATIONS.items():
        for op in ops:
            assert op not in seen, f"{op} owned by {seen[op]} and {command}"
            seen[op] = command
    expected = {
        "to_schur", "certify", "lr_multiply", "qtilde",
        "gr_reduce", "gr_integrate", "rectangle_dual", "gr_pairing",
        "lg_reduce", "lg_integrate", "strict_complement", "lg_restrict",
        "lg_pairing",
        "verify_thom_table", "verify_lagrangian_table", "verify_legendrian_table",
        "schur_bundle_class",
    }
    assert set(seen) == expected


def test_public_names_resolve():
    for name in schurcalc.__all__:
        assert hasattr(schurcalc, name), name


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
    assert {"lr_oracle", "to_schur_oracle", "lg_reduce_by_solve",
            "solve_exact", "NonUniqueSolutionError"} <= oracle_names
    assert not oracle_names & set(schurcalc.__all__)


def test_inhomogeneous_message_is_capped():
    for argv in (["to-schur", "(c1+c2)^300"], ["certify", "(c1+c2)^300"],
                 ["gr", "--r", "2", "--n", "400", "reduce", "(c1+c2)^300"],
                 ["lg", "--n", "2", "integrate", "(c1+c2)^300"]):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, b""), argv
        assert b"Traceback" not in err
        assert len(err) < 200, argv
        assert b"(degrees [300, 301, 302, ..., 600], 301 in all)" in err, argv
    # up to four degrees the message lists them all
    code, out, err = run_cli("to-schur", "c1 + c2 + c3 + c4")
    assert (code, out, err) == \
        (2, b"", b"error: polynomial is not homogeneous (degrees [1, 2, 3, 4])\n")


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
