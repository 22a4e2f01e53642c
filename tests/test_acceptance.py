"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check is an exact integer identity; the only tolerances are the two
stated runtime budgets.  Run with `pytest -v tests/test_acceptance.py -s`
to see the per-criterion lines.
"""

import json
import subprocess
import sys
import time

from schurcalc.legendrian import (
    LEGENDRIAN_RANK,
    LEGENDRIAN_TABLE,
    lagrangian_part,
    legendrian_parse,
    legendrian_positivity,
)
from schurcalc.partitions import Partition
from schurcalc.polynomial import (
    FAMILY_C,
    FAMILY_CPRIME,
    CPolynomial,
)
from schurcalc.positivity import CLASSICAL_THOM_TABLE, certify, hook_contains, verify_thom_table
from schurcalc.pairing import enumerate_partitions
from schurcalc.rings import GrassmannianRing, LagrangianRing
from schurcalc.schur import lr_multiply, schur_dual_jt, to_schur
from schurcalc.bundles import schur_bundle_class

from oracles import (
    BundleSymbol,
    dimension_identity,
    ideal_generator,
    is_nonnegative,
    lr_oracle,
    monomials_of_degree,
    partitions_up_to,
    schur_jt,
    super_split_poly,
    supersymmetrize,
    to_schur_oracle,
)


def _ok(number: int, label: str):
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_classical_thom_corpus():
    start = time.perf_counter()
    reports = verify_thom_table()
    assert [r.name for r in reports] == \
        ["A_3", "A_4", "A_5", "I_2,2", "I_2,3", "I_2,4"]
    for report in reports:
        assert report.verdict == "POSITIVE", report.name
        assert report.expansion.coefficient_sum() > 0, report.name
    by_name = {r.name: r for r in reports}
    assert by_name["I_2,2"].expansion.coefficients == {Partition([2, 2]): 1}
    assert by_name["A_3"].expansion.coefficients == {
        Partition([3]): 1, Partition([2, 1]): 5, Partition([1, 1, 1]): 6}
    # frozen values confirmed by the independent monomial-expansion oracle
    for name in ("I_2,2", "A_3"):
        entry = next(e for e in CLASSICAL_THOM_TABLE if e.name == name)
        assert to_schur_oracle(entry.polynomial) == by_name[name].expansion
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"corpus verification took {elapsed:.3f}s"
    _ok(1, "classical Thom corpus positive, frozen expansions oracle-confirmed")


def test_criterion_2_lr_oracle_equivalence():
    start = time.perf_counter()
    pairs = 0
    for total in range(7):
        for a in range(total + 1):
            for lam in enumerate_partitions(a):
                for mu in enumerate_partitions(total - a):
                    fast = lr_multiply(lam, mu)
                    assert is_nonnegative(fast), (lam, mu)
                    assert fast == lr_oracle(lam, mu), (lam, mu)
                    pairs += 1
    elapsed = time.perf_counter() - start
    assert pairs == 139
    assert elapsed < 10.0, f"LR equivalence took {elapsed:.3f}s"
    _ok(2, f"lr_multiply == lr_oracle on {pairs} pairs, all nonnegative")


def test_criterion_3_grassmannian_duality():
    for (r, n) in [(2, 4), (2, 5), (3, 6)]:
        ring = GrassmannianRing(r, n)
        for d in range(ring.top_degree + 1):
            rows, cols, matrix = ring.pairing_matrix(d)
            for i, lam in enumerate(rows):
                partner = ring.dual(lam)
                for j, mu in enumerate(cols):
                    expected = 1 if mu == partner else 0
                    assert matrix[i][j] == expected, (r, n, lam, mu)
    _ok(3, "Gr(2,4)/Gr(2,5)/Gr(3,6) pairing is the rectangle-dual permutation")


def test_criterion_4_lagrangian_duality_and_ideal():
    for n in range(1, 5):
        ring = LagrangianRing(n)
        for d in range(ring.top_degree + 1):
            rows, cols, matrix = ring.pairing_matrix(d)
            for i, mu in enumerate(rows):
                partner = ring.dual(mu)
                for j, nu in enumerate(cols):
                    expected = 1 if nu == partner else 0
                    assert matrix[i][j] == expected, (n, mu, nu)
        for i in range(1, n + 1):
            gen = ideal_generator(ring, i)
            for d in range(ring.top_degree - 2 * i + 1):
                for mono in monomials_of_degree(d, FAMILY_C, max_index=n):
                    product = CPolynomial({mono: 1}) * gen
                    assert ring.reduce(product).is_zero(), (n, i, mono)
    _ok(4, "LG(n<=4) pairing is the set-complement permutation; ideal killed")


def test_criterion_5_lg_basis_certificate():
    for n in range(1, 5):
        ring = LagrangianRing(n)
        for d in range(ring.top_degree + 1):
            info = dimension_identity(ring, d)
            assert info["monomials"] == info["basis"] + info["ideal_rank"], (n, d)
    _ok(5, "degreewise dimension identity certifies the LG presentation, n<=4")


def test_criterion_6_restriction_positivity():
    checked = 0
    for n in (2, 3):
        ring = LagrangianRing(n)
        for d in range(n * n + 1):
            for lam in enumerate_partitions(d, max_part=n, max_length=n):
                assert is_nonnegative(ring.restrict(lam)), (n, lam)
                checked += 1
    assert checked == 6 + 20  # partitions inside the 2x2 and 3x3 squares
    _ok(6, "restriction LG(V) in G_n(V) is Schubert-nonnegative, n in {2,3}")


def test_criterion_7_schur_bundle_positivity():
    for lam in [Partition([1]), Partition([2]), Partition([1, 1])]:
        for n in (1, 2, 3):
            for w in (1, 2, 3):
                for mu in enumerate_partitions(w):
                    result = schur_bundle_class(lam, mu, n)
                    assert is_nonnegative(result), (lam, mu, n)
                    if lam == Partition([1]):
                        expected = {mu: 1} if len(mu) <= n else {}
                        assert result.coefficients == expected
    _ok(7, "Schur-bundle classes are Schur-nonnegative; rank-1 functor is identity")


def test_criterion_8_supersymmetric_consistency():
    E = BundleSymbol(FAMILY_C)
    for lam in partitions_up_to(8):
        assert schur_jt(lam, E) == schur_dual_jt(lam), lam

    for n in range(4):
        for m in range(4):
            En = BundleSymbol(FAMILY_C, n)
            Fm = BundleSymbol(FAMILY_CPRIME, m)
            for lam in partitions_up_to(6):
                if lam.weight == 0:
                    continue
                vanishes = schur_jt(lam, En, Fm).is_zero()
                assert vanishes == (not hook_contains(lam, n, m)), (lam, n, m)

    F = BundleSymbol(FAMILY_CPRIME)
    for entry in CLASSICAL_THOM_TABLE:
        p = entry.polynomial
        split = super_split_poly(supersymmetrize(p, E, F))
        slice0 = {a: v for (a, b), v in split.items() if b.weight == 0}
        assert slice0 == to_schur(p).coefficients, entry.name
    _ok(8, "determinants agree (|lam|<=8); hook support (ranks<=3); "
           "beta-empty slice equals Schur coefficients on the corpus")


def test_criterion_9_legendrian_corpus():
    for entry in LEGENDRIAN_TABLE:
        parsed = legendrian_parse(entry.expression, LEGENDRIAN_RANK)
        degrees = {mu.weight + a + b for (mu, a, b) in parsed.coefficients}
        assert degrees == {entry.codimension}, entry.name
        assert legendrian_positivity(parsed).nonnegative, entry.name
        slice_bytes = json.dumps(lagrangian_part(parsed).to_json()).encode()
        bold = legendrian_parse(entry.lagrangian_expression, LEGENDRIAN_RANK)
        bold_bytes = json.dumps(lagrangian_part(bold).to_json()).encode()
        assert slice_bytes == bold_bytes, entry.name
        assert is_nonnegative(lagrangian_part(parsed)), entry.name
    _ok(9, "Legendrian corpus parses, homogeneous, nonnegative; bold slice exact")


def test_criterion_10_determinism_and_exit_codes():
    for table in ("classical", "lagrangian", "legendrian"):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "schurcalc", "thom-verify", "--table", table],
                capture_output=True,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout, table
        assert runs[0].stdout  # nonempty

    bad = subprocess.run(
        [sys.executable, "-m", "schurcalc", "certify", "c2 - c1^2"],
        capture_output=True,
    )
    assert bad.returncode == 1
    payload = json.loads(bad.stdout)
    assert payload["verdict"] == "NOT_NONNEGATIVE"

    good = subprocess.run(
        [sys.executable, "-m", "schurcalc", "certify", "c1^2 - c2"],
        capture_output=True,
    )
    assert good.returncode == 0
    _ok(10, "thom-verify byte-identical across runs; exit codes 0/1 honored")
