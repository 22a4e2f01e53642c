"""Output checks against reference.py; none of them runs schurcalc code.

check(expect, payload) raises CheckFailed with a reason when the decoded
JSON payload of an operation does not match what its generator expected.
"""

from __future__ import annotations

import reference as ref


class CheckFailed(Exception):
    pass


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def _expansion(items: list, key: str = "partition") -> dict:
    out = {}
    for item in items:
        coeff = int(item["coeff"])
        _require(coeff != 0, f"zero coefficient listed for {item[key]}")
        out[tuple(item[key])] = coeff
    return out


def _roundtrip(payload: dict, text: str) -> dict:
    poly = ref.c_polynomial(text)
    degree = sum(next(iter(poly)))
    _require(payload.get("degree", degree) == degree, "wrong degree")
    expansion = _expansion(payload["expansion"])
    _require(all(sum(lam) == degree for lam in expansion), "mixed weights")
    _require(ref.from_schur(expansion) == poly, "from_schur(expansion) != input")
    return expansion


def _check_certify(expect: dict, payload: dict) -> None:
    expansion = _roundtrip(payload, expect["poly"])
    negatives = {lam: c for lam, c in expansion.items() if c < 0}
    _require(bool(negatives) == expect["negative"], "sign pattern differs from the input")
    verdict = "NOT_NONNEGATIVE" if negatives else "POSITIVE"
    _require(payload["verdict"] == verdict, f"verdict {payload['verdict']} != {verdict}")
    _require(_expansion(payload.get("witnesses", [])) == negatives, "wrong witnesses")


def _check_lr(expect: dict, payload: dict) -> None:
    product = ref.poly_mul(ref.schur_poly(expect["lam"]), ref.schur_poly(expect["mu"]))
    expansion = _expansion(payload["expansion"])
    _require(payload["degree"] == sum(expect["lam"]) + sum(expect["mu"]), "wrong degree")
    _require(ref.from_schur(expansion) == product, "from_schur(lr) != s_lam * s_mu")


def _check_exact(expect: dict, payload: dict) -> None:
    wanted = {lam: c for lam, c in expect["expansion"].items() if c}
    _require(payload["degree"] == expect["degree"], "wrong degree")
    _require(_expansion(payload["expansion"], expect["key"]) == wanted,
             "expansion differs from the reference")


def _check_value(expect: dict, payload: dict) -> None:
    _require(int(payload["value"]) == expect["value"],
             f"value {payload['value']} != {expect['value']}")


def _check_thom(expect: dict, payload: dict) -> None:
    table = expect["table"]
    _require(payload["table"] == table and payload["all_nonnegative"] is True,
             "table not certified")
    entries = payload["entries"]
    if table == "classical":
        _require([e["name"] for e in entries] == list(ref.CLASSICAL_TABLE), "wrong entries")
        for entry in entries:
            text = ref.CLASSICAL_TABLE[entry["name"]]
            _require(entry["expression"] == text, f"{entry['name']}: expression changed")
            expansion = _roundtrip({"expansion": entry["expansion"]}, text)
            _require(entry["verdict"] == "POSITIVE"
                     and all(c > 0 for c in expansion.values()), f"{entry['name']}: verdict")
            _require(int(entry["coefficient_sum"]) == sum(expansion.values()),
                     f"{entry['name']}: coefficient sum")
        return
    _require([e["name"] for e in entries] == list(ref.LEGENDRIAN_TABLE), "wrong entries")
    for entry in entries:
        classes = ref.q_classes(ref.LEGENDRIAN_TABLE[entry["name"]])
        if table == "lagrangian":
            wanted = {mu: c for (mu, a, b), c in classes.items() if a == b == 0}
            got = _expansion(entry["expansion"], "strict_partition")
            bold = {mu: c for (mu, _, _), c in ref.q_classes(entry["bold_expression"]).items()}
            _require(got == wanted == bold, f"{entry['name']}: v -> 0 slice differs")
        else:
            got = {(tuple(e["strict_partition"]), e["a"], e["b"]): int(e["coeff"])
                   for e in entry["expansion"]}
            _require(got == classes, f"{entry['name']}: class differs from the table")
        _require(entry["verdict"] == "NONNEGATIVE", f"{entry['name']}: verdict")


def _check_pairing(expect: dict, payload: dict) -> None:
    ring = expect["ring"]
    if ring[0] == "gr":
        r, n = ring[1], ring[2]
        top = r * (n - r)
        basis = lambda d: ref.partitions(d, n - r, r)  # noqa: E731
        dual = lambda lam: ref.rectangle_dual(lam, r, n)  # noqa: E731
    else:
        n = ring[1]
        top = n * (n + 1) // 2
        basis = lambda d: ref.strict_partitions(d, n)  # noqa: E731
        dual = lambda mu: ref.strict_complement(mu, n)  # noqa: E731
    degrees = payload["degrees"]
    _require([block["degree"] for block in degrees] == list(range(top + 1)), "wrong degrees")
    for block in degrees:
        d = block["degree"]
        rows = [tuple(x) for x in block["rows"]]
        cols = [tuple(x) for x in block["cols"]]
        _require(sorted(rows) == sorted(basis(d)) and sorted(cols) == sorted(basis(top - d)),
                 f"degree {d}: wrong basis")
        wanted = [[int(col == dual(row)) for col in cols] for row in rows]
        _require(block["matrix"] == wanted, f"degree {d}: not the dual permutation")
        _require(block["is_dual_permutation"] is True, f"degree {d}: flag")
    _require(payload["is_dual_permutation"] is True, "flag")


def _check_restrict(expect: dict, payload: dict) -> None:
    n, lam = expect["n"], expect["lam"]
    _require(payload["degree"] == sum(lam), "wrong degree")
    expansion = _expansion(payload["expansion"], "strict_partition")
    _require(all(mu in ref.strict_partitions(sum(lam), n) for mu in expansion),
             "index outside the staircase")
    # restrictions of Schubert classes are effective
    _require(all(c > 0 for c in expansion.values()), "negative coefficient")
    if lam == (1,) * len(lam):
        # s_(1^k) = c_k = Q_k
        _require(expansion == {(len(lam),): 1}, "column restriction is not Q_k")


CHECKS = {
    "schur": lambda expect, payload: _roundtrip(payload, expect["poly"]),
    "certify": _check_certify,
    "lr": _check_lr,
    "exact": _check_exact,
    "value": _check_value,
    "thom": _check_thom,
    "pairing": _check_pairing,
    "restrict": _check_restrict,
}


def check(expect: dict, payload: dict) -> None:
    try:
        CHECKS[expect["kind"]](expect, payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from exc


def expected_exit(expect: dict) -> int:
    """The README's exit codes: 1 only for a NOT_NONNEGATIVE certification."""
    return 1 if expect["kind"] == "certify" and expect["negative"] else 0
