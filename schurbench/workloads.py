"""Seeded operation streams, one cycle each.

A cycle has a fixed shape per workload: the same kinds of operation at the
same degrees and on the same rings for every seed, so that cost does not
depend on the seed.  The seed picks the partitions, coefficients and
expressions, which set the outputs, and the order of the cycle.  Each
operation carries what checks.py needs to verify its output.

CLI operations are {"argv": [...], "expect": {...}}; library operations
for the worker are {"request": {...}, "expect": {...}}.
"""

from __future__ import annotations

import random

import reference as ref

# Schur indices in certify and lr inputs have parts <= MAX_PART: the
# determinant behind s_lam has lam_1 rows, and unbounded lam_1 would make
# memory and time depend on the seed.
MAX_PART = 5

GR_PAIRING_RINGS = [(2, 4), (2, 5), (2, 6), (3, 6), (2, 7)]
GR_LADDER_RINGS = [(2, 4), (2, 5), (2, 6), (3, 6), (2, 7), (3, 7)]
GR_WARM_RINGS = [(2, 4), (2, 5), (2, 6), (3, 6), (2, 7), (3, 7)]
BUNDLES = [((2,), 2), ((2,), 3), ((1, 1), 3), ((2, 1), 2), ((2, 1), 3), ((3,), 2),
           ((3,), 3), ((1, 1), 4), ((2, 2), 3), ((2,), 4), ((1, 1, 1), 4)]


def _text(lam) -> str:
    return ",".join(map(str, lam))


def _monomial(lam) -> str:
    return "*".join(f"c{k}^{lam.count(k)}" if lam.count(k) > 1 else f"c{k}"
                    for k in sorted(set(lam), reverse=True))


def _combination(terms) -> str:
    """'a*X + b*Y - c*Z' from (coefficient, text) pairs; the first is positive."""
    out = ""
    for coeff, body in terms:
        sign = "-" if coeff < 0 else "+"
        piece = f"{abs(coeff)}*{body}" if abs(coeff) != 1 else body
        out = piece if not out else f"{out} {sign} {piece}"
    return out


def _certify(rng: random.Random, d: int, negative: bool) -> dict:
    lams = rng.sample(ref.partitions(d, MAX_PART), 3)
    if negative:
        # Schur terms only, the last with a negative coefficient
        terms = [(rng.randint(1, 5), f"s[{_text(lam)}]") for lam in lams[:-1]]
        terms.append((-rng.randint(1, 5), f"s[{_text(lams[-1])}]"))
    else:
        # positive Schur terms plus a c-monomial, which is Schur-positive
        terms = [(rng.randint(1, 5), f"s[{_text(lam)}]") for lam in lams[:2]]
        terms.append((rng.randint(1, 5), _monomial(rng.choice(ref.partitions(d)))))
    text = _combination(terms)
    return {"argv": ["certify", text],
            "expect": {"kind": "certify", "poly": text, "negative": negative}}


def _to_schur(rng: random.Random, d: int) -> dict:
    monos = rng.sample(ref.partitions(d), 3)
    terms = [(rng.randint(1, 9) * (1 if i == 0 or rng.random() < 0.7 else -1), _monomial(m))
             for i, m in enumerate(monos)]
    text = _combination(terms)
    return {"argv": ["to-schur", text], "expect": {"kind": "schur", "poly": text}}


def _lr(rng: random.Random, total: int) -> dict:
    a = rng.randint(1, total - 1)
    lam = rng.choice(ref.partitions(a, MAX_PART))
    mu = rng.choice(ref.partitions(total - a, MAX_PART))
    return {"argv": ["lr", _text(lam), _text(mu)],
            "expect": {"kind": "lr", "lam": lam, "mu": mu}}


def _bundle(rng: random.Random, mu: tuple) -> dict:
    lam, n = rng.choice(BUNDLES)
    expected = ref.schur_bundle_low_classes(lam, n)[mu]
    return {"argv": ["schur-bundle", "--rank", str(n), "--functor", _text(lam),
                     "--class", _text(mu)],
            "expect": {"kind": "exact", "key": "partition", "degree": sum(mu),
                       "expansion": expected}}


def _thom(table: str) -> dict:
    return {"argv": ["thom-verify", "--table", table], "expect": {"kind": "thom", "table": table}}


def certify_cold(rng: random.Random, tiny: bool) -> list[dict]:
    """Fresh `python -m schurcalc` per command: certify, to-schur, lr, bundles, tables."""
    certify_degrees = [4, 5, 6] if tiny else [4, 4, 5, 5, 6, 6, 7, 7, 8, 9, 10, 11, 12]
    negatives = set(rng.sample(range(len(certify_degrees)), 1 if tiny else 3))
    ops = [_certify(rng, d, i in negatives) for i, d in enumerate(certify_degrees)]
    ops += [_to_schur(rng, d) for d in ([4] if tiny else [4, 5, 6, 7, 8, 9, 10])]
    ops += [_lr(rng, total) for total in ([4] if tiny else [4, 5, 6, 7, 8, 10])]
    ops += [_bundle(rng, mu) for mu in ([(2,)] if tiny else [(1,), (2,), (1, 1)])]
    ops += [_thom(table) for table in ("classical", "lagrangian", "legendrian")]
    rng.shuffle(ops)
    return ops


def _gr_pair(rng: random.Random, r: int, n: int, top_degree: int) -> tuple:
    """Seeded (lam, mu) in the rectangle with |lam| + |mu| = top_degree, dual half the time."""
    a = rng.randint(1, top_degree - 1)
    lam = rng.choice(ref.partitions(a, n - r, r))
    others = ref.partitions(top_degree - a, n - r, r)
    mu = ref.rectangle_dual(lam, r, n) if rng.random() < 0.5 else rng.choice(others)
    return lam, mu


def _lg_pair(rng: random.Random, n: int) -> tuple:
    top = n * (n + 1) // 2
    a = rng.randint(1, top - 1)
    while not ref.strict_partitions(a, n) or not ref.strict_partitions(top - a, n):
        a = rng.randint(1, top - 1)
    mu = rng.choice(ref.strict_partitions(a, n))
    others = ref.strict_partitions(top - a, n)
    nu = ref.strict_complement(mu, n) if rng.random() < 0.5 else rng.choice(others)
    return mu, nu


def _restrict_partition(rng: random.Random, n: int, weight: int) -> tuple:
    return rng.choice(ref.partitions(weight, n, n))


def pairing_cold(rng: random.Random, tiny: bool) -> list[dict]:
    """Fresh process per command: Poincare-duality pairings and integrals on Gr and LG."""
    ops = []
    for r, n in ([(2, 4)] if tiny else GR_PAIRING_RINGS):
        ops.append({"argv": ["gr", "--r", str(r), "--n", str(n), "pairing"],
                    "expect": {"kind": "pairing", "ring": ("gr", r, n)}})
    for n in ([2] if tiny else [2, 3, 4]):
        ops.append({"argv": ["lg", "--n", str(n), "pairing"],
                    "expect": {"kind": "pairing", "ring": ("lg", n)}})
    for r, n in (GR_LADDER_RINGS[:2] if tiny else GR_LADDER_RINGS):
        top = r * (n - r)
        ops.append({"argv": ["gr", "--r", str(r), "--n", str(n), "integrate", f"c1^{top}"],
                    "expect": {"kind": "value",
                               "value": ref.hook_length_count((n - r,) * r)}})
    # the two Gr(2,7) integrals join the ~0.7 s group that holds the 90th percentile
    for r, n in ([(2, 4)] if tiny else [(2, 4), (2, 5), (2, 5), (2, 6), (2, 6), (3, 6),
                                        (2, 7), (2, 7)]):
        lam, mu = _gr_pair(rng, r, n, r * (n - r))
        ops.append({"argv": ["gr", "--r", str(r), "--n", str(n), "integrate",
                             f"s[{_text(lam)}]*s[{_text(mu)}]"],
                    "expect": {"kind": "value",
                               "value": int(mu == ref.rectangle_dual(lam, r, n))}})
    lg_integrals = [] if tiny else [("c1^15", ref.lg_c1_power(5, 15)[(5, 4, 3, 2, 1)])]
    for _ in range(1 if tiny else 2):
        mu, nu = _lg_pair(rng, 5)
        lg_integrals.append((f"q[{_text(mu)}]*q[{_text(nu)}]",
                             int(nu == ref.strict_complement(mu, 5))))
    for text, value in lg_integrals:
        ops.append({"argv": ["lg", "--n", "5", "integrate", text],
                    "expect": {"kind": "value", "value": value}})
    # ten extra restrictions at weight 8 put the median on a plateau
    for weight in ([3] if tiny else [1, 2, 3, 4, 5, 6, 7, 9, 10, 12] + [8] * 11):
        lam = _restrict_partition(rng, 5, weight)
        ops.append({"argv": ["lg", "--n", "5", "restrict", _text(lam)],
                    "expect": {"kind": "restrict", "n": 5, "lam": lam}})
    rng.shuffle(ops)
    return ops


def _library(ring: list, call: str, degree: int, expect: dict, **fields) -> dict:
    """A worker request; degree is the ring degree it works in, for the warm-up."""
    return {"request": {"ring": ring, "call": call, **fields}, "degree": degree,
            "expect": expect}


def _exact(key: str, degree: int, expansion: dict) -> dict:
    return {"kind": "exact", "key": key, "degree": degree, "expansion": expansion}


def _ring_product(rng: random.Random, r: int, n: int, d: int) -> tuple:
    a = rng.randint(1, d - 1)
    return (rng.choice(ref.partitions(a, n - r, r)),
            rng.choice(ref.partitions(d - a, n - r, r)))


def _in_rectangle(expansion: dict, r: int, n: int) -> dict:
    return {lam: c for lam, c in expansion.items() if len(lam) <= r and lam[0] <= n - r}


def _gr_integral(rng: random.Random, r: int, n: int) -> dict:
    top = r * (n - r)
    lam, mu = _gr_pair(rng, r, n, top)
    return _library(["gr", r, n], "integrate", top,
                    {"kind": "value", "value": int(mu == ref.rectangle_dual(lam, r, n))},
                    expr=f"s[{_text(lam)}]*s[{_text(mu)}]")


def _lg_integral(rng: random.Random, n: int) -> dict:
    mu, nu = _lg_pair(rng, n)
    return _library(["lg", n], "integrate", n * (n + 1) // 2,
                    {"kind": "value", "value": int(nu == ref.strict_complement(mu, n))},
                    expr=f"q[{_text(mu)}]*q[{_text(nu)}]")


def _lg_restrict(rng: random.Random, n: int, weight: int) -> dict:
    lam = _restrict_partition(rng, n, weight)
    return _library(["lg", n], "restrict", weight, {"kind": "restrict", "n": n, "lam": lam},
                    lam=lam)


def _lg_c1_power(n: int, d: int) -> dict:
    return _library(["lg", n], "reduce", d, _exact("strict_partition", d, ref.lg_c1_power(n, d)),
                    expr=f"c1^{d}")


def _lg_basis_class(rng: random.Random, n: int, d: int) -> dict:
    mu = rng.choice(ref.strict_partitions(d, n))
    return _library(["lg", n], "reduce", d, _exact("strict_partition", d, {mu: 1}),
                    expr=f"q[{_text(mu)}]")


def rings_warm(rng: random.Random, tiny: bool) -> list[dict]:
    """In-process GrassmannianRing and LagrangianRing calls on warm caches."""
    ops = []
    for r, n in (GR_WARM_RINGS[:2] if tiny else GR_WARM_RINGS):
        ring, top = ["gr", r, n], r * (n - r)
        for d in (top, top - 2):
            ops.append(_library(ring, "reduce", d,
                                _exact("partition", d, ref.gr_c1_power(r, n, d)),
                                expr=f"c1^{d}"))
        lam, mu = _ring_product(rng, r, n, top - 2)
        text = f"s[{_text(lam)}]*s[{_text(mu)}]"
        full = ref.to_schur(ref.truncate(ref.c_polynomial(text), r))
        ops.append(_library(ring, "reduce", top - 2,
                            _exact("partition", top - 2, _in_rectangle(full, r, n)), expr=text))
        lam, mu = _ring_product(rng, r, n, top - 2)
        product = ref.to_schur(ref.poly_mul(ref.schur_poly(lam), ref.schur_poly(mu)))
        ops.append(_library(ring, "basis_product", top - 2,
                            _exact("partition", top - 2, _in_rectangle(product, r, n)),
                            lam=lam, mu=mu))
        ops.append(_gr_integral(rng, r, n))
    for n in ([2, 3] if tiny else [2, 3, 4]):
        top = n * (n + 1) // 2
        ops += [_lg_c1_power(n, top), _lg_c1_power(n, top - 1), _lg_integral(rng, n),
                _lg_basis_class(rng, n, top - 2), _lg_restrict(rng, n, top - 1)]
    if tiny:
        ops.append(_lg_restrict(rng, 5, 6))
    else:
        # twenty warm Gr(3,7) integrals of about 1 ms put the median on a plateau
        ops += [_gr_integral(rng, 3, 7) for _ in range(20)]
        # LG(5): sixteen top-degree solves, so the 90th percentile sits inside them
        ops += [_lg_c1_power(5, d) for d in (12, 13, 14, 15)]
        ops.append(_library(["lg", 5], "integrate", 15,
                            {"kind": "value", "value": ref.lg_c1_power(5, 15)[(5, 4, 3, 2, 1)]},
                            expr="c1^15"))
        ops += [_lg_integral(rng, 5) for _ in range(12)]
        ops += [_lg_restrict(rng, 5, w) for w in (8, 11, 15, 15)]
        ops.append(_lg_basis_class(rng, 5, 9))
    rng.shuffle(ops)
    return ops


def warmup(ops: list[dict]) -> list:
    """One [ring, degree] per ring and degree the library stream touches."""
    return [list(pair) for pair in sorted({(tuple(op["request"]["ring"]), op["degree"])
                                           for op in ops})]


WORKLOADS = {"certify_cold": certify_cold, "rings_warm": rings_warm,
             "pairing_cold": pairing_cold}
