"""Per-layer call timing inside a schurcalc process, for the traced run.

install() wraps public functions of the schurcalc modules, looked up by
name when it runs.  A module or function that no longer exists is listed
as absent instead of raising, so the benchmark keeps running while the
program is refactored.  Wrappers keep, per target, the call count, the
inclusive time of outermost calls and the self time (inclusive time minus
the time of wrapped calls made inside it).
"""

from __future__ import annotations

import importlib
import sys
from functools import lru_cache
from time import perf_counter

# stem -> (module under schurcalc, attribute path)
TARGETS = {
    "cli.main": ("cli", "main"),
    "parsing.evaluate_text": ("parsing", "evaluate_text"),
    "polynomial.mul": ("polynomial", "CPolynomial.__mul__"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.solve_exact": ("linalg", "solve_exact"),
    "schur.to_schur": ("schur", "to_schur"),
    "schur.lr_multiply": ("schur", "lr_multiply"),
    "qtilde.qtilde": ("qtilde", "qtilde"),
    "rings.gr_reduce": ("rings", "GrassmannianRing.reduce"),
    "rings.lg_reduce": ("rings", "LagrangianRing.reduce"),
    "rings.gr_pairing_matrix": ("rings", "GrassmannianRing.pairing_matrix"),
    "rings.lg_pairing_matrix": ("rings", "LagrangianRing.pairing_matrix"),
    "positivity.certify": ("positivity", "certify"),
    "legendrian.legendrian_positivity": ("legendrian", "legendrian_positivity"),
}

# stem -> (module, function) whose functools cache_info() gives hits and misses
CACHES = {
    "schur.schur_dual_jt": ("schur", "schur_dual_jt"),
    "qtilde.qtilde": ("qtilde", "qtilde"),
}

TRACE_MARKER = "@@schurbench-trace "

EXTRA_KEYS = ("to_schur_cold_s", "to_schur_warm_s", "pd_max", "expansion_terms",
              "input_terms", "rref_cells", "lg_system_cells")


@lru_cache(maxsize=None)
def count_partitions(d: int, max_part: int) -> int:
    if d == 0:
        return 1
    return sum(count_partitions(d - k, k) for k in range(1, min(d, max_part) + 1))


@lru_cache(maxsize=None)
def count_strict(d: int, max_part: int) -> int:
    if d == 0:
        return 1
    return sum(count_strict(d - k, k - 1) for k in range(1, min(d, max_part) + 1))


def lg_system_cells(n: int, d: int) -> int:
    """Size of the degree-d LG(n) solve: monomials x (basis + ideal columns)."""
    ideal = sum(count_partitions(d - 2 * i, n) for i in range(1, n + 1) if d >= 2 * i)
    return count_partitions(d, n) * (count_strict(d, n) + ideal)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self.extra = dict.fromkeys(EXTRA_KEYS, 0)
        self.absent: list[str] = []
        self.caches: dict = {}
        self.seen_degrees: set = set()
        self._stack: list[float] = []

    def reset(self) -> None:
        """Zero the counters; degrees already expanded stay warm for to_schur_cold_s."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.extra = dict.fromkeys(EXTRA_KEYS, 0)
        self._baseline = self._cache_counts()

    def install(self) -> None:
        modules = {}
        for stem, (module, path) in TARGETS.items():
            try:
                mod = modules.get(module) or importlib.import_module(f"schurcalc.{module}")
            except ImportError:
                self.absent.append(stem)
                continue
            modules[module] = mod
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(stem)
                continue
            wrapper = self._wrap(stem, original)
            if owner_name:
                setattr(owner, attr, wrapper)
            else:
                # rebind every module-level alias, so from-imports are traced too
                for name, loaded in list(sys.modules.items()):
                    if name == "schurcalc" or name.startswith("schurcalc."):
                        for key, value in list(vars(loaded).items()):
                            if value is original:
                                setattr(loaded, key, wrapper)
        for stem, (module, name) in CACHES.items():
            fn = getattr(modules.get(module), name, None)
            fn = getattr(fn, "__wrapped_original__", fn)
            if hasattr(fn, "cache_info"):
                self.caches[stem] = fn
            else:
                self.absent.append(stem + ".cache")
        self._baseline = self._cache_counts()

    def _cache_counts(self) -> dict:
        return {stem: (fn.cache_info().hits, fn.cache_info().misses)
                for stem, fn in self.caches.items()}

    def _wrap(self, stem: str, fn):
        stat = self.stats[stem] = [0, 0.0, 0.0]
        stack = self._stack
        depth = [0]
        hook = getattr(self, "_after_" + stem.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            depth[0] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                depth[0] -= 1
                if stack:
                    stack[-1] += elapsed
                stat[0] += 1
                stat[2] += elapsed - inner
                if depth[0] == 0:
                    stat[1] += elapsed
            if hook is not None:
                hook(args, result, elapsed)
            return result

        wrapper.__wrapped_original__ = fn
        return wrapper

    def _after_schur_to_schur(self, args, result, elapsed):
        self.extra["input_terms"] += len(getattr(args[0], "terms", ()))
        self.extra["expansion_terms"] += len(getattr(result, "coefficients", ()))
        degree = getattr(result, "degree", None)
        if degree is None:
            return
        cold = degree not in self.seen_degrees
        self.seen_degrees.add(degree)
        self.extra["to_schur_cold_s" if cold else "to_schur_warm_s"] += elapsed
        self.extra["pd_max"] = max(self.extra["pd_max"], count_partitions(degree, degree))

    def _after_linalg_rref(self, args, result, elapsed):
        matrix = args[0]
        self.extra["rref_cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)

    def _after_rings_lg_reduce(self, args, result, elapsed):
        self.extra["input_terms"] += len(getattr(args[1], "terms", ()))
        n, degree = getattr(args[0], "n", None), getattr(result, "degree", None)
        if n is not None and degree is not None:
            self.extra["lg_system_cells"] += lg_system_cells(n, degree)

    def dump(self) -> dict:
        counts = self._cache_counts()
        caches = {stem: [hits - self._baseline[stem][0], misses - self._baseline[stem][1]]
                  for stem, (hits, misses) in counts.items()}
        return {"calls": self.stats, "extra": self.extra, "caches": caches,
                "absent": self.absent}
