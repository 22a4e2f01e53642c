"""Exact Schur-function and Schubert-calculus toolkit.

Schur functions and Littlewood-Richardson products, Q-tilde functions,
the cohomology rings of Grassmannians and Lagrangian Grassmannians with
Poincare duality, and Schur-positivity certification of Chern-class
polynomials, all over arbitrary-precision integers.

Every public name loads its submodule on first use (PEP 562), so
`import schurcalc`, and with it every `python -m schurcalc` command,
loads no submodule until one is needed.
"""

import importlib
import sys

__version__ = "0.1.0"

# (submodule, the public names it defines), in the order of __all__
_EXPORTS = (
    ("partitions", ("Partition", "StrictPartition", "conjugate")),
    ("schubert", ("rectangle_dual", "strict_complement", "staircase")),
    ("pairing", ("enumerate_partitions", "enumerate_strict_partitions")),
    ("positivity", ("hook_contains",)),
    ("polynomial", (
        "CPolynomial", "truncate_family",
        "FAMILY_C", "FAMILY_CPRIME", "FAMILY_V1", "FAMILY_V2",
    )),
    ("pieri", ("Expansion",)),
    ("schur", ("schur_dual_jt", "to_schur", "from_schur", "lr_multiply")),
    ("qtilde", ("qtilde",)),
    ("rings", ("GrassmannianRing", "LagrangianRing")),
    ("positivity", (
        "PositivityReport", "certify", "verify_thom_table", "CLASSICAL_THOM_TABLE",
    )),
    ("bundles", ("schur_bundle_class",)),
    ("legendrian", (
        "LegendrianClass", "legendrian_parse", "lagrangian_part",
        "legendrian_positivity", "LEGENDRIAN_TABLE",
    )),
    ("parsing", ("parse", "evaluate_text", "ParseError")),
)
_MODULE_OF = {name: module for module, names in _EXPORTS for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(type(sys)):
    """The import system binds a submodule on its package once it loads;
    `qtilde` names both a submodule and its function, and keeps the function."""

    def __setattr__(self, name, value):
        if not (name in _MODULE_OF and isinstance(value, type(sys))):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
