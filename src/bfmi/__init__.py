"""Exact mutual-information analysis of Boolean functions over a BSC.

The library computes MI(f(X); Y) for Boolean functions f of uniform
binary inputs X sent through a binary symmetric channel with error
probability p, checks it against the capacity bound 1 - H(p), and
certifies the underlying majorization inequalities with exact rational
arithmetic.

Each public name is imported from its module on first access (PEP 562),
so ``import bfmi`` loads no submodule and a name from the exact side
(``boolfn``, ``mi``, ``karamata``, ``verify``) loads no NumPy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "boolfn": ("Class1", "Class2", "Class3", "Class4", "Dictator", "FunctionClass", "Lex", "TruthTable",
                   "canonical_form", "complement", "format_class_spec", "make_class", "orbit",
                   "parse_class_spec"),
        "channel": ("JointYZ", "joint_yz", "marginal_sum"),
        "karamata": ("DescendingSeq", "KaramataInstance", "MajorizationCertificate", "bound_equivalence_check",
                     "build_karamata_sequences", "certify", "certify_instance"),
        "mi": ("MIResult", "binary_entropy", "mi_class1_closed", "mutual_information", "qlogq_identity_check",
               "xlog2x"),
        "verify": ("DEFAULT_P_GRID", "PASS_MARGIN_TOLERANCE", "ExhaustiveSummary", "VerifyReport",
                   "class3_reduction_check", "exhaustive_check", "p_grid", "reports_to_csv", "reports_to_json",
                   "summaries_to_csv", "summaries_to_json", "verify_class"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
