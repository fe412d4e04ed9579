"""Exact mutual-information analysis of Boolean functions over a BSC.

The library computes MI(f(X); Y) for Boolean functions f of uniform
binary inputs X sent through a binary symmetric channel with error
probability p, checks it against the capacity bound 1 - H(p), and
certifies the underlying majorization inequalities with exact rational
arithmetic.
"""

from .boolfn import (
    Class1,
    Class2,
    Class3,
    Class4,
    Dictator,
    FunctionClass,
    Lex,
    TruthTable,
    canonical_form,
    complement,
    format_class_spec,
    make_class,
    orbit,
    parse_class_spec,
)
from .channel import JointYZ, joint_yz, marginal_sum
from .karamata import (
    DescendingSeq,
    KaramataInstance,
    MajorizationCertificate,
    bound_equivalence_check,
    build_karamata_sequences,
    certify,
    certify_instance,
    check_majorization,
    karamata_conclusion,
)
from .mi import MIResult, binary_entropy, mi_class1_closed, mutual_information, qlogq_identity_check, xlog2x
from .verify import (
    DEFAULT_P_GRID,
    PASS_MARGIN_TOLERANCE,
    ExhaustiveSummary,
    VerifyReport,
    class3_reduction_check,
    exhaustive_check,
    p_grid,
    reports_to_csv,
    reports_to_json,
    summaries_to_csv,
    summaries_to_json,
    verify_class,
)

__version__ = "0.1.0"

__all__ = [
    "Class1",
    "Class2",
    "Class3",
    "Class4",
    "DEFAULT_P_GRID",
    "DescendingSeq",
    "Dictator",
    "ExhaustiveSummary",
    "FunctionClass",
    "JointYZ",
    "KaramataInstance",
    "Lex",
    "MIResult",
    "MajorizationCertificate",
    "PASS_MARGIN_TOLERANCE",
    "TruthTable",
    "VerifyReport",
    "binary_entropy",
    "bound_equivalence_check",
    "build_karamata_sequences",
    "canonical_form",
    "certify",
    "certify_instance",
    "check_majorization",
    "class3_reduction_check",
    "complement",
    "exhaustive_check",
    "format_class_spec",
    "joint_yz",
    "karamata_conclusion",
    "make_class",
    "marginal_sum",
    "mi_class1_closed",
    "mutual_information",
    "orbit",
    "p_grid",
    "parse_class_spec",
    "qlogq_identity_check",
    "reports_to_csv",
    "reports_to_json",
    "summaries_to_csv",
    "summaries_to_json",
    "verify_class",
    "xlog2x",
]
