"""The package's public names, pinned: adding or removing one is a deliberate edit here."""

import bfmi

PUBLIC_NAMES = [
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
    "class3_reduction_check",
    "complement",
    "exhaustive_check",
    "format_class_spec",
    "joint_yz",
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


def test_all_is_the_pinned_list():
    assert sorted(bfmi.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    assert [name for name in bfmi.__all__ if not hasattr(bfmi, name)] == []
