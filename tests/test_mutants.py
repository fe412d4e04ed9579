"""The mutation ledger in ``tests/mutants.py`` stays applicable to the code it mutates.

Every snippet must occur exactly once in its file, and every test a mutant
must fail must exist, so the ledger cannot silently go stale.  The kill run
itself (``python tests/mutants.py``) is not part of this suite.
"""

import re

import pytest

from mutants import MUTANTS, ROOT, apply, select


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_snippet_occurs_once_and_tests_exist(mutant):
    text = (ROOT / mutant.file).read_text()
    assert apply(mutant, text) != text
    assert mutant.tests
    for test_id in mutant.tests:
        path, *scope = re.sub(r"\[.*\]$", "", test_id).split("::")
        source = (ROOT / path).read_text()
        for name in scope[:-1]:
            assert f"class {name}" in source, test_id
        assert f"def {scope[-1]}(" in source, test_id


def test_selection_by_name_and_by_prefix():
    names = [m.name for m in MUTANTS]
    assert select([]) == list(MUTANTS)
    assert select(["writer-zero-printed-empty"]) == [MUTANTS[names.index("writer-zero-printed-empty")]]
    writers = [m.name for m in select(["writer-*"])]
    assert writers == [
        "writer-trailing-zero-cap-dropped", "writer-zero-mass-count-uncapped", "writer-shift-dropped",
        "writer-shift-one-too-far", "writer-odd-cofactor-gcd-skipped", "writer-numpy-cap-dropped",
        "writer-numpy-shift-dropped", "writer-high-word-shift-dropped", "writer-remainder-correction-dropped",
        "writer-zero-printed-empty", "writer-den-string-indexed-by-t-plus-1",
    ]
    # overlapping patterns select each mutant once, in ledger order
    assert [m.name for m in select(["writer-zero-printed-empty", "writer-numpy-*"])] == [
        "writer-numpy-cap-dropped", "writer-numpy-shift-dropped", "writer-zero-printed-empty"]
    assert select(["*"]) == list(MUTANTS)


@pytest.mark.parametrize("patterns", [["nope"], ["nope-*"], ["writer"], ["writer-*", "nope"]])
def test_a_pattern_that_matches_nothing_is_an_unknown_mutant(patterns):
    with pytest.raises(SystemExit, match="unknown mutant"):
        select(patterns)
