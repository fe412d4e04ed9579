"""The mutation ledger in ``tests/mutants.py`` stays applicable to the code it mutates.

Every snippet must occur exactly once in its file, and every test a mutant
must fail must exist, so the ledger cannot silently go stale.  The kill run
itself (``python tests/mutants.py``) is not part of this suite.
"""

import re

import pytest

from mutants import MUTANTS, ROOT, apply


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
