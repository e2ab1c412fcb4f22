"""The rows of ``mutants.py`` still apply to the code and name real tests;
running the mutants themselves is ``python tests/mutants.py``."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[f"{i}-{m.file}" for i, m in enumerate(MUTANTS)])
def test_each_mutant_edits_one_place_and_names_its_tests(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    for node in mutant.tests:
        path, *names = node.split("::")
        source = (ROOT / path).read_text()
        for name in names:
            assert f"def {name}(" in source or f"class {name}" in source, node
