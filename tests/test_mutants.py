"""The rows of ``mutants.py`` still apply to the code and name real tests,
and the runner gives each row an environment its tests can run in; running
the mutants themselves is ``python tests/mutants.py``."""

import os

import pytest

import mutants
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


def test_rows_put_the_copy_first_and_keep_the_callers_path(monkeypatch, tmp_path):
    # Where this suite runs, the rows' tests can run too.
    assert mutants.pytest_problem() is None
    copy, a, b = (str(tmp_path / name) for name in ("src", "a", "b"))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([a, "", b]))
    assert mutants.child_env(tmp_path / "src")["PYTHONPATH"] == os.pathsep.join([copy, a, b])
    monkeypatch.delenv("PYTHONPATH")
    assert mutants.child_env(tmp_path / "src")["PYTHONPATH"] == copy


def test_no_row_runs_when_pytest_cannot_be_imported(monkeypatch, tmp_path, capsys):
    # A pytest that fails to import, ahead of the real one on the caller's path.
    (tmp_path / "pytest.py").write_text('raise ImportError("No module named pytest")\n')
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))

    def run(mutant):
        raise AssertionError("a row ran")

    monkeypatch.setattr(mutants, "run", run)
    assert mutants.main([]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and "No module named pytest" in out
