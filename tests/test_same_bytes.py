"""``same_bytes.py`` finds no difference between a tree and itself, where
its ``explore --stats`` lines end by every stop word; it finds the one byte that a changed ``fmt`` adds, in process and in a whole ``csm``
process, and a reworded option help in the fixed argument lists; all on the
fixtures, the argument lists and the whole-process sample alone, while
``python tests/same_bytes.py PARENT_SRC`` runs the whole input set."""

import shutil

import same_bytes
from same_bytes import ROOT


def changed_copy(tmp_path, old, new):
    """A copy of ``src`` whose ``cli.py`` has ``old``, which occurs once,
    replaced by ``new``."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "csm" / "cli.py"
    assert cli.read_text().count(old) == 1
    cli.write_text(cli.read_text().replace(old, new))
    return src


def test_a_tree_against_itself(capsys, monkeypatch):
    compared = []
    compare = same_bytes.compare

    def recording(lines, parent, change):
        compared.extend(zip(lines, change))
        return compare(lines, parent, change)

    monkeypatch.setattr(same_bytes, "compare", recording)
    assert same_bytes.main([str(ROOT / "src")], inputs=same_bytes.fixture_lines) == 0
    assert capsys.readouterr().out.endswith(" lines run, 0 differ\n")
    # The explore --stats lines end by every stop word, compared without timings.
    stops = set()
    for argv, run in compared:
        if argv[:1] == ["explore"] and "--stats" in argv and run[0] == 0:
            [stats] = same_bytes.comparable(argv, run)[2]
            assert set(stats) == {"edges", "frontier", "states", "stop"}, (argv, stats)
            stops.add(stats["stop"])
    assert stops == {"closed", "step_bound", "object_bound_pruned"}


def test_one_more_byte_from_fmt(tmp_path, capsys):
    old = "    sys.stdout.write(dsl.emit_text(model))\n"
    src = changed_copy(tmp_path, old, old.replace("model))", 'model) + " ")'))
    assert same_bytes.main([str(src)], inputs=same_bytes.fixture_lines) == 1
    out = capsys.readouterr().out
    fmt_lines = [line for line in out.splitlines() if line.startswith("  fmt ")]
    assert "\nfmt: 24 differ\n" in out and len(fmt_lines) == 3, out
    # The whole-process sample's one fmt line differs too.
    assert "\ncsm: 1 differ\n  csm fmt healthcare.csm\n" in out, out
    assert " lines run, 25 differ\n" in out
    assert "' ' != '<end>'" in out


def test_a_reworded_option_help(tmp_path, capsys):
    src = changed_copy(tmp_path, '"emit the report as JSON"', '"write the report as JSON"')
    assert same_bytes.main([str(src)], inputs=same_bytes.fixture_lines) == 1
    out = capsys.readouterr().out
    assert " lines run, 1 differ\nclassify: 1 differ\n  classify --help\n" in out, out
