import random
import re
from pathlib import Path

import pytest

import csm

from csm import validator
from csm.diagnostics import Diagnostic
from csm.dsl import parse_text
from csm.fixtures import BAD_FIXTURES, FIXTURES, fixture_text, load
from csm.validator import CATALOG, InvalidModel, UnknownCode, ensure_valid, explain, validate
from helpers import apply_suggestion, brute_validate, load_bench, random_model

EXPECTED_BAD_CODE = {
    "bad_c1": "E-C1",
    "bad_c2": "E-C2",
    "bad_c3": "E-C3",
    "bad_c4": "E-C4",
    "bad_c5": "E-C5",
    "bad_orphan": "E-ORPHAN-P",
}

REPAIRABLE = {"E-C1", "E-C2", "E-C3", "E-C4", "E-C5"}


def errors(model):
    return [d for d in validate(model) if d.severity == "error"]


def warnings(model):
    return [d for d in validate(model) if d.severity == "warning"]


class TestNegativeFixtures:
    @pytest.mark.parametrize("name", BAD_FIXTURES)
    def test_exactly_one_intended_error(self, name):
        codes = [d.code for d in errors(load(name))]
        assert codes == [EXPECTED_BAD_CODE[name]]

    def test_bad_c1_names_the_static_class(self):
        [diag] = errors(load("bad_c1"))
        assert diag.site.startswith("process=") and "class=" in diag.site
        assert diag.suggestion.startswith("declare class")


class TestScenarioFixtures:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_no_errors(self, name):
        assert errors(load(name)) == []

    @pytest.mark.parametrize("name", [n for n in FIXTURES if n != "healthcare"])
    def test_no_warnings_outside_healthcare(self, name):
        assert warnings(load(name)) == []

    def test_healthcare_warns_only_about_the_missing_backup(self, scenarios):
        found = [(d.code, d.site) for d in warnings(scenarios["healthcare"])]
        assert found == [("W-FP", "class=ReportOfPatient")]


_CODE_LITERAL = re.compile(r"""["']([EW]-[A-Z0-9]+(?:-[A-Z0-9]+)*)["']""")


class TestCatalog:
    def test_explain_known_codes(self):
        assert "Dynamic state" in explain("E-C1")
        assert "reference+ privilege on all input" in explain("E-C5")
        for code in CATALOG:
            assert explain(code)

    def test_every_code_in_the_source_has_an_entry(self):
        # Every "E-..." or "W-..." string literal in the package is a code
        # the tool can report, the reader codes of the parsers included.
        codes = {
            code
            for path in Path(csm.__file__).parent.glob("*.py")
            for code in _CODE_LITERAL.findall(path.read_text(encoding="utf-8"))
        }
        assert {"E-SYN", "E-REF", "E-DUP", "E-TRF-MODE", "E-TRF-END", "E-JSON"} <= codes
        assert sorted(codes - set(CATALOG)) == []

    def test_explain_unknown_code(self):
        with pytest.raises(UnknownCode):
            explain("E-NOPE")

    def test_severities(self):
        # A code's prefix names its severity.
        assert [code for code in CATALOG if code[:2] not in ("E-", "W-")] == []
        for code in CATALOG:
            expected = {"E-": "error", "W-": "warning"}[code[:2]]
            assert Diagnostic(code, "site", "message").severity == expected


class TestSuggestions:
    @pytest.mark.parametrize("name", [n for n in BAD_FIXTURES if n != "bad_orphan"])
    def test_fixture_repairs_remove_the_error(self, name):
        model = load(name)
        [diag] = errors(model)
        fixed = apply_suggestion(model, diag.suggestion)
        assert (diag.code, diag.site) not in {(d.code, d.site) for d in errors(fixed)}

    @pytest.mark.parametrize("privileges, hint", [
        ("reference, reference+", "add creation to grant R on B"),
        ("reference+", "add creation and reference to grant R on B"),
    ])
    def test_c4_hint_names_each_missing_privilege(self, privileges, hint):
        text = fixture_text("bad_c4").replace("reference, reference+", privileges)
        model = parse_text(text).model
        [diag] = errors(model)
        assert (diag.code, diag.suggestion) == ("E-C4", hint)
        assert errors(apply_suggestion(model, hint)) == []

    def test_random_repairs_remove_their_diagnostic(self):
        rng = random.Random(41)
        checked = 0
        for _ in range(100):
            model = random_model(rng)
            for diag in validate(model):
                if diag.code not in REPAIRABLE:
                    continue
                fixed = apply_suggestion(model, diag.suggestion)
                remaining = {(d.code, d.site) for d in validate(fixed)}
                assert (diag.code, diag.site) not in remaining
                checked += 1
        assert checked > 100


class TestBruteForceAgreement:
    def test_small_sample(self):
        rng = random.Random(1)
        for _ in range(200):
            model = random_model(rng)
            got = sorted((d.code, d.site) for d in validate(model))
            assert got == brute_validate(model)

    def test_output_is_sorted(self):
        rng = random.Random(2)
        for _ in range(50):
            diags = validate(random_model(rng))
            assert [d.sort_key for d in diags] == sorted(d.sort_key for d in diags)


class TestEnsureValid:
    def test_raises_with_codes(self):
        with pytest.raises(InvalidModel) as exc:
            ensure_valid(load("bad_c2"))
        assert exc.value.codes == ["E-C2"]

    def test_warnings_do_not_block(self, scenarios):
        ensure_valid(scenarios["healthcare"])

    def test_agrees_with_the_oracle(self):
        # The gate raises exactly when the brute-force rules find an error,
        # with the error codes of validate in validate's order.
        rng = random.Random(23)
        models = [load(name) for name in FIXTURES + BAD_FIXTURES]
        models += [random_model(rng) for _ in range(300)]
        raised = 0
        for model in models:
            has_error = any(code.startswith("E-") for code, _ in brute_validate(model))
            try:
                ensure_valid(model)
            except InvalidModel as exc:
                assert has_error and exc.codes == [d.code for d in errors(model)]
                raised += 1
            else:
                assert not has_error
        assert raised > 100

    def test_builds_no_warning(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "csmbench"))
        synth = load_bench("synth")
        text = synth.to_text(synth.generate(24, 100, 100, 0.08, 511)["model"])
        models = [load("healthcare"), parse_text(text).model]
        assert all(warnings(model) for model in models)
        made = []

        def recording_diagnostic(code, *args):
            made.append(code)
            return Diagnostic(code, *args)

        monkeypatch.setattr(validator, "Diagnostic", recording_diagnostic)
        for model in models:
            ensure_valid(model)
        assert [code for code in made if code.startswith("W-")] == []
