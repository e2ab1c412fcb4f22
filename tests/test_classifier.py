import json
import random
from pathlib import Path

import pytest

from csm import classifier
from csm.classifier import (
    CollaborationReport,
    LevelFinding,
    SameRole,
    classify_all,
    classify_pair,
)
from csm.dsl import parse_text
from csm.fixtures import FIXTURES, load
from csm.model import Model
from csm.validator import InvalidModel, validate
from helpers import (
    brute_classify,
    brute_classify_pair,
    load_bench,
    random_model,
    random_valid_model,
    report_doc,
    reversed_members,
)

VT = "very tight"
T = "tight"
L = "loose"
VL = "very loose"


class TestLevelFixtures:
    def test_very_tight(self, scenarios):
        report = classify_all(scenarios["hotel_agency"])
        assert [f.level for f in report.findings] == [VT]
        [f] = report.findings
        assert (f.producer, f.consumer, f.artifact, f.artifact_kind) == (
            "Hotel",
            "Agency",
            "MakeBooking",
            "process",
        )
        assert "owner(Hotel,MakeBooking)" in f.evidence
        assert "responsibility(Agency,MakeBooking)" in f.evidence

    def test_tight(self, scenarios):
        report = classify_all(scenarios["airline_alliance"])
        assert [f.level for f in report.findings] == [T]
        [f] = report.findings
        assert (f.producer, f.consumer, f.artifact, f.artifact_kind) == (
            "AirlineA", "AirlineB", "BonusCalculation", "process"
        )

    def test_loose_both_directions(self, scenarios):
        report = classify_all(scenarios["gp_lab"])
        assert report.pair_summary == {
            ("GP", "Laboratory"): frozenset({L}),
            ("Laboratory", "GP"): frozenset({L}),
        }
        artifacts = {(f.producer, f.artifact) for f in report.findings}
        assert artifacts == {("GP", "TestRequest"), ("Laboratory", "SentTestResult")}

    def test_very_loose_both_directions(self, scenarios):
        report = classify_all(scenarios["gp_hospital"])
        assert report.pair_summary == {
            ("GP", "Hospital"): frozenset({VL}),
            ("Hospital", "GP"): frozenset({VL}),
        }

    def test_healthcare_mixes_levels_per_pair(self, scenarios):
        report = classify_all(scenarios["healthcare"])
        assert report.levels_between("GP", "Laboratory") == {L}
        assert report.levels_between("GP", "Hospital") == {VL}
        assert report.levels_between("Hospital", "Laboratory") == frozenset()


class TestDirectionality:
    def test_very_tight_owner_side_only(self, scenarios):
        m = scenarios["hotel_agency"]
        assert [f.level for f in classify_pair(m, "Hotel", "Agency")] == [VT]
        assert classify_pair(m, "Agency", "Hotel") == []

    def test_tight_is_symmetric_and_lexicographic(self, scenarios):
        m = scenarios["airline_alliance"]
        ab = classify_pair(m, "AirlineA", "AirlineB")
        ba = classify_pair(m, "AirlineB", "AirlineA")
        assert ab == ba
        assert ab[0].producer == "AirlineA"

    def test_same_role_rejected(self, scenarios):
        with pytest.raises(SameRole):
            classify_pair(scenarios["gp_lab"], "GP", "GP")


class TestPatternDetails:
    def test_waiting_flag_separates_loose_from_very_loose(self, scenarios):
        gp_lab = scenarios["gp_lab"]
        [f] = [x for x in classify_pair(gp_lab, "GP", "Laboratory") if x.artifact == "TestRequest"]
        assert f.level == L and "waiting point" in f.evidence

        gp_hospital = scenarios["gp_hospital"]
        [f] = classify_pair(gp_hospital, "GP", "Hospital")
        assert f.level == VL and "no waiting point" in f.evidence

    def test_write_privileges_disqualify_tight(self):
        # Same shape as a tight alliance, but one owner may modify foreign data.
        text = (
            'model "m" { role A role B class C '
            "process P { owner A owner B output C } "
            "grant A on C { creation, reference, reference+, modification+ } "
            "grant B on C { creation, reference, reference+ } }"
        )
        model = parse_text(text).model
        assert classify_all(model).findings == ()

    def test_consumer_write_rights_disqualify_loose(self, scenarios):
        # Both roles hold creation on Booking, so neither is a pure consumer.
        m = scenarios["hotel_agency"]
        assert all(f.artifact_kind == "process" for f in classify_all(m).findings)

    def test_co_privileged_output_disqualifies_class_sharing(self):
        # B reads what A creates; with both roles privileged on the process
        # that produces C the class pattern must stay silent, without it the
        # same grants yield a very loose finding.
        def build(joint: bool):
            roles = "owner A responsible B" if joint else "owner A"
            text = (
                'model "m" { role A role B class C '
                f"process P {{ {roles} output C }} "
                "grant A on C { creation, reference, reference+ } "
                "grant B on C { reference+ } }"
            )
            return parse_text(text).model

        assert classify_pair(build(joint=True), "A", "B") == []
        [f] = classify_pair(build(joint=False), "A", "B")
        assert f.level == VL and f.artifact == "C"

    def test_invalid_model_rejected(self):
        with pytest.raises(InvalidModel):
            classify_all(load("bad_c3"))


class TestReport:
    def test_levels_between_is_unordered(self, scenarios):
        report = classify_all(scenarios["gp_lab"])
        assert report.levels_between("GP", "Laboratory") == report.levels_between(
            "Laboratory", "GP"
        )

    def test_to_table_layout(self, scenarios):
        table = classify_all(scenarios["hotel_agency"]).to_table()
        header, row = table.splitlines()
        assert header.split() == ["LEVEL", "PRODUCER", "CONSUMER", "ARTIFACT"]
        assert row.split() == ["very", "tight", "Hotel", "Agency", "MakeBooking"]

    def test_to_json_is_the_report_document(self, scenarios):
        report = classify_all(scenarios["healthcare"])
        doc = json.loads(report.to_json())
        assert doc == report_doc(report)
        assert doc["pair_summary"]["GP->Laboratory"] == ["loose"]

    def test_empty_report_table(self):
        assert CollaborationReport(()).to_table().splitlines()[0].startswith("LEVEL")


def _assert_matches_reference(m: Model) -> None:
    for r1 in m.roles:
        for r2 in m.roles:
            if r1 != r2:
                assert classify_pair(m, r1, r2) == brute_classify_pair(m, r1, r2)
    if not any(d.severity == "error" for d in validate(m)):
        report, expected = classify_all(m), brute_classify(m)
        assert report.findings == expected.findings
        assert json.loads(report.to_json()) == report_doc(expected)


class TestReferenceOracle:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures(self, name, scenarios):
        _assert_matches_reference(scenarios[name])

    @pytest.mark.parametrize("generate", [random_model, random_valid_model])
    def test_random_models(self, generate):
        rng = random.Random(3)
        found = 0
        for _ in range(300):
            m = generate(rng)
            _assert_matches_reference(m)
            _assert_matches_reference(reversed_members(m))
            found += len(brute_classify(m).findings)
        assert found > 20


    @pytest.mark.parametrize("seed", [511, 7, 2024])
    def test_synthetic_models(self, seed, monkeypatch):
        # Two dozen roles give every level many (producer, consumer) pairs,
        # each with several findings to keep in report order.
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "csmbench"))
        synth = load_bench("synth")
        m = parse_text(synth.to_text(synth.generate(24, 60, 60, 0.08, seed)["model"])).model
        report, expected = classify_all(m), brute_classify(m)
        assert len(report.findings) > 100
        assert report.findings == expected.findings
        assert report.to_json() == expected.to_json()


def test_each_finding_is_built_once(monkeypatch, scenarios):
    # A two-owner process is judged once, not once per role order, so no
    # finding is built only to be dropped as a repeat.
    built = []

    class CountedFinding(LevelFinding):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            built.append(None)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(classifier, "LevelFinding", CountedFinding)
    rng = random.Random(5)
    models = [scenarios[name] for name in FIXTURES]
    models += [random_valid_model(rng) for _ in range(200)]
    total = 0
    for m in models:
        built.clear()
        findings = classify_all(m).findings
        assert len(built) == len(findings)
        total += len(findings)
    assert total > 50
