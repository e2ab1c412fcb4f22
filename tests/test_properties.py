"""Hypothesis property suites; the acceptance gate reruns the same checks
in fixed 500-case loops (see test_acceptance.py). The JSON writer checks
run here only, in smaller counts and one fixed-seed loop."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import properties_core as core
from csm.classifier import CollaborationReport, classify_all
from csm.dsl import emit_json
from csm.model import ClassDef, Model

seeds = st.integers(min_value=0, max_value=2**48)
prop = settings(
    max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
small = settings(prop, max_examples=100)


@prop
@given(seeds)
def test_canonicalize_idempotent(seed):
    core.check_canonicalize_idempotent(seed)


@prop
@given(seeds)
def test_enabled_monotone(seed):
    core.check_enabled_monotone(seed)


@prop
@given(seeds)
def test_leaving_removes_exactly_one(seed):
    core.check_leaving_removes_exactly_one(seed)


@prop
@given(seeds)
def test_waiting_toggle_swaps_levels(seed):
    core.check_waiting_toggle_swaps_levels(seed)


@prop
@given(seeds)
def test_c2_repair_monotone(seed):
    core.check_c2_repair_monotone(seed)


@small
@given(seeds)
def test_report_json_matches_reference(seed):
    core.check_report_json(seed)


@small
@given(seeds)
def test_emit_json_matches_reference(seed):
    core.check_emit_json(seed)


def test_writers_match_reference_on_fixed_seeds():
    for seed in range(100):
        core.check_report_json(seed)
        core.check_emit_json(seed)


def test_writers_on_empty_documents():
    report = CollaborationReport(())
    assert report.to_json() == core.reference_report_json(report)
    assert '"findings": []' in report.to_json()
    assert '"pair_summary": {}' in report.to_json()
    empty = Model("empty", (), (), ())
    assert emit_json(empty) == core.reference_emit_json(empty)
    assert b'"classes": []' in emit_json(empty)
    assert classify_all(empty).to_json() == report.to_json()


def test_emit_json_escapes_like_json_dumps():
    m = Model("back\\slash\ttab caf\u00e9 \u2603", ("R",), (ClassDef("C", dynamic=True),), ())
    text = emit_json(m)
    assert text == core.reference_emit_json(m)
    assert b'"back\\\\slash\\ttab caf\\u00e9 \\u2603"' in text
