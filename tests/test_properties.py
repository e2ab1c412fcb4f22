"""Hypothesis property suites; the acceptance gate reruns the same checks
in fixed 500-case loops (see test_acceptance.py). The JSON writer checks
run here only, in smaller counts and one fixed-seed loop, and so does the
check of models built in Python from drawn names."""

import string

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import properties_core as core
from csm.classifier import CollaborationReport, classify_all
from csm.dsl import ITEM_KEYWORDS, PITEM_KEYWORDS, emit_json, emit_text, parse_json, parse_text
from csm.model import ClassDef, Model, ModelError, ProcessDef, Transform, canonicalize
from helpers import PRIVILEGES, STATUS_POINTS, TRANSFORM_MODES

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


@small
@given(seeds)
def test_diagnostic_json_matches_reference(seed):
    core.check_diagnostic_json(seed)


@small
@given(seeds)
def test_simulator_json_matches_reference(seed):
    core.check_simulator_json(seed)


def test_writers_match_reference_on_fixed_seeds():
    for seed in range(100):
        core.check_report_json(seed)
        core.check_emit_json(seed)
        core.check_diagnostic_json(seed)
        core.check_simulator_json(seed)


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


# Names as a caller might pass them: identifiers, the text form's keywords,
# and strings neither form can take as one (a space, a leading digit, "#",
# '"', a line break, non-ASCII text, a lone surrogate).
identifiers = st.builds(
    str.__add__,
    st.sampled_from(string.ascii_letters),
    st.text(string.ascii_letters + string.digits + "_", max_size=3),
)
odd_names = st.sampled_from(
    ["", "a b", "9x", "#", '"', "a\nb", "caf\u00e9", "x\ud800", "\udfff"]
)
names = st.one_of(
    identifiers,
    st.sampled_from(sorted({"model", "on", "dynamic", "leaving", "remaining",
                            *ITEM_KEYWORDS, *PITEM_KEYWORDS})),
    odd_names,
    st.text(st.characters(exclude_categories=()), max_size=3),
)
# The text form quotes the model name, so more of these are odd.
model_names = st.one_of(odd_names, names)


# A model's names come from a small pool, mostly identifiers, and every
# declaration and reference is a slot in it, taken modulo its size: a
# reference may resolve, dangle or repeat a name.
pools = st.builds(
    list.__add__,
    st.lists(identifiers, min_size=1, max_size=4, unique=True),
    st.lists(names, max_size=1),
)
slot = st.integers(0, 4)
slots = st.lists(slot, max_size=2)
roles = st.lists(slot, max_size=3, unique=True)
class_rows = st.lists(
    st.tuples(slot, st.booleans(), st.frozensets(st.sampled_from(STATUS_POINTS))),
    max_size=4, unique_by=lambda row: row[0],
)
process_rows = st.lists(
    st.tuples(
        slot, slots, slots,
        # A mode may be a word that no form reads, which canonicalize refuses.
        st.lists(st.tuples(slot, slot, st.sampled_from((*TRANSFORM_MODES, "sideways"))),
                 max_size=1),
        # Owners and responsibles, which may overlap or repeat a role.
        slots, slots,
    ),
    max_size=2, unique_by=lambda row: row[0],
)
grant_rows = st.dictionaries(
    st.tuples(slot, slot), st.frozensets(st.sampled_from(PRIVILEGES)), max_size=2
)


@st.composite
def drawn_models(draw):
    """A ``Model`` built in Python from drawn names and slots."""
    pool = draw(pools)

    def n(i: int) -> str:
        return pool[i % len(pool)]

    classes = [ClassDef(n(i), dynamic, points) for i, dynamic, points in draw(class_rows)]
    processes = [
        ProcessDef(
            n(i), map(n, inputs), map(n, outputs),
            [Transform(n(a), n(b), mode) for a, b, mode in transforms],
            map(n, owners), map(n, responsibles),
        )
        for i, inputs, outputs, transforms, owners, responsibles in draw(process_rows)
    ]
    grants = {(n(r), n(c)): privs for (r, c), privs in draw(grant_rows).items()}
    return Model(draw(model_names), map(n, draw(roles)), classes, processes, grants)


@settings(prop, max_examples=250)
@given(drawn_models())
@example(Model("x\ud800"))
@example(Model(
    "a\tb # c", ["class"], [ClassDef("process", True, {"waiting"})],
    [ProcessDef("role", ["process"], [], [], ["class"])],
    {("class", "process"): {"reference", "reference+"}},
))
def test_drawn_model_is_rejected_or_round_trips(model):
    try:
        canonical = canonicalize(model)
    except ModelError:
        return
    text = emit_text(canonical)
    text.encode("utf-8")
    assert parse_text(text).model == canonical, text
    assert parse_json(emit_json(canonical)).model == canonical
