"""Each layer's work grows near-linearly with the model: a gate on counted
work, not on time.

The work of a call is the number of Python ``"line"`` events that
``sys.settrace`` sees while it runs. That count is exact and the same on
every host and hash seed, so one run decides the gate. Each layer is
counted on ``synth.generate(24, n, n, 0.08, 511)`` at n = 250, 500 and
1000, after one untraced call that loads what the layer imports and
compiles on first use. Each doubling of n must multiply the count by less
than ``2 ** 1.15``; today every layer's ratio is 1.97-2.05 on Python 3.10
to 3.13. A lookup that turns into a scan of the classes (row 48 of
``mutants.py``) takes ``validate``'s ratios to 2.96-2.98 and 3.21-3.23.

What the gate cannot see:

- one line event can hide C work of any size (``x in some_list``,
  ``str.join``, a regex scan), so it catches loops written in Python only;
  ``tracemalloc`` peaks, as in ``TestLexer``, cover allocation;
- counts are not time, so a claimed speed-up still needs timed runs.

The tests skip when a tracer is already set, as it is under coverage.
"""

import sys
from pathlib import Path

import pytest

from csm.classifier import classify_all
from csm.dsl import _report_text, emit_text, parse_json, parse_text
from csm.render import to_dot
from csm.validator import validate
from helpers import load_bench

SIZES = (250, 500, 1000)
BOUND = 2 ** 1.15


def _model(text, data):
    return parse_text(text).model


# Per layer: what is built untraced from the text and the JSON, and the
# call that is counted on it. The model layers each get a fresh model, so
# that none reads an index that another layer built.
LAYERS = {
    "parse_text": (lambda text, data: text, parse_text),
    "parse_json": (lambda text, data: data, parse_json),
    "_report_text": (lambda text, data: text, lambda text: _report_text(text, "s.csm")),
    "validate": (_model, validate),
    "classify_all": (_model, lambda model: classify_all(model).to_json()),
    "to_dot": (_model, to_dot),
    "emit_text": (_model, emit_text),
}


def line_events(call, arg) -> int:
    """The ``"line"`` events of ``call(arg)`` in every frame it runs."""
    count = 0

    def local(frame, event, _):
        nonlocal count
        count += event == "line"
        return local

    sys.settrace(lambda frame, event, _: local)
    try:
        call(arg)
    finally:
        sys.settrace(None)
    return count


@pytest.fixture(scope="module")
def counts():
    """Per layer, its line events at each of ``SIZES``."""
    if sys.gettrace() is not None:
        pytest.skip("a tracer is already set")
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).parents[1] / "csmbench"))
        synth = load_bench("synth")
    inputs = []
    for n in SIZES:
        doc = synth.generate(24, n, n, 0.08, 511)["model"]
        inputs.append((synth.to_text(doc), synth.to_json(doc)))
    found = {}
    for layer, (build, call) in LAYERS.items():
        call(build(*inputs[0]))
        found[layer] = [line_events(call, build(*texts)) for texts in inputs]
    return found


@pytest.mark.parametrize("layer", LAYERS)
def test_each_doubling_stays_near_linear(layer, counts):
    found = counts[layer]
    ratios = [b / a for a, b in zip(found, found[1:])]
    assert all(r < BOUND for r in ratios), (layer, found, ratios)


def test_the_token_parser_against_the_line_reader(counts):
    # The token parser makes 4.1-4.7 times the line reader's line events on
    # the same text (4.5-4.7 on Python 3.10 and 3.11, 4.3-4.4 on 3.12,
    # 4.1-4.2 on 3.13). Above 2 the line reader read the text itself; below
    # 6 the token parser keeps its cost per token.
    for line_reader, token_parser in zip(counts["parse_text"], counts["_report_text"]):
        assert 2 < token_parser / line_reader < 6, (token_parser, line_reader)
