"""Bundled example models, one ``.csm`` file per scenario.

``FIXTURES`` lists the well-formed scenarios; the ``bad_*`` files each
violate exactly one error rule and exist for validator testing.
"""

from __future__ import annotations

from pathlib import Path

from ..dsl import parse_text
from ..model import Model

FIXTURES = (
    "airline_alliance",
    "gp_hospital",
    "gp_lab",
    "healthcare",
    "hospital_cleaning",
    "hotel_agency",
)

BAD_FIXTURES = ("bad_c1", "bad_c2", "bad_c3", "bad_c4", "bad_c5", "bad_orphan")


def fixture_path(name: str) -> Path:
    path = Path(__file__).with_name(f"{name}.csm")
    if not path.exists():
        raise FileNotFoundError(name)
    return path


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


def load(name: str) -> Model:
    """Parse a bundled fixture; raises if it does not parse cleanly."""
    result = parse_text(fixture_text(name), file_label=f"{name}.csm")
    if result.model is None:
        details = "; ".join(d.render() for d in result.diagnostics)
        raise ValueError(f"fixture {name} failed to parse: {details}")
    return result.model
