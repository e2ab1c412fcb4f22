import random
import shutil
import subprocess

import pytest

from csm import cli, dsl, model
from csm.dsl import parse_text
from csm.fixtures import FIXTURES, fixture_path, load
from csm.model import InvalidModelName, Model
from csm.render import to_dot, to_mermaid
from csm.validator import InvalidModel
from helpers import (
    brute_to_dot,
    brute_to_mermaid,
    check_dot_syntax,
    check_mermaid_syntax,
    random_valid_model,
)


class TestDot:
    def test_empty_model(self):
        assert to_dot(Model("M")) == 'digraph "M" {\n}\n'

    def test_deterministic(self, scenarios):
        m = scenarios["healthcare"]
        assert to_dot(m) == to_dot(m)
        assert to_dot(m, show_privileges=True) == to_dot(m, show_privileges=True)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_internal_syntax_check(self, name, scenarios):
        check_dot_syntax(to_dot(scenarios[name]))
        check_dot_syntax(to_dot(scenarios[name], show_privileges=True))

    def test_model_name_is_escaped(self):
        model = parse_text('model "a\\" { }').model
        assert model.name == "a\\"
        check_dot_syntax(to_dot(model))
        assert to_dot(model).startswith('digraph "a\\\\" {')
        # A name no text form can quote is refused before it reaches DOT.
        with pytest.raises(InvalidModelName):
            to_dot(Model('say "hi"'))

    def test_swim_lanes_and_aliases(self, scenarios):
        out = to_dot(scenarios["hotel_agency"])
        assert 'subgraph "cluster_Hotel"' in out
        assert 'subgraph "cluster_Agency"' in out
        # MakeBooking lives in the owner's lane; the responsible agency
        # gets a dashed alias node.
        assert '"p_MakeBooking" [shape=box, label="MakeBooking"];' in out
        assert '"p_MakeBooking__Agency" [shape=box, style=dashed, label="MakeBooking"];' in out

    def test_edges_carry_transform_modes(self, scenarios):
        out = to_dot(scenarios["hospital_cleaning"])
        assert '"p_CleanRoom" -> "c_CleanedRoom" [label="remains"];' in out
        assert '"p_DischargeHospital" -> "c_VacantRoom" [label="leaves"];' in out
        assert '"c_OccupiedRoom" -> "p_CleanRoom";' in out

    def test_status_point_letters(self, scenarios):
        assert 'label="TestRequest [W]"' in to_dot(scenarios["gp_lab"])
        assert 'label="SentTestResult [WFD]"' in to_dot(scenarios["healthcare"])

    def test_privilege_annotations(self, scenarios):
        out = to_dot(scenarios["hotel_agency"], show_privileges=True)
        assert "Hotel: c,m,r,s,m+,r+,s+" in out
        assert "Agency: c,m,r,s,r+" in out

    def test_invalid_model_rejected(self):
        with pytest.raises(InvalidModel):
            to_dot(load("bad_c1"))

    @pytest.mark.skipif(shutil.which("dot") is None, reason="graphviz not installed")
    def test_external_graphviz_accepts_output(self, scenarios):
        for name in FIXTURES:
            subprocess.run(
                ["dot", "-Tsvg", "-o", "/dev/null"],
                input=to_dot(scenarios[name]).encode(),
                check=True,
            )


class TestMermaid:
    def test_deterministic(self, scenarios):
        m = scenarios["healthcare"]
        assert to_mermaid(m) == to_mermaid(m)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_internal_syntax_check(self, name, scenarios):
        check_mermaid_syntax(to_mermaid(scenarios[name]))

    def test_structure(self, scenarios):
        out = to_mermaid(scenarios["hotel_agency"])
        assert out.startswith("flowchart LR\n")
        assert "  subgraph Hotel" in out
        assert '    p_MakeBooking["MakeBooking"]' in out
        assert "  style p_MakeBooking__Agency stroke-dasharray: 5 5" in out
        assert "  p_CheckIn -->|leaves| c_CheckedInGuest" in out
        assert '  c_Booking(["Booking [D]"])' in out

    def test_invalid_model_rejected(self):
        with pytest.raises(InvalidModel):
            to_mermaid(load("bad_orphan"))

    @pytest.mark.skipif(shutil.which("mmdc") is None, reason="mermaid-cli not installed")
    def test_external_mermaid_accepts_output(self, scenarios, tmp_path):
        src = tmp_path / "m.mmd"
        src.write_text(to_mermaid(scenarios["hotel_agency"]))
        subprocess.run(
            ["mmdc", "-i", str(src), "-o", str(tmp_path / "m.svg")], check=True
        )


class TestLanes:
    def test_one_pass_matches_the_role_by_process_rule(self, scenarios):
        rng = random.Random(1313)
        models = list(scenarios.values())
        models += [random_valid_model(rng) for _ in range(300)]
        # Reversed members: a copy the renderer must sort again.
        models += [m._replace(roles=m.roles[::-1], processes=m.processes[::-1]) for m in models[-20:]]
        for m in models:
            assert to_dot(m) == brute_to_dot(m)
            assert to_dot(m, show_privileges=True) == brute_to_dot(m, show_privileges=True)
            assert to_mermaid(m) == brute_to_mermaid(m)

    @pytest.mark.parametrize(
        "argv",
        [["render", "--format", "dot"], ["render", "--format", "mermaid"], ["fmt"]],
    )
    def test_commands_resolve_names_once(self, argv, monkeypatch, capsys, tmp_path):
        # A model is resolved once, whether the line reader or, for text
        # with a comment inside the model header, the token parser read it:
        # neither the renderers nor the emitter resolve the canonical model
        # again.
        calls = []
        resolve = model._resolve

        def counted(draft):
            calls.append(draft.name)
            return resolve(draft)

        monkeypatch.setattr(model, "_resolve", counted)
        monkeypatch.setattr(dsl, "_resolve", counted)
        assert cli.main([*argv, str(fixture_path("hotel_agency"))]) == 0
        out = capsys.readouterr().out
        assert out and len(calls) == 1
        calls.clear()
        text = fixture_path("hotel_agency").read_text(encoding="utf-8")
        fallback = tmp_path / "commented.csm"
        fallback.write_text(text.replace(" {", " # a note\n {", 1), encoding="utf-8")
        assert cli.main([*argv, str(fallback)]) == 0
        assert capsys.readouterr().out == out
        assert len(calls) == 1
