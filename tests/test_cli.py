import json

import pytest

from crnrelay import cli
from crnrelay.cli import main

P0_FLAGS = ["--set", "Lambda=2", "--set", "betaw=1/2", "--set", "beta1=3"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_siphons_text(capsys):
    code, out, _ = run(capsys, "siphons", "--model", "osn_omega_pos")
    assert code == 0
    assert "{S1,B1}" in out and "{S2,B2}" in out and "{U}" in out
    assert "r13" in out  # all thirteen rates listed


def test_siphons_json(capsys):
    code, out, _ = run(capsys, "siphons", "--model", "osn_omega0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert sorted(map(tuple, doc["minimal_siphons"])) == [
        ("B1", "S1"), ("B2", "S2"), ("U",), ("W",)]
    assert doc["parameters"]["betaw"] == "1/2"


def test_stability_example_wording(capsys):
    code, out, _ = run(capsys, "stability", "--equilibrium", "gOSN", *P0_FLAGS)
    assert code == 0
    assert "Unstable" in out
    assert "ratio 3/2 > 1" in out
    assert "{S1,B1}" in out


def test_equilibria_report_carries_parameters(capsys):
    code, out, _ = run(capsys, "equilibria", "--format", "json", *P0_FLAGS)
    assert code == 0
    doc = json.loads(out)
    assert doc["parameters"]["Lambda"] == "2"
    names = {row.get("name") for row in doc["equilibria"]}
    assert {"gOSN", "RFE", "OSND", "E1"} <= names
    for row in doc["equilibria"]:
        if row.get("name") == "gOSN":
            assert row["exists"] is True
            assert row["coordinates"]["U"] == "1"
            ratios = {tuple(t["sigma"]): t["rho"] for t in row["thresholds"]}
            assert ratios[("S1", "B1")] == "3/2"


def test_invasion_json(capsys):
    code, out, _ = run(capsys, "invasion", "--sigma", "{S1,B1}",
                       "--equilibrium", "gOSN", "--format", "json", *P0_FLAGS)
    assert code == 0
    doc = json.loads(out)
    assert doc["abscissa"] == "Positive"
    assert doc["rho"] == "3/2"
    assert doc["rho_vs_one"] == 1


def test_relay_strict_exit_codes(capsys):
    base = ["relay", "--model", "osn_omega0", *P0_FLAGS, "--strict-paper-verdicts"]
    code, out, _ = run(capsys, *base, "--sigma", "{S1,B1,S2,B2,W}",
                       "--sigma-prime", "{S2,B2,W}")
    assert code == 4
    assert "Undecided" in out

    code, out, _ = run(capsys, *base, "--sigma", "{S1,B1,S2,B2,U,W}",
                       "--sigma-prime", "{S1,B1,S2,B2,W}")
    assert code == 0
    assert "NoRelay" in out


def test_relay_refined(capsys):
    code, out, _ = run(capsys, "relay", "--sigma", "{S1,B1,S2,B2}",
                       "--sigma-prime", "{S2,B2}", *P0_FLAGS)
    assert code == 0
    assert "RelayHolds" in out
    assert "stable successor E1" in out


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "equilibria", "--set", "mu=abc")
    assert code == 2
    assert "rational" in err

    code, _, err = run(capsys, "equilibria", "--set", "nonsense")
    assert code == 2


def test_exit_code_precondition(capsys):
    code, _, err = run(capsys, "equilibria", "--face", "{W}")
    assert code == 3
    assert "not invariant" in err

    code, _, err = run(capsys, "stability", "--equilibrium", "Atlantis", *P0_FLAGS)
    assert code == 3
    assert "Atlantis" in err

    code, _, err = run(capsys, "relay", "--sigma", "{S1,B1,U}",
                       "--sigma-prime", "{S1}", *P0_FLAGS)
    assert code == 3


def test_exit_code_undecided(capsys):
    code, out, _ = run(capsys, "relay", "--model", "osn_omega0", *P0_FLAGS,
                       "--strict-paper-verdicts",
                       "--sigma", "{S1,B1,S2,B2,W}", "--sigma-prime", "{S1,B1,W}")
    assert code == 4


def test_dot_format_restricted(capsys):
    code, _, err = run(capsys, "equilibria", "--format", "dot")
    assert code == 2
    assert "relay-graph" in err


def test_relay_graph_dot_and_out(tmp_path, capsys):
    out_path = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "relay-graph", "--format", "dot",
                       "--out", str(out_path), *P0_FLAGS)
    assert code == 0
    assert out.startswith("digraph")
    assert out_path.read_text() == out

    code2, out2, _ = run(capsys, "relay-graph", "--format", "dot", *P0_FLAGS)
    assert out2 == out  # byte identical across runs


def test_json_deterministic(capsys):
    args = ("equilibria", "--format", "json", *P0_FLAGS)
    _, one, _ = run(capsys, *args)
    _, two, _ = run(capsys, *args)
    assert one == two


def test_model_file_loading(tmp_path, capsys):
    src = """\
model shuttle
variables: x y
parameters: a
equations:
    x' = a - x - x*y
    y' = x*y - y
values:
    a = 2
"""
    path = tmp_path / "shuttle.model"
    path.write_text(src)
    code, out, _ = run(capsys, "siphons", "--model", str(path))
    assert code == 0
    assert "{y}" in out

    code, out, _ = run(capsys, "equilibria", "--model", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == "shuttle"
    assert len(doc["equilibria"]) >= 2


def test_model_file_parse_error_exit(tmp_path, capsys):
    path = tmp_path / "bad.model"
    path.write_text("model m\nvariables: x\nequations:\n    x' = (1\n")
    code, _, err = run(capsys, "siphons", "--model", str(path))
    assert code == 2
    assert "line" in err


def test_missing_model_file_exit(capsys):
    code, _, err = run(capsys, "siphons", "--model", "/nowhere/none.model")
    assert code == 3


def test_verify_face_theorem(capsys):
    for model in ("osn_omega0", "osn_omega_pos"):
        code, out, _ = run(capsys, "verify-face-theorem", "--model", model)
        assert code == 0
        assert "overall: PASS" in out


def test_screen_oscillation_exit_codes(capsys):
    code, out, _ = run(capsys, "screen-oscillation", "--model", "osn_omega0")
    assert code == 0
    assert "oscillation impossible" in out

    code, out, _ = run(capsys, "screen-oscillation", "--model", "osn_omega_pos")
    assert code == 4
    assert "inconclusive" in out


def test_rank_one_bound_cli(capsys):
    code, out, _ = run(capsys, "rank-one-bound", "--equilibrium", "gOSN",
                       "--set", "Lambda=2", "--set", "betaw=1/2", "--set", "beta1=1")
    assert code == 0
    assert "determinant identity verified: True" in out

    code, _, err = run(capsys, "rank-one-bound", "--equilibrium", "gOSN",
                       "--kappa", "x", "--u", "W", "--v", "R",
                       "--set", "Lambda=2", "--set", "betaw=1/2", "--set", "beta1=1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("equilibria", "--model", "osn_omega0", "--set", "Lambda=1/2"),
    ("invasion", "--model", "osn_omega0", "--sigma", "{S2,B2}",
     "--equilibrium", "E1g", "--set", "Lambda=1/2"),
], ids=["equilibria", "invasion"])
def test_non_metzler_invasion_block_does_not_crash(capsys, argv):
    # Below R0 = 1, E1g has negative coordinates and its {S2,B2} invasion
    # block is not Metzler, so the abscissa comes from characteristic roots.
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert "Traceback" not in err and "Error" not in err
    assert "abscissa Negative" in out or "abscissa: Negative" in out


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def broken(args, m, params):
        raise TypeError("'int' object is not callable")

    monkeypatch.setitem(cli._COMMANDS, "siphons", broken)
    code, out, err = run(capsys, "siphons")
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert err == "error: internal: TypeError: 'int' object is not callable\n"
