import io
import itertools
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import kept, mass_action_files
from crnrelay import cli
from crnrelay.cli import main
from crnrelay.equilibria import all_equilibria, face_equilibria, positivity_check
from crnrelay.errors import AlgebraError, CrnRelayError
from crnrelay.linalg import UniPoly, integer_roots, quad_solve
from crnrelay.modelfile import parse_model_file, parse_model_text, print_model
from crnrelay.models import builtin_model, equilibrium_namer
from crnrelay.network import Model
from crnrelay.scalars import exact

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import HOSTS  # noqa: E402  the names the benchmark asks for

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


def test_set_takes_exact_decimals_and_refuses_the_rest(capsys):
    code, tenth, _ = run(capsys, "relay-graph", "--format", "json", "--set", "Lambda=1/10")
    assert code == 0
    code, out, _ = run(capsys, "relay-graph", "--format", "json", "--set", "Lambda=0.1")
    assert code == 0 and out == tenth
    assert json.loads(out)["parameters"]["Lambda"] == "1/10"
    for bad in ("Lambda=abc", "Lambda=", "Lambda=1/0", "Lambda=nan"):
        code, out, err = run(capsys, "relay-graph", "--set", bad)
        assert code == 2 and out == "" and "rational" in err


def test_set_and_kappa_read_long_values_up_to_the_digit_bound(capsys):
    """--set and --kappa read a value of 5000 digits exactly, as a model
    file's values do, and a decimal denominator as they do; an exponent, or more than
    100000 digits in a numerator or a denominator, as written or as read, is
    refused before anything is computed, and text that does not match is
    refused in linear time."""
    long = "7" * 5000
    code, out, _ = run(capsys, "siphons", "--model", "osn_omega0", "--set", f"Lambda={long}")
    assert code == 0 and f"parameters: Lambda={long} " in out
    code, out, _ = run(capsys, "rank-one-bound", "--equilibrium", "RFE", "--u", "W", "--v", "R",
                       "--kappa", f"-1/{long}")
    assert code == 0 and f"with strength -1/{long} at RFE:" in out
    code, out, _ = run(capsys, "siphons", "--model", "osn_omega0", "--set", "Lambda=1/2.5")
    assert code == 0 and "parameters: Lambda=2/5 " in out
    code, out, _ = run(capsys, "rank-one-bound", "--equilibrium", "RFE", "--u", "W", "--v", "R",
                       "--kappa", "-1/2.5")
    assert code == 0 and "with strength -2/5 at RFE:" in out
    for bad in ("1e1000000", "1" * 100001, "1/" + "1" * 100001, "1" * 100000 + "x",
                "1" * 100000 + "e5", "1/" + "1" * 100000 + "x", "1/2.5.5",
                "0." + "9" * 99999 + "/" + "1" * 100000, "9" * 100000 + "/0." + "0" * 99998 + "1"):
        code, out, err = run(capsys, "siphons", "--model", "osn_omega0", "--set", f"Lambda={bad}")
        assert code == 2 and out == "" and "rational" in err
        code, out, err = run(capsys, "rank-one-bound", "--equilibrium", "RFE", "--u", "W",
                             "--v", "R", "--kappa", bad)
        assert code == 2 and out == "" and "rational" in err


def test_a_refused_set_value_is_shown_cut_short(capsys):
    """A refused --set value is named by its parameter and the reason, and
    shown cut short with its length: one stderr line of under 300 bytes,
    however long the value, and exit code 2."""
    for arg, reason in (("Lambda=" + "9" * 100001, "a number of more than 100000 digits"),
                        ("Lambda=" + "1" * 100000 + "x", "not a decimal"),
                        ("x" * 100000 + "=1/0", "zero denominator"),
                        ("L" * 100000, "expects PARAM=RATIONAL")):
        code, out, err = run(capsys, "siphons", "--model", "osn_omega0", "--set", arg)
        assert code == 2 and out == "" and reason in err
        assert len(err.encode()) < 300 and err.count("\n") == 1
        assert f" of {len(arg.partition('=')[2] or arg)} characters" in err
    code, _, err = run(capsys, "siphons", "--model", "osn_omega0", "--set", "Lambda=" + "9" * 100001)
    assert err.startswith("error: bad rational in --set 'Lambda': ")


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


@pytest.mark.parametrize("equation,message", [
    ("a*\u00b2", "col 12: unexpected character '\u00b2'"),
    ("a*x^40000", "col 14: a power of total degree past 32767"),
    ("a*(x + 1)^40000", "col 20: a power of total degree past 32767"),
    ("(" * 330 + "x" + ")" * 330, "col 310: expression nested too deeply"),
], ids=["superscript-digit", "power-past-the-limit", "sum-power-past-the-limit",
        "nested-too-deeply"])
def test_a_malformed_model_file_exits_2_with_its_position(tmp_path, capsys, equation, message):
    path = tmp_path / "bad.model"
    path.write_text(f"model m\nvariables: x\nparameters: a\nequations:\n    x' = {equation}\n",
                    encoding="utf-8")
    code, _, err = run(capsys, "siphons", "--model", str(path))
    assert code == 2
    assert err.startswith("error: line 5, ") and message in err


def test_a_model_file_that_is_not_utf8_exits_2_with_its_position(tmp_path, capsys):
    path = tmp_path / "latin1.model"
    path.write_bytes("model m\nvariables: x\nequations:\n    x' = -x  # \u00e9\n".encode("latin-1"))
    code, out, err = run(capsys, "siphons", "--model", str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 4, col 16: byte 0xe9 is not UTF-8\n"


def test_a_sign_after_a_product_binds_looser_than_the_power(tmp_path, capsys):
    # a*-x^2 - a*x = -a*x*(x + 1): x = 0 is the only nonnegative equilibrium
    path = tmp_path / "sq.model"
    path.write_text("model sq\nvariables: x\nparameters: a\n"
                    "equations:\n    x' = a*-x^2 - a*x\nvalues:\n    a = 1\n")
    code, out, _ = run(capsys, "equilibria", "--model", str(path), "--format", "json")
    assert code == 0
    rows = json.loads(out)["equilibria"]
    assert [row["coordinates"] for row in rows if row["exists"]] == [{"x": "0"}]
    assert {row["coordinates"]["x"] for row in rows} == {"0", "-1"}


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


@pytest.mark.parametrize("kappa", ["-1/2", "-.5", "-0.5", "-2"])
def test_a_negative_rational_is_read_as_the_value_of_its_flag(capsys, kappa):
    flags = ("rank-one-bound", "--equilibrium", "RFE", "--u", "W", "--v", "R")
    spaced = run(capsys, *flags, "--kappa", kappa)
    joined = run(capsys, *flags, f"--kappa={kappa}")
    assert spaced == joined and spaced[0] == 0
    assert f"coupling W <- R with strength {Fraction(kappa)} at RFE:" in spaced[1]


@pytest.mark.parametrize("argv", [
    ("equilibria", "--bogus"), ("stability",), ("bogus",), (), ("stability", "--equilibrium"),
    ("equilibria", "--format", "csv"), ("rank-one-bound", "--equilibrium", "RFE", "--kappa"),
], ids=["unknown-flag", "missing-flag", "unknown-command", "no-command", "missing-value",
        "bad-choice", "missing-kappa"])
def test_a_usage_error_returns_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: crnrelay") and "error: " in err


@pytest.mark.parametrize("argv", [("--help",), ("relay", "-h")], ids=["crnrelay", "relay"])
def test_help_returns_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out.startswith("usage: crnrelay")


@pytest.mark.parametrize("flags", [
    ("--u", "W"), ("--v", "R"), ("--kappa", "1"),
    ("--u", "W", "--v", "R"), ("--u", "W", "--kappa", "1"), ("--v", "R", "--kappa", "1"),
], ids=["u", "v", "kappa", "u-v", "u-kappa", "v-kappa"])
def test_rank_one_bound_refuses_a_partial_coupling(capsys, flags):
    code, out, err = run(capsys, "rank-one-bound", "--equilibrium", "RFE", *flags)
    assert (code, out) == (2, "")
    assert err.startswith("error: a custom coupling needs --u, --v and --kappa")


def test_rank_one_bound_of_the_declared_edge_is_that_edge_given_by_flags(capsys):
    # osn_omega_pos declares rank_one_edge = W R omega, and omega = 1 by default
    declared = run(capsys, "rank-one-bound", "--equilibrium", "RFE", *P0_FLAGS)
    flagged = run(capsys, "rank-one-bound", "--equilibrium", "RFE", *P0_FLAGS,
                  "--u", "W", "--v", "R", "--kappa", "1")
    assert declared == flagged and declared[0] == 0
    assert "coupling W <- R with strength 1 at RFE:" in declared[1]
    code, _, err = run(capsys, "rank-one-bound", "--model", "osn_omega0", "--equilibrium", "RFE")
    assert code == 3
    assert err == "error: need --u/--v/--kappa: the model declares no rank-one coupling\n"


@pytest.mark.parametrize("sub", sorted(set(cli._COMMANDS) - {"relay"}))
def test_strict_paper_verdicts_is_a_flag_of_relay_alone(capsys, sub):
    required = {"stability": ["--equilibrium", "RFE"], "rank-one-bound": ["--equilibrium", "RFE"],
                "invasion": ["--sigma", "{S1,B1}", "--equilibrium", "RFE"]}
    code = main([sub, *required.get(sub, []), "--strict-paper-verdicts"])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert "unrecognized arguments: --strict-paper-verdicts" in out.err


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


def test_parser_is_built_once_and_each_call_parses_afresh(capsys):
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    a = parser.parse_args(["equilibria", "--set", "Lambda=3", "--set", "mu=2"])
    b = parser.parse_args(["siphons", "--model", "osn_omega0"])
    c = parser.parse_args(["relay-graph", "--set", "mu=5", "--format", "dot"])
    assert (a.command, a.set, a.format) == ("equilibria", ["Lambda=3", "mu=2"], "text")
    assert (b.command, b.set, b.model) == ("siphons", [], "osn_omega0")
    assert (c.command, c.set, c.format) == ("relay-graph", ["mu=5"], "dot")
    assert a.set is not b.set and b.set is not c.set
    # the same through main: no --set value of one call reaches the next
    code, out, _ = run(capsys, "equilibria", "--format", "json", "--set", "Lambda=3")
    assert code == 0 and json.loads(out)["parameters"]["Lambda"] == "3"
    code, out, _ = run(capsys, "siphons", "--format", "json")
    assert code == 0 and json.loads(out)["parameters"]["Lambda"] == "2"
    code, out, _ = run(capsys, "equilibria", "--format", "json")
    assert code == 0 and json.loads(out)["parameters"]["Lambda"] == "2"


# -- a named equilibrium: its host faces alone, and the same names from a file --

ALL_EXIST = ("--set", "Lambda=3", "--set", "betaw=1", "--set", "beta1=3", "--set", "beta2=4")


def _name_args(sub, m, name):
    if sub == "invasion":
        host = frozenset(HOSTS[m.name][name].split())
        inside = [s for s in m.lattice().minimal if s <= host] or list(m.lattice().minimal)
        return ["--sigma", "{" + ",".join(m.sort_vars(inside[0])) + "}"]
    if sub == "rank-one-bound" and m.rank_one_edge is None:
        return ["--u", "W", "--v", "U", "--kappa", "1/2"]
    return []


@pytest.mark.parametrize("model", sorted(HOSTS))
def test_a_builtin_read_from_its_printed_file_reports_what_the_builtin_reports(
        tmp_path, capsys, model):
    m = builtin_model(model)
    path = tmp_path / "copy.model"
    path.write_text(print_model(m), encoding="utf-8")
    assert set(HOSTS[model]) == set(equilibrium_namer(m).names())
    codes = []
    for point in ((), ALL_EXIST):
        for fmt in ("text", "json"):
            for name in HOSTS[model]:
                for sub in ("stability", "invasion", "rank-one-bound"):
                    rest = ["--format", fmt, "--equilibrium", name, *point,
                            *_name_args(sub, m, name)]
                    by_name = run(capsys, sub, "--model", model, *rest)
                    by_path = run(capsys, sub, "--model", str(path), *rest)
                    assert by_path[:2] == by_name[:2], (sub, fmt, name, point)
                    codes.append(by_name[0])
    assert codes.count(0) > len(codes) // 2


def test_a_file_that_changes_a_builtin_reaction_names_nothing(tmp_path, capsys):
    text = print_model(builtin_model("osn_omega0"))
    path = tmp_path / "osn_omega0.model"
    path.write_text(text.replace("Lambda = 2", "Lambda = 5"), encoding="utf-8")
    assert (equilibrium_namer(parse_model_file(str(path)))
            is equilibrium_namer(builtin_model("osn_omega0")))
    changed = text.replace("S2*gamma2 - B2*mu2", "S2*gamma2 - 2*B2*mu2")
    assert changed != text
    path.write_text(changed, encoding="utf-8")
    m = parse_model_file(str(path))
    assert m.name == "osn_omega0" and equilibrium_namer(m).names() == ()
    code, out, err = run(capsys, "stability", "--model", str(path), "--equilibrium", "E1")
    assert (code, out) == (3, "")
    assert "names no equilibria" in err
    code, out, _ = run(capsys, "equilibria", "--model", str(path), "--face", "{S2,B2}")
    assert code == 0 and "E1" not in out


@pytest.mark.parametrize("model, sigma, name, point, notes", [
    ("osn_omega_pos", "{U}", "OSND", (),
     ["no routing metadata; using entrywise positive part",
      "leading principal minor 1 of V is not positive"]),
    ("osn_omega0", "{S2,B2}", "E1g", ("--set", "Lambda=1/2"),
     ["block is not Metzler; abscissa from characteristic roots",
      "no routing metadata; using entrywise positive part",
      "V has a positive off-diagonal entry"]),
], ids=["minor", "not-metzler"])
def test_invasion_without_routing_metadata_reports_an_invalid_split_and_its_notes(
        tmp_path, capsys, model, sigma, name, point, notes):
    text = print_model(builtin_model(model))
    path = tmp_path / "unrouted.model"
    path.write_text("".join(line for line in text.splitlines(keepends=True)
                            if "ngm_mask" not in line), encoding="utf-8")
    argv = ("invasion", "--model", str(path), "--sigma", sigma, "--equilibrium", name, *point)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-2 - len(notes):] == [
        "  threshold ratio: None", "  split valid: False", *(f"  note: {n}" for n in notes)]
    code, out, _ = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    assert (code, doc["rho"], doc["split_valid"], doc["notes"]) == (0, None, False, notes)


def test_a_named_equilibrium_is_solved_on_its_host_face_alone(capsys):
    m = builtin_model("osn_omega0")
    code, _, _ = run(capsys, "stability", "--model", "osn_omega0", "--equilibrium", "E1",
                     "--set", "Lambda=37/7")
    assert code == 0
    assert kept(m.at({"Lambda": Fraction(37, 7)}), "face") == [(frozenset({"S2", "B2"}),)]


def test_an_unknown_name_is_refused_before_any_face_is_solved(capsys):
    m = builtin_model("osn_omega_pos")
    code, out, err = run(capsys, "invasion", "--sigma", "{U}", "--equilibrium", "E1g",
                         "--set", "Lambda=41/7")
    assert (code, out) == (3, "")
    assert "E1g" in err and "OSND, gOSN, RFE, E1, E2, EE" in err
    assert kept(m.at({"Lambda": Fraction(41, 7)}), "face") == []


@pytest.mark.parametrize("sigma", ["{}", "{ , }"])
def test_an_empty_invading_set_exits_3(capsys, sigma):
    code, out, err = run(capsys, "invasion", "--sigma", sigma, "--equilibrium", "E1", *P0_FLAGS)
    assert (code, out) == (3, "")
    assert "invading set is empty" in err


TEXTS = {name: print_model(builtin_model(name)) for name in HOSTS}
rationals = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))


@st.composite
def named_points(draw):
    model = draw(st.sampled_from(sorted(HOSTS)))
    m = builtin_model(model)
    return model, {p: draw(rationals) for p in m.parameters}


def _full_search(m, name, params):
    hits = [e for lst in all_equilibria(m, params).values() for e in lst
            if e.is_decided and e.name == name]
    existing = [e for e in hits if positivity_check(e).exists]
    return (existing or hits or [None])[0]


@settings(max_examples=20)
@given(case=named_points())
def test_the_host_face_lookup_finds_what_a_search_of_every_face_finds(case):
    model, params = case
    fresh = parse_model_text(TEXTS[model])
    for name in HOSTS[model]:
        want = _full_search(builtin_model(model), name, params)
        try:
            got = cli._find_equilibrium(fresh, name, params)
        except CrnRelayError:
            got = None
        assert (got is None) == (want is None), name
        if got is not None:
            assert (got.face, got.name, got.coords) == (want.face, want.name, want.coords)


# -- one completion of the point per call ---------------------------------------

ONE_OF_EACH = {
    "siphons": [], "lattice": [], "equilibria": [], "relay-graph": [],
    "screen-oscillation": [], "verify-face-theorem": [],
    "stability": ["--equilibrium", "E2"],
    "invasion": ["--sigma", "{S1,B1}", "--equilibrium", "E2"],
    "relay": ["--sigma", "{S1,B1,S2,B2}", "--sigma-prime", "{S1,B1}"],
    "rank-one-bound": ["--equilibrium", "E2"],
}


_new_lambda = itertools.count(3001)


@pytest.mark.parametrize("sub", sorted(ONE_OF_EACH))
def test_each_call_completes_its_point_once(tmp_path, capsys, monkeypatch, sub):
    """main completes the point (Model.point) once and hands the overrides
    on, so every library call reuses the Instance: on a model file, read
    afresh by each call, and on the builtin at a point new to it."""
    assert set(ONE_OF_EACH) == set(cli._COMMANDS)
    path = tmp_path / "osn_omega_pos.model"
    path.write_text(print_model(builtin_model("osn_omega_pos")), encoding="utf-8")
    point = Model.point
    calls = []
    monkeypatch.setattr(Model, "point", lambda m, *a: calls.append(m.name) or point(m, *a))
    for model in (str(path), "osn_omega_pos"):
        for fmt in ("text", "json"):
            calls.clear()
            lam = f"Lambda={next(_new_lambda)}/1000"
            code, out, _ = run(capsys, sub, "--model", model, "--format", fmt, *ALL_EXIST,
                               "--set", lam, *ONE_OF_EACH[sub])
            assert code in (0, 4) and out
            assert len(calls) == 1, (model, fmt)


# -- random command lines over random model files ---------------------------------

# The exit codes README documents for each subcommand: 0, 2 and 3 for all;
# 1 for a violation only verify-face-theorem reports; 4 for the undecided
# verdicts of equilibria, invasion, relay and screen-oscillation. Never 5.
EXITS = {sub: {0, 2, 3} for sub in cli._COMMANDS}
EXITS["verify-face-theorem"] |= {1}
for _sub in ("equilibria", "invasion", "relay", "screen-oscillation"):
    EXITS[_sub] |= {4}
FUZZ_TEXTS = [print_model(builtin_model(name)) for name in sorted(HOSTS)]
NAMES = sorted({name for hosts in HOSTS.values() for name in hosts} | {"nowhere"})
signed_rationals = st.builds(Fraction, st.integers(-2, 9), st.integers(1, 4))


def _braced(names) -> str:
    return "{" + ",".join(names) + "}"


@st.composite
def command_lines(draw):
    """A model file (a random mass-action one, or a builtin's) and a random
    command line for it, every flag its subcommand takes drawn at random."""
    text = draw(st.one_of(mass_action_files(), st.sampled_from(FUZZ_TEXTS)))
    m = parse_model_text(text)
    sub = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [sub, "--format", draw(st.sampled_from(["text", "json"]))]
    names = m.parameters if draw(st.booleans()) else draw(
        st.lists(st.sampled_from(m.parameters), unique=True))
    for p in names:
        argv += ["--set", f"{p}={draw(signed_rationals)}"]
    face = st.lists(st.sampled_from(m.variables), unique=True).map(_braced)
    if sub == "equilibria" and draw(st.booleans()):
        argv += ["--face", draw(face)]
    if sub in ("invasion", "relay"):
        up, low = draw(face), draw(face)
        try:
            covers = m.lattice().covers
        except CrnRelayError:
            covers = ()
        if covers and draw(st.booleans()):   # a random pair of faces is seldom a cover
            low, up = map(_braced, draw(st.sampled_from(covers)))
        argv += ["--sigma", up] + (["--sigma-prime", low] if sub == "relay" else [])
    if sub == "relay" and draw(st.booleans()):
        argv.append("--strict-paper-verdicts")
    if sub in ("stability", "invasion", "rank-one-bound"):
        argv += ["--equilibrium", draw(st.sampled_from(NAMES))]
    if sub == "rank-one-bound" and draw(st.booleans()):
        argv += ["--u", draw(st.sampled_from(m.variables)), "--v",
                 draw(st.sampled_from(m.variables)), "--kappa", str(draw(signed_rationals))]
    return text, argv


@settings(max_examples=40)
@given(case=command_lines())
def test_random_command_lines_exit_with_a_documented_code(tmp_path_factory, case):
    text, argv = case
    path = tmp_path_factory.mktemp("fuzz") / "random.model"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--model", str(path)])
    assert code in EXITS[argv[0]], (argv, err.getvalue())
    if code in (0, 1, 4) and argv[2] == "json":
        json.loads(out.getvalue())


# -- exact numbers past the interpreter's limit on decimal digits -----------------

ONES = "1" * 5000
LONG_NUMBER_FILES = {
    # a literal and a value of 5000 digits
    "long_literal": ("model long_literal\nvariables: x y\nparameters: a\n\nequations:\n"
                     f"    x' = {ONES} - x - x*y\n    y' = a*x*y - y\n\nvalues:\n    a = {ONES}\n"),
    # an equilibrium of 6001 digits
    "power": ("model power\nvariables: x\nparameters: a\n\nequations:\n    x' = a^2000 - x\n\n"
              "values:\n    a = 1000\n"),
    # a coefficient of 6021 digits
    "two_power": ("model two_power\nvariables: x\nparameters: a\n\nequations:\n"
                  "    x' = 2^20000*a - x\n\nvalues:\n    a = 1\n"),
}
LONG_NUMBER_FLAGS = dict(ONE_OF_EACH, **{
    "invasion": ["--sigma", "{y}", "--equilibrium", "E1"],
    "relay": ["--sigma", "{y}", "--sigma-prime", "{}"],
    "stability": ["--equilibrium", "E1"], "rank-one-bound": ["--equilibrium", "E1"]})


@pytest.mark.parametrize("name", sorted(LONG_NUMBER_FILES))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_numbers_past_the_interpreter_digit_limit_are_read_and_written(tmp_path, capsys, name, fmt):
    """Python refuses int <-> str conversions past 4300 digits by default;
    each subcommand reads and writes such numbers and exits with a code
    README documents, never 5."""
    path = tmp_path / f"{name}.model"
    path.write_text(LONG_NUMBER_FILES[name], encoding="utf-8")
    for sub in sorted(cli._COMMANDS):
        code, out, err = run(capsys, sub, "--model", str(path), "--format", fmt,
                             *LONG_NUMBER_FLAGS[sub])
        assert code in EXITS[sub], (sub, err)
        if code in (0, 1, 4) and fmt == "json":
            json.loads(out)
    code, out, _ = run(capsys, "equilibria", "--model", str(path))
    assert code == 0
    if name != "long_literal":
        assert f"x={_digits(1000 ** 2000 if name == 'power' else 2 ** 20000)}" in out


def _digits(n: int) -> str:
    """The decimal text of n, with the interpreter's digit limit lifted."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("name", sorted(LONG_NUMBER_FILES))
def test_a_file_with_long_numbers_reprints_byte_for_byte(name):
    m = parse_model_text(LONG_NUMBER_FILES[name])
    text = print_model(m)
    again = parse_model_text(text)
    assert print_model(again) == text
    assert all((again.rhs(v) - m.rhs(v)).is_zero for v in m.variables)
    assert again.values == m.values


# two 20-digit primes: Pollard's rho would take about 10^10 steps to split
# their product, so every factorisation of it is refused at its step budget
SEMIPRIME = 10000000000000000051 * 30000000000000000041
SEMIPRIME_FILE = ("model semi\nvariables: x\nparameters: a\nequations:\n    x' = a - x^2\n"
                  f"values:\n    a = {SEMIPRIME}\n")


def test_a_number_too_hard_to_factor_is_refused_not_waited_for(tmp_path, capsys):
    '''x^2 = a for a semiprime a: the square root of the discriminant 4a
    needs a's factors, so quad_solve raises AlgebraError; the face solve
    reports the face Undecided with the reason, and the CLI, with nothing
    decided, exits 4; the root splitter takes a number it cannot factor as
    one with no rational-root candidates.'''
    with pytest.raises(AlgebraError, match="rho steps"):
        quad_solve(UniPoly((exact(SEMIPRIME), exact(0), exact(-1))))
    m = parse_model_text(SEMIPRIME_FILE)
    [e] = face_equilibria(m, frozenset())
    assert e.classification == "Undecided" and "cannot factor" in e.reason
    path = tmp_path / "semi.model"
    path.write_text(SEMIPRIME_FILE, encoding="utf-8")
    code, out, err = run(capsys, "equilibria", "--model", str(path))
    assert (code, err) == (4, "")
    assert out.count("undecided on {}: cannot factor") == 1
    assert integer_roots([SEMIPRIME, 0, 0, 1]) == ([], [SEMIPRIME, 0, 0, 1])


def test_a_number_too_hard_to_factor_leaves_the_other_faces_decided(tmp_path, capsys):
    '''y^2 = a for a semiprime a makes only the interior Undecided: the
    face {y} (x = 1, y = 0) is decided, and equilibria exits 0.'''
    text = ("model semi2\nvariables: x y\nparameters: a\nequations:\n    x' = 1 - x\n"
            f"    y' = a*y - y^3\nvalues:\n    a = {SEMIPRIME}\n")
    m = parse_model_text(text)
    assert [(e.classification, dict(e.coords)) for e in face_equilibria(m, {"y"})] == [
        ("Rational", {"x": exact(1), "y": exact(0)})]
    [e] = face_equilibria(m, frozenset())
    assert e.classification == "Undecided" and "cannot factor" in e.reason
    path = tmp_path / "semi2.model"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "equilibria", "--model", str(path))
    assert (code, err) == (0, "")
    assert "x=1, y=0" in out and "undecided on {}: cannot factor" in out
