"""Smoke test of the benchmark itself: every workload with a handful of ops.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import sys

import pytest

import run
from workloads import Outcome

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _emitted(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_metric(workload, trace):
    result = run.run(workload, seed=3, seconds=1, trace=trace, n_ops=4,
                     setup_repeats=2)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert _emitted(result) == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["attempted"] == 4
    assert sum(result["oracle"].values()) > 0, "no oracle ran"
    assert result["failed"] == sum(result["failures"].values()) + \
        len(result["contradictions"])
    assert result["correct"] is True
    desc = result["descriptor"]
    for key in ("ops", "r0_below_one_share", "quadratic_rur_share",
                "char_poly_sizes", "git_sha", "python", "nproc", "loadavg_start"):
        assert key in desc
    if trace:
        assert result["verdict_mismatches"] == 0
    else:
        assert len(result["setup_s_runs"]) == 2


def _inputs(wl):
    """An op's inputs without the model objects, which do not compare."""
    return [tuple(getattr(x, "name", x) for x in op[:3]) for op in wl.ops]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_seed_and_length_fix_the_ops(workload):
    n = run.op_count(workload, 1)
    assert n % run.WORKLOADS[workload].CYCLE == 0 and n > 0
    crn = run.load_crnrelay()
    build = run.WORKLOADS[workload]
    first = build(crn, 5, run.OUT / "models", n)
    again = build(crn, 5, run.OUT / "models", n)
    other = build(crn, 6, run.OUT / "models", n)
    assert len(first.ops) == n
    assert _inputs(first) == _inputs(again)
    assert _inputs(first) != _inputs(other)


class _Raising:
    """A stand-in workload whose ops raise, to exercise failure accounting."""

    def __init__(self, crn, exc):
        self.crn = crn
        self.exc = exc

    def run(self, op):
        raise self.exc

    def point(self, op):
        return {"beta": 1, "Lambda": 2, "mu": 1, "mun": 1}

    def check(self, op, data):
        yield "contradiction", "made up"

    def summary(self, op, data):
        return data

    def classifications(self, op, data):
        return ["QuadraticRUR"]


def test_failures_are_recorded_by_kind_and_refusals_are_not_failures():
    crn = run.load_crnrelay()
    crashed = run.attempt(_Raising(crn, TypeError("boom")), None)
    refused = run.attempt(_Raising(crn, crn.CrnRelayError("no")), None)
    assert crashed.failure.startswith("TypeError: boom [test_smoke.py:")
    assert refused.failure is None and refused.refusal == "CrnRelayError: no"
    tally = run.Tally(_Raising(crn, None), keep=True)
    for i, o in enumerate([crashed, refused, Outcome(data=1)]):
        tally.add(i, None, o)
    acc = tally.report()
    assert acc["failed"] == 2    # the crash, and the answer an oracle contradicts
    assert list(acc["failures"]) == [crashed.failure]
    assert acc["refusals"] == {"CrnRelayError": 1}
    assert acc["contradictions"] == ["op 2: made up"]
    assert tally.descriptor()["quadratic_rur_share"] == 1.0
    assert tally.summaries == [("failed", crashed.failure), ("refused", "CrnRelayError: no"), 1]
