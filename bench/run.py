"""crnrelay benchmark: three closed-loop workloads, one client, one process.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for what one op is and why each was chosen):
``sweep``, ``verdicts`` and ``cli``. Only calls into the public API and into
``crnrelay.cli.main`` are timed. Every answer is checked right after its op,
outside the timed region, against oracles independent of the solver
(oracles.py); only counts are kept, so memory does not grow with the number
of ops.

A run attempts a fixed number of ops: ``--seconds`` times the workload's
planned rate (``PLANNED_OPS_PER_S``, at or a little below what the seed code
completes per second at reference speed, see speed.py), rounded to whole
cycles of the workload's mix. The seed and that number fix the ops, so runs
with the same arguments attempt the same ops and meet the same failures,
however fast the machine is; at reference speed a run's ops take about
``--seconds``.

Set-up (a fresh import of crnrelay from ``src/``, building the models and
generating the workload from the seed) is repeated and its median reported
as ``setup_s``. The ops then run back to back, each once. Times are CPU
times of the process, scaled to a reference machine speed (speed.py).

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics. With ``--trace 1`` the ops planned for half of ``--seconds`` run
untraced, then the same ops run again from a fresh, traced import
(tracer.py); the two passes must reach identical verdicts, and the last line
holds the per-layer table, including the tracing overhead. The full result, with the workload
descriptor and every failure kind, is written to ``bench/out/``; a traced
run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path

import oracles
from speed import SpeedLog, clock
from tracer import Tracer, metric_units
from workloads import WORKLOADS, Outcome, describe_failure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
PLANNED_OPS_PER_S = {"sweep": 7.0, "verdicts": 13.5, "cli": 24.0}
DESCRIPTOR_SAMPLE_OPS = 8   # ops replayed after an untraced run to size char_poly
MAX_CONTRADICTIONS_LISTED = 20

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_share": "share",
    "decided_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_crnrelay():
    """Import crnrelay afresh from this checkout's src/ and return it."""
    for name in [n for n in sys.modules if n == "crnrelay" or n.startswith("crnrelay.")]:
        del sys.modules[name]
    crn = importlib.import_module("crnrelay")
    importlib.import_module("crnrelay.cli")
    if Path(crn.__file__).resolve().parent != SRC / "crnrelay":
        raise ImportError(f"crnrelay imported from {crn.__file__}, not from src/")
    return crn


def crn_modules() -> dict:
    """The modules of the current import of crnrelay, by short name."""
    return {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
            if name == "crnrelay" or name.startswith("crnrelay.")}


def attempt(wl, op) -> Outcome:
    try:
        return wl.run(op)
    except wl.crn.CrnRelayError as exc:
        return Outcome(refusal=f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # every other exception is a failure to record
        return Outcome(failure=describe_failure(exc))


class Tally:
    """What the ops of one pass came to: failures by kind, refusals, oracle
    verdicts, decided ops and the counts the workload descriptor needs.

    ``add`` runs the oracles on one op's outcome and keeps only counts and,
    with ``keep``, the op's verdict summary for comparing two passes."""

    def __init__(self, wl, keep: bool = False):
        self.wl = wl
        self.keep = keep
        self.ops = self.failed = self.decided = self.r0_below_one = 0
        self.failures: Counter = Counter()
        self.refusals: Counter = Counter()
        self.oracle = Counter({oracles.OK: 0, oracles.UNCHECKED: 0,
                               oracles.CONTRADICTION: 0})
        self.contradictions: list[str] = []
        self.classifications: Counter = Counter()
        self.summaries: list = []

    def add(self, i: int, op, o: Outcome) -> None:
        wl = self.wl
        self.ops += 1
        self.decided += o.decided
        self.r0_below_one += oracles.r0(wl.point(op)) < 1
        if o.failure is not None:
            self.failed += 1
            self.failures[o.failure] += 1
            summary = ("failed", o.failure)
        elif o.refusal is not None:
            self.refusals[o.refusal.partition(":")[0]] += 1
            summary = ("refused", o.refusal)
        else:
            bad = False
            for status, what in wl.check(op, o.data):
                self.oracle[status] += 1
                if status == oracles.CONTRADICTION:
                    bad = True
                    if len(self.contradictions) < MAX_CONTRADICTIONS_LISTED:
                        self.contradictions.append(f"op {i}: {what}")
            self.failed += bad
            self.classifications.update(wl.classifications(op, o.data))
            summary = wl.summary(op, o.data)
        if self.keep:
            self.summaries.append(summary)

    def report(self) -> dict:
        return {"failed": self.failed,
                "failures": dict(self.failures.most_common()),
                "refusals": dict(self.refusals.most_common()),
                "oracle": dict(self.oracle),
                "contradictions": self.contradictions}

    def descriptor(self) -> dict:
        equilibria = sum(self.classifications.values())
        return {"ops": self.ops,
                "r0_below_one_share": self.r0_below_one / self.ops,
                "quadratic_rur_share": (self.classifications["QuadraticRUR"] / equilibria
                                        if equilibria else 0.0),
                "equilibria_classified": equilibria}


def hd_quantile(values, p: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass on each
    ((i-1)/n, i/n], integrated by the midpoint rule. Op times cluster by
    model and name with gaps between the clusters; a single order statistic
    jumps across a gap when one op moves, this estimate does not."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [[(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
             for x in ((i + (k + 0.5) / steps) / n for k in range(steps))]
            for i in range(n)]
    top = max(map(max, logs))
    weights = [sum(math.exp(v - top) for v in row) for row in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def op_count(workload: str, seconds: float) -> int:
    """Ops in a run of ``seconds``: whole cycles of the workload's mix, at
    least one."""
    cycle = WORKLOADS[workload].CYCLE
    return cycle * max(1, round(seconds * PLANNED_OPS_PER_S[workload] / cycle))


def drive(wl, n, speed: SpeedLog, after_op, on_op=None):
    """Run the first ``n`` ops back to back, timing the reference kernel
    between them. ``after_op(i, op, outcome)`` runs outside the timed region.
    Returns each op's interval on ``speed.clock``."""
    intervals = []
    for i, op in enumerate(wl.ops[:n]):
        speed.maybe_sample()
        if on_op is not None:
            on_op(i)
        t0 = clock()
        outcome = attempt(wl, op)
        t1 = clock()
        intervals.append((t0, t1))
        after_op(i, op, outcome)
    speed.sample()
    return intervals


def environment() -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": list(os.getloadavg())}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup(workload: str, seed: int, n_ops: int, repeats: int, speed: SpeedLog):
    """Build the workload ``repeats`` times, each from a fresh import; returns
    the last one and every set-up's interval on ``speed.clock``."""
    intervals = []
    for _ in range(repeats):
        speed.sample()
        t0 = clock()
        crn = load_crnrelay()
        wl = WORKLOADS[workload](crn, seed, OUT / "models", n_ops)
        intervals.append((t0, clock()))
    speed.sample()
    gc.collect()
    return wl, intervals


def run(workload: str, seed: int, seconds: float, trace: bool,
        n_ops: int | None = None, setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; returns the full result (see module docstring).
    ``n_ops``, when given, replaces the number of ops ``seconds`` plans."""
    env = environment()
    speed = SpeedLog()
    if n_ops is None:
        n_ops = op_count(workload, seconds / 2 if trace else seconds)
    wl, setups = setup(workload, seed, n_ops, setup_repeats, speed)
    tally = Tally(wl, keep=trace)
    intervals = drive(wl, n_ops, speed, tally.add)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    op_s = [speed.scale(*iv) for iv in intervals]
    setup_s = [speed.scale(*iv) for iv in setups]
    result = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "attempted": tally.ops,
              "busy_cpu_s": sum(t1 - t0 for t0, t1 in intervals),
              "setup_s_runs": setup_s,
              "setup_cpu_s_runs": [t1 - t0 for t0, t1 in setups],
              "kernel_s": speed.durations,
              "setup_failures": dict(getattr(wl, "setup_failures", {})),
              "op_ms": [1000 * t for t in op_s]}
    result.update(tally.report())
    result["correct"] = tally.oracle[oracles.CONTRADICTION] == 0
    if trace:
        metrics, units, char_poly_sizes = _per_layer(result, tally, sum(op_s))
    else:
        sampler = Tracer(only=("linalg.char_poly",))
        sampler.install(crn_modules())
        drive(wl, DESCRIPTOR_SAMPLE_OPS, SpeedLog(), lambda *_: None)
        char_poly_sizes = sampler.char_poly_sizes()
        n = tally.ops
        ms = sorted(result["op_ms"])
        metrics = {
            "ops_per_s": n / sum(op_s),
            "op_ms_p50": hd_quantile(ms, 0.5),
            "op_ms_p90": hd_quantile(ms, 0.9),
            "ok_share": (n - tally.failed) / n,
            "decided_share": tally.decided / n,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    result["fail_share"] = result["failed"] / result["attempted"]
    result["descriptor"] = dict(env, **tally.descriptor(), generated_ops=len(wl.ops),
                                char_poly_sizes=char_poly_sizes)
    result["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    return result


def _per_layer(result, untraced: Tally, untraced_s: float):
    """Run the ops of the untraced pass again from a fresh, traced import;
    their verdicts must match. Returns the per-layer table, its units and
    the char_poly size histogram."""
    crn = load_crnrelay()
    tracer = Tracer()
    tracer.install(crn_modules())
    wl = WORKLOADS[result["workload"]](crn, result["seed"], OUT / "models", untraced.ops)
    outcomes = []
    speed = SpeedLog()
    intervals = drive(wl, untraced.ops, speed,
                      lambda i, op, o: outcomes.append((i, op, o)), tracer.set_op)
    traced_s = sum(speed.scale(*iv) for iv in intervals)
    # The table is read before the oracles run: they call into crnrelay too.
    metrics = tracer.table(traced_s - untraced_s, untraced_s)
    char_poly_sizes = tracer.char_poly_sizes()
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(OUT / f"{result['workload']}-seed{result['seed']}-spans.csv")
    traced = Tally(wl, keep=True)
    for i, op, o in outcomes:
        traced.add(i, op, o)
    mismatches = sum(a != b for a, b in zip(untraced.summaries, traced.summaries))
    result.update(untraced_s=untraced_s, traced_s=traced_s,
                  overhead_s=traced_s - untraced_s, verdict_mismatches=mismatches,
                  traced_oracle=dict(traced.oracle), traced_failed=traced.failed,
                  spans=len(tracer.spans), spans_dropped=tracer.spans_dropped)
    result["correct"] = (result["correct"] and mismatches == 0
                         and traced.oracle[oracles.CONTRADICTION] == 0)
    return metrics, metric_units(), char_poly_sizes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "crnrelay" / "__init__.py").is_file():
        print(f"error: no crnrelay sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"{args.workload}: {result['attempted']} ops, fail_share "
          f"{result['fail_share']:.4f}, oracle {result['oracle']}")
    for kind, count in result["failures"].items():
        print(f"  failure x{count}: {kind}")
    for kind, count in result["setup_failures"].items():
        print(f"  set-up failure x{count}: {kind}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
