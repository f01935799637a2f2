"""The three closed-loop workloads and the parameter generator they share.

Every workload is built from one import of crnrelay (``crn``, the package
namespace), a seed and its number of ops. Building it is part of set-up;
``run`` is one timed op; ``summary``, ``check`` and ``classifications`` read
an op's result after the timed region. The seed and the number of ops fix
the ops completely, so two runs with the same arguments attempt the same ops
and meet the same failures. ``CYCLE`` is the number of consecutive ops over
which the workload's mix of models, names or subcommands comes round once; a
run is made of whole cycles.

Why these workloads:

* ``sweep`` repeats the whole relay decision over many parameter points, the
  package's real workload; face elimination and parameter instantiation
  dominate, and the same face is solved several times within one point.
* ``verdicts`` decides stability, invasion and the rank-one bound at named
  equilibria whose coordinates come from closed forms, so the face solver
  never runs and full-size Jacobians (8x8, some with square roots) stress
  ``char_poly``, ``det`` and ``inverse``.
* ``cli`` calls the command line in process over every subcommand, both
  formats and both builtin models, by name and by model-file path; only here
  do parsing, network extraction, the siphon lattice and the oscillation
  screen run per op, on models that carry no warm caches.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracles
from tracer import CLI_SUBCOMMANDS

POOL_FACTOR = 10       # points drawn for each point kept

MODELS = ("osn_omega0", "osn_omega_pos")

# Named equilibria of each builtin and the face that hosts each one.
HOSTS = {
    "osn_omega0": {
        "DFE": "U W S1 B1 S2 B2", "gOSN": "W S1 B1 S2 B2", "E1g": "W S2 B2",
        "E2g": "W S1 B1", "EEg": "W", "RFE": "S1 B1 S2 B2", "E1": "S2 B2",
        "E2": "S1 B1", "EE": "",
    },
    "osn_omega_pos": {
        "OSND": "S1 B1 S2 B2 U", "gOSN": "S1 B1 S2 B2", "RFE": "S1 B1 S2 B2",
        "E1": "S2 B2", "E2": "S1 B1", "EE": "",
    },
}


@dataclass
class Outcome:
    """What one op produced: its result, or a refusal or a failure."""
    data: object = None
    decided: bool = False
    refusal: str | None = None       # a CrnRelayError: a refusal, not a failure
    failure: str | None = None       # anything else raised, with its location


def describe_failure(exc: BaseException) -> str:
    """Exception type and message, with the innermost frame it came from."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return (f"{type(exc).__name__}: {exc} "
            f"[{Path(frame.filename).name}:{frame.lineno} in {frame.name}]")


def draw_point(rng, m) -> dict:
    """Each parameter of m as p/q with p in 1..9 and q in 1..4, drawn in
    parameter order as the acceptance suite draws them. Points with R0 < 1
    are kept."""
    return {name: Fraction(rng.randint(1, 9), rng.randint(1, 4))
            for name in m.parameters}


def cost_stratum(params) -> tuple:
    """Which named osn_omega0 equilibria exist at the point by the threshold
    table, led by their number; (-1,) at a tie. A sweep op's time grows with
    that number and follows the set, on both builtins: osn_omega_pos shares
    osn_omega0's parameters and regimes."""
    table = oracles.omega0_existence(params)
    if table is None:
        return (-1,)
    exists = tuple(name for name, yes in table.items() if yes)
    return (len(exists), exists)


def stratified_sample(rng, m, want: int, accept=lambda params: params) -> list:
    """``want`` points of model m, in the order they were drawn.

    A pool of POOL_FACTOR * want points is drawn, as the acceptance suite
    draws them, and sorted by ``cost_stratum``. The points are taken from it
    by systematic sampling; where ``accept`` returns None for a point, the
    next untried point in that order stands in for it. Every stratum keeps
    its share of the pool, so expensive regimes weigh the same in every run
    and the latency tail does not swing with the seed. Returns what
    ``accept`` returned for each point taken."""
    pool = [draw_point(rng, m) for _ in range(POOL_FACTOR * want)]
    order = sorted(range(len(pool)), key=lambda d: (cost_stratum(pool[d]), d))
    tried = [False] * len(pool)
    taken = []
    for i in range(want):
        start = int((i + 0.5) * len(pool) / want)
        for k in itertools.chain(range(start, len(pool)), range(start)):
            draw = order[k]
            if tried[draw]:
                continue
            tried[draw] = True
            value = accept(pool[draw])
            if value is not None:
                taken.append((draw, value))
                break
        else:
            raise RuntimeError(f"{m.name}: no accepted point among {len(pool)}")
    return [value for _, value in sorted(taken, key=lambda t: t[0])]


def stratified_points(crn, seed: int, n: int):
    """n parameter points, alternating osn_omega0 and osn_omega_pos, each
    model's taken by ``stratified_sample``."""
    rng = random.Random(seed)
    models = [crn.builtin_model(name) for name in MODELS]
    picked = [stratified_sample(rng, m, len(range(j, n, len(models))))
              for j, m in enumerate(models)]
    return [(models[i % len(models)], picked[i % len(models)][i // len(models)])
            for i in range(n)]


def _warm_builtins(crn) -> None:
    # Parse, extraction, siphons and the lattice belong to set-up here.
    for name in MODELS:
        crn.builtin_model(name).lattice()


def _face(face) -> str:
    return "{" + ",".join(sorted(face)) + "}"


class Sweep:
    """One op: relay_graph plus relay_test_cover over every lattice cover."""

    CYCLE = len(MODELS)

    def __init__(self, crn, seed: int, workdir, n_ops: int):
        self.crn = crn
        _warm_builtins(crn)
        self.ops = stratified_points(crn, seed, n_ops)

    def run(self, op) -> Outcome:
        m, params = op
        graph = self.crn.relay_graph(m, params)
        reports = [self.crn.relay_test_cover(m, up, low, params)
                   for low, up in m.lattice().covers]
        return Outcome((graph, reports),
                       all(r.verdict != "Undecided" for r in reports))

    def point(self, op):
        return op[1]

    def summary(self, op, data):
        graph, reports = data
        return (tuple((n.label, n.residents) for n in graph.nodes),
                tuple((_face(e.source), _face(e.target), e.kind, e.residents)
                      for e in graph.edges),
                tuple((_face(r.sigma), _face(r.sigma_prime), r.verdict,
                       tuple((x.resident.name, x.abscissa, x.verdict)
                             for x in r.residents))
                      for r in reports))

    def check(self, op, data):
        m, params = op
        graph, reports = data
        crn = self.crn
        for rep in reports:
            for res in rep.residents:
                if res.abscissa in ("Negative", "Zero", "Positive"):
                    block = crn.transversal_block(m, rep.invading,
                                                  res.resident.coords, params)
                    yield (oracles.check_sign(res.abscissa, oracles.abscissa(block)),
                           f"abscissa of {_face(rep.invading)} at {res.resident.name}")
                if res.stable_successor is not None:
                    s = res.stable_successor
                    J = crn.jacobian_at(m, s.coords, params)
                    yield (oracles.check_stability("LAS", oracles.abscissa(J)),
                           f"stable successor {s.name}")
        if m.name == "osn_omega0":
            table = oracles.omega0_existence(params)
            if table is None:
                yield oracles.UNCHECKED, "threshold tie"
                return
            want = {n for n, exists in table.items() if exists}
            got = {n for node in graph.nodes for n in node.residents}
            yield (oracles.OK if got == want else oracles.CONTRADICTION,
                   f"existing equilibria {sorted(got)}, table {sorted(want)}")

    def classifications(self, op, data):
        graph, reports = data
        seen = {}
        for rep in reports:
            for res in rep.residents:
                e = res.resident
                seen[(e.face, e.name)] = e.classification
        return list(seen.values())


class Verdicts:
    """One op: las_test, invasion_number for each minimal siphon in the zero
    set and, when the model declares a coupling, rank_one_model_bound, at one
    named equilibrium taken from the closed forms (existing or not)."""

    # Two osn_omega0 ops to one osn_omega_pos op, the names taken in turn:
    # in 54 ops osn_omega0 takes its 9 names four times and osn_omega_pos
    # its 6 names three times.
    CYCLE = 54

    def __init__(self, crn, seed: int, workdir, n_ops: int):
        self.crn = crn
        _warm_builtins(crn)
        self.setup_failures = Counter()
        rng = random.Random(seed)
        models = [crn.builtin_model(name) for name in MODELS]
        names = {m.name: itertools.cycle(HOSTS[m.name]) for m in models}
        # Every op has a parameter point of its own, so a run's figures rest
        # on hundreds of points, not a few dozen. osn_omega_pos ops cost
        # about ten times as much as osn_omega0 ops; two osn_omega0 ops to
        # one osn_omega_pos op, and the names taken in turn, fix the mix in
        # every run. The points of each name are a stratified sample; a
        # point where the name has no equilibrium is passed over.
        pattern = itertools.cycle((0, 0, 1))
        slots = []
        for _ in range(n_ops):
            j = next(pattern)
            slots.append((j, next(names[models[j].name])))
        points = {}
        for j, name in dict.fromkeys(slots):
            m = models[j]
            points[j, name] = iter(stratified_sample(
                rng, m, slots.count((j, name)),
                lambda params: self._equilibrium(m, name, params)))
        self.ops = [(models[j], *next(points[j, name])) for j, name in slots]

    def _equilibrium(self, m, name, params):
        """(params, name, equilibrium) from the closed forms, or None."""
        try:
            return params, name, self.crn.closed_form_oracle(m, name, params)
        except self.crn.CrnRelayError:
            return None                        # no real root: nothing to decide
        except Exception as exc:               # no coordinates: reported, not timed
            self.setup_failures[describe_failure(exc)] += 1
            return None

    def run(self, op) -> Outcome:
        m, params, name, e = op
        crn = self.crn
        las = crn.las_test(m, e, params)
        invasions = [crn.invasion_number(m, sigma, e, params)
                     for sigma in m.lattice().minimal if sigma <= e.zero_set]
        bound = (crn.rank_one_model_bound(m, e, params)
                 if m.rank_one_edge is not None else None)
        return Outcome((las, invasions, bound),
                       all(i.abscissa_sign != "Unknown" for i in invasions))

    def point(self, op):
        return op[1]

    def summary(self, op, data):
        las, invasions, bound = data
        return (op[2], las.verdict, tuple(b.verdict for b in las.blocks),
                tuple((i.sigma, i.abscissa_sign, str(i.rho)) for i in invasions),
                None if bound is None else (bound.guaranteed, str(bound.gain)))

    def check(self, op, data):
        m, params, name, e = op
        las, invasions, bound = data
        J = self.crn.jacobian_at(m, e.coords, params)
        yield (oracles.check_stability(las.verdict, oracles.abscissa(J)),
               f"las_test {las.verdict} at {name}")
        for inv in invasions:
            if inv.abscissa_sign in ("Negative", "Zero", "Positive"):
                yield (oracles.check_sign(inv.abscissa_sign, oracles.abscissa(inv.block)),
                       f"abscissa of {_face(inv.sigma)} at {name}")
        if m.name == "osn_omega0":
            table = oracles.omega0_existence(params)
            if table is None:
                yield oracles.UNCHECKED, "threshold tie"
                return
            exists = self.crn.positivity_check(e).exists
            yield (oracles.OK if exists == table[name] else oracles.CONTRADICTION,
                   f"{name} exists={exists}, table says {table[name]}")

    def classifications(self, op, data):
        return [op[3].classification]


class Cli:
    """One op: an in-process call of crnrelay.cli.main with stdout captured.

    Every op has a parameter point of its own, so a run's figures rest on
    hundreds of points, not the few dozen that calling every subcommand at
    each point would give. Every ten consecutive ops call each subcommand
    once; over eight such rounds each subcommand sees both builtins, both
    formats, and the model once by name and once by a model-file path
    written during set-up."""

    CYCLE = 8 * len(CLI_SUBCOMMANDS)

    def __init__(self, crn, seed: int, workdir, n_ops: int):
        self.crn = crn
        self.main = crn.cli.main
        _warm_builtins(crn)
        paths = {}
        workdir.mkdir(parents=True, exist_ok=True)
        for name in MODELS:
            path = workdir / f"{name}.model"
            path.write_text(crn.print_model(crn.builtin_model(name)), encoding="utf-8")
            paths[name] = str(path)
        models = [crn.builtin_model(name) for name in MODELS]
        rounds = [divmod(j, len(CLI_SUBCOMMANDS)) for j in range(n_ops)]
        # A subcommand that takes an equilibrium takes each model's names in
        # turn, and the points of each subcommand, model and name are a
        # stratified sample, so every run has the same mix.
        names = {}
        slots = []
        for k, i in rounds:
            j, sub = (k + i) % 2, CLI_SUBCOMMANDS[i]
            if sub in ("stability", "rank-one-bound", "invasion"):
                cycle = names.setdefault((j, sub), itertools.cycle(sorted(HOSTS[MODELS[j]])))
                slots.append((j, sub, next(cycle)))
            else:
                slots.append((j, sub, None))
        rng = random.Random(seed)
        points = {slot: iter(stratified_sample(rng, models[slot[0]], slots.count(slot)))
                  for slot in dict.fromkeys(slots)}
        choices = random.Random(f"cli-{seed}")
        self.ops = []
        for (k, i), slot in zip(rounds, slots):
            j, sub, name = slot
            m = models[j]
            params = next(points[slot])
            sets = [a for p, v in params.items() for a in ("--set", f"{p}={v}")]
            fmt = ("text", "json")[k // 2 % 2]
            model = (m.name, paths[m.name])[k // 4 % 2]
            argv = [sub, "--model", model, "--format", fmt,
                    *sets, *self._extra(sub, m, name, choices)]
            self.ops.append((sub, fmt, params, argv))

    @staticmethod
    def _extra(sub, m, name, rng):
        lat = m.lattice()
        if sub in ("stability", "rank-one-bound"):
            extra = ["--equilibrium", name]
            if sub == "rank-one-bound" and m.rank_one_edge is None:
                extra += ["--u", "W", "--v", "U", "--kappa", "1/2"]
            return extra
        if sub == "invasion":
            host = frozenset(HOSTS[m.name][name].split())
            inside = [s for s in lat.minimal if s <= host] or list(lat.minimal)
            return ["--sigma", _face(rng.choice(inside)), "--equilibrium", name]
        if sub == "relay":
            low, up = rng.choice(lat.covers)
            return ["--sigma", _face(up), "--sigma-prime", _face(low)]
        return []

    def run(self, op) -> Outcome:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = self.main(op[3])
            except SystemExit as exc:   # argparse rejected the arguments
                code = exc.code
        return Outcome((code, out.getvalue()), code in (0, 1))

    def point(self, op):
        return op[2]

    def summary(self, op, data):
        return data

    def check(self, op, data):
        sub, fmt = op[0], op[1]
        code, text = data
        yield (oracles.OK if oracles.exit_code_allowed(sub, code) else oracles.CONTRADICTION,
               f"{sub} exit code {code}")
        if fmt == "json" and code in (0, 1, 4):
            try:
                json.loads(text)
            except ValueError:
                yield oracles.CONTRADICTION, f"{sub} printed malformed JSON"
            else:
                yield oracles.OK, f"{sub} JSON"

    def classifications(self, op, data):
        code, text = data
        if op[0] != "equilibria" or op[1] != "json" or code != 0:
            return []
        return [row["classification"] for row in json.loads(text)["equilibria"]
                if row["classification"] != "Undecided"]


WORKLOADS = {"sweep": Sweep, "verdicts": Verdicts, "cli": Cli}
