"""Per-layer tracing of crnrelay from outside the package.

Each layer function is replaced, at every crnrelay module that holds a
reference to it (``relay.face_equilibria``, ``cli.face_equilibria``,
``stability.char_poly``, ``relay.char_poly``, ...), by a wrapper that counts
calls and accumulates inclusive and self time. Self time is inclusive time
minus the time spent in wrapped callees; inclusive time of a recursive
function counts its outermost activation only. Spans of every layer except
the two hottest ones are kept in memory and written out once, at the end of
the run.
"""

from __future__ import annotations

import time
from collections import Counter

# (metric prefix, module under crnrelay, attribute path in that module)
LAYERS = (
    ("modelfile.parse_model_text", "modelfile", "parse_model_text"),
    ("network.extract_network", "network", "extract_network"),
    ("network.minimal_siphons", "network", "minimal_siphons"),
    ("network.siphon_lattice", "network", "siphon_lattice"),
    ("network.verify_face_invariance", "network", "verify_face_invariance"),
    ("equilibria.face_equilibria", "equilibria", "face_equilibria"),
    ("equilibria.solve", "equilibria", "_FaceSolver.solve"),
    ("equilibria.verify", "equilibria", "_verify_candidate"),
    ("poly.RatFunc.assign", "poly", "RatFunc.assign"),
    ("poly.RatFunc.eval", "poly", "RatFunc.eval"),
    ("stability.jacobian_at", "stability", "jacobian_at"),
    ("stability.transversal_block", "stability", "transversal_block"),
    ("stability.ngm_split", "stability", "ngm_split"),
    ("stability.invasion_number", "stability", "invasion_number"),
    ("stability.las_test", "stability", "las_test"),
    ("stability.rank_one_model_bound", "stability", "rank_one_model_bound"),
    ("stability.block_structure_screen", "stability", "block_structure_screen"),
    ("linalg.char_poly", "linalg", "char_poly"),
    ("linalg.det", "linalg", "det"),
    ("linalg.inverse", "linalg", "inverse"),
    ("linalg.hurwitz_test", "linalg", "hurwitz_test"),
    ("linalg.metzler_sign", "linalg", "metzler_sign"),
    ("linalg.quad_solve", "linalg", "quad_solve"),
    ("relay.relay_test_cover", "relay", "relay_test_cover"),
    ("relay.relay_graph", "relay", "relay_graph"),
)

# Subcommands of crnrelay.cli, wrapped through its dispatch table.
CLI_SUBCOMMANDS = ("siphons", "lattice", "equilibria", "stability", "invasion",
                   "relay", "relay-graph", "screen-oscillation",
                   "rank-one-bound", "verify-face-theorem")

# Called hundreds of thousands of times per run: counted and timed, no spans.
NO_SPANS = frozenset({"poly.RatFunc.assign", "poly.RatFunc.eval"})
SPAN_LIMIT = 400_000
CHAR_POLY_SIZES = range(1, 9)

COUNTERS = (
    ("equilibria.candidates", "count"),
    ("equilibria.rejected", "count"),
    ("equilibria.undecided", "count"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in [n for n, _, _ in LAYERS] + [f"cli.{s}" for s in CLI_SUBCOMMANDS]:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.incl_s"] = "s"
    units.update(COUNTERS)
    units["equilibria.verify_pass_ratio"] = "ratio"
    units["equilibria.face_repeat_share"] = "ratio"
    units["stability.transversal_per_invasion"] = "ratio"
    for k in CHAR_POLY_SIZES:
        units[f"linalg.char_poly.n{k}"] = "count"
    units["scalars.ExactScalar.created"] = "count"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "ratio"
    return units


def _resolve(owner, path: str):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Wraps crnrelay's layer functions and holds what they record."""

    def __init__(self, only: tuple[str, ...] | None = None):
        self.only = only                  # restrict to these metric prefixes
        self.stats: dict[str, list] = {}  # name -> [calls, incl_s, self_s]
        self.counters: Counter = Counter()
        self.spans: list = []
        self.spans_dropped = 0
        self.op = "setup"
        self._faces_this_op: set = set()
        self._active: dict[str, int] = {}
        self._child_time: list[float] = []
        self._open_spans: list[int] = []

    def set_op(self, op) -> None:
        self.op = op
        self._faces_this_op = set()

    # -- installation ----------------------------------------------------

    def install(self, modules: dict) -> None:
        """Patch the layer functions of one import of crnrelay.

        ``modules`` maps short module names (``"relay"``) to module objects.
        A function is replaced wherever a module holds it by name, so calls
        between modules go through the wrapper too."""
        after = {
            "equilibria.face_equilibria": self._after_face_equilibria,
            "equilibria.solve": self._after_solve,
            "equilibria.verify": self._after_verify,
            "linalg.char_poly": self._after_char_poly,
        }
        for name, modname, path in LAYERS:
            if self.only is not None and name not in self.only:
                continue
            owner, attr = _resolve(modules[modname], path)
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, after.get(name))
            if owner is modules[modname]:
                for mod in modules.values():
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)
            else:
                setattr(owner, attr, wrapped)
        if self.only is not None:
            return
        table = modules["cli"]._COMMANDS
        for sub in CLI_SUBCOMMANDS:
            table[sub] = self._wrap(f"cli.{sub}", table[sub], None)
        scalar = modules["scalars"].ExactScalar
        scalar.__post_init__ = self._count("scalars.ExactScalar.created",
                                           scalar.__post_init__)

    def _wrap(self, name, fn, after):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        self._active[name] = 0
        active = self._active
        child_time = self._child_time
        open_spans = self._open_spans
        spans = None if name in NO_SPANS else self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            span = -1
            if spans is not None:
                if len(spans) < SPAN_LIMIT:
                    span = len(spans)
                    spans.append(None)
                    open_spans.append(span)
                else:
                    tracer.spans_dropped += 1
            child_time.append(0.0)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                active[name] -= 1
                st[0] += 1
                st[2] += dt - child_time.pop()
                if not active[name]:
                    st[1] += dt
                if child_time:
                    child_time[-1] += dt
                if span >= 0:
                    open_spans.pop()
                    parent = open_spans[-1] if open_spans else -1
                    spans[span] = (tracer.op, name, t0, t1, parent)
            if after is not None:
                after(args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _count(self, key, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- counters read at layer boundaries -------------------------------

    def _after_face_equilibria(self, args, result) -> None:
        m, face = args[0], frozenset(args[1])
        params = args[2] if len(args) > 2 else None
        key = (m.name, face, tuple(sorted(m.point(params).items())))
        if key in self._faces_this_op:
            self.counters["face_repeats"] += 1
        self._faces_this_op.add(key)
        self.counters["equilibria.undecided"] += sum(
            1 for e in result if not e.is_decided)

    def _after_solve(self, args, result) -> None:
        if not self._active["equilibria.solve"]:
            self.counters["equilibria.candidates"] += len(result)

    def _after_verify(self, args, result) -> None:
        if not result:
            self.counters["equilibria.rejected"] += 1

    def _after_char_poly(self, args, result) -> None:
        self.counters[f"linalg.char_poly.n{len(args[0])}"] += 1

    # -- results ---------------------------------------------------------

    def char_poly_sizes(self) -> dict[str, int]:
        return {k[len("linalg.char_poly."):]: v
                for k, v in sorted(self.counters.items())
                if k.startswith("linalg.char_poly.n")}

    def table(self, overhead_s: float, untraced_s: float) -> dict[str, float]:
        """The per-layer metrics named by ``metric_units``."""
        out: dict[str, float] = {}
        for name, (calls, incl, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.incl_s"] = incl
        c = self.counters
        for key, _ in COUNTERS:
            out[key] = c[key]
        verify_calls = self.stats["equilibria.verify"][0]
        out["equilibria.verify_pass_ratio"] = (
            (verify_calls - c["equilibria.rejected"]) / verify_calls
            if verify_calls else 0.0)
        faces = self.stats["equilibria.face_equilibria"][0]
        out["equilibria.face_repeat_share"] = c["face_repeats"] / faces if faces else 0.0
        invasions = self.stats["stability.invasion_number"][0]
        out["stability.transversal_per_invasion"] = (
            self.stats["stability.transversal_block"][0] / invasions
            if invasions else 0.0)
        for k in CHAR_POLY_SIZES:
            out[f"linalg.char_poly.n{k}"] = c[f"linalg.char_poly.n{k}"]
        out["scalars.ExactScalar.created"] = c["scalars.ExactScalar.created"]
        out["trace.overhead_s"] = overhead_s
        out["trace.overhead_share"] = overhead_s / untraced_s if untraced_s else 0.0
        return out

    def write_spans(self, path) -> None:
        """One line per span: op, layer, start and end in microseconds from
        the first span, and the index of the enclosing span (-1 at top)."""
        done = [s for s in self.spans if s is not None]
        base = done[0][2] if done else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,layer,start_us,end_us,parent\n")
            for op, name, t0, t1, parent in done:
                fh.write(f"{op},{name},{(t0 - base) * 1e6:.1f},"
                         f"{(t1 - base) * 1e6:.1f},{parent}\n")
