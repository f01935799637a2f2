"""Command-line front end.

Every subcommand works on one model (a builtin name or a model file), one
exact parameter point (file values overridden by repeatable --set flags), and
emits a deterministic report: text for reading, json for tooling, dot for the
relay graph. Exit codes: 0 success, 1 failed verification, 2 usage or parse
errors, 3 precondition failures (bad face, unknown equilibrium, ...), 4 when
the requested analysis comes back undecided.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .equilibria import all_equilibria, face_equilibria, positivity_check
from .errors import CrnRelayError, ModelParseError
from .models import builtin_model, list_builtins
from .modelfile import parse_model_file
from .network import verify_face_invariance
from .relay import relay_graph, relay_test_cover, relay_test_cover_strict
from .stability import (invasion_number, las_test, mixed_block_zero,
                        rank_one_bound, jacobian_at)
from .scalars import ExactScalar

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_UNDECIDED = 4
EXIT_INTERNAL = 5


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", default="osn_omega_pos",
                        help="builtin model name (%s) or path to a model file"
                             % ", ".join(list_builtins()))
    common.add_argument("--set", action="append", default=[], metavar="PARAM=RAT",
                        help="override a parameter with an exact rational "
                             "(3/2 or 0.25); repeatable")
    common.add_argument("--out", metavar="PATH",
                        help="also write the report to this file")
    common.add_argument("--format", choices=["text", "json", "dot"],
                        default="text")
    common.add_argument("--strict-paper-verdicts", action="store_true",
                        dest="strict",
                        help="relay only: emulate the conservative reference "
                             "convention (rational data only; irrational "
                             "leading eigenvalues abort as Undecided)")

    p = argparse.ArgumentParser(
        prog="crnrelay",
        description="Exact analysis of positive ODE models: siphons, face "
                    "equilibria, stability, and invasion relays.")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("siphons", parents=[common],
                   help="reactions and minimal siphons")
    sub.add_parser("lattice", parents=[common],
                   help="siphon lattice nodes and covers")

    pe = sub.add_parser("equilibria", parents=[common],
                        help="exact equilibria on invariant faces")
    pe.add_argument("--face", help="face as {A,B} or A,B; default: every "
                                   "lattice face plus the interior")

    ps = sub.add_parser("stability", parents=[common],
                        help="exact linearised stability of one equilibrium")
    ps.add_argument("--equilibrium", required=True, metavar="NAME")

    pi = sub.add_parser("invasion", parents=[common],
                        help="invasion block and threshold ratio at an equilibrium")
    pi.add_argument("--sigma", required=True, help="invading face, e.g. {S1,B1}")
    pi.add_argument("--equilibrium", required=True, metavar="NAME")

    pr = sub.add_parser("relay", parents=[common],
                        help="relay test for one lattice cover")
    pr.add_argument("--sigma", required=True, help="resident face (upper node)")
    pr.add_argument("--sigma-prime", required=True,
                    help="successor face (lower node)")

    sub.add_parser("relay-graph", parents=[common],
                   help="hand-off graph over all covers")
    sub.add_parser("screen-oscillation", parents=[common],
                   help="structural certificates against oscillation")

    pb = sub.add_parser("rank-one-bound", parents=[common],
                        help="stability bound for a rank-one coupling")
    pb.add_argument("--u", metavar="VAR", help="row variable of the coupling")
    pb.add_argument("--v", metavar="VAR", help="column variable of the coupling")
    pb.add_argument("--kappa", metavar="RAT", help="coupling strength")
    pb.add_argument("--equilibrium", required=True, metavar="NAME")

    sub.add_parser("verify-face-theorem", parents=[common],
                   help="check that lattice faces are exactly the invariant "
                        "siphon faces and decouple in the Jacobian")
    return p


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _load_model(spec: str):
    if spec in list_builtins():
        return builtin_model(spec)
    return parse_model_file(spec)


class _FlagError(CrnRelayError):
    """Malformed command-line value; maps to the parse-error exit code."""


def _parse_overrides(pairs):
    out = {}
    for item in pairs:
        if "=" not in item:
            raise _FlagError(f"--set expects PARAM=RATIONAL, got {item!r}")
        name, _, val = item.partition("=")
        try:
            out[name.strip()] = Fraction(val.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise _FlagError(f"bad rational in --set {item!r}: {exc}") from exc
    return out


def _parse_face(text: str, m) -> frozenset:
    names = [t for t in text.strip().lstrip("{").rstrip("}").replace(",", " ").split() if t]
    for n in names:
        if n not in m.variables:
            raise CrnRelayError(f"unknown variable {n!r} in face {text!r}")
    return frozenset(names)


def _scalar(x) -> str:
    return str(x)


def _coords_dict(m, coords):
    return {v: _scalar(coords[v]) for v in m.variables}


def _find_equilibrium(m, name: str, params):
    hits = []
    for lst in all_equilibria(m, params).values():
        for e in lst:
            if e.is_decided and e.name == name:
                hits.append(e)
    if not hits:
        raise CrnRelayError(f"no equilibrium named {name!r} at this parameter point")
    existing = [e for e in hits if positivity_check(e).exists]
    return existing[0] if existing else hits[0]


def _emit(args, text: str) -> None:
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)


def _report(args, m, params, payload: dict, text_lines: list) -> None:
    if args.format == "json":
        payload = dict(payload)
        payload["model"] = m.name
        payload["command"] = args.command
        payload["parameters"] = {k: str(v) for k, v in params.items()}
        _emit(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        head = [f"model: {m.name}",
                "parameters: " + " ".join(f"{k}={v}" for k, v in params.items()),
                ""]
        _emit(args, "\n".join(head + text_lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_siphons(args, m, params):
    net = m.network()
    lat = m.lattice()
    lines = ["reactions:"]
    rxns = [str(r) for r in net.reactions]
    lines += [f"  r{i+1}: {s}" for i, s in enumerate(rxns)]
    lines.append("minimal siphons:")
    lines += [f"  {lat.label(s)}" for s in lat.minimal]
    payload = {"reactions": rxns,
               "minimal_siphons": [sorted(s) for s in lat.minimal]}
    _report(args, m, params, payload, lines)
    return EXIT_OK


def _cmd_lattice(args, m, params):
    lat = m.lattice()
    lines = [f"nodes ({len(lat.nodes)}):"]
    lines += [f"  {lat.label(n)}" for n in lat.nodes]
    lines.append(f"covers ({len(lat.covers)}):")
    lines += [f"  {lat.label(lo) if lo else '{}'} < {lat.label(up)}"
              for lo, up in lat.covers]
    payload = {"nodes": [sorted(n) for n in lat.nodes],
               "covers": [[sorted(lo), sorted(up)] for lo, up in lat.covers]}
    _report(args, m, params, payload, lines)
    return EXIT_OK


def _equilibrium_row(m, e):
    if not e.is_decided:
        return {"face": sorted(e.face), "classification": e.classification,
                "reason": e.reason}
    row = {"name": e.name, "face": sorted(e.face),
           "zero_set": sorted(e.zero_set),
           "classification": e.classification,
           "exists": positivity_check(e).exists,
           "coordinates": _coords_dict(m, e.coords)}
    if e.classification == "QuadraticRUR":
        row["extension"] = e.d
    return row


def _thresholds(m, e, params):
    '''Per-siphon invasion ratios at one equilibrium; the region-membership
    data Table-style summaries are built from.'''
    out = []
    lat = m.lattice()
    for sig in lat.minimal:
        if not sig <= e.zero_set:
            continue
        inv = invasion_number(m, sig, e, params)
        out.append({"sigma": list(m.sort_vars(sig)),
                    "abscissa": inv.abscissa_sign,
                    "rho": _scalar(inv.rho) if inv.rho is not None else None,
                    "rho_vs_one": inv.rho_vs_one})
    return out


def _cmd_equilibria(args, m, params):
    if args.face is not None:
        faces = [_parse_face(args.face, m)]
        found = {faces[0]: face_equilibria(m, faces[0], params)}
    else:
        found = all_equilibria(m, params)
    lat = m.lattice()
    rows, lines = [], []
    undecided = decided = 0
    for face in found:
        for e in found[face]:
            row = _equilibrium_row(m, e)
            if e.is_decided:
                decided += 1
                row["thresholds"] = _thresholds(m, e, params)
                label = e.name or lat.label(face)
                coord = ", ".join(f"{v}={e.coords[v]}" for v in m.variables)
                lines.append(f"{label} [{e.classification}"
                             + (f" d={e.d}" if e.classification == "QuadraticRUR" else "")
                             + f"] exists={row['exists']}")
                lines.append(f"  {coord}")
                for t in row["thresholds"]:
                    lines.append(f"  invasion {{{','.join(t['sigma'])}}}: "
                                 f"abscissa {t['abscissa']}, ratio {t['rho']}")
            else:
                undecided += 1
                lines.append(f"undecided on {lat.label(face) if face else '{}'}: {e.reason}")
            rows.append(row)
    if not rows:
        lines.append("no equilibria found")
    _report(args, m, params, {"equilibria": rows}, lines)
    if undecided and not decided:
        return EXIT_UNDECIDED
    return EXIT_OK


def _cmd_stability(args, m, params):
    e = _find_equilibrium(m, args.equilibrium, params)
    rep = las_test(m, e, params)
    lines = [f"equilibrium {e.name}: {rep.verdict}"]
    blocks = []
    for b in rep.blocks:
        lines.append(f"  block {{{','.join(b.vars)}}}: {b.verdict}")
        blocks.append({"vars": list(b.vars), "verdict": b.verdict,
                       "char": [_scalar(c) for c in b.char.coeffs]})
    thr = _thresholds(m, e, params)
    for t in thr:
        cmp = {1: "> 1", 0: "= 1", -1: "< 1"}.get(t["rho_vs_one"], "")
        lines.append(f"  invasion {{{','.join(t['sigma'])}}}: ratio {t['rho']} {cmp}")
    payload = {"equilibrium": _equilibrium_row(m, e), "verdict": rep.verdict,
               "blocks": blocks, "thresholds": thr}
    _report(args, m, params, payload, lines)
    return EXIT_OK


def _cmd_invasion(args, m, params):
    sigma = _parse_face(args.sigma, m)
    e = _find_equilibrium(m, args.equilibrium, params)
    inv = invasion_number(m, sigma, e, params)
    lines = [f"invading {{{','.join(inv.sigma)}}} at {e.name}:",
             f"  abscissa: {inv.abscissa_sign} ({inv.abscissa_source})",
             f"  threshold ratio: {inv.rho}",
             f"  split valid: {inv.split.valid if inv.split else None}"]
    for n in inv.notes:
        lines.append(f"  note: {n}")
    payload = {"sigma": list(inv.sigma), "equilibrium": e.name,
               "abscissa": inv.abscissa_sign,
               "rho": _scalar(inv.rho) if inv.rho is not None else None,
               "rho_vs_one": inv.rho_vs_one,
               "block": [[_scalar(x) for x in row] for row in inv.block],
               "split_valid": inv.split.valid if inv.split else None,
               "notes": list(inv.notes)}
    _report(args, m, params, payload, lines)
    if inv.abscissa_sign == "Unknown":
        return EXIT_UNDECIDED
    return EXIT_OK


def _cmd_relay(args, m, params):
    sigma = _parse_face(args.sigma, m)
    sigma_prime = _parse_face(args.sigma_prime, m)
    if args.strict:
        rep = relay_test_cover_strict(m, sigma, sigma_prime, params)
        lines = [f"strict relay {args.sigma} -> {args.sigma_prime}: {rep.verdict}"]
        lines += [f"  {t}" for t in rep.trace]
        payload = {"verdict": rep.verdict, "trace": list(rep.trace),
                   "strict": True}
        _report(args, m, params, payload, lines)
        return EXIT_UNDECIDED if rep.verdict == "Undecided" else EXIT_OK
    rep = relay_test_cover(m, sigma, sigma_prime, params)
    lines = [f"relay {args.sigma} -> {args.sigma_prime}: {rep.verdict}"]
    residents = []
    for r in rep.residents:
        name = r.resident.name or "resident"
        lines.append(f"  {name}: abscissa {r.abscissa}, {r.verdict}"
                     + (f", stable successor {r.stable_successor.name}"
                        if r.stable_successor else ""))
        for n in r.notes:
            lines.append(f"    note: {n}")
        residents.append({
            "resident": name, "abscissa": r.abscissa,
            "rho": _scalar(r.rho) if r.rho is not None else None,
            "verdict": r.verdict,
            "stable_successor": r.stable_successor.name if r.stable_successor else None,
            "within_face": r.tangential,
            "notes": list(r.notes)})
    for n in rep.notes:
        lines.append(f"  note: {n}")
    payload = {"verdict": rep.verdict, "invading": list(rep.invading),
               "residents": residents, "notes": list(rep.notes),
               "strict": False}
    _report(args, m, params, payload, lines)
    return EXIT_UNDECIDED if rep.verdict == "Undecided" else EXIT_OK


def _cmd_relay_graph(args, m, params):
    g = relay_graph(m, params)
    if args.format == "dot":
        _emit(args, g.to_dot())
        return EXIT_OK
    lat = m.lattice()
    nodes = [{"face": sorted(n.face), "label": n.label,
              "residents": list(n.residents), "inhabited": n.inhabited}
             for n in g.nodes]
    edges = [{"source": g.node(e.source).label, "target": g.node(e.target).label,
              "invading": list(e.invading), "kind": e.kind,
              "residents": list(e.residents)} for e in g.edges]
    lines = ["inhabited faces:"]
    lines += [f"  {n.label}" for n in g.nodes if n.inhabited]
    lines.append("hand-offs:")
    lines += [f"  {e['source']} -> {e['target']} [{e['kind']}] "
              f"via {{{','.join(e['invading'])}}}" for e in edges]
    _report(args, m, params, {"nodes": nodes, "edges": edges}, lines)
    return EXIT_OK


def _cmd_screen(args, m, params):
    from .stability import block_structure_screen
    rep = block_structure_screen(m)
    lines = ["dependency blocks: " +
             "; ".join("{" + ",".join(b) + "}" for b in rep.partition)]
    for blk in rep.blocks:
        lines.append(f"block {{{','.join(blk.vars)}}}: "
                     + ("certified" if blk.certified else "not certified"))
        for br in blk.branches:
            zset = ",".join(sorted(br.zeros)) or "-"
            subs = "; ".join(f"{{{','.join(s.vars)}}} {s.kind}" for s in br.subblocks)
            lines.append(f"  zeros [{zset}] relations "
                         f"[{','.join(br.relation_vars) or '-'}]: {br.kind}"
                         + (f" ({subs})" if subs else ""))
    verdictline = {True: "oscillation impossible for all positive parameters",
                   False: "certificates incomplete",
                   None: "inconclusive (a block is too large to screen)"}
    lines.append(verdictline[rep.hopf_impossible])
    lines.append("invasion interfaces monotone: "
                 + ("yes" if rep.relay_interfaces_monotone else "no"))
    payload = {
        "partition": [list(b) for b in rep.partition],
        "hopf_impossible": rep.hopf_impossible,
        "blocks": [{"vars": list(b.vars), "certified": b.certified,
                    "branches": [{"zeros": sorted(br.zeros),
                                  "relations": list(br.relation_vars),
                                  "kind": br.kind,
                                  "subblocks": [{"vars": list(s.vars),
                                                 "kind": s.kind, "ok": s.ok}
                                                for s in br.subblocks]}
                                 for br in b.branches]}
                   for b in rep.blocks],
        "siphon_block_metzler": rep.siphon_block_metzler,
        "relay_interfaces_monotone": rep.relay_interfaces_monotone,
        "notes": list(rep.notes)}
    _report(args, m, params, payload, lines)
    if rep.hopf_impossible is None:
        return EXIT_UNDECIDED
    return EXIT_OK


def _cmd_rank_one(args, m, params):
    e = _find_equilibrium(m, args.equilibrium, params)
    vals = m.point(params)
    if args.u and args.v and args.kappa is not None:
        u, v = args.u, args.v
        try:
            kappa = Fraction(args.kappa)
        except (ValueError, ZeroDivisionError) as exc:
            raise _FlagError(f"bad rational for --kappa: {exc}") from exc
    elif m.rank_one_edge is not None:
        u, v, pname = m.rank_one_edge
        kappa = vals[pname]
    else:
        raise CrnRelayError("need --u/--v/--kappa: the model declares no "
                            "rank-one coupling")
    if u not in m.variables or v not in m.variables:
        raise CrnRelayError(f"unknown coupling variables {u!r}, {v!r}")
    J = jacobian_at(m, e.coords, params)
    ui, vi = m.var_index(u), m.var_index(v)
    A = [row[:] for row in J]
    A[ui][vi] = A[ui][vi] - kappa
    rep = rank_one_bound(A, ui, vi, kappa)
    lines = [f"coupling {u} <- {v} with strength {kappa} at {e.name}:",
             f"  open loop Hurwitz: {rep.base_hurwitz}",
             f"  open loop Metzler: {rep.base_metzler}",
             f"  dc gain: {rep.gain}",
             f"  |kappa| * gain < 1: {rep.bound_holds}",
             f"  closed loop guaranteed Hurwitz: {rep.guaranteed}",
             f"  determinant identity verified: {rep.identity_checked}"]
    for n in rep.notes:
        lines.append(f"  note: {n}")
    payload = {"u": u, "v": v, "kappa": str(kappa), "equilibrium": e.name,
               "base_hurwitz": rep.base_hurwitz,
               "base_metzler": rep.base_metzler,
               "gain": _scalar(rep.gain) if rep.gain is not None else None,
               "bound_holds": rep.bound_holds,
               "guaranteed": rep.guaranteed,
               "identity_checked": rep.identity_checked,
               "notes": list(rep.notes)}
    _report(args, m, params, payload, lines)
    return EXIT_OK


def _cmd_verify_faces(args, m, params):
    from .network import is_siphon
    net = m.network()
    lat = m.lattice()
    lines = []
    rows = []
    ok_all = True
    for face in lat.nodes:
        inv = verify_face_invariance(m, face)
        mixed = mixed_block_zero(m, face)
        sip = is_siphon(net, face)
        ok = inv.ok and mixed and sip
        ok_all = ok_all and ok
        lines.append(f"face {lat.label(face)}: siphon={_yn(sip)} "
                     f"invariant={_yn(inv.ok)} decoupled={_yn(mixed)} "
                     f"{'PASS' if ok else 'FAIL'}")
        rows.append({"face": sorted(face), "siphon": sip, "invariant": inv.ok,
                     "mixed_block_zero": mixed, "ok": ok})
    for v in m.variables:
        face = frozenset({v})
        sip = is_siphon(net, face)
        inv = verify_face_invariance(m, face)
        consistent = sip == inv.ok
        ok_all = ok_all and consistent
        lines.append(f"singleton {{{v}}}: siphon={_yn(sip)} "
                     f"invariant={_yn(inv.ok)} "
                     f"{'PASS' if consistent else 'FAIL'}")
        rows.append({"face": [v], "siphon": sip, "invariant": inv.ok,
                     "consistent": consistent})
    lines.append("overall: " + ("PASS" if ok_all else "FAIL"))
    _report(args, m, params, {"checks": rows, "ok": ok_all}, lines)
    return EXIT_OK if ok_all else EXIT_FAILED


def _yn(b: bool) -> str:
    return "yes" if b else "no"


_COMMANDS = {
    "siphons": _cmd_siphons,
    "lattice": _cmd_lattice,
    "equilibria": _cmd_equilibria,
    "stability": _cmd_stability,
    "invasion": _cmd_invasion,
    "relay": _cmd_relay,
    "relay-graph": _cmd_relay_graph,
    "screen-oscillation": _cmd_screen,
    "rank-one-bound": _cmd_rank_one,
    "verify-face-theorem": _cmd_verify_faces,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.format == "dot" and args.command != "relay-graph":
        print("dot output is only available for relay-graph", file=sys.stderr)
        return EXIT_PARSE
    try:
        m = _load_model(args.model)
        params = m.point(_parse_overrides(args.set))
        return _COMMANDS[args.command](args, m, params)
    except (ModelParseError, _FlagError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (CrnRelayError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:
        # a crash is a bug, never exit 1 ("a verification found a violation")
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
