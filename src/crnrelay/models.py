"""Builtin models: a two-strain rumor/contagion platform system, with and
without recycling of retired boosters, plus closed-form equilibrium
coordinates for every named equilibrium of each variant.

Both variants share the skeleton: a platform population x1 feeds a user pool
U; U hosts two boosted strains (S_j fresh, B_j established) with saturating
boost rates; W is a decayed-exposure pool that drains U. In the recycling
variant (omega > 0) retired boosters return through R into W, which couples
everything into one feedback loop; with omega = 0 the W channel is
self-contained and the system is block triangular.

The model text below is the single source of truth; it is parsed by the same
code path as user model files.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional

from .errors import NotApplicable, UnknownModel
from .linalg import quad_solve, UniPoly
from .modelfile import parse_model_text
from .network import Model, require
from .scalars import ExactScalar, exact

OSN_OMEGA_POS_TEXT = """\
model osn_omega_pos
variables: S1 B1 S2 B2 U R W x1
parameters: Lambda mu mun beta betaw beta1 eps1 alpha1 gamma1 mu1 beta2 eps2 alpha2 gamma2 mu2 omega

equations:
    S1' = beta1*B1*U/(B1*eps1 + alpha1*U + 1) - gamma1*S1
    B1' = gamma1*S1 - mu1*B1
    S2' = beta2*B2*U/(B2*eps2 + alpha2*U + 1) - gamma2*S2
    B2' = gamma2*S2 - mu2*B2
    U' = beta*x1*U - mun*U - betaw*U*W
    R' = mu1*B1 + mu2*B2 - omega*R
    W' = betaw*U*W - mu*W + omega*R
    x1' = Lambda - mu*x1 - beta*x1*U

values:
    Lambda = 2
    mu = 1
    mun = 1
    beta = 1
    betaw = 1/2
    beta1 = 3
    eps1 = 1
    alpha1 = 1
    gamma1 = 1
    mu1 = 1
    beta2 = 1
    eps2 = 1
    alpha2 = 1
    gamma2 = 1
    mu2 = 1
    omega = 1

metadata:
    ngm_mask {U} = 7
    ngm_mask {S1,B1} = 1
    ngm_mask {S2,B2} = 4
    rank_one_edge = W R omega
    keep = x1
"""

OSN_OMEGA0_TEXT = """\
model osn_omega0
variables: S1 B1 S2 B2 U W x1
parameters: Lambda mu mun beta betaw beta1 eps1 alpha1 gamma1 mu1 beta2 eps2 alpha2 gamma2 mu2

equations:
    S1' = beta1*B1*U/(B1*eps1 + alpha1*U + 1) - gamma1*S1
    B1' = gamma1*S1 - mu1*B1
    S2' = beta2*B2*U/(B2*eps2 + alpha2*U + 1) - gamma2*S2
    B2' = gamma2*S2 - mu2*B2
    U' = beta*x1*U - mun*U - betaw*U*W
    W' = betaw*U*W - mu*W
    x1' = Lambda - mu*x1 - beta*x1*U

values:
    Lambda = 2
    mu = 1
    mun = 1
    beta = 1
    betaw = 1/2
    beta1 = 3
    eps1 = 1
    alpha1 = 1
    gamma1 = 1
    mu1 = 1
    beta2 = 1
    eps2 = 1
    alpha2 = 1
    gamma2 = 1
    mu2 = 1

metadata:
    ngm_mask {U} = 7
    ngm_mask {W} = 9
    ngm_mask {S1,B1} = 1
    ngm_mask {S2,B2} = 4
    keep = x1
"""

_BUILTINS = MappingProxyType({
    "osn_omega_pos": OSN_OMEGA_POS_TEXT,
    "osn_omega0": OSN_OMEGA0_TEXT,
})

def list_builtins() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def builtin_model(name: str) -> Model:
    '''Parse (once) and return a builtin model by name.'''
    if not isinstance(name, str) or name not in _BUILTINS:
        raise UnknownModel(f"no builtin model {name!r}; available: {', '.join(list_builtins())}")
    return _parse_builtin(name)


@functools.cache
def _parse_builtin(name: str) -> Model:
    return parse_model_text(_BUILTINS[name], default_name=name)


# ---------------------------------------------------------------------------
# equilibrium names
# ---------------------------------------------------------------------------

class EquilibriumNames:
    '''A model's equilibrium names, read from one table of hosting faces
    (see _NAMES). Called as namer(host, zero_set) it names the equilibrium
    with that hosting node and zero set, or gives None; faces(name) is its
    inverse, the faces on which namer can give name.'''

    def __init__(self, table: Mapping[str, object]):
        self._table = {}   # face -> (var, name when var vanishes too, name otherwise)
        for face, name in table.items():
            self._table[frozenset(face.split())] = (
                name if isinstance(name, tuple) else (None, name, name))

    def __call__(self, host: frozenset, zero_set: frozenset) -> Optional[str]:
        row = self._table.get(host)
        if row is None:
            return None
        var, vanishing, other = row
        return vanishing if var in zero_set else other

    def names(self) -> tuple[str, ...]:
        '''Every name, in table order.'''
        return tuple(dict.fromkeys(n for _, *names in self._table.values() for n in names))

    def faces(self, name: str) -> tuple[frozenset, ...]:
        '''The faces on which name can be given, in table order.'''
        return tuple(face for face, (_, *names) in self._table.items() if name in names)


# The face that hosts each named equilibrium of a builtin (see hosting_node).
# A face that hosts two names maps to (var, name when var vanishes too, name
# otherwise).
_NAMES = MappingProxyType({
    "osn_omega0": EquilibriumNames({
        "U W S1 B1 S2 B2": "DFE",
        "W S1 B1 S2 B2": "gOSN",
        "W S2 B2": "E1g",
        "W S1 B1": "E2g",
        "W": "EEg",
        "S1 B1 S2 B2": "RFE",
        "S2 B2": "E1",
        "S1 B1": "E2",
        "": "EE",
    }),
    "osn_omega_pos": EquilibriumNames({
        "U S1 B1 S2 B2": "OSND",
        "S1 B1 S2 B2": ("W", "gOSN", "RFE"),
        "S2 B2": "E1",
        "S1 B1": "E2",
        "": "EE",
    }),
})

_NO_NAMES = EquilibriumNames({})


def equilibrium_namer(m: Model) -> EquilibriumNames:
    '''The names of m's equilibria, decided once per model: a builtin's
    names when m is that builtin as print_model writes it (the same name,
    variables, parameters and reactions; the default values may differ),
    and none otherwise.'''
    return require(m, Model).kept("namer", _namer, m)


def _namer(m: Model) -> EquilibriumNames:
    known = m.name in _BUILTINS and _signature(m) == _builtin_signature(m.name)
    return _NAMES[m.name] if known else _NO_NAMES


def _signature(m: Model) -> tuple:
    return m.variables, m.parameters, tuple(str(r) for r in m.network().reactions)


@functools.cache
def _builtin_signature(name: str) -> tuple:
    return _signature(builtin_model(name))


# ---------------------------------------------------------------------------
# closed-form coordinates
# ---------------------------------------------------------------------------

def _strain_coords(j: int, u, p) -> dict:
    '''Strain-j coordinates when resident at user level u: the boost balance
    gives eps_j*mu_j*B_j = q_j(u) with q_j(u) = beta_j*u - mu_j*(1+alpha_j*u).'''
    q = p[f"beta{j}"] * u - p[f"mu{j}"] * (1 + p[f"alpha{j}"] * u)
    return {
        f"S{j}": q / (p[f"gamma{j}"] * p[f"eps{j}"]),
        f"B{j}": q / (p[f"eps{j}"] * p[f"mu{j}"]),
    }


def closed_form_oracle(m: Model, name: str, params: Mapping[str, Fraction] | None = None):
    '''Closed-form coordinates for a named equilibrium of a builtin model.

    Returns a FaceEquilibrium built from explicit formulas, independent of the
    face solver, so the two can be compared coordinate by coordinate. Raises
    NotApplicable for names the variant does not define.
    '''
    from .equilibria import assemble_equilibrium  # local import avoids a cycle

    p = {k: exact(v) for k, v in require(m, Model).point(params).items()}
    if m.name == "osn_omega0":
        coords = _omega0_closed_form(name, p)
    elif m.name == "osn_omega_pos":
        coords = _omega_pos_closed_form(name, p)
    else:
        raise NotApplicable(f"no closed forms for model {m.name!r}")
    full = {v: exact(0) for v in m.variables}
    full.update(coords)
    return assemble_equilibrium(m, full, name=name)


def _omega0_closed_form(name: str, p) -> dict:
    zero = exact(0)
    if name == "DFE":
        return {"x1": p["Lambda"] / p["mu"]}
    u_hat = p["Lambda"] / p["mun"] - p["mu"] / p["beta"]
    x_hat = p["mun"] / p["beta"]
    g = {"x1": x_hat, "U": u_hat}
    u_tilde = p["mu"] / p["betaw"]
    x_tilde = p["Lambda"] * p["betaw"] / (p["mu"] * (p["beta"] + p["betaw"]))
    w_tilde = (p["beta"] * x_tilde - p["mun"]) / p["betaw"]
    r = {"x1": x_tilde, "U": u_tilde, "W": w_tilde}
    if name == "gOSN":
        return g
    if name == "E1g":
        return g | _strain_coords(1, u_hat, p)
    if name == "E2g":
        return g | _strain_coords(2, u_hat, p)
    if name == "EEg":
        return g | _strain_coords(1, u_hat, p) | _strain_coords(2, u_hat, p)
    if name == "RFE":
        return r
    if name == "E1":
        return r | _strain_coords(1, u_tilde, p)
    if name == "E2":
        return r | _strain_coords(2, u_tilde, p)
    if name == "EE":
        return r | _strain_coords(1, u_tilde, p) | _strain_coords(2, u_tilde, p)
    raise NotApplicable(f"omega=0 variant has no equilibrium named {name!r}")


def _quad_root_shifted(a, b, c, branch: int) -> ExactScalar:
    '''Root of a*y^2 + b*y + c via quad_solve; branch +1 takes the larger root.'''
    poly = UniPoly.make([c.to_fraction(), b.to_fraction(), a.to_fraction()], name="y")
    roots = quad_solve(poly).roots
    if not roots:
        raise NotApplicable("quadratic has no real root at these parameters")
    return roots[-1] if branch > 0 else roots[0]


def _omega_pos_closed_form(name: str, p) -> dict:
    if name == "OSND":
        return {"x1": p["Lambda"] / p["mu"]}
    x_hat = p["mun"] / p["beta"]
    if name == "gOSN":
        return {"x1": x_hat, "U": p["Lambda"] / p["mun"] - p["mu"] / p["beta"]}
    if name == "RFE":
        u_tilde = p["mu"] / p["betaw"]
        x_tilde = p["Lambda"] * p["betaw"] / (p["mu"] * (p["beta"] + p["betaw"]))
        return {"x1": x_tilde, "U": u_tilde,
                "W": (p["beta"] * x_tilde - p["mun"]) / p["betaw"]}
    if name in ("E1", "E2"):
        j = 1 if name == "E1" else 2
        bj, ej, aj, gj, mj = (p[f"beta{j}"], p[f"eps{j}"], p[f"alpha{j}"],
                              p[f"gamma{j}"], p[f"mu{j}"])
        beta, betaw, mu, mun, lam, om = (p["beta"], p["betaw"], p["mu"],
                                         p["mun"], p["Lambda"], p["omega"])
        a1 = beta * beta * (beta + betaw) * mu * ej
        b1 = beta * (beta * betaw * (mj - lam * ej)
                     + betaw * mu * (-aj * mj + bj + ej * mun)
                     + beta * mu * ej * mun)
        c1 = -betaw * (-aj * beta * lam * mj + beta * bj * lam
                       + aj * mu * mj * mun - bj * mu * mun - beta * mj * mun)
        y = _quad_root_shifted(a1, b1, c1, branch=+1)
        x1 = x_hat + y
        w = beta * y / betaw
        u = (lam - mu * x1) / (beta * x1)
        s = w * (mu - betaw * u) / gj
        b = w * (mu - betaw * u) / mj
        rr = w * (mu - betaw * u) / om
        coords = {"x1": x1, "W": w, "U": u, "R": rr,
                  f"S{j}": s, f"B{j}": b}
        return coords
    if name == "EE":
        beta, betaw, mu, mun, lam, om = (p["beta"], p["betaw"], p["mu"],
                                         p["mun"], p["Lambda"], p["omega"])
        e1, e2 = p["eps1"], p["eps2"]
        d0 = ((p["beta2"] - p["alpha2"] * p["mu2"]) * e1
              + (p["beta1"] - p["alpha1"] * p["mu1"]) * e2
              - mu * e1 * e2)
        a = -beta * mu * e1 * e2 * (beta + betaw)
        b = (-betaw * mu * d0 + beta * e1 * e2 * (betaw * lam + mu * mu)
             - beta * betaw * (p["mu2"] * e1 + p["mu1"] * e2))
        c = betaw * lam * d0
        # the quadratic is in x1 directly; pick the root on the W>0 side
        x_hat = mun / beta
        poly = UniPoly.make([c.to_fraction(), b.to_fraction(), a.to_fraction()], name="x1")
        roots = quad_solve(poly).roots
        good = [r for r in roots if (r - x_hat).sign() > 0]
        if not good:
            raise NotApplicable("no root with positive decayed-exposure level")
        x1 = good[-1]
        u = (lam - mu * x1) / (beta * x1)
        w = (beta * x1 - mun) / betaw
        coords = {"x1": x1, "U": u, "W": w}
        coords |= _strain_coords(1, u, p)
        coords |= _strain_coords(2, u, p)
        coords["R"] = (p["gamma1"] * coords["S1"] + p["gamma2"] * coords["S2"]) / om
        return coords
    raise NotApplicable(f"omega>0 variant has no equilibrium named {name!r}")
