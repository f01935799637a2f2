"""Oracles independent of the solver, run after the timed region.

* numpy eigenvalues of the exact matrices, for las_test verdicts and
  invasion abscissa signs;
* the closed-form threshold table of osn_omega0 (R0, T and the strain
  ratios), for which named equilibria exist;
* the exit-code contract of the command line, as README states it.
"""

from __future__ import annotations

from fractions import Fraction

# Imported with the benchmark, before anything is measured, so that numpy
# weighs the same in the peak memory of every run.
import numpy as np

OK, UNCHECKED, CONTRADICTION = "ok", "unchecked", "contradiction"

# Below this, the sign of a largest real part is not trusted to numpy.
SIGN_TOL = 1e-9
# An exact "Zero" may sit on a defective eigenvalue, which numpy resolves
# only to about sqrt(machine epsilon).
ZERO_TOL = 1e-6

_SIGN = {"Negative": -1, "Zero": 0, "Positive": 1}


def abscissa(matrix) -> float:
    """Largest real part of the eigenvalues of an exact matrix."""
    a = np.array([[float(x) for x in row] for row in matrix], dtype=float)
    return float(np.max(np.linalg.eigvals(a).real))


def check_sign(claimed: str, value: float) -> str:
    """Compare an exact sign verdict with a numeric abscissa."""
    want = _SIGN[claimed]
    if want == 0:
        return OK if abs(value) < ZERO_TOL else CONTRADICTION
    if abs(value) < SIGN_TOL:
        return UNCHECKED
    return OK if (value > 0) == (want > 0) else CONTRADICTION


def check_stability(verdict: str, value: float) -> str:
    """las_test's LAS / Unstable / Boundary against the full spectrum."""
    return check_sign({"LAS": "Negative", "Unstable": "Positive",
                       "Boundary": "Zero"}[verdict], value)


def _ratio(p, j, u):
    den = p[f"mu{j}"] * (1 + p[f"alpha{j}"] * u)
    return None if den == 0 else p[f"beta{j}"] * u / den


def omega0_existence(p) -> dict[str, bool] | None:
    """Which named osn_omega0 equilibria exist at parameter point p, from the
    threshold table; None at a tie (R0 = 1, R0 = T or a ratio equal to 1),
    where the table does not decide."""
    T = 1 + p["beta"] / p["betaw"]
    R0 = p["beta"] * p["Lambda"] / (p["mu"] * p["mun"])
    u_hat = p["Lambda"] / p["mun"] - p["mu"] / p["beta"]
    u_til = p["mu"] / p["betaw"]
    ratios = [_ratio(p, 1, u_hat), _ratio(p, 2, u_hat),
              _ratio(p, 1, u_til), _ratio(p, 2, u_til)]
    if R0 == 1 or R0 == T or any(r is None or r == 1 for r in ratios):
        return None
    r1g, r2g, r1r, r2r = ratios
    return {
        "DFE": True,
        "gOSN": R0 > 1,
        "E1g": R0 > 1 and r1g > 1,
        "E2g": R0 > 1 and r2g > 1,
        "EEg": R0 > 1 and min(r1g, r2g) > 1,
        "RFE": R0 > T,
        "E1": R0 > T and r1r > 1,
        "E2": R0 > T and r2r > 1,
        "EE": R0 > T and min(r1r, r2r) > 1,
    }


def r0(p) -> Fraction:
    return p["beta"] * p["Lambda"] / (p["mu"] * p["mun"])


def exit_code_allowed(subcommand: str, code) -> bool:
    """README: 0 ok, 1 a verification found a violation (only
    verify-face-theorem verifies), 2 unparseable arguments or model file
    (the workload passes neither), 3 a failed precondition, 4 Undecided."""
    if code == 1:
        return subcommand == "verify-face-theorem"
    return code in (0, 3, 4)
