"""Two-term expansions of the quarter-disk ground energies as the crack
closes (epsilon -> pi/2), and fitting utilities to confront them with
computed curves.

With delta = pi/2 - epsilon and j = j_{l,1} the relevant first Bessel zero,
the four models are

    NND:  (j01/r2)^2 + C / |log delta|,  C = (4/r2^2) (J0(j01 r1/r2)/J0'(j01))^2
    DND:  (j11/r2)^2 + C / |log delta|,  C = (8/r2^2) (J1(j11 r1/r2)/J1'(j11))^2
    NDD:  (j11/r2)^2 + C delta^2,        C = (4/r2^2) (J1(j11 r1/r2)/J1'(j11))^2
    DDD:  (j21/r2)^2 + C delta^2,        C = (16/r2^2) (J2(j21 r1/r2)/J2'(j21))^2

The inverse-log laws are proven; the quadratic ones rest on a capacity
conjecture and every output carries that status.  Inverse-log convergence is
slow, so coefficient fits are only meaningful as a trend over nested windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun

__all__ = ["AsymptoticModel", "FitWindow", "FitReport", "model", "predict",
           "fit_coefficient", "law_competition"]

_CASE_PARAMS = {
    # case: (bessel order, prefactor, law, status)
    "NND": (0, 4.0, "inverse_log", "proven"),
    "DND": (1, 8.0, "inverse_log", "proven"),
    "NDD": (1, 4.0, "quadratic", "conjectural"),
    "DDD": (2, 16.0, "quadratic", "conjectural"),
}

DEFAULT_WINDOWS = (0.3, 0.15, 0.075)
_COMPETITION_TAIL = 0.3     # delta_max of the law competition


@dataclass(frozen=True)
class AsymptoticModel:
    case: str
    lambda_limit: float
    coefficient: float
    law: str
    status: str


def model(case: str, r1: float, r2: float) -> AsymptoticModel:
    """Closed-form two-term model for one quarter-disk case."""
    if case not in _CASE_PARAMS:
        raise ValueError(f"unknown case {case!r}; expected one of {sorted(_CASE_PARAMS)}")
    if not (0.0 < r1 < r2):
        raise ValueError(f"need 0 < r1 < r2, got r1={r1!r}, r2={r2!r}")
    order, pref, law, status = _CASE_PARAMS[case]
    j = specfun.bessel_zero(order, 1).value
    num = specfun.bessel_j(order, j * r1 / r2)
    den = specfun.bessel_j_prime(order, j)
    coeff = (pref / r2**2) * (num / den) ** 2
    return AsymptoticModel(case=case, lambda_limit=(j / r2) ** 2,
                           coefficient=coeff, law=law, status=status)


def _law_factor(law: str, delta: float) -> float:
    if law == "inverse_log":
        return 1.0 / abs(math.log(delta))
    if law == "quadratic":
        return delta * delta
    raise ValueError(f"unknown law {law!r}")


def predict(mod: AsymptoticModel, epsilon: float) -> float:
    """Model value at a crack half-opening epsilon close to pi/2.

    Valid for 0 < pi/2 - epsilon < 1 (the log law needs |log delta| > 0)."""
    delta = math.pi / 2 - epsilon
    if not (0.0 < delta < 1.0):
        raise ValueError(
            f"epsilon={epsilon!r} outside the asymptotic window (0 < pi/2 - eps < 1)")
    return mod.lambda_limit + mod.coefficient * _law_factor(mod.law, delta)


@dataclass(frozen=True)
class FitWindow:
    delta_max: float
    n_points: int
    c_hat: float
    ratio: float | None  # c_hat / reference coefficient, when available


@dataclass(frozen=True)
class FitReport:
    case: str
    law: str
    windows: tuple[FitWindow, ...]
    toward_one: bool | None

    @property
    def c_hat(self) -> float:
        """Coefficient from the tightest window."""
        return self.windows[-1].c_hat


def fit_coefficient(epsilons, lambdas, mod: AsymptoticModel,
                    lambda_limit: float | None = None) -> FitReport:
    """Least-squares slope of lambda(eps) - lambda_limit against the law
    factor, over the nested delta windows DEFAULT_WINDOWS.

    `lambda_limit` overrides the model limit (pass the computed endpoint of a
    discrete curve to cancel its discretization bias).  The report states
    whether |c_hat / C - 1| shrinks monotonically across the windows.
    """
    eps = np.asarray(list(epsilons), dtype=float)
    lam = np.asarray(list(lambdas), dtype=float)
    if eps.shape != lam.shape:
        raise ValueError("epsilons and lambdas must have matching shapes")
    delta = math.pi / 2 - eps
    lim = mod.lambda_limit if lambda_limit is None else float(lambda_limit)
    y = lam - lim
    g = np.array([_law_factor(mod.law, d) if 0 < d < 1 else np.nan for d in delta])
    tail = int(((delta > 0) & (delta <= DEFAULT_WINDOWS[0])).sum())
    if tail < 4:
        raise ValueError(
            f"need at least 4 points with 0 < pi/2 - eps <= {DEFAULT_WINDOWS[0]}, got {tail}")
    report = []
    for w in DEFAULT_WINDOWS:
        sel = (delta > 0) & (delta <= w) & np.isfinite(g)
        npts = int(sel.sum())
        if npts < 2:
            raise ValueError(f"window delta <= {w} has only {npts} points")
        gs, ys = g[sel], y[sel]
        c_hat = float(np.dot(gs, ys) / np.dot(gs, gs))
        ratio = c_hat / mod.coefficient if mod.coefficient != 0 else None
        report.append(FitWindow(delta_max=w, n_points=npts, c_hat=c_hat, ratio=ratio))
    toward_one = None
    if all(w.ratio is not None for w in report):
        errs = [abs(w.ratio - 1.0) for w in report]
        toward_one = all(b <= a + 1e-12 for a, b in zip(errs[:-1], errs[1:]))
    return FitReport(case=mod.case, law=mod.law, windows=tuple(report),
                     toward_one=toward_one)


def law_competition(epsilons, lambdas, lambda_limit: float) -> dict[str, float]:
    """Residual sum of squares of the through-origin fit under each law,
    over the tail delta <= 0.3 (model-selection check)."""
    eps = np.asarray(list(epsilons), dtype=float)
    lam = np.asarray(list(lambdas), dtype=float)
    delta = math.pi / 2 - eps
    sel = (delta > 0) & (delta < 1.0) & (delta <= _COMPETITION_TAIL)
    if int(sel.sum()) < 4:
        raise ValueError("need at least 4 tail points for the law competition")
    y = lam[sel] - lambda_limit
    out = {}
    for law in ("inverse_log", "quadratic"):
        g = np.array([_law_factor(law, d) for d in delta[sel]])
        c = float(np.dot(g, y) / np.dot(g, g))
        out[law] = float(np.sum((y - c * g) ** 2))
    return out
