"""Verification instruments: energy functionals, exponential growth bounds,
support/causality reports, boundary-condition residuals, and the residual
form of the Green-operator identities.

The energy of a mode field is

    E = 1/2 [ C_inf ||u||^2 + ||du/dt||^2 + ||u'||^2 + k^2 ||u||^2 ]

(the k^2 term is the transverse part of the gradient energy and vanishes at
k = 0; C_inf = sup|C| of the reduction potential, zero in the flat model).
E alone is conserved only for Dirichlet data; the conserved total adds the
boundary term

    Robin:      1/2 alpha u(0)^2
    dynamical:  1/2 [ v'^2 + k^2 v^2 ],  v = u(0)

which is what makes the boundary term's necessity testable by ablation.
Growth of E is certified against exp(b t) with a fitted exponent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import BoundaryCondition
from .propagator import KernelGrid
from .quadrature import corrected_weights, derivative, max_abs, row_panels

_FLOOR = 1e-300


@dataclass
class EnergyReport:
    """Energy history of a trajectory with its conservation diagnostic.

    ``drift`` is max_t |E_total(t) - E_total(0)| normalized by the energy
    scale actually present, max(|E_total(0)|, max_t E(t)).  For growing
    trajectories (negative spectrum) the bulk and boundary pieces both grow
    while their sum stays fixed, so normalizing by the instantaneous scale is
    what makes the conservation statement checkable at fixed precision.
    """

    times: np.ndarray
    E: np.ndarray
    E_total: np.ndarray
    drift: float
    gronwall_b: Optional[float] = None


def _density(u, udot, dx, k, c_infty):
    # energy density at every node, for one snapshot or a stack of them
    u = np.asarray(u, dtype=float)
    udot = np.asarray(udot, dtype=float)
    ux = derivative(u, dx, 1)
    return 0.5 * (c_infty * u * u + udot * udot + ux * ux + k * k * u * u)


def energy(u, udot, dx, k: float = 0.0, c_infty: float = 0.0):
    """Bulk energy (positive functional) of one snapshot, or of each
    snapshot of a stack along the first axis by one dot each, as if alone."""
    dens = _density(u, udot, dx, k, c_infty)
    return np.vecdot(dens, corrected_weights(dens.shape[-1], dx))


def boundary_energy(bc: BoundaryCondition, u, udot, k: float = 0.0) -> float:
    """Conserved boundary term matching the realization."""
    u0 = float(np.asarray(u)[0])
    if bc.kind == "dirichlet":
        return 0.0
    if bc.is_dynamic:
        v_dot = float(np.asarray(udot)[0])
        return 0.5 * (v_dot * v_dot + (k * k) * u0 * u0)
    alpha = bc.effective_alpha(k)
    return 0.5 * alpha * u0 * u0


def energy_report(times, U, Udot, dx, bc: BoundaryCondition,
                  k: float = 0.0, c_infty: float = 0.0) -> EnergyReport:
    """Energy history of a sampled trajectory (stacks along the first axis)."""
    times = np.asarray(times, dtype=float)
    E = energy(U, Udot, dx, k=k, c_infty=c_infty)
    Eb = np.array([boundary_energy(bc, u, ud, k=k) for u, ud in zip(U, Udot)])
    E_total = E + Eb
    scale = max(abs(E_total[0]), float(np.max(E)), _FLOOR)
    drift = float(max_abs(E_total - E_total[0]) / scale)
    return EnergyReport(times=times, E=E, E_total=E_total, drift=drift)


def gronwall_check(report: EnergyReport, b_cap: Optional[float] = None,
                   zero_tol: float = 1e-12):
    """Certify E(t) <= exp(b t) E(0) with a fitted exponent.

    Returns ``(passed, b_hat)``.  b_hat is the larger of the least-squares
    slope of log E and the smallest exponent making the bound hold on every
    sample, so the reported value always certifies the inequality.  A
    trajectory with E(0) = 0 passes only if it stays at zero: energy
    appearing from vanishing data violates uniqueness and fails the check,
    and so does a non-finite sample, which bounds nothing.
    With ``b_cap`` given, passing additionally requires b_hat <= b_cap.
    """
    E = report.E
    t = report.times
    peak = float(np.max(E))
    if peak <= _FLOOR:
        report.gronwall_b = 0.0
        return True, 0.0
    if not np.all(np.isfinite(E)) or E[0] <= zero_tol * peak:
        report.gronwall_b = float("inf")
        return False, float("inf")
    later = t > t[0]
    ratios = np.log(np.maximum(E[later], _FLOOR) / E[0]) / (t[later] - t[0])
    b_cert = max(0.0, float(np.max(ratios, initial=0.0)))
    good = E > 0
    slope = np.polyfit(t[good], np.log(E[good]), 1)[0] if np.sum(good) > 1 else 0.0
    b_hat = max(b_cert, float(slope), 0.0)
    report.gronwall_b = b_hat
    passed = b_cap is None or b_hat <= b_cap
    return passed, b_hat


def cone_energy_ratio(times, U, Udot, x, support, margin: float = 0.0) -> float:
    """Largest energy fraction escaping the light cone of an initial support.

    ``support`` is the interval (a, b) containing the initial data.  At each
    time the energy density integrated over {x : dist(x, support) > t + margin}
    is compared with the peak bulk energy; unit propagation speed bounds the
    exact ratio by zero.
    """
    x = np.asarray(x, dtype=float)
    times = np.asarray(times, dtype=float)[:, None]
    dx = float(x[1] - x[0])
    a, b = support
    dens = _density(U, Udot, dx, 0.0, 0.0)
    peak = max(float(np.max(dens @ corrected_weights(x.size, dx))), _FLOOR)
    outside = (x < a - times - margin) | (x > b + times + margin)
    return float(np.max(np.sum(dens * outside, axis=1))) * dx / peak


def causality_report(kernel: KernelGrid, tol: float = 1e-3) -> dict:
    """Largest kernel magnitude in the region no signal can reach.

    The acausal region is {|t| < |x - y| and |t| < x + y}: earlier than both
    the direct and the boundary-reflected characteristics.
    """
    T, X, Y = np.meshgrid(kernel.t, kernel.x, kernel.y, indexing="ij")
    region = (np.abs(T) < np.abs(X - Y)) & (np.abs(T) < X + Y)
    if not np.any(region):
        return {"max_acausal": 0.0, "points": 0, "tol": tol, "passed": True}
    worst = float(np.max(np.abs(kernel.values[region])))
    return {"max_acausal": worst, "points": int(np.sum(region)),
            "tol": tol, "passed": worst <= tol}


def bc_residual(field, t, x, bc: BoundaryCondition, k: float = 0.0) -> float:
    """Relative boundary-condition residual of a space-time field.

    Static conditions test |u'(0,t) - alpha u(0,t)| (|u(0,t)| for
    Dirichlet); the dynamical condition tests
    |u'(0,t) - (d_tt + k^2) u(0,t)| with centered second time differences.
    The maximum over t is normalized by the scale of the traces involved,
    so a correct field scores near zero and a wrong coefficient scores
    near one regardless of field amplitude.
    """
    U = np.asarray(field, dtype=float)
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    dx = float(x[1] - x[0])
    g0 = U[:, 0]
    if bc.kind == "dirichlet":
        scale = max(float(max_abs(U)), _FLOOR)
        return float(np.max(np.abs(g0))) / scale
    # the inward derivative trace g1 (fourth-order one-sided) and the peak
    # gradient, one row panel of the field's derivative at a time
    g1 = np.empty(len(U))
    peaks = []
    for rows in row_panels(len(U), U.shape[1]):
        dU = derivative(U[rows], dx, 1)
        g1[rows] = dU[:, 0]
        peaks.append(max_abs(dU))
    if bc.is_dynamic:
        # centered second time differences exist on interior slices only
        dt = float(t[1] - t[0])
        g0_tt = (g0[2:] - 2 * g0[1:-1] + g0[:-2]) / (dt * dt)
        theta_g0 = g0_tt + (k * k) * g0[1:-1]
        resid = np.abs(g1[1:-1] - theta_g0)
        g1 = g1[1:-1]
    else:
        alpha = bc.effective_alpha(k)
        theta_g0 = alpha * g0
        resid = np.abs(g1 - theta_g0)
    # the residual has the units of a derivative trace; normalize by the
    # larger of the trace scale and the field's own gradient scale, so the
    # measure stays meaningful when the true traces vanish (Neumann)
    grad_scale = float(np.max(peaks))
    scale = max(float(np.max(np.abs(g1)) + np.max(np.abs(theta_g0))),
                grad_scale, _FLOOR)
    return float(np.max(resid)) / scale


def wave_operator(field, t, fd_sys) -> np.ndarray:
    """Apply d_tt + (FD operator) to a space-time field; endpoint slices of
    the time axis are only first-order and should be trimmed by callers."""
    U = np.asarray(field, dtype=float)
    dt = float(np.asarray(t)[1] - np.asarray(t)[0])
    Utt = np.empty_like(U)
    Utt[1:-1] = (U[2:] - 2 * U[1:-1] + U[:-2]) / (dt * dt)
    Utt[0] = Utt[1]
    Utt[-1] = Utt[-2]
    return Utt + fd_sys.apply_grid(U)


def _rel_l2(A, B, dx, dt):
    # relative space-time L2, trimming one slice at each end of the time axis
    A = np.asarray(A)[1:-1]
    B = np.asarray(B)[1:-1]
    num = np.sqrt(np.sum(A * A) * dx * dt)
    den = np.sqrt(np.sum(B * B) * dx * dt)
    return float(num / max(den, _FLOOR))


def exact_sequence_residuals(res, fd_sys, g, t) -> tuple:
    """Residual form of the Green-operator identity chain.

    For a compactly supported space-time test function g returns

    r1 = ||G (box g)|| / ||g||        (the causal operator kills box images)
    r2 = ||box (G g)|| / ||g||        (causal outputs solve the equation)
    r3 = ||box (G_ret g) - g|| / ||g||  (one-sided appliers invert box)
    r4 = ||(G_ret - G_adv) g - G g|| / ||g||  (retarded minus advanced
                                               reproduces the causal applier)

    with box realized by centered time differences plus the FD operator.
    """
    from .propagator import apply_advanced, apply_causal, apply_retarded

    g = np.asarray(g, dtype=float)
    t = np.asarray(t, dtype=float)
    dt = float(t[1] - t[0])
    dx = fd_sys.dx
    if np.sum(g[1:-1] ** 2) * dx * dt == 0.0:
        return 0.0, 0.0, 0.0, 0.0

    r1 = _rel_l2(apply_causal(res, wave_operator(g, t, fd_sys), t), g, dx, dt)

    Gg = apply_causal(res, g, t)
    r2 = _rel_l2(wave_operator(Gg, t, fd_sys), g, dx, dt)

    Gret = apply_retarded(res, g, t)
    r3 = _rel_l2(wave_operator(Gret, t, fd_sys) - g, g, dx, dt)

    Gadv = apply_advanced(res, g, t)
    r4 = _rel_l2((Gret - Gadv) - Gg, g, dx, dt)
    return r1, r2, r3, r4


def _strict(obj):
    # obj as strict JSON data: numpy scalars as the Python scalars they hold
    # (np.bool_ stays a boolean), and non-finite floats, which JSON has no
    # token for, as null
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def emit_report(path, payload: dict) -> None:
    """Write a machine-readable JSON report next to a readable text digest;
    both are serialized first, so a failure leaves an earlier report intact.
    The JSON is strict: a non-finite measure is written as null."""
    text = json.dumps(_strict(payload), indent=2, sort_keys=True, allow_nan=False)
    txt = str(path)
    txt = txt[:-5] + ".txt" if txt.endswith(".json") else txt + ".txt"
    for name, body in ((path, text), (txt, render_report(payload))):
        with open(name, "w") as fh:
            fh.write(body)


def render_report(payload: dict) -> str:
    lines = []
    overall = payload.get("passed")
    if overall is not None:
        lines.append(f"overall: {'PASS' if overall else 'FAIL'}")
    for name, entry in sorted(payload.get("checks", {}).items()):
        status = "PASS" if entry.get("passed") else "FAIL"
        detail = ", ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in sorted(entry.items()) if k != "passed")
        lines.append(f"  {status}  {name}: {detail}")
    return "\n".join(lines) + "\n"
