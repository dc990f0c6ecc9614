"""Command-line front end.

Subcommands
-----------
spectrum   scan spectral membership over a lambda window, with an
           FD-oracle comparison column
kernel     build a causal-kernel grid and write CSV + binary + sidecar
evolve     drive a source through the retarded propagator (one applier for
           every condition, the dynamical one included) and write the
           trajectory with a boundary-residual column
verify     run the verification suite and emit a JSON/text report

Every command is deterministic given its configuration: quadrature grids
are uniform and nothing draws randomness.  Each output carries a JSON
sidecar holding the fully resolved configuration, so feeding a sidecar back
as ``--config`` reproduces the run bit for bit.

No command loads scipy: the closed-form kernel tails and the FD
eigenvalues (Sturm counts) are numpy and plain Python.

Exit codes: 0 success/pass, 1 check failure, 2 usage or configuration
error, 3 I/O error, 4 internal error (an unexpected exception, reported as
one ``internal error:`` line).

Configuration is a single JSON document; ``default_config()`` is the
canonical schema and ``parse_config`` deep-merges user files over it.
``settings`` validates every section, whichever command runs, before any
work starts, and hands the commands converted values.  The multiplier
boundary condition takes polynomial coefficients, lowest power first:
{"kind": "multiplier", "poly": [0, 0, 1]} is p(k) = k^2.

``quadrature.nodes`` defaults to null: each command then sizes the xi grid
for its own window with ``spectral.default_nodes`` (span t_max + 2 x_max for
the appliers, max|t| + max x + max y for kernels) and records the grid it
used, ``{"xi_max", "nodes"}``, next to its outputs.  An explicit count is
used as given.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import numbers
import sys
from pathlib import Path

import numpy as np

from . import oracle, propagator, spectral, triple, verify
from .model import BoundaryCondition, HalfSpaceModel

_LOG_TINY = math.log(np.finfo(float).tiny)    # least exponent of a normal exp

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


class ConfigError(ValueError):
    pass


def default_config() -> dict:
    return {
        "model": {"n": 0, "k": 0.0, "x_max": 30.0, "grid": 1024},
        "bc": {"kind": "robin", "alpha": -1.0},
        "quadrature": {"xi_max": 40.0, "nodes": None},
        "grids": {
            "t": [0.0, 2.0, 20],
            "x": [0.2, 3.0, 20],
            "y": [0.2, 3.0, 20],
        },
        "scan": {"lambda_min": -3.0, "lambda_max": -1e-3, "steps": 600},
        "source": {"profile": "gaussian", "amplitude": 1.0,
                   "t0": 1.6, "sigma_t": 0.25, "x0": 3.0, "sigma_x": 0.4},
        "evolve": {"t_max": 6.0, "steps": 480},
        "verify": {"checks": "all", "tol_scale": 1.0,
                   "bc_check_alpha_override": None},
        "outputs": {"dir": "out", "formats": ["csv", "binary"]},
    }


def _merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _not_json(token: str):
    # json.load accepts NaN, Infinity and -Infinity, which JSON has not
    raise ConfigError(f"config is not valid JSON: {token} is not a JSON number")


def parse_config(path=None) -> dict:
    cfg = default_config()
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh, parse_constant=_not_json)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        # sidecars store the effective config under "config"
        if isinstance(user, dict) and "config" in user and "command" in user:
            user = user["config"]
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = _merge(cfg, user)
    return cfg


def emit_config(cfg: dict) -> str:
    """Canonical serialization; parse(emit(cfg)) == cfg."""
    return json.dumps(cfg, indent=2, sort_keys=True)


# What each scalar field accepts: "real" is a finite number, "positive" a
# finite number > 0, "width" a positive Gaussian width w whose 2 w^2 is a
# normal double, and an int is the least value of a whole count.  A pair
# (rule, default) marks a field that may be left out; a default of None
# also admits null.
_FIELDS = {
    "model": {"n": 0, "k": "real", "x_max": "positive", "grid": 16},
    "quadrature": {"xi_max": "positive", "nodes": (spectral.MIN_NODES, None)},
    "scan": {"lambda_min": "real", "lambda_max": "real", "steps": 0,
             "k_max": ("positive", 8.0)},
    "source": {"amplitude": "real", "t0": "real", "sigma_t": "width",
               "x0": "real", "sigma_x": "width"},
    "evolve": {"t_max": "positive", "steps": 2},
    "verify": {"tol_scale": "positive", "bc_check_alpha_override": ("real", None)},
}


def _finite(value, what: str) -> float:
    # a JSON number: booleans and numeric strings are not numbers here
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return number


def _check(value, rule, what: str):
    number = _finite(value, what)
    if rule in ("positive", "width") and number <= 0:
        raise ConfigError(f"{what} must be positive, got {number}")
    # the Gaussian source divides by 2 w^2, which must not overflow nor
    # underflow to 0 (a sample at the centre would then give 0/0)
    if rule == "width" and not sys.float_info.min <= 2.0 * number * number < math.inf:
        raise ConfigError(f"{what} must be a width w with 2 w^2 a normal "
                          f"double, got {number}")
    if isinstance(rule, int):
        count = int(value)
        if count != value or count < rule:
            raise ConfigError(f"{what} must be a whole number >= {rule}, got {value!r}")
        return count
    return number


def _section(cfg: dict, name: str) -> dict:
    section = cfg.get(name)
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object, got {section!r}")
    return section


def _names(value, known, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(n, str) for n in value):
        raise ConfigError(f"{what} must be a list of names, got {value!r}")
    unknown = [name for name in value if name not in known]
    if unknown:
        raise ConfigError(f"unknown {what} entries: {', '.join(unknown)}; "
                          f"known: {', '.join(known)}")
    return list(value)


def _boundary(section: dict) -> BoundaryCondition:
    kind = section.get("kind")
    if kind == "robin":
        return BoundaryCondition.robin(_finite(section.get("alpha"), "bc.alpha"))
    if kind == "multiplier":
        coeffs = section.get("poly")
        if not coeffs or not isinstance(coeffs, (list, tuple)):
            raise ConfigError(f"bc.poly must list coefficients, got {coeffs!r}")
        coeffs = tuple(_finite(c, "bc.poly coefficient") for c in coeffs)
        return BoundaryCondition.multiplier(
            lambda k, c=coeffs: sum(cj * k ** j for j, cj in enumerate(c)))
    if kind in ("dirichlet", "neumann", "wentzell"):
        return BoundaryCondition(kind)
    raise ConfigError(f"unknown boundary condition kind {kind!r}")


def _axis(grids: dict, name: str) -> np.ndarray:
    axis = grids.get(name)
    if not isinstance(axis, (list, tuple)) or len(axis) != 3:
        raise ConfigError(f"grids.{name} must be [start, stop, count], got {axis!r}")
    lo, hi = (_finite(v, f"grids.{name} entry") for v in axis[:2])
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.linspace(lo, hi, _check(axis[2], 1, f"grids.{name} count"))
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"grids.{name} from {lo!r} to {hi!r} overflows a double")
    return values


def _outputs(cfg: dict) -> dict:
    section = _section(cfg, "outputs")
    path = section.get("dir")
    if not isinstance(path, str) or not path:
        raise ConfigError(f"outputs.dir must be a directory name, got {path!r}")
    return {"dir": path, "formats": _names(section.get("formats"),
                                           ("csv", "binary"), "outputs.formats")}


def settings(cfg: dict) -> dict:
    """Validate every section of a merged config; raise ConfigError or
    return its values converted, one entry per section: ``model`` is a
    HalfSpaceModel, ``bc`` a BoundaryCondition, ``grids`` the (t, x, y) axes,
    the rest dicts of numbers and name lists.  ``config`` is ``cfg``."""
    run = {"config": cfg}
    for name, fields in _FIELDS.items():
        section = _section(cfg, name)
        run[name] = {}
        for key, rule in fields.items():
            rule, default = rule if isinstance(rule, tuple) else (rule, "missing")
            value = section.get(key, default)
            run[name][key] = (None if value is None and default is None
                              else _check(value, rule, f"{name}.{key}"))
    try:
        run["model"] = HalfSpaceModel(**run["model"])
    except ValueError as exc:
        raise ConfigError(f"bad model section: {exc}") from None
    if run["scan"]["lambda_min"] >= 0:
        raise ConfigError("scan.lambda_min must be negative: the scan covers "
                          f"the negative spectrum, got {run['scan']['lambda_min']}")
    run["bc"] = _boundary(_section(cfg, "bc"))
    if run["bc"].is_dynamic and run["evolve"]["steps"] < 3:    # the bc check's d_tt
        raise ConfigError("evolve.steps must be >= 3 for the dynamical condition, "
                          f"got {run['evolve']['steps']}")
    run["grids"] = tuple(_axis(_section(cfg, "grids"), name) for name in "txy")
    # the frequency quadrature evaluates e^{i xi span} up to xi = xi_max, so
    # the largest phase of each window, xi_max * span, must be a double;
    # verify's windows are its fixed kernel grids and 4 + 2 x_max, within 4
    # of the applier span
    xi_max = run["quadrature"]["xi_max"]
    for what, span in (("kernel span max|t| + max|x| + max|y|",
                        propagator.kernel_span(*run["grids"])),
                       ("applier span evolve.t_max + 2 model.x_max",
                        run["evolve"]["t_max"] + 2.0 * run["model"].x_max)):
        if not math.isfinite(xi_max * span):
            raise ConfigError(f"the largest phase, quadrature.xi_max times "
                              f"the {what}, overflows a double")
    profile = _section(cfg, "source").get("profile")
    if profile != "gaussian":
        raise ConfigError(f"unknown source profile {profile!r}")
    checks = _section(cfg, "verify").get("checks")
    run["verify"]["checks"] = (list(_VERIFY_CHECKS) if checks == "all" else
                               _names(checks, _VERIFY_CHECKS, "verify.checks"))
    run["outputs"] = _outputs(cfg)
    return run


def _resolution(run: dict, bc: BoundaryCondition, k: float, x, span: float):
    # the configured quadrature, or the default node count for ``span``
    xi_max, nodes = run["quadrature"]["xi_max"], run["quadrature"]["nodes"]
    if nodes is None:
        nodes = spectral.default_nodes(bc, k, xi_max, span)
    return spectral.resolve(bc, k, x, xi_max=xi_max, nodes=nodes)


def _outdir(path) -> Path:
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IOError(f"cannot create output directory {path}: {exc}") from exc
    return Path(path)


def _write_sidecar(path: Path, command: str, run: dict, extra: dict) -> None:
    # strict JSON, as verify.json: a non-finite value is written as null
    doc = verify._strict({"command": command, "config": run["config"], **extra})
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False))


def _all_finite(what: str, values, inf_ok: bool = False) -> None:
    # a backstop after validation: no command writes a non-finite value;
    # ``inf_ok`` admits +-inf, for a column where inf encodes Dirichlet
    ok = ~np.isnan(values) if inf_ok else np.isfinite(values)
    bad = np.size(values) - np.count_nonzero(ok)
    if bad:
        kind = "NaN" if inf_ok else "non-finite"
        raise FloatingPointError(f"{what} has {bad} {kind} values; nothing written")


def _gaussian_source(src: dict, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """amplitude exp(-(t - t0)^2/(2 sigma_t^2) - (x - x0)^2/(2 sigma_x^2)) on
    the (t, x) grid.

    Exponents below log(DBL_MIN) become -inf, so their exp is exactly 0 and
    no value is subnormal: an exp that underflows costs about ten times one
    that does not, for a value the analysis would flush to 0 anyway.
    """
    out = np.zeros((t.size, x.size))
    amp = src["amplitude"]
    if amp == 0.0:
        return out
    np.subtract(-((t[:, None] - src["t0"]) ** 2) / (2 * src["sigma_t"] ** 2),
                ((x[None, :] - src["x0"]) ** 2) / (2 * src["sigma_x"] ** 2), out=out)
    out[out < _LOG_TINY] = -np.inf
    np.exp(out, out=out)
    out *= amp
    return out


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum(run: dict, outdir: Path) -> int:
    model, bc, scan = run["model"], run["bc"], run["scan"]
    lam_max = scan["lambda_max"] if scan["lambda_max"] < 0 else -1e-12
    lam_grid = np.linspace(scan["lambda_min"], lam_max, scan["steps"])
    k_range = model.k if model.n == 0 else (0.0, scan["k_max"])
    rows = triple.spectrum_scan(bc, lam_grid, k_range=k_range)
    # theta = inf is Dirichlet, written as inf; a NaN witness is a fault
    _all_finite("the theta - Weyl column", [row[2] for row in rows], inf_ok=True)
    # FD comparison: the count of eigenvalues below each lambda, read from
    # those below the grid's top (at least the lowest, for fd_lowest)
    sysm = oracle.assemble_fd(bc, model.k, model.grid, model.x_max)
    _all_finite("the FD diagonals", np.concatenate((sysm.diag, sysm.off)))
    located = max(1, oracle.fd_count_below(sysm, lam_grid.max(initial=-np.inf)))
    eigs = oracle.fd_spectrum(sysm, located)
    _all_finite("the FD eigenvalues", eigs)
    below = np.searchsorted(eigs, lam_grid).tolist()
    path = outdir / "spectrum.csv"
    with open(path, "w") as fh:
        fh.write("lambda,k,theta_minus_weyl,verdict,fd_eigs_below\n")
        for (lam, k, value, verdict), count in zip(rows, below):
            fh.write(f"{lam:.17g},{k:.17g},{value:.17g},{verdict},{count}\n")
    _write_sidecar(outdir / "spectrum.sidecar.json", "spectrum", run,
                   {"fd_lowest": float(eigs[0])})
    print(f"wrote {path}")
    return EXIT_OK


def cmd_kernel(run: dict, outdir: Path) -> int:
    t, x, y = run["grids"]
    model, bc = run["model"], run["bc"]
    res = _resolution(run, bc, model.k, model.x(), propagator.kernel_span(t, x, y))
    grid = propagator.build_kernel_grid(res, t, x, y)
    _all_finite("the kernel grid", grid.values)
    formats = run["outputs"]["formats"]
    if "csv" in formats:
        grid.to_csv(outdir / "kernel.csv")
    if "binary" in formats:
        grid.to_binary(outdir / "kernel")
    _write_sidecar(outdir / "kernel.sidecar.json", "kernel", run,
                   {"kernel_meta": grid.meta})
    print(f"wrote kernel grid {grid.values.shape} to {outdir}")
    return EXIT_OK


def cmd_evolve(run: dict, outdir: Path) -> int:
    model, bc = run["model"], run["bc"]
    t_max = run["evolve"]["t_max"]
    x = model.x()
    res = _resolution(run, bc, model.k, x, t_max + 2.0 * model.x_max)
    t = np.linspace(0.0, t_max, run["evolve"]["steps"])
    f = _gaussian_source(run["source"], t, x)
    field = propagator.apply_retarded(res, f, t)
    _all_finite("the field", field)
    residual = verify.bc_residual(field, t, x, bc, k=model.k)
    formats = run["outputs"]["formats"]
    if "csv" in formats:
        propagator.write_grid_csv(outdir / "field.csv", "t,x,value", (t, x),
                                  field)
    if "binary" in formats:
        field.astype("<f8", copy=False).tofile(outdir / "field.bin")
    _write_sidecar(outdir / "field.sidecar.json", "evolve", run,
                   {"bc_residual": residual,
                    "axes": {"t": [float(t[0]), float(t[-1]), int(t.size)],
                             "x": [0.0, model.x_max, int(x.size)]},
                    "quadrature": res.quadrature})
    print(f"wrote field {field.shape} to {outdir}; bc residual {residual:.3e}")
    return EXIT_OK


def _verify_greens(run, tol):
    x = np.linspace(0.0, 30.0, 3000)
    rng = np.random.default_rng(7)
    residuals = []
    for _ in range(20):
        x0, s0 = rng.uniform(2, 8), rng.uniform(0.5, 1.5)
        x1, s1 = rng.uniform(2, 8), rng.uniform(0.5, 1.5)
        f1 = np.exp(-((x - x0) ** 2) / (2 * s0 ** 2)) + rng.uniform(0, 1) * np.exp(-x)
        f2 = np.exp(-((x - x1) ** 2) / (2 * s1 ** 2)) + rng.uniform(0, 1) * x * np.exp(-x)
        residuals.append(triple.greens_identity_residual(f1, f2, run["model"].k, x))
    worst = float(np.max(residuals))  # a NaN residual fails the check
    return {"residual": worst, "tol": tol, "passed": bool(worst <= tol)}


def _verify_spectrum(run, tol):
    # Robin -1 at k = 0 whatever the config, recorded as such
    bc = BoundaryCondition.robin(-1.0)
    roots = triple.negative_spectrum_roots(bc, -3.0)
    sysm = oracle.assemble_fd(bc, 0.0, 1024, 20.0)
    low = float(oracle.fd_spectrum(sysm, 1)[0])
    ok = len(roots) == 1 and abs(roots[0] + 1.0) <= 1e-3 and abs(low + 1.0) <= tol
    return {"bc": bc.describe(0.0), "roots": roots, "fd_lowest": low, "tol": tol,
            "passed": bool(ok)}


def _verify_kernel_images(run, tol):
    # the configured condition at k = 0, else Dirichlet; multipliers enter
    # the oracle as the Robin condition they reduce to
    bc = run["bc"]
    if run["model"].k != 0.0:
        bc = BoundaryCondition.dirichlet()
    rng = np.random.default_rng(11)
    t = rng.uniform(0.05, 2.0, 100)
    x = rng.uniform(0.2, 3.0, 100)
    y = rng.uniform(0.2, 3.0, 100)
    guard = 0.05
    keep = (np.abs(t - np.abs(x - y)) > guard) & (np.abs(t - (x + y)) > guard)
    t, x, y = t[keep], x[keep], y[keep]
    res = _resolution(run, bc, 0.0, np.linspace(0, 10, 64),
                      propagator.kernel_span(t, x, y))
    images_bc = bc if res.alpha is None else BoundaryCondition.robin(res.alpha)
    K = propagator.causal_kernel(res, t, x, y)
    Im = oracle.images_kernel(t, x, y, images_bc)
    worst = float(np.max(np.abs(K - Im)))
    return {"bc": bc.describe(0.0), "max_err": worst, "points": int(t.size),
            "quadrature": res.quadrature, "tol": tol, "passed": worst <= tol}


def _verify_causality(run, tol):
    model, bc, k = run["model"], run["bc"], run["model"].k
    if k != 0.0:
        bc, k = BoundaryCondition.robin(-1.0), 0.0
    t = np.linspace(0.0, 1.5, 9)
    x = np.linspace(0.3, 3.5, 12)
    res = _resolution(run, bc, k, model.x(), propagator.kernel_span(t, x, x))
    grid = propagator.build_kernel_grid(res, t, x, x)
    report = verify.causality_report(grid, tol=tol)
    return {"bc": bc.describe(k), "max_acausal": report["max_acausal"],
            "quadrature": res.quadrature, "tol": tol, "passed": report["passed"]}


def _verify_bc(run, tol):
    t = np.linspace(0.0, 4.0, 320)
    model, bc = run["model"], run["bc"]
    res = _resolution(run, bc, model.k, model.x(), float(t[-1]) + 2.0 * model.x_max)
    f = _gaussian_source({**run["source"], "t0": 1.6, "sigma_t": 0.25,
                          "x0": 2.5, "sigma_x": 0.4}, t, model.x())
    field = propagator.apply_retarded(res, f, t)
    override = run["verify"]["bc_check_alpha_override"]
    check_bc = bc if override is None else BoundaryCondition.robin(override)
    residual = verify.bc_residual(field, t, model.x(), check_bc, k=model.k)
    return {"residual": residual, "quadrature": res.quadrature, "tol": tol,
            "passed": residual <= tol}


def _verify_energy(run, tol):
    model, bc = run["model"], run["bc"]
    sysm = oracle.assemble_fd(bc, model.k, model.grid, model.x_max)
    x = model.x()
    u0 = np.exp(-((x - 0.35 * model.x_max) ** 2) / (2 * 0.5 ** 2))
    dt = 0.4 * sysm.dx
    times, U, Udot = oracle.leapfrog(sysm, u0, np.zeros_like(u0), dt, 6.0,
                                     sample_stride=8)
    report = verify.energy_report(times, U, Udot, sysm.dx, bc, k=model.k)
    return {"drift": report.drift, "tol": tol, "passed": report.drift <= tol}


# check name -> (runner, tolerance before tol_scale), in report order
_VERIFY_CHECKS = {
    "greens_identity": (_verify_greens, 1e-6),
    "spectrum": (_verify_spectrum, 1e-3),
    "kernel_images": (_verify_kernel_images, 1e-3),
    "causality": (_verify_causality, 1e-3),
    "bc_residual": (_verify_bc, 1e-2),
    "energy": (_verify_energy, 1e-3),
}


def cmd_verify(run: dict, outdir: Path) -> int:
    scale = run["verify"]["tol_scale"]
    checks = {}
    for name in run["verify"]["checks"]:
        runner, tol = _VERIFY_CHECKS[name]
        checks[name] = runner(run, tol * scale)
        status = "PASS" if checks[name]["passed"] else "FAIL"
        print(f"{status}  {name}")
    payload = {"passed": all(c["passed"] for c in checks.values()),
               "checks": checks, "config": run["config"]}
    verify.emit_report(outdir / "verify.json", payload)
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED


# command -> its handler's name, in help order.  The handler is looked up
# by name when it runs, so a wrapped ``cmd_*`` attribute is the one called.
_COMMANDS = {
    "spectrum": "cmd_spectrum",
    "kernel": "cmd_kernel",
    "evolve": "cmd_evolve",
    "verify": "cmd_verify",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfwave",
        description="Green operators for the wave equation on the half line")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON configuration file")
    parser.add_argument("--out", type=str, default=None,
                        help="output directory (overrides outputs.dir)")
    parser.add_argument("command", choices=list(_COMMANDS))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    handler = _COMMANDS[args.command]
    try:
        # made before validation, and before parsing when --out names it:
        # a rejected config leaves it empty
        outdir = args.out and _outdir(args.out)
        cfg = parse_config(args.config)
        outdir = outdir or _outdir(_outputs(cfg)["dir"])
        # an overflow inside the numerics is reported once, by the
        # non-finite backstop before any write, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            run = settings(cfg)
            return globals()[handler](run, outdir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
