"""Property-based checks of the causal kernel on random tensor grids, of the
space-time appliers and the analyze/synthesize round trip, of the
tridiagonal FD oracle against dense linear algebra, and of the CLI's config
validation."""

import numpy as np
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from halfwave import cli
from halfwave.model import BoundaryCondition
from halfwave.oracle import assemble_fd, fd_spectrum
from halfwave.propagator import (apply_advanced, apply_causal, apply_retarded,
                                 build_kernel_grid, causal_kernel)
from halfwave.spectral import resolve

X_GRID = np.linspace(0.0, 12.0, 64)


def axis(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=6).map(np.array)


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(-2.0, 2.0), t=axis(-2.0, 2.0), x=axis(0.05, 4.0),
       y=axis(0.05, 4.0))
def test_robin_kernel_grid(alpha, t, x, y):
    res = resolve(BoundaryCondition.robin(alpha), 0.0, X_GRID, nodes=400)
    grid = build_kernel_grid(res, t, x, y).values
    pointwise = causal_kernel(res, *np.meshgrid(t, x, y, indexing="ij"))
    assert np.max(np.abs(grid - pointwise)) <= 1e-12
    mirrored = build_kernel_grid(res, -t, x, y).values
    assert np.max(np.abs(mirrored + grid)) <= 1e-12
    swapped = build_kernel_grid(res, t, y, x).values
    assert np.max(np.abs(swapped - np.swapaxes(grid, 1, 2))) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(alpha=st.floats(-2.0, 2.0), k=st.floats(0.0, 2.0),
       grid=st.integers(16, 64))
def test_robin_fd_spectrum_matches_dense(alpha, k, grid):
    sysm = assemble_fd(BoundaryCondition.robin(alpha), k, grid, 10.0)
    dense = scipy.linalg.eigvalsh(sysm.matrix)
    assert np.max(np.abs(fd_spectrum(sysm) - dense)) <= 1e-13
    # a count locates each eigenvalue on Sturm counts instead
    assert np.max(np.abs(fd_spectrum(sysm, 3) - dense[:3])) <= 1e-13


# Robin alpha in [-2, 2] or the dynamical condition, at a transverse k
BCS = st.one_of(st.floats(-2.0, 2.0).map(BoundaryCondition.robin),
                st.just(BoundaryCondition.wentzell_laplace()))


def bump(x, center, width):
    return np.exp(-((x - center) ** 2) / (2 * width ** 2))


@settings(max_examples=25, deadline=None)
@given(bc=BCS, k=st.floats(0.0, 2.0), t0=st.floats(1.3, 1.7),
       x0=st.floats(3.0, 6.0))
def test_retarded_minus_advanced_is_causal(bc, k, t0, x0):
    res = resolve(bc, k, X_GRID, nodes=400)
    t = np.linspace(0.0, 3.0, 40)
    f = bump(t, t0, 0.2)[:, None] * bump(X_GRID, x0, 0.8)[None, :]
    cau = apply_causal(res, f, t)
    diff = apply_retarded(res, f, t) - apply_advanced(res, f, t)
    assert np.max(np.abs(diff - cau)) <= 1e-12 * np.max(np.abs(cau))


@settings(max_examples=25, deadline=None)
@given(bc=BCS, k=st.floats(0.0, 2.0), x0=st.floats(4.5, 6.0))
def test_analyze_synthesize_round_trip(bc, k, x0):
    # the xi grid (spacing 0.04) resolves the Robin family's transition at
    # xi ~ |alpha| only for |alpha| well above the spacing (the unresolved
    # case is the xfail in test_spectral.py); the bump is ~1e-7 at x = 0, so
    # the band limit's boundary residual stays below the tolerance
    assume(bc.alpha is None or bc.alpha == 0.0 or abs(bc.alpha) >= 0.3)
    x = np.linspace(0.0, 12.0, 256)
    res = resolve(bc, k, x, nodes=1000)
    f = bump(x, x0, 0.8)
    rec = res.synthesize(*res.analyze(f, f[0]))
    if res.extended:
        rec, rec_b = rec
        assert abs(rec_b - f[0]) <= 1e-6
    assert np.max(np.abs(rec - f)) <= 1e-6


def node_paths(node, path=()):
    # every key path and list index below the root of a config
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


CONFIG_PATHS = list(node_paths(cli.default_config()))
ODD_VALUES = [None, True, "x", float("nan"), float("inf"), float("-inf"), -1, 0,
              2.5, [], {}]


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(CONFIG_PATHS), value=st.sampled_from(ODD_VALUES))
def test_settings_accepts_or_rejects_any_value(path, value):
    cfg = cli.default_config()
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        cli.settings(cfg)
    except cli.ConfigError:
        pass


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NEGATIVE = st.floats(max_value=0.0, exclude_max=True, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# grid endpoints, lengths and xi_max small enough that the largest phase
# of every window, xi_max times its span (max|t| + max|x| + max|y|, and
# t_max + 2 x_max), is a double
SPAN_SAFE = st.floats(min_value=-1e150, max_value=1e150)
LENGTH = st.floats(min_value=0.0, exclude_min=True, max_value=1e150)
# a Gaussian width w with 2 w^2 a normal double
WIDTH = st.floats(min_value=1.1e-154, max_value=9e153)


def count(lo, hi):
    # a whole count, written as a JSON integer or as an integral float
    return st.integers(lo, hi).flatmap(lambda n: st.sampled_from([n, float(n)]))


BC_SECTIONS = st.one_of(
    st.sampled_from([{"kind": "dirichlet"}, {"kind": "neumann"},
                     {"kind": "wentzell"}]),
    FINITE.map(lambda alpha: {"kind": "robin", "alpha": alpha}),
    st.lists(FINITE, min_size=1, max_size=4).map(
        lambda poly: {"kind": "multiplier", "poly": poly}))


@st.composite
def valid_configs(draw):
    n = draw(count(0, 3))
    bc = draw(BC_SECTIONS)
    # the dynamical condition's bc check takes second time differences
    least_steps = 3 if bc["kind"] == "wentzell" else 2
    axis = st.tuples(SPAN_SAFE, SPAN_SAFE, count(1, 50)).map(list)
    checks = st.one_of(st.just("all"),
                       st.lists(st.sampled_from(list(cli._VERIFY_CHECKS))))
    return {
        "model": {"n": n, "k": draw(FINITE) if n else 0.0,
                  "x_max": draw(LENGTH), "grid": draw(count(16, 10 ** 6))},
        "bc": bc,
        "quadrature": {"xi_max": draw(LENGTH),
                       "nodes": draw(st.none() | count(64, 10 ** 6))},
        "grids": {name: draw(axis) for name in "txy"},
        "scan": {"lambda_min": draw(NEGATIVE), "lambda_max": draw(FINITE),
                 "steps": draw(count(0, 10 ** 6)), "k_max": draw(POSITIVE)},
        "source": {"profile": "gaussian", "amplitude": draw(FINITE),
                   "t0": draw(FINITE), "sigma_t": draw(WIDTH),
                   "x0": draw(FINITE), "sigma_x": draw(WIDTH)},
        "evolve": {"t_max": draw(LENGTH), "steps": draw(count(least_steps, 10 ** 6))},
        "verify": {"checks": draw(checks), "tol_scale": draw(POSITIVE),
                   "bc_check_alpha_override": draw(st.none() | FINITE)},
        "outputs": {"dir": draw(st.text(min_size=1)),
                    "formats": draw(st.lists(st.sampled_from(["csv", "binary"])))},
    }


def comparable(run):
    # the checked values, with the boundary symbol and the axes made
    # comparable; "config" is the input record, which the merge fills in
    bc = run["bc"]
    symbol = bc.symbol(0.5) if bc.symbol else None
    return {**run, "config": None, "bc": (bc.kind, bc.alpha, symbol),
            "grids": [axis.tolist() for axis in run["grids"]]}


@settings(max_examples=100, deadline=None)
@given(cfg=valid_configs())
def test_settings_survive_the_config_round_trip(tmp_path_factory, cfg):
    path = tmp_path_factory.getbasetemp() / "round_trip.json"
    path.write_text(cli.emit_config(cfg))
    assert comparable(cli.settings(cli.parse_config(path))) == \
        comparable(cli.settings(cfg))
