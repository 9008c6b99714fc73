"""Property tests: config parsing, the command line on generated configs
and snapshots, snapshot persistence, the vector step, the scale
covariance of vector runs and the quadratic seed of the scalar stepper on
generated inputs."""

from contextlib import contextmanager, redirect_stderr
import io
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from equiflow import evolve_llg
from equiflow.cli_io import _KEYS, load_snapshot, main, parse_config, save_snapshot
from equiflow.errors import ConfigError
from equiflow.evolve_llg import (
    FlowConfig,
    SphereMap,
    _midpoint_terms,
    _pa_derivative,
    _quadratic_seed,
    _VectorWork,
    beta_to_map,
    run_vector,
    stationary_angle,
    step_vector,
)
from equiflow.harmonic_family import Mu, _dot3, _norm3, degree, h_profile, pa_apply
from equiflow.radial_grid import build_grid, cumint_dr, deriv_r

# derandomized so that tier-1 runs the same examples every time
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

VALUES = st.one_of(
    st.text(max_size=12),
    st.floats().map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.lists(st.floats(), max_size=3).map(lambda xs: ",".join(map(repr, xs))),
)
LINES = st.one_of(
    st.text(max_size=30),
    st.tuples(st.sampled_from(sorted(_KEYS)), VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
)


@PROPERTY
@given(st.lists(LINES, max_size=8))
def test_parse_config_fails_only_with_config_error(lines):
    try:
        cfg = parse_config("\n".join(lines))
    except ConfigError:
        return
    assert cfg.a != 0 and cfg.n >= 16


# per config key: valid values, then boundary and absurd ones; n, records
# and t_points stay small, and t_end, dt0, dt_max and ramp keep a valid
# run to a few hundred steps on a small grid
CLI_VALUES = {
    "m": (["2", "3", "4"], ["1", "0", "-2", "400", "2.5", "x"]),
    "a_re": (["1.0", "0.0", "0.5"], ["-1", "1e308", "nan", "1e-300"]),
    "a_im": (["0.0", "1.0", "-0.7"], ["1e308", "-1e-300"]),
    "rho_min": (["-6.0", "-4", "-3"], ["-400", "-310", "5", "-inf", "-300"]),
    "rho_max": (["6.0", "10", "12"], ["400", "-200", "-5", "300"]),
    "n": (["16", "32", "64"], ["15", "0", "-3", "64.5", "17"]),
    "dt0": (["1e-3", "0.01", "0.002"], ["0.5", "1e-300", "0", "-1e-3", "1e300"]),
    "dt_max": (["0", "1e-3", "0.01"], ["1e-300", "-1", "1e300"]),
    "ramp": (["0", "0.5", "1"], ["1e300", "-0.1", "1e-300"]),
    "t_end": (["0.01", "0.05", "0.02"], ["0", "-1", "1e300", "1e-300"]),
    "t_record_min": (["0", "1e-3", "0.005"], ["0.05", "-1", "1e300", "1e-300"]),
    "records": (["2", "3", "4"], ["1", "0", "-1"]),
    "family": (["none", "log_drift", "ln_ln_oscillation", "mixed"], ["bogus", ""]),
    "kappa": (["0", "0.8", "-1.2"], ["1e6", "-1e300", "1e-300"]),
    "lam": (["1", "0.5", "2"], ["0", "-1", "1e300"]),
    "r1": (["2.718281828", "2", "5"], ["1", "0.5", "1e300"]),
    "s0": (["1", "0.5", "2"], ["0", "-1", "1e300", "1e-300", "1e20"]),
    "cut_width": (["1", "0.5", "2"], ["0", "-1", "1e300", "1e-300"]),
    "delta": (["0", "0.02", "0.1"], ["-0.1", "1e300", "1e-300", "10"]),
    "seed": (["0", "7", "3"], ["-1", "99999999999999999999"]),
    "t_min": (["10", "1", "100"], ["0", "1e300", "1e-300"]),
    "t_max": (["1e5", "1000", "1e4"], ["1e300", "10"]),
    "t_points": (["2", "8", "12"], ["1", "0", "-4"]),
    "sweep_kappa": (["0.5", "0.5,-0.8", "-1"], [",", "nan", "1e300", "0"]),
    "sweep_lam": (["1", "0.5,2", "3"], ["0", "-1", "1e300"]),
}
# every command starts from a small grid and a short run, and predict and
# sweep from a tail family unless they read a snapshot
CLI_BASE = {
    "n": "48", "rho_min": "-6.0", "rho_max": "10.0", "t_end": "0.02", "records": "3", "t_points": "8",
}
CLI_FAMILY = {
    "simulate": {},
    "decompose": {},
    "predict": {"family": "log_drift", "kappa": "0.8"},
    "sweep": {"family": "log_drift", "sweep_kappa": "0.5,-0.8"},
}
SNAPSHOT_TOKENS = [
    "nan", "inf", "1e400", "x", "#", "# n = 17", "# m = 1", "# m = 3", "0 0 0", "1 0 0 0 0", "1e-300",
]


def _snapshot_lines(m: int) -> list[str]:
    """The lines of a stored snapshot on rho in [-6, 6], n = 32: the
    great-circle m = 2 profile, or the m = 3 profile h[mu] off the circle."""
    grid = build_grid(-6.0, 6.0, 32)
    if m == 2:
        vmap = SphereMap(beta_to_map(stationary_angle(0.0, grid, 2)), 2)
    else:
        vmap = SphereMap(h_profile(Mu(s=1.0, alpha=0.3, m=m), grid).h, m)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.dat"
        save_snapshot(path, vmap, grid)
        return path.read_text(encoding="utf-8").splitlines()


SNAPSHOTS = [_snapshot_lines(2), _snapshot_lines(3)]


@st.composite
def cli_inputs(draw):
    """Config keys, up to six valid values and up to two boundary or
    absurd ones, and the text of a snapshot or None: one of SNAPSHOTS with
    up to two lines deleted, doubled, replaced by a token, or with one of
    their fields replaced by a token."""
    keys = sorted(CLI_VALUES)
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=6))
    cfg = {key: draw(st.sampled_from(CLI_VALUES[key][0])) for key in chosen}
    for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=2)):
        cfg[key] = draw(st.sampled_from(CLI_VALUES[key][1]))
    if not draw(st.booleans()):
        return cfg, None
    lines = list(draw(st.sampled_from(SNAPSHOTS)))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        token = draw(st.sampled_from(SNAPSHOT_TOKENS))
        edit = draw(st.sampled_from(["delete", "double", "line", "field"]))
        if edit == "delete":
            del lines[i]
        elif edit == "double":
            lines.insert(i, lines[i])
        elif edit == "line":
            lines[i] = token
        elif lines[i].split():
            parts = lines[i].split()
            parts[draw(st.integers(0, len(parts) - 1))] = token
            lines[i] = " ".join(parts)
    return cfg, "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", ["simulate", "decompose", "predict", "sweep"])
@settings(PROPERTY, max_examples=60)
@example(inputs=({"delta": "1e300"}, None))
@example(inputs=({"delta": "1e300"}, "\n".join(SNAPSHOTS[1]) + "\n"))
@example(inputs=({"delta": "0.02", "a_im": "1e308"}, None))
@example(inputs=({"dt0": "0.5", "a_re": "1e308"}, None))
@given(inputs=cli_inputs())
def test_cli_ends_in_exit_0_2_or_3(command, inputs):
    """main on generated configs and snapshots returns 0, 2 or 3 and never
    raises, which would end the command line in a traceback; a command
    that fails prints its error line, and no command warns. delta = 1e300
    overflowed the renormalization of the perturbed map and raised
    ValueError from the unit-sphere check of run_vector; a_im = 1e308
    overflowed the start terms of a vector run, and a_re = 1e308
    a1 e^{-2 rho} of a scalar run, each warning next to its exit 3."""
    cfg, snapshot = inputs
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = {**CLI_BASE, **(CLI_FAMILY[command] if snapshot is None else {}), **cfg}
        if snapshot is not None:
            (tmp / "state.dat").write_text(snapshot, encoding="utf-8")
            cfg["snapshot"] = str(tmp / "state.dat")
        text = "".join(f"{key} = {value}\n" for key, value in cfg.items())
        (tmp / "run.cfg").write_text(text, encoding="utf-8")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([command, "--config", str(tmp / "run.cfg"), "--out", str(tmp / "out")])
    assert code in (0, 2, 3), text
    if code:
        assert f"code={code}: " in err.getvalue(), text
    assert [str(w.message) for w in caught] == [], text


UNIT = st.tuples(*(st.floats(-1.0, 1.0),) * 3).filter(lambda x: 0.1 < math.hypot(*x))


@PROPERTY
@given(
    st.integers(16, 48).flatmap(lambda n: st.lists(UNIT, min_size=n, max_size=n)),
    st.integers(2, 5),
    st.floats(-6.0, 0.0),
    st.floats(0.5, 8.0),
)
def test_snapshot_round_trip_is_exact(rows, m, rho_min, span):
    grid = build_grid(rho_min, rho_min + span, len(rows))
    v = np.array(rows)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.dat"
        save_snapshot(path, SphereMap(v, m), grid)
        loaded, lgrid = load_snapshot(path)
    assert lgrid is grid
    assert loaded.m == m
    assert np.array_equal(loaded.v, v)


# unit rows whose text is hard to read back: signed zeros, subnormals,
# components near 1e-300 and a third component 1 ulp from +-1
ONE_ULP_BELOW = math.nextafter(1.0, 0.0)
EDGE_ROWS = [
    (0.0, -0.0, 1.0),
    (-0.0, -0.0, -1.0),
    (5e-324, -5e-324, 1.0),
    (-2.2250738585072014e-308, 4e-320, -1.0),
    (1e-300, -3.3e-300, 1.0),
    (math.sqrt(1.0 - ONE_ULP_BELOW**2), -0.0, ONE_ULP_BELOW),
    (-0.0, -math.sqrt(1.0 - ONE_ULP_BELOW**2), -ONE_ULP_BELOW),
    (1.0, 7e-301, -0.0),
]
EDGE_UNIT = st.one_of(
    st.sampled_from(EDGE_ROWS).flatmap(lambda row: st.permutations(row).map(tuple)),
    UNIT.map(lambda x: tuple(np.array(x) / np.linalg.norm(x))),
)


@PROPERTY
@given(
    st.integers(16, 40).flatmap(lambda n: st.lists(EDGE_UNIT, min_size=n, max_size=n)),
    st.integers(2, 5),
    st.floats(-8.0, 0.0),
)
def test_snapshot_round_trip_is_bit_exact_on_edge_values(rows, m, rho_min):
    """save_snapshot then load_snapshot gives the stored map back bit for
    bit, the sign of every zero included, on rows of edge values."""
    v = np.array(rows)
    assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() <= 1e-15
    grid = build_grid(rho_min, rho_min + 12.0, len(rows))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.dat"
        save_snapshot(path, SphereMap(v, m), grid)
        loaded, lgrid = load_snapshot(path)
    assert lgrid is grid and loaded.m == m
    assert loaded.v.tobytes() == v.tobytes()


VECTOR = st.tuples(*(st.floats(-2.0, 2.0),) * 3)


@PROPERTY
@given(
    st.lists(
        st.tuples(VECTOR.filter(lambda x: math.hypot(*x) > 0.3), VECTOR), min_size=1, max_size=8
    ),
    st.sampled_from([1.0, 1j, 0.6 + 0.8j]),
)
def test_projection_derivative_matches_central_differences(pairs, a):
    """The derivative blocks of the midpoint Jacobian are those of
    x -> P_a(x/|x|) w, also at x off the unit sphere, where the midpoint
    iterates and, without renormalization, the maps themselves lie."""
    x, w = (np.array(part) for part in zip(*pairs))
    a = complex(a)
    radius = np.linalg.norm(x, axis=1, keepdims=True)
    deriv = _pa_derivative(x / radius, radius, w, a)
    h = 1e-6
    for col in range(3):
        plus, minus = x.copy(), x.copy()
        plus[:, col] += h
        minus[:, col] -= h
        values = [pa_apply(y / np.linalg.norm(y, axis=1, keepdims=True), w, a) for y in (plus, minus)]
        assert np.max(np.abs(deriv[:, :, col] - (values[0] - values[1]) / (2 * h))) <= 1e-7


# finite floats of every size, subnormals included, and the special values
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -2e-310]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def component_pairs(draw):
    """(a, b): b of shape (n, 3) and a of shape (n, 3) or (3, n, 3), the
    broadcast P_a blocks take, with entries from ENTRIES."""
    n = draw(st.integers(1, 12))
    b = draw(hnp.arrays(np.float64, (n, 3), elements=ENTRIES))
    a = draw(hnp.arrays(np.float64, draw(st.sampled_from([(n, 3), (3, n, 3)])), elements=ENTRIES))
    return a, b


@settings(derandomize=True, deadline=None, max_examples=300)
@given(component_pairs())
def test_nodewise_kernels_match_numpy_bytes(pair):
    """_dot3 and _norm3 equal numpy's axis sum and norm byte for byte:
    signed zeros, infinities, NaNs and subnormals included."""
    a, b = pair
    with np.errstate(all="ignore"):
        for x, y in ((a, b), (b, a)):
            assert _dot3(x, y).tobytes() == np.sum(x * y, axis=-1).tobytes()
        for x in (a, b):
            assert _norm3(x).tobytes() == np.linalg.norm(x, axis=-1).tobytes()


STEP_GRID = build_grid(-4.0, 4.0, 64)


@st.composite
def step_inputs(draw):
    """A tangent bump of size up to 0.05 on a harmonic profile, a flow
    coefficient on the unit quarter circle and a step size."""
    m = draw(st.integers(2, 4))
    mu = Mu(s=math.exp(draw(st.floats(-1.0, 1.0))), alpha=draw(st.floats(-3.0, 3.0)), m=m)
    prof = h_profile(mu, STEP_GRID)
    amp = draw(st.floats(0.0, 0.05))
    center, width = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.3, 1.5))
    c_re, c_im = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    bump = amp * np.exp(-(((STEP_GRID.rho - center) / width) ** 2))
    v = prof.h + bump[:, None] * (c_re * prof.f.real + c_im * prof.f.imag)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    phase = draw(st.floats(0.0, math.pi / 2))
    a = complex(math.cos(phase), math.sin(phase))
    return v, m, a, draw(st.floats(1e-4, 2e-3))


@contextmanager
def tight_chord():
    """A tight chord tolerance and a cap to match, so that the step is the
    midpoint fixed point to near rounding. Set through MonkeyPatch.context
    in the test body: hypothesis rejects the function-scoped monkeypatch
    fixture."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evolve_llg, "MIDPOINT_TOL", 1e-14)
        patch.setattr(evolve_llg, "MIDPOINT_CAP", 80)
        yield


def first_step(v, dt, m, config):
    """step_vector on STEP_GRID as the first step of a run: a new
    _VectorWork and the _midpoint_terms of v."""
    terms = _midpoint_terms(v, STEP_GRID, m, config.a)
    return step_vector(v, 0.0, dt, STEP_GRID, m, config, _VectorWork(STEP_GRID, m), terms)


@PROPERTY
@given(step_inputs())
def test_step_stays_on_the_sphere(inputs):
    v, m, a, dt = inputs
    with tight_chord():
        v_new = first_step(v, dt, m, FlowConfig(a=a, dt0=dt))
    assert np.max(np.abs(np.linalg.norm(v_new, axis=1) - 1.0)) <= 1e-12


@PROPERTY
@given(step_inputs(), st.floats(0.0, 2 * math.pi))
def test_step_commutes_with_rotation_about_e3(inputs, theta):
    v, m, a, dt = inputs
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    cfg = FlowConfig(a=a, dt0=dt)
    with tight_chord():
        rotated_first = first_step(v @ rot.T, dt, m, cfg)
        rotated_after = first_step(v, dt, m, cfg) @ rot.T
    assert np.max(np.abs(rotated_first - rotated_after)) <= 1e-11


HEAT_GRID = build_grid(-6.0, 10.0, 768)


@st.composite
def heat_inputs(draw):
    """A smooth tangent bump of size up to 0.05 on a harmonic profile
    resolved well enough on HEAT_GRID that its integral degree is within
    1e-9 of the boundary degree, and a step size."""
    m = draw(st.integers(2, 3))
    mu = Mu(s=math.exp(draw(st.floats(-0.5, 0.5))), alpha=draw(st.floats(-3.0, 3.0)), m=m)
    prof = h_profile(mu, HEAT_GRID)
    amp = draw(st.floats(0.0, 0.05))
    center, width = draw(st.floats(-1.5, 1.5)), draw(st.floats(0.5, 1.5))
    c_re, c_im = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    bump = amp * np.exp(-(((HEAT_GRID.rho - center) / width) ** 2))
    v = prof.h + bump[:, None] * (c_re * prof.f.real + c_im * prof.f.imag)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v, m, draw(st.floats(1e-3, 4e-3))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(heat_inputs())
def test_heat_flow_dissipates_and_keeps_degree(inputs):
    """Five heat-flow steps never raise the scheme energy, and the bulk
    degree integral (m/2) int dv3/dr dr, by cumint_dr, stays on the
    boundary degree the pinned ends fix."""
    v, m, dt = inputs
    t_end = 5 * dt
    series = run_vector(
        v, HEAT_GRID, m, FlowConfig(a=1.0, dt0=dt), t_end, record_times=np.linspace(0, t_end, 6)
    )
    assert series.steps == 5
    assert np.all(np.diff(series.energy) <= 1e-12 * series.energy[0])
    target = degree(v, HEAT_GRID, m)
    for snap in series.v:
        assert degree(snap, HEAT_GRID, m) == target
        bulk = 0.5 * m * float(cumint_dr(deriv_r(snap[:, 2], HEAT_GRID), HEAT_GRID)[-1])
        assert abs(bulk - target) <= 1e-8


WIDE_GRID = build_grid(-8.0, 16.0, 1024)


@st.composite
def scale_shifts(draw):
    """A shift of j nodes and the place and width of a tangent bump of
    size 0.1 on the m = 3 profile at s = 1. The centre lies in
    [-0.5, 3], where the heat flow moves the bump by t = 0.5 but has not
    carried it to the inner pinned end, at which the plain and the
    shifted run hold different radii."""
    return draw(st.integers(1, 100)), draw(st.floats(-0.5, 3.0)), draw(st.floats(0.3, 1.0))


@settings(PROPERTY, max_examples=8)
@example((50, 0.5, 0.6))
@given(scale_shifts())
def test_scale_covariance(shift):
    """Shifting the data by j nodes and rescaling time by e^{2 j drho}
    reproduces the shifted evolution on the common interior: on the log
    grid a shift by j nodes is the scaling r -> e^{j drho} r."""
    j, centre, width = shift
    # the bump's support, five widths each side, stays more than j nodes
    # from both ends, past the pinned and the uncompared nodes
    drho = WIDE_GRID.drho
    assert WIDE_GRID.rho_min + (j + 3) * drho < centre - 5.0 * width
    assert centre + 5.0 * width < WIDE_GRID.rho_max - (j + 8) * drho
    prof = h_profile(Mu(s=1.0, alpha=0.0, m=3), WIDE_GRID)
    bump = 0.1 * np.exp(-(((WIDE_GRID.rho - centre) / width) ** 2))
    v0 = prof.h + bump[:, None] * prof.f.real
    v0 /= np.linalg.norm(v0, axis=1, keepdims=True)
    lam2 = math.exp(2 * j * drho)
    v0s = np.roll(v0, j, axis=0)
    v0s[:j] = v0[0]
    plain = run_vector(
        v0, WIDE_GRID, 3, FlowConfig(a=1.0, dt0=0.005), t_end=0.5, record_times=[0.5]
    )
    moved = run_vector(
        v0s, WIDE_GRID, 3, FlowConfig(a=1.0, dt0=0.005 * lam2), t_end=0.5 * lam2,
        record_times=[0.5 * lam2],
    )
    diff = moved.v[-1][3 + j : -8] - plain.v[-1][3 : -8 - j]
    assert np.max(np.abs(diff)) < 1e-9


EPS = np.finfo(float).eps
# in steps of 1e-3, so that no term of the quadratic underflows
COEFF = st.integers(-2000, 2000).map(lambda k: k / 1000)


@st.composite
def quadratic_histories(draw):
    """Three accepted angles on a quadratic in time, per node
    a + b x + c x^2 with x the time from the latest over h1 + h2, the
    end nodes held constant at -pi/2 and pi/2; the steps h2 then h1
    between them, with h1/h2 in [1e-6, 1e2]; the next step dt, from 1e-6
    to 2 times the longer of them; and the quadratic's value dt past the
    latest angle, with the size of its terms over the four times."""
    n = draw(st.integers(3, 24))
    a, b, c = (draw(hnp.arrays(float, n, elements=COEFF)) for _ in range(3))
    a[[0, -1]] = -math.pi / 2, math.pi / 2
    b[[0, -1]] = c[[0, -1]] = 0.0
    h2 = 10.0 ** draw(st.floats(-4.0, 3.0))
    h1 = h2 * 10.0 ** draw(st.floats(-6.0, 2.0))
    dt = max(h1, h2) * 10.0 ** draw(st.floats(-6.0, math.log10(2.0)))
    span = h1 + h2
    angles = [a + b * x + c * x * x for x in (dt / span, 0.0, -h1 / span, -1.0)]
    size = np.abs(a) + np.abs(b) * (1.0 + dt / span) + np.abs(c) * (1.0 + dt / span) ** 2
    return angles, h1, h2, dt, size


@PROPERTY
@example(([np.array([-math.pi / 2, 1.0, math.pi / 2])] * 4, 1e-6, 1.0, 2.0, np.full(3, 2.0)))
@given(quadratic_histories())
def test_quadratic_seed_reproduces_quadratic_histories(history):
    """The scalar stepper's seed reproduces any angle history quadratic in
    time to roundoff, bounded by the Lebesgue constant of the three-point
    extrapolation to dt times the size of the quadratic's terms, for any
    ratio of the steps the record clip makes; and it keeps the constant
    Dirichlet end values bit for bit."""
    (target, beta, prev, prev2), h1, h2, dt, size = history
    seed = _quadratic_seed(beta, prev, prev2, dt, h1, h2)
    # the Lagrange weights of beta, prev and prev2 at dt past beta
    lebesgue = (
        (dt + h1) * (dt + h1 + h2) / (h1 * (h1 + h2))
        + dt * (dt + h1 + h2) / (h1 * h2)
        + dt * (dt + h1) / ((h1 + h2) * h2)
    )
    assert np.all(np.abs(seed - target) <= 16.0 * EPS * lebesgue * size)
    assert seed[[0, -1]].tobytes() == beta[[0, -1]].tobytes()
