"""Configuration, orchestration, persistence, and reporting.

The command line front end reads a flat `key = value` config file and
dispatches one of four subcommands:

  simulate    evolve initial data, fit the harmonic parameters at each
              record time, and write the observable series as CSV plus a
              final snapshot
  decompose   split a stored snapshot into harmonic parameters, residual
              coordinate, and gauge field, written per node as CSV
  predict     evaluate the scale-history prediction integrals on a time
              grid, no PDE run involved
  sweep       evaluate build + predict over a grid of tail-family
              amplitudes and frequencies, one summary row per combination

Config grammar: one `key = value` pair per line, full-line comments
starting with `#`, blank lines ignored.  The keys are the fields of
ExperimentConfig, the one schema.  Unknown keys and numbers that are not
finite are rejected, and all violations are reported together.  Outputs
are plain text with a stamped schema version and a comment line
documenting every column; identical configs produce bit-identical files.
They go to the --out directory, the one output setting.  Each subcommand
returns a summary line and the paths it wrote; main prints the report.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalError
from .evolve_llg import (
    MAX_STEPS,
    FlowConfig,
    RunSeries,
    SphereMap,
    energy_identity_residual,
    map_to_beta,
    run_scalar,
    run_vector,
)
from .gauge import hasimoto_forward
from .harmonic_family import _norm3
from .modulation import (
    M1_UNSUPPORTED,
    bump_phi,
    fit_mu,
    normal_form_correction,
    psi_and_c,
)
from .radial_grid import RadialGrid, build_grid, check_grid, norm
from .scenarios import (
    BehaviorClass,
    TailFamily,
    build_initial_data,
    classify_behavior,
    predict_log_s,
)

SCHEMA_VERSION = 1

def _key(default, doc: str):
    """A config key: its default and its documentation line."""
    return field(default=default, metadata={"doc": doc})


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    This is the config schema: every field is one config key, with its
    default and documentation line; the type of a key is the type of
    its default.  The flow coefficient is
    given as a_re and a_im and read as cfg.a.
    """

    m: int = _key(2, "equivariance degree (m >= 2)")
    a_re: float = _key(1.0, "dissipative flow coefficient a1 = Re a (>= 0)")
    a_im: float = _key(0.0, "rotational flow coefficient a2 = Im a")
    rho_min: float = _key(-8.0, "lower log-radius bound of the grid")
    rho_max: float = _key(8.0, "upper log-radius bound of the grid")
    n: int = _key(1024, "number of grid nodes (>= 16)")
    dt0: float = _key(1e-3, "initial time step")
    dt_max: float = _key(0.0, "time step cap; 0 disables the cap")
    ramp: float = _key(0.0, "proportional step growth: dt = max(dt0, ramp * t)")
    t_end: float = _key(1.0, "final time of the run")
    t_record_min: float = _key(0.0, "first record time; 0 picks t_end / 100")
    records: int = _key(21, "number of geometrically spaced record times")
    family: str = _key(
        TailFamily.family, "tail family: none | log_drift | ln_ln_oscillation | mixed"
    )
    kappa: float = _key(TailFamily.kappa, "tail amplitude; its sign sets the tail orientation")
    lam: float = _key(TailFamily.lam, "tail frequency (oscillating families)")
    r1: float = _key(TailFamily.r1, "tail activation radius (> 1)")
    s0: float = _key(TailFamily.s0, "initial harmonic scale")
    cut_width: float = _key(TailFamily.cut_width, "width of the tail switch-on ramp in log radius")
    delta: float = _key(0.0, "amplitude of the seeded random transverse perturbation")
    seed: int = _key(0, "random seed for the transverse perturbation")
    snapshot: str = _key("", "snapshot file to use as initial data instead of a family")
    t_min: float = _key(10.0, "first time of the prediction grid")
    t_max: float = _key(1e5, "last time of the prediction grid")
    t_points: int = _key(41, "number of geometrically spaced prediction times")
    sweep_kappa: tuple = _key((), "comma-separated tail amplitudes for sweep")
    sweep_lam: tuple = _key((), "comma-separated tail frequencies for sweep")

    @property
    def a(self) -> complex:
        return complex(self.a_re, self.a_im)

    def grid(self) -> RadialGrid:
        return build_grid(self.rho_min, self.rho_max, self.n)

    def tail_family(self) -> TailFamily:
        return TailFamily(**{key.name: getattr(self, key.name) for key in fields(TailFamily)})

    def flow(self) -> FlowConfig:
        dt_max = self.dt_max if self.dt_max > 0 else math.inf
        return FlowConfig(a=self.a, dt0=self.dt0, dt_max=dt_max, ramp=self.ramp)

    def record_times(self) -> np.ndarray:
        first = self.t_record_min if self.t_record_min > 0 else self.t_end / 100.0
        return np.geomspace(first, self.t_end, self.records)

    def predict_times(self) -> np.ndarray:
        return np.geomspace(self.t_min, self.t_max, self.t_points)


# the config keys, from the schema above
_KEYS = {key.name: key for key in fields(ExperimentConfig)}


def _fmt(x) -> str:
    """Full-precision, locale-independent float rendering."""
    return format(float(x), ".17g")


def _parse_scalar(key: str, raw: str, lineno: int, problems: list):
    """The value of one key, or None after noting the problem; every
    number of a float or tuple key must be finite."""
    kind = type(_KEYS[key].default)
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            value = float(raw)
        elif kind is tuple:
            value = tuple(float(p) for p in raw.split(",") if p.strip())
        else:
            return raw
    except ValueError:
        problems.append(
            f"line {lineno}: cannot parse {raw!r} as {kind.__name__} for key {key!r}"
        )
        return None
    if not np.all(np.isfinite(value)):
        problems.append(f"line {lineno}: {key} must be finite, got {raw!r}")
        return None
    return value


# the largest m |rho - log s0| the initial profile arctan(sinh(m (rho -
# log s0))) is evaluated at: sinh overflows past 710.47
_SINH_REACH = 710.0
# the largest delta: the renormalization of the perturbed map squares its
# components, which overflows past about 1.3e154
_DELTA_MAX = 1e150


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat key = value config.

    Syntax problems carry their line number; all violations, syntactic
    and semantic, are collected and reported in a single error.
    """
    problems: list[str] = []
    seen: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            problems.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEYS:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in seen:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        if not raw:
            problems.append(f"line {lineno}: empty value for key {key!r}")
            continue
        value = _parse_scalar(key, raw, lineno, problems)
        if value is not None:
            seen[key] = value
    cfg = ExperimentConfig(**seen)

    def check(ok: bool, message: str):
        if not ok:
            problems.append(message)

    check(cfg.m >= 1, "m must be a positive integer")
    check(cfg.m != 1, M1_UNSUPPORTED)
    check(cfg.a != 0, "a must be nonzero")
    check(cfg.a_re >= 0.0, "a1 = Re a must be nonnegative")
    try:
        check_grid(cfg.rho_min, cfg.rho_max, cfg.n)
    except ConfigError as exc:
        problems.append(str(exc))
    check(cfg.dt0 > 0.0, "dt0 must be positive")
    check(cfg.dt_max >= 0.0, "dt_max must be nonnegative (0 disables the cap)")
    check(cfg.ramp >= 0.0, "ramp must be nonnegative")
    check(cfg.t_end > 0.0, "t_end must be positive")
    check(cfg.records >= 2, "records must be at least 2")
    check(
        0.0 <= cfg.t_record_min < cfg.t_end,
        "t_record_min must lie in [0, t_end)",
    )
    check(
        0.0 <= cfg.delta <= _DELTA_MAX,
        f"delta must lie in [0, {_DELTA_MAX:g}], where the perturbed map can be renormalized",
    )
    check(cfg.seed >= 0, "seed must be nonnegative")
    check(cfg.t_min > 0.0, "t_min must be positive")
    check(cfg.t_max > cfg.t_min, "t_max must exceed t_min")
    check(cfg.t_points >= 2, "t_points must be at least 2")
    # the sizes that set an allocation, bounded before any array is made
    for what, size, cap in (
        ("n", cfg.n, 2**16),
        ("the record array, records x n x 3 floats,", 3 * cfg.records * cfg.n, 2**25),
        ("t_points", cfg.t_points, 2**20),
    ):
        check(size <= cap, f"{what} must be at most {cap}, got {size}")
    try:
        cfg.tail_family()
    except ConfigError as exc:  # one line per failed check
        problems.extend(str(exc).splitlines())
    else:  # the profile at scale s0 is centred at rho = log s0
        log_s0 = math.log(cfg.s0)
        reach = cfg.m * max(cfg.rho_max - log_s0, log_s0 - cfg.rho_min)
        on_grid = f"the grid's rho range ({cfg.rho_min!r}, {cfg.rho_max!r})"
        if not cfg.snapshot and not cfg.rho_min < log_s0 < cfg.rho_max:
            problems.append(
                f"initial scale s0 = {cfg.s0!r} puts log s0 = {log_s0:.4g} outside {on_grid}"
            )
        elif not cfg.snapshot and reach > _SINH_REACH:
            problems.append(
                f"initial scale s0 = {cfg.s0!r} puts m |rho - log s0| = {reach:.4g} past "
                f"{_SINH_REACH:g} on {on_grid}, where the profile's sinh overflows"
            )
    if cfg.snapshot and cfg.family != "none":
        problems.append("give either tail-family parameters or a snapshot path, not both")
    if problems:
        raise ConfigError("invalid config:\n  - " + "\n  - ".join(problems))
    return cfg


def _rows(columns, sep: str) -> list[str]:
    """Table rows at full precision, one per entry of the columns, each value as _fmt has it."""
    row = sep.join(["%.17g"] * len(columns))
    return [row % values for values in zip(*(np.asarray(c, dtype=float).tolist() for c in columns))]


# ---------------------------------------------------------------------------
# snapshot persistence


def save_snapshot(path, vmap: SphereMap, grid: RadialGrid) -> None:
    """Store a map as text rows (rho, v1, v2, v3) with grid metadata."""
    lines = [
        f"# equiflow snapshot schema {SCHEMA_VERSION}",
        f"# m = {vmap.m}",
        f"# rho_min = {_fmt(grid.rho_min)}",
        f"# rho_max = {_fmt(grid.rho_max)}",
        f"# n = {grid.n}",
        "# columns: rho v1 v2 v3",
    ]
    lines.extend(_rows([grid.rho, *vmap.v.T], " "))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_text(path, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc


def load_snapshot(path) -> tuple[SphereMap, RadialGrid]:
    """Rebuild a map and its grid from a stored snapshot. Its lines are
    blank, `#` comments (`# key = value`: grid metadata) or rows rho v1 v2
    v3 of ASCII decimals or nan, inf, infinity in any case, read by one
    np.loadtxt call with no comment character: `1_0`, non-ASCII digits
    (which float() takes) and a trailing `# ...` are rejected. A row that
    does not parse into 4 values, or a repeated metadata key, is a
    ConfigError naming the first such line of the file."""
    text = _read_text(path, f"snapshot {path}")
    meta: dict[str, str] = {}
    rows, linenos, duplicate = [], [], None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("# ")
            if "=" in body:
                key, _, val = body.partition("=")
                key = key.strip()
                if key in meta:  # raised after a faulty row above it
                    duplicate = ConfigError(f"snapshot {path}, line {lineno}: duplicate key {key!r}")
                    break
                meta[key] = val.strip()
            continue
        rows.append(stripped)
        linenos.append(lineno)
    try:
        data = np.loadtxt(rows, comments=None, ndmin=2) if rows else np.empty((0, 4))
    except ValueError:
        data = np.empty((0, 0))
    if data.shape[1] != 4:  # each row again, by the same parser, for the first faulty line
        for lineno, row in zip(linenos, rows):
            try:
                count = np.loadtxt([row], comments=None).size
            except ValueError as exc:
                reason = str(exc).replace(" at row 0,", " at")
                raise ConfigError(f"snapshot {path}, line {lineno}: {reason}") from None
            if count != 4:
                raise ConfigError(f"snapshot {path}, line {lineno}: {count} values, expected 4")
    if duplicate is not None:
        raise duplicate
    numbers = {}
    for key, kind in (("m", int), ("n", int), ("rho_min", float), ("rho_max", float)):
        if key not in meta:
            raise ConfigError(f"snapshot {path} is missing grid metadata {key}")
        try:
            numbers[key] = kind(meta[key])
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"snapshot {path}: grid metadata {key} is not {what}") from None
    m = numbers["m"]
    grid = build_grid(numbers["rho_min"], numbers["rho_max"], numbers["n"])
    if len(data) != grid.n:
        raise ConfigError(f"snapshot {path} has {len(data)} rows, expected {grid.n}")
    if not np.max(np.abs(data[:, 0] - grid.rho)) <= 1e-9:
        raise ConfigError(f"snapshot {path} nodes disagree with its grid metadata")
    v = data[:, 1:4]
    if not np.isfinite(v).all():
        raise NumericalError(f"snapshot {path} holds non-finite map values")
    radii = _norm3(v)
    deviation = float(np.max(np.abs(radii - 1.0)))
    if deviation > 1e-6:
        raise NumericalError(f"snapshot {path} leaves the unit sphere")
    if deviation > 1e-12:
        v = v / radii[:, None]
    beta = map_to_beta(v) if np.max(np.abs(v[:, 1])) <= 1e-12 else None
    if m == 1:
        raise ConfigError(f"snapshot {path}: {M1_UNSUPPORTED}")
    try:
        return SphereMap(v=v, m=m, beta=beta), grid
    except ValueError as exc:
        raise ConfigError(f"snapshot {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# table output


def _write_table(out_dir: Path, kind: str, columns, comments) -> Path:
    """Write out_dir/kind.csv, with a stamped schema version and
    per-column documentation, and return its path.

    comments are written one per line after the stamp, and columns is
    a list of (name, documentation, array) triples; all floats are
    rendered at full precision so identical inputs give bit-identical
    files.
    """
    lines = [f"# equiflow {kind} schema {SCHEMA_VERSION}"]
    lines.extend(f"# {comment}" for comment in comments)
    lines.extend(f"# column {name}: {doc}" for name, doc, _ in columns)
    lines.append(",".join(name for name, _, _ in columns))
    lines.extend(_rows([np.asarray(col) for _, _, col in columns], ","))
    path = out_dir / f"{kind}.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# initial data and observable assembly


def _seeded_perturbation(
    v: np.ndarray, grid: RadialGrid, delta: float, seed: int
) -> np.ndarray:
    """Add a reproducible smooth transverse field of sup size delta."""
    rng = np.random.default_rng(seed)
    span = grid.rho_max - grid.rho_min
    bump = np.zeros((grid.n, 2))
    for j in range(2):
        for _ in range(3):
            center = grid.rho_min + span * (0.2 + 0.6 * rng.random())
            width = 0.5 + rng.random()
            bump[:, j] += rng.standard_normal() * np.exp(
                -(((grid.rho - center) / width) ** 2)
            )
    peak = float(np.abs(bump).max())
    if peak > 0.0:
        bump *= delta / peak
    w = v.copy()
    w[:, :2] += bump
    return w / _norm3(w)[:, None]


def _initial_data(cfg: ExperimentConfig) -> tuple[SphereMap, RadialGrid, float]:
    """Initial map from the configured family or snapshot, plus excess."""
    if cfg.snapshot:
        vmap, grid = load_snapshot(cfg.snapshot)
        excess = math.nan
    else:
        grid = cfg.grid()
        vmap, excess = build_initial_data(cfg.tail_family(), grid, m=cfg.m)
    if cfg.delta > 0.0:
        v = _seeded_perturbation(vmap.v, grid, cfg.delta, cfg.seed)
        vmap = SphereMap(v=v, m=vmap.m)
    return vmap, grid, excess


_SERIES_COLUMNS = (
    ("t", "record time"),
    ("s", "fitted harmonic scale (nan when the fit is skipped or fails)"),
    ("alpha", "fitted rotation angle"),
    ("energy", "map energy at the record"),
    ("q_norm", "L2(r dr) norm of the gauge field"),
    ("z_xnorm", "scale-invariant X norm of the residual coordinate"),
    ("z_sup", "sup norm of the residual coordinate; the fit is perturbative below about 0.3"),
    ("normal_form_re", "real part of the normal-form correction pairing"),
    ("normal_form_im", "imaginary part of the normal-form correction pairing"),
    ("prediction", "q-form predicted log s change from the initial data (nan when unavailable)"),
    ("dissipated", "accumulated energy dissipation integral"),
)


def _decompose(vmap: SphereMap, guess, phi, grid: RadialGrid) -> tuple:
    """Fit from guess, flat-frame transform, and the q_norm, z_xnorm and
    z_sup norms by name. The fit is never rejected on residual size; z_sup
    is the consumer's validity indicator."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        state = fit_mu(vmap, guess, phi, grid, strict=False)
        gauge = hasimoto_forward(vmap, state.mu, grid)
        norms = {
            "q_norm": norm(gauge.q, grid, "L2x"),
            "z_xnorm": norm(state.z, grid, "X"),
            "z_sup": float(np.abs(state.z).max()),
        }
    return state, gauge, norms


def series_observables(
    series: RunSeries, grid: RadialGrid, v0: SphereMap
) -> dict[str, np.ndarray]:
    """Per-record observable columns for a finished run.

    Fits are chained record to record. Resolution and pairing-growth
    warnings are suppressed here because a batch table is not an
    interactive session; the columns themselves carry the evidence.
    """
    n_rec = series.t.size
    out = {name: np.full(n_rec, np.nan) for name, _ in _SERIES_COLUMNS}
    for name in ("t", "energy", "dissipated"):
        out[name] = getattr(series, name).copy()
    phi = bump_phi(series.m, grid)
    psi = psi_and_c(phi, series.m, grid)
    guess = None
    for k in range(n_rec):
        vmap = series.map_at(k)
        try:
            state, gauge, norms = _decompose(vmap, guess, phi, grid)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                correction = normal_form_correction(gauge.q, state.mu, gauge.alpha_tilde, psi)
        except NumericalError:
            continue
        guess = state.mu
        out["s"][k] = state.mu.s
        out["alpha"][k] = state.mu.alpha
        for name, value in norms.items():
            out[name][k] = value
        out["normal_form_re"][k] = correction.real
        out["normal_form_im"][k] = correction.imag
    if series.m == 2 and np.max(np.abs(v0.v[:, 1])) <= 1e-9 and series.a.real > 0:
        horizon = math.exp(2.0 * grid.rho_max) / series.a.real
        usable = (series.t > 0.0) & (series.t <= horizon)
        if np.any(usable):
            pred = predict_log_s(v0, series.a.real, series.t[usable], grid)
            out["prediction"][usable] = pred.q_form
    return out


# ---------------------------------------------------------------------------
# subcommands: each returns its one-line summary and the paths it wrote


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> tuple[str, list[Path]]:
    """Run the flow, fit each record, and persist series plus snapshot."""
    # each record can cut a step short and add one
    budget = cfg.flow().steps_to(cfg.t_end) + cfg.records
    if budget > MAX_STEPS:
        raise ConfigError(
            f"the time steps (dt0 = {cfg.dt0!r}, ramp = {cfg.ramp!r}, dt_max = {cfg.dt_max!r}) "
            f"and {cfg.records} records take about {budget:.4g} steps to t_end = {cfg.t_end!r}, "
            f"more than the {MAX_STEPS} a run may take"
        )
    vmap, grid, excess = _initial_data(cfg)
    # beta is set only on maps confined to the great circle
    if cfg.a.imag == 0.0 and vmap.beta is not None:
        solver, run, start = "scalar", run_scalar, vmap.beta
    else:
        solver, run, start = "vector", run_vector, vmap.v
    series = run(start, grid, vmap.m, cfg.flow(), cfg.t_end, cfg.record_times())
    columns = series_observables(series, grid, vmap)
    comments = [
        f"m = {series.m}, a = {_fmt(series.a.real)} + {_fmt(series.a.imag)}i, solver = {solver}",
        f"grid: rho in [{_fmt(grid.rho_min)}, {_fmt(grid.rho_max)}], n = {grid.n}",
        f"steps = {series.steps}, initial energy excess = {_fmt(excess)}",
    ]
    series_path = _write_table(
        out_dir,
        "series",
        [(name, doc, columns[name]) for name, doc in _SERIES_COLUMNS],
        comments,
    )
    snap_path = out_dir / "snapshot_final.dat"
    save_snapshot(snap_path, series.map_at(series.t.size - 1), grid)
    steps = max(series.steps, 1)
    summary = (
        f"solver={solver} steps={series.steps} records={series.t.size} "
        f"iterations_per_step={series.iterations / steps:.3g} "
        f"max_step_iterations={series.max_step_iterations} "
        f"factorizations_per_step={series.factorizations / steps:.3g}"
    )
    if solver == "vector":
        summary += f" energy_identity_residual={energy_identity_residual(series):.3e}"
    return summary, [series_path, snap_path]


def cmd_decompose(cfg: ExperimentConfig, out_dir: Path) -> tuple[str, list[Path]]:
    """Split a stored snapshot into parameters, residual, and gauge field."""
    if not cfg.snapshot:
        raise ConfigError("decompose needs a snapshot path in the config")
    vmap, grid = load_snapshot(cfg.snapshot)
    state, gauge, norms = _decompose(vmap, None, bump_phi(vmap.m, grid), grid)
    comments = [
        f"source = {cfg.snapshot}",
        f"m = {vmap.m}, fitted s = {_fmt(state.mu.s)}, fitted alpha = {_fmt(state.mu.alpha)}",
        ", ".join(f"{name} = {_fmt(value)}" for name, value in norms.items()),
    ]
    path = _write_table(
        out_dir,
        "decompose",
        [
            ("rho", "log radius of the node", grid.rho),
            ("q_re", "real part of the gauge field", gauge.q.real),
            ("q_im", "imaginary part of the gauge field", gauge.q.imag),
            ("z_re", "real part of the residual coordinate", state.z.real),
            ("z_im", "imaginary part of the residual coordinate", state.z.imag),
        ],
        comments,
    )
    summary = f"s={_fmt(state.mu.s)} alpha={_fmt(state.mu.alpha)} q_norm={_fmt(norms['q_norm'])}"
    return summary, [path]


def _predict(cfg: ExperimentConfig, vmap: SphereMap, grid: RadialGrid, s0=None) -> tuple:
    """The prediction on the configured time grid and the class of its q form."""
    pred = predict_log_s(vmap, cfg.a.real, cfg.predict_times(), grid, s0=s0)
    if pred.t.size < 8:
        return pred, BehaviorClass.UNDETERMINED
    return pred, classify_behavior(pred.t, pred.q_form)


def cmd_predict(cfg: ExperimentConfig, out_dir: Path) -> tuple[str, list[Path]]:
    """Evaluate the scale-history prediction on the configured time grid."""
    vmap, grid, _ = _initial_data(cfg)
    pred, label = _predict(cfg, vmap, grid)
    comments = [
        f"initial scale s0 = {_fmt(pred.s0)}, a1 = {_fmt(pred.a1)}",
        f"largest usable t = {_fmt(pred.t_max_usable)}",
        f"predicted class of the q form = {label.name}",
    ]
    path = _write_table(
        out_dir,
        "predict",
        [
            ("t", "prediction time", pred.t),
            ("v1_form", "first-component form of the predicted log s change", pred.v1_form),
            ("q_form", "gauge-field form of the predicted log s change", pred.q_form),
        ],
        comments,
    )
    return f"class={label.name} final_q_form={_fmt(pred.q_form[-1])}", [path]


def _sweep_row(cfg: ExperimentConfig, kappa: float, lam: float) -> tuple:
    grid = cfg.grid()
    fam = replace(cfg.tail_family(), kappa=kappa, lam=lam)
    vmap, excess = build_initial_data(fam, grid, m=cfg.m)
    pred, label = _predict(cfg, vmap, grid, s0=cfg.s0)
    return (kappa, lam, excess, pred.v1_form[-1], pred.q_form[-1], int(label))


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path) -> tuple[str, list[Path]]:
    """Build + predict over the family parameter grid, one row each.

    The (kappa, lam) pairs are sorted and their rows computed in that
    order, so the output does not depend on the order of the config lists.
    """
    if not cfg.sweep_kappa:
        raise ConfigError("sweep needs a nonempty sweep_kappa list in the config")
    if cfg.family == "none":
        raise ConfigError("sweep needs a tail family other than 'none'")
    if cfg.sweep_lam and cfg.family == "log_drift":
        raise ConfigError(
            "sweep_lam varies the tail frequency, which family 'log_drift' does not have"
        )
    lams = cfg.sweep_lam if cfg.sweep_lam else (cfg.lam,)
    jobs = sorted((kappa, lam) for kappa in cfg.sweep_kappa for lam in lams)
    rows = [_sweep_row(cfg, kappa, lam) for kappa, lam in jobs]
    table = np.asarray(rows, dtype=float)
    comments = [
        f"family = {cfg.family}, {len(rows)} parameter combinations",
        "class ids: 0 undetermined, 1 settled, 2 concentrating, 3 spreading, "
        "4 dipping, 5 peaking, 6 swinging",
    ]
    path = _write_table(
        out_dir,
        "sweep",
        [
            ("kappa", "tail amplitude", table[:, 0]),
            ("lam", "tail frequency", table[:, 1]),
            ("excess", "initial energy above the harmonic floor", table[:, 2]),
            ("v1_drift", "first-component-form predicted log s at t_max", table[:, 3]),
            ("q_drift", "gauge-field-form predicted log s at t_max", table[:, 4]),
            ("class_id", "behavior class of the predicted history", table[:, 5]),
        ],
        comments,
    )
    return f"{len(rows)} rows", [path]


_COMMANDS = {
    "simulate": cmd_simulate,
    "decompose": cmd_decompose,
    "predict": cmd_predict,
    "sweep": cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equiflow",
        description="equivariant flow laboratory: simulate, decompose, predict, sweep",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0].lower())
        p.add_argument("--config", required=True, help="path to the key = value config file")
        p.add_argument("--out", default=".", help="output directory (default: the current one)")
        p.add_argument("--quiet", action="store_true", help="print no report")
    return parser


def main(argv=None) -> int:
    """Command line entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out)
    # the directories the mkdir below creates, deepest first; those still
    # empty when main returns, as after a failed command, are removed
    created = [path for path in (out_dir, *out_dir.parents) if not path.exists()]
    try:
        cfg = parse_config(_read_text(args.config, "config"))
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
        if not os.access(out_dir, os.W_OK):
            raise ConfigError(f"output directory {out_dir} is not writable")
        summary, paths = _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"equiflow error [config] code=2: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        kind = type(exc).__name__
        print(f"equiflow error [numerical:{kind}] code=3: {exc}", file=sys.stderr)
        return 3
    finally:
        for path in created:
            try:
                path.rmdir()
            except OSError:
                break
    if not args.quiet:
        print(f"{args.command}: {summary}")
        for path in paths:
            print(f"{args.command}: wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
