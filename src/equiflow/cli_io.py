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
starting with `#`, blank lines ignored.  Unknown keys are rejected and
all constraint violations are reported together.  Outputs are plain text
with a stamped schema version and a comment line documenting every
column; identical configs produce bit-identical files.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  The
environment variable EQUIFLOW_THREADS caps sweep parallelism.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalError
from .evolve_llg import (
    FlowConfig,
    RunSeries,
    SphereMap,
    map_to_beta,
    run_scalar,
    run_vector,
)
from .gauge import hasimoto_forward
from .modulation import bump_phi, fit_mu, normal_form_correction, psi_and_c
from .radial_grid import RadialGrid, build_grid, norm
from .scenarios import (
    BehaviorClass,
    TailFamily,
    build_initial_data,
    classify_behavior,
    predict_log_s,
)

SCHEMA_VERSION = 1

# every legal config key with its type, default, and documentation line
_KEYS: dict[str, tuple[type, object, str]] = {
    "m": (int, 2, "equivariance degree (m >= 1)"),
    "a_re": (float, 1.0, "dissipative flow coefficient a1 = Re a (>= 0)"),
    "a_im": (float, 0.0, "rotational flow coefficient a2 = Im a"),
    "rho_min": (float, -8.0, "lower log-radius bound of the grid"),
    "rho_max": (float, 8.0, "upper log-radius bound of the grid"),
    "n": (int, 1024, "number of grid nodes (>= 16)"),
    "dt0": (float, 1e-3, "initial time step"),
    "dt_max": (float, 0.0, "time step cap; 0 disables the cap"),
    "ramp": (float, 0.0, "proportional step growth: dt = max(dt0, ramp * t)"),
    "t_end": (float, 1.0, "final time of the run"),
    "t_record_min": (float, 0.0, "first record time; 0 picks t_end / 100"),
    "records": (int, 21, "number of geometrically spaced record times"),
    "fit_cadence": (int, 1, "fit the parameters at every k-th record"),
    "family": (str, "none", "tail family: none | log_drift | ln_ln_oscillation | mixed"),
    "kappa": (float, 0.0, "tail amplitude"),
    "lam": (float, 1.0, "tail frequency (oscillating families)"),
    "r1": (float, math.e, "tail activation radius (> 1)"),
    "sign": (int, 1, "tail orientation, +1 or -1"),
    "s0": (float, 1.0, "initial harmonic scale"),
    "cut_width": (float, 1.0, "width of the tail switch-on ramp in log radius"),
    "delta": (float, 0.0, "amplitude of the seeded random transverse perturbation"),
    "seed": (int, 0, "random seed for the transverse perturbation"),
    "snapshot": (str, "", "snapshot file to use as initial data instead of a family"),
    "t_min": (float, 10.0, "first time of the prediction grid"),
    "t_max": (float, 1e5, "last time of the prediction grid"),
    "t_points": (int, 41, "number of geometrically spaced prediction times"),
    "sweep_kappa": (list, (), "comma-separated tail amplitudes for sweep"),
    "sweep_lam": (list, (), "comma-separated tail frequencies for sweep"),
    "out": (str, ".", "output directory (the --out flag overrides it)"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description, one field per config key."""

    m: int
    a: complex
    rho_min: float
    rho_max: float
    n: int
    dt0: float
    dt_max: float
    ramp: float
    t_end: float
    t_record_min: float
    records: int
    fit_cadence: int
    family: str
    kappa: float
    lam: float
    r1: float
    sign: int
    s0: float
    cut_width: float
    delta: float
    seed: int
    snapshot: str
    t_min: float
    t_max: float
    t_points: int
    sweep_kappa: tuple
    sweep_lam: tuple
    out: str

    def grid(self) -> RadialGrid:
        return build_grid(self.rho_min, self.rho_max, self.n)

    def tail_family(self) -> TailFamily:
        return TailFamily(
            family=self.family,
            kappa=self.kappa,
            lam=self.lam,
            r1=self.r1,
            sign=self.sign,
            s0=self.s0,
        )

    def flow(self) -> FlowConfig:
        dt_max = self.dt_max if self.dt_max > 0 else math.inf
        return FlowConfig(a=self.a, dt0=self.dt0, dt_max=dt_max, ramp=self.ramp)

    def record_times(self) -> np.ndarray:
        first = self.t_record_min if self.t_record_min > 0 else self.t_end / 100.0
        return np.geomspace(first, self.t_end, self.records)

    def predict_times(self) -> np.ndarray:
        return np.geomspace(self.t_min, self.t_max, self.t_points)


def _fmt(x) -> str:
    """Full-precision, locale-independent float rendering."""
    return format(float(x), ".17g")


def _parse_scalar(key: str, raw: str, lineno: int, problems: list):
    kind = _KEYS[key][0]
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is list:
            return tuple(float(p) for p in raw.split(",") if p.strip())
    except ValueError:
        problems.append(
            f"line {lineno}: cannot parse {raw!r} as {kind.__name__} for key {key!r}"
        )
        return None
    return raw


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
    values = {key: seen.get(key, default) for key, (_, default, _) in _KEYS.items()}

    def check(ok: bool, message: str):
        if not ok:
            problems.append(message)

    a = complex(values["a_re"], values["a_im"])
    check(values["m"] >= 1, "m must be a positive integer")
    check(a != 0, "a must be nonzero")
    check(values["a_re"] >= 0.0, "a1 = Re a must be nonnegative")
    check(
        math.isfinite(values["rho_min"])
        and math.isfinite(values["rho_max"])
        and values["rho_min"] < values["rho_max"],
        "grid bounds need rho_min < rho_max, both finite",
    )
    check(values["n"] >= 16, "grid needs at least 16 nodes")
    check(values["dt0"] > 0.0, "dt0 must be positive")
    check(values["dt_max"] >= 0.0, "dt_max must be nonnegative (0 disables the cap)")
    check(values["ramp"] >= 0.0, "ramp must be nonnegative")
    check(values["t_end"] > 0.0, "t_end must be positive")
    check(values["records"] >= 2, "records must be at least 2")
    check(
        0.0 <= values["t_record_min"] < values["t_end"],
        "t_record_min must lie in [0, t_end)",
    )
    check(values["fit_cadence"] >= 1, "fit_cadence must be at least 1")
    check(values["delta"] >= 0.0, "delta must be nonnegative")
    check(values["seed"] >= 0, "seed must be nonnegative")
    check(values["t_min"] > 0.0, "t_min must be positive")
    check(values["t_max"] > values["t_min"], "t_max must exceed t_min")
    check(values["t_points"] >= 2, "t_points must be at least 2")
    check(
        all(math.isfinite(k) for k in values["sweep_kappa"]),
        "sweep_kappa entries must be finite",
    )
    check(
        all(math.isfinite(k) for k in values["sweep_lam"]),
        "sweep_lam entries must be finite",
    )
    try:
        TailFamily(
            family=values["family"],
            kappa=values["kappa"],
            lam=values["lam"],
            r1=values["r1"],
            sign=values["sign"],
            s0=values["s0"],
        )
    except ConfigError as exc:
        problems.append(str(exc))
    if values["snapshot"] and values["family"] != "none":
        problems.append("give either tail-family parameters or a snapshot path, not both")
    if problems:
        raise ConfigError("invalid config:\n  - " + "\n  - ".join(problems))
    del values["a_re"], values["a_im"]
    return ExperimentConfig(a=a, **values)


def family_to_config(fam: TailFamily) -> str:
    """Serialize a tail family as config lines that parse back equal."""
    return (
        f"family = {fam.family}\n"
        f"kappa = {_fmt(fam.kappa)}\n"
        f"lam = {_fmt(fam.lam)}\n"
        f"r1 = {_fmt(fam.r1)}\n"
        f"sign = {fam.sign}\n"
        f"s0 = {_fmt(fam.s0)}\n"
    )


def config_template() -> str:
    """All config keys with defaults and documentation, as parsable text."""
    lines = ["# equiflow config: key = value pairs, '#' starts a comment line"]
    for key, (kind, default, doc) in _KEYS.items():
        if kind is list:
            rendered = ",".join(_fmt(x) for x in default)
        elif kind is float:
            rendered = _fmt(default)
        else:
            rendered = str(default)
        lines.append(f"# {doc}")
        lines.append(f"{key} = {rendered}" if rendered else f"# {key} =")
    return "\n".join(lines) + "\n"


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
    for i in range(grid.n):
        lines.append(
            " ".join(
                (_fmt(grid.rho[i]), _fmt(vmap.v[i, 0]), _fmt(vmap.v[i, 1]), _fmt(vmap.v[i, 2]))
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_snapshot(path) -> tuple[SphereMap, RadialGrid]:
    """Rebuild a map and its grid from a stored snapshot."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read snapshot {path}: {exc}") from exc
    meta: dict[str, str] = {}
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("# ")
            if "=" in body:
                key, _, val = body.partition("=")
                meta[key.strip()] = val.strip()
            continue
        try:
            rows.append([float(p) for p in stripped.split()])
        except ValueError as exc:
            raise ConfigError(f"snapshot {path}, line {lineno}: {exc}") from exc
    try:
        m = int(meta["m"])
        grid = build_grid(float(meta["rho_min"]), float(meta["rho_max"]), int(meta["n"]))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"snapshot {path} is missing grid metadata: {exc}") from exc
    data = np.asarray(rows, dtype=float)
    if data.shape != (grid.n, 4):
        raise ConfigError(
            f"snapshot {path} has shape {data.shape}, expected ({grid.n}, 4)"
        )
    if not np.max(np.abs(data[:, 0] - grid.rho)) <= 1e-9:
        raise ConfigError(f"snapshot {path} nodes disagree with its grid metadata")
    v = data[:, 1:4]
    if not np.isfinite(v).all():
        raise NumericalError(f"snapshot {path} holds non-finite map values")
    radii = np.linalg.norm(v, axis=1)
    deviation = float(np.max(np.abs(radii - 1.0)))
    if deviation > 1e-6:
        raise NumericalError(f"snapshot {path} leaves the unit sphere")
    if deviation > 1e-12:
        v = v / radii[:, None]
    beta = map_to_beta(v) if np.max(np.abs(v[:, 1])) <= 1e-12 else None
    return SphereMap(v=v, m=m, beta=beta), grid


# ---------------------------------------------------------------------------
# table output


def _write_table(path, kind: str, columns, comments=()) -> None:
    """CSV with a stamped schema version and per-column documentation.

    columns is a list of (name, documentation, array) triples; all
    floats are rendered at full precision so identical inputs give
    bit-identical files.
    """
    lines = [f"# equiflow {kind} schema {SCHEMA_VERSION}"]
    lines.extend(f"# {comment}" for comment in comments)
    lines.extend(f"# column {name}: {doc}" for name, doc, _ in columns)
    lines.append(",".join(name for name, _, _ in columns))
    arrays = [np.asarray(col) for _, _, col in columns]
    for i in range(arrays[0].shape[0]):
        lines.append(",".join(_fmt(col[i]) for col in arrays))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    w[:, 0] += bump[:, 0]
    w[:, 1] += bump[:, 1]
    return w / np.linalg.norm(w, axis=1)[:, None]


def _initial_data(cfg: ExperimentConfig) -> tuple[SphereMap, RadialGrid, float]:
    """Initial map from the configured family or snapshot, plus excess."""
    if cfg.snapshot:
        vmap, grid = load_snapshot(cfg.snapshot)
        excess = math.nan
    else:
        grid = cfg.grid()
        vmap, excess = build_initial_data(
            cfg.tail_family(), grid, m=cfg.m, cut_width=cfg.cut_width
        )
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


def series_observables(
    series: RunSeries,
    grid: RadialGrid,
    v0: SphereMap,
    fit_cadence: int = 1,
) -> dict[str, np.ndarray]:
    """Per-record observable columns for a finished run.

    Fits are chained record to record and never rejected on residual
    size; the z_sup column is the consumer's validity indicator.
    Resolution and pairing-growth warnings are suppressed here because a
    batch table is not an interactive session; the columns themselves
    carry the evidence.
    """
    n_rec = series.t.size
    out = {name: np.full(n_rec, np.nan) for name, _ in _SERIES_COLUMNS}
    out["t"] = series.t.copy()
    out["energy"] = series.energy.copy()
    out["dissipated"] = series.dissipated.copy()
    phi = bump_phi(series.m, grid)
    psi = psi_and_c(phi, series.m, grid)
    guess = None
    for k in range(n_rec):
        if k % fit_cadence != 0 and k != n_rec - 1:
            continue
        vmap = series.map_at(k)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                state = fit_mu(vmap, guess, phi, grid, strict=False)
                gauge = hasimoto_forward(vmap, state.mu, grid, a=series.a)
                correction = normal_form_correction(
                    gauge.q, state.mu, gauge.alpha_tilde, psi
                )
                out["z_xnorm"][k] = norm(state.z, grid, "X")
        except NumericalError:
            continue
        guess = state.mu
        out["s"][k] = state.mu.s
        out["alpha"][k] = state.mu.alpha
        out["q_norm"][k] = norm(gauge.q, grid, "L2x")
        out["z_sup"][k] = float(np.abs(state.z).max())
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
# subcommands


def _report(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path, quiet: bool) -> list[Path]:
    """Run the flow, fit each record, and persist series plus snapshot."""
    vmap, grid, excess = _initial_data(cfg)
    planar = (
        cfg.a.imag == 0.0
        and vmap.beta is not None
        and np.max(np.abs(vmap.v[:, 1])) <= 1e-12
    )
    record = [0.0] + list(cfg.record_times())
    if planar:
        series = run_scalar(vmap.beta, grid, vmap.m, cfg.flow(), cfg.t_end, record)
        solver = "scalar"
    else:
        series = run_vector(vmap.v, grid, vmap.m, cfg.flow(), cfg.t_end, record)
        solver = "vector"
    columns = series_observables(series, grid, vmap, cfg.fit_cadence)
    series_path = out_dir / "series.csv"
    comments = [
        f"m = {series.m}, a = {_fmt(series.a.real)} + {_fmt(series.a.imag)}i, solver = {solver}",
        f"grid: rho in [{_fmt(grid.rho_min)}, {_fmt(grid.rho_max)}], n = {grid.n}",
        f"steps = {series.steps}, initial energy excess = {_fmt(excess)}",
    ]
    _write_table(
        series_path,
        "series",
        [(name, doc, columns[name]) for name, doc in _SERIES_COLUMNS],
        comments,
    )
    snap_path = out_dir / "snapshot_final.dat"
    save_snapshot(snap_path, series.map_at(series.t.size - 1), grid)
    _report(quiet, f"simulate: solver={solver} steps={series.steps} records={series.t.size}")
    _report(quiet, f"simulate: wrote {series_path}")
    _report(quiet, f"simulate: wrote {snap_path}")
    return [series_path, snap_path]


def cmd_decompose(cfg: ExperimentConfig, out_dir: Path, quiet: bool) -> list[Path]:
    """Split a stored snapshot into parameters, residual, and gauge field."""
    if not cfg.snapshot:
        raise ConfigError("decompose needs a snapshot path in the config")
    vmap, grid = load_snapshot(cfg.snapshot)
    phi = bump_phi(vmap.m, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        state = fit_mu(vmap, None, phi, grid, strict=False)
        gauge = hasimoto_forward(vmap, state.mu, grid, a=cfg.a)
        q_norm = norm(gauge.q, grid, "L2x")
        z_xnorm = norm(state.z, grid, "X")
    path = out_dir / "decompose.csv"
    comments = [
        f"source = {cfg.snapshot}",
        f"m = {vmap.m}, fitted s = {_fmt(state.mu.s)}, fitted alpha = {_fmt(state.mu.alpha)}",
        f"q_norm = {_fmt(q_norm)}, z_xnorm = {_fmt(z_xnorm)}, "
        f"z_sup = {_fmt(np.abs(state.z).max())}",
    ]
    _write_table(
        path,
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
    _report(
        quiet,
        f"decompose: s={_fmt(state.mu.s)} alpha={_fmt(state.mu.alpha)} "
        f"q_norm={_fmt(q_norm)}",
    )
    _report(quiet, f"decompose: wrote {path}")
    return [path]


def _classify_safely(t: np.ndarray, log_s: np.ndarray) -> BehaviorClass:
    if t.size < 8:
        return BehaviorClass.UNDETERMINED
    return classify_behavior(t, log_s)


def cmd_predict(cfg: ExperimentConfig, out_dir: Path, quiet: bool) -> list[Path]:
    """Evaluate the scale-history prediction on the configured time grid."""
    vmap, grid, _ = _initial_data(cfg)
    pred = predict_log_s(vmap, cfg.a.real, cfg.predict_times(), grid)
    label = _classify_safely(pred.t, pred.q_form)
    path = out_dir / "predict.csv"
    comments = [
        f"initial scale s0 = {_fmt(pred.s0)}, a1 = {_fmt(pred.a1)}",
        f"largest usable t = {_fmt(pred.t_max_usable)}",
        f"predicted class of the q form = {label.name}",
    ]
    _write_table(
        path,
        "predict",
        [
            ("t", "prediction time", pred.t),
            ("v1_form", "first-component form of the predicted log s change", pred.v1_form),
            ("q_form", "gauge-field form of the predicted log s change", pred.q_form),
        ],
        comments,
    )
    _report(quiet, f"predict: class={label.name} final_q_form={_fmt(pred.q_form[-1])}")
    _report(quiet, f"predict: wrote {path}")
    return [path]


def _sweep_row(cfg: ExperimentConfig, kappa: float, lam: float) -> tuple:
    grid = cfg.grid()
    fam = TailFamily(
        family=cfg.family, kappa=kappa, lam=lam, r1=cfg.r1, sign=cfg.sign, s0=cfg.s0
    )
    vmap, excess = build_initial_data(fam, grid, m=cfg.m, cut_width=cfg.cut_width)
    pred = predict_log_s(vmap, cfg.a.real, cfg.predict_times(), grid, s0=cfg.s0)
    label = _classify_safely(pred.t, pred.q_form)
    return (kappa, lam, excess, pred.v1_form[-1], pred.q_form[-1], int(label))


def _thread_cap() -> int:
    raw = os.environ.get("EQUIFLOW_THREADS", "")
    if not raw:
        return os.cpu_count() or 1
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ConfigError(f"EQUIFLOW_THREADS must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ConfigError(f"EQUIFLOW_THREADS must be at least 1, got {cap}")
    return cap


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path, quiet: bool) -> list[Path]:
    """Build + predict over the family parameter grid, one row each.

    Rows are computed concurrently (capped by EQUIFLOW_THREADS) and
    sorted by parameter key before writing, so the output is identical
    however the work was scheduled.
    """
    if not cfg.sweep_kappa:
        raise ConfigError("sweep needs a nonempty sweep_kappa list in the config")
    if cfg.family == "none":
        raise ConfigError("sweep needs a tail family other than 'none'")
    lams = cfg.sweep_lam if cfg.sweep_lam else (cfg.lam,)
    jobs = [(kappa, lam) for kappa in cfg.sweep_kappa for lam in lams]
    workers = min(len(jobs), _thread_cap())
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = list(pool.map(lambda job: _sweep_row(cfg, *job), jobs))
    rows.sort(key=lambda row: (row[0], row[1]))
    table = np.asarray(rows, dtype=float)
    path = out_dir / "sweep.csv"
    comments = [
        f"family = {cfg.family}, {len(rows)} parameter combinations",
        "class ids: 0 undetermined, 1 settled, 2 concentrating, 3 spreading, "
        "4 dipping, 5 peaking, 6 swinging",
    ]
    _write_table(
        path,
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
    _report(quiet, f"sweep: {len(rows)} rows, workers={workers}")
    _report(quiet, f"sweep: wrote {path}")
    return [path]


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
        p.add_argument("--out", default=None, help="output directory (default: config key 'out')")
        p.add_argument("--quiet", action="store_true", help="suppress the progress report")
    return parser


def main(argv=None) -> int:
    """Command line entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"equiflow error [config] code=2: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        out_dir = Path(args.out) if args.out is not None else Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if not os.access(out_dir, os.W_OK):
            raise ConfigError(f"output directory {out_dir} is not writable")
        _COMMANDS[args.command](cfg, out_dir, args.quiet)
    except ConfigError as exc:
        print(f"equiflow error [config] code=2: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        kind = type(exc).__name__
        print(f"equiflow error [numerical:{kind}] code=3: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
