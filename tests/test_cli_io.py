"""Tests for config parsing, CSV/snapshot output, and the CLI commands."""

import itertools
import math
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from equiflow import cli_io, evolve_llg
from equiflow.cli_io import (
    ExperimentConfig,
    load_snapshot,
    main,
    parse_config,
    save_snapshot,
)
from equiflow.errors import ConfigError, NumericalError
from equiflow.evolve_llg import SphereMap, energy_identity_residual
from equiflow.harmonic_family import Mu, h_profile
from equiflow.radial_grid import build_grid
from equiflow.scenarios import TailFamily, build_initial_data


def write_config(tmp_path, name="run.cfg", **keys):
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
    return path


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    header = body[0].split(",")
    data = np.array([[float(x) for x in row.split(",")] for row in body[1:]])
    return comments, header, data


# ---------------------------------------------------------------------------
# config parsing


def config_text(obj) -> str:
    """Config lines for every field of a dataclass instance, each after
    its documentation comment when it has one; numbers at full precision,
    tuples comma-separated, and fields that render empty left out."""
    lines = ["# key = value pairs, '#' starts a comment line"]
    for key in fields(obj):
        value = getattr(obj, key.name)
        if isinstance(value, tuple):
            text = ",".join(repr(float(x)) for x in value)
        else:
            text = value if isinstance(value, str) else repr(value)
        if "doc" in key.metadata:
            lines.append(f"# {key.metadata['doc']}")
        if text:
            lines.append(f"{key.name} = {text}")
    return "\n".join(lines) + "\n"


def test_defaults_and_minimal_config():
    cfg = parse_config("m = 3\na_re = 2.0\n")
    assert cfg.m == 3
    assert cfg.a == 2.0 + 0.0j
    assert cfg.n == 1024
    assert cfg.family == "none"
    assert cfg.tail_family() == TailFamily("none")


def test_template_matches_defaults():
    assert parse_config(config_text(ExperimentConfig())) == parse_config("")


def test_violations_are_collected():
    text = "m = 0\na_re = -1.0\nn = 4\nt_max = 1.0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    message = str(err.value)
    assert "m must be a positive integer" in message
    assert "a1 = Re a must be nonnegative" in message
    assert "at least 16 nodes" in message
    assert "t_max must exceed t_min" in message


def test_zero_a_rejected():
    with pytest.raises(ConfigError, match="a must be nonzero"):
        parse_config("a_re = 0.0\na_im = 0.0\n")


def test_syntax_errors_carry_line_numbers():
    text = "m = 2\nwhat is this\nunknown_key = 3\nm = 4\ndt0 = fast\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    message = str(err.value)
    assert "line 2: expected 'key = value'" in message
    assert "line 3: unknown key 'unknown_key'" in message
    assert "line 4: duplicate key 'm'" in message
    assert "line 5: cannot parse 'fast' as float" in message


@pytest.mark.parametrize("key, value", [("fit_cadence", 2), ("out", "x"), ("sign", -1)])
def test_removed_keys_are_unknown(tmp_path, capsys, key, value):
    """Every record is fitted, --out is the one output setting and the
    sign of kappa orients the tail, so neither fit_cadence, out nor sign
    is a config key: a config that sets one exits 2."""
    cfg = write_config(tmp_path, **{key: value})
    assert main(["predict", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"line 1: unknown key {key!r}" in capsys.readouterr().err


def test_family_violations_folded_in():
    with pytest.raises(ConfigError, match="activation radius"):
        parse_config("family = log_drift\nkappa = 0.3\nr1 = 0.5\n")


def test_snapshot_and_family_conflict():
    text = "family = log_drift\nkappa = 0.1\nsnapshot = some/file.dat\n"
    with pytest.raises(ConfigError, match="not both"):
        parse_config(text)


def test_family_round_trip():
    fam = TailFamily("ln_ln_oscillation", kappa=0.37, lam=2.25, r1=3.5, s0=0.8)
    cfg = parse_config(config_text(fam))
    assert cfg.tail_family() == fam


# ---------------------------------------------------------------------------
# snapshot persistence


def test_snapshot_round_trip(tmp_path):
    grid = build_grid(-6.0, 10.0, 64)
    vmap, _ = build_initial_data(TailFamily("log_drift", kappa=0.4), grid)
    path = tmp_path / "state.dat"
    save_snapshot(path, vmap, grid)
    loaded, lgrid = load_snapshot(path)
    assert lgrid.n == grid.n
    assert lgrid.rho_min == grid.rho_min and lgrid.rho_max == grid.rho_max
    assert loaded.m == vmap.m
    np.testing.assert_array_equal(loaded.v, vmap.v)
    assert loaded.beta is not None


def test_snapshot_errors(tmp_path, capsys):
    with pytest.raises(ConfigError, match="cannot read"):
        load_snapshot(tmp_path / "missing.dat")
    bad = tmp_path / "bad.dat"
    bad.write_text("# equiflow snapshot schema 1\n# m = 2\n0.0 1.0 0.0 0.0\n")
    with pytest.raises(ConfigError, match="metadata"):
        load_snapshot(bad)
    grid = build_grid(-2.0, 2.0, 16)
    vmap, _ = build_initial_data(TailFamily("none"), grid, m=2)
    off = tmp_path / "off.dat"
    save_snapshot(off, vmap, grid)
    lines = off.read_text().splitlines()
    parts = lines[-1].split()
    parts[1] = "2.0"
    lines[-1] = " ".join(parts)
    off.write_text("\n".join(lines) + "\n")
    with pytest.raises(NumericalError, match="unit sphere"):
        load_snapshot(off)
    for m in (0, -3):
        degree = tmp_path / f"degree{m}.dat"
        save_snapshot(degree, vmap, grid)
        degree.write_text(degree.read_text().replace("# m = 2\n", f"# m = {m}\n"))
        with pytest.raises(ConfigError, match=f"positive integer, got {m}"):
            load_snapshot(degree)
        for command in ("decompose", "simulate"):
            cfg = write_config(tmp_path, snapshot=str(degree))
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            assert f"positive integer, got {m}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, edited, message",
    [
        ("# n = 16\n", "", "is missing grid metadata n$"),
        ("# m = 2\n", "# m = 2.5\n", "grid metadata m is not an integer$"),
        ("# n = 16\n", "# n = 6.4e1\n", "grid metadata n is not an integer$"),
        ("# rho_min = -2\n", "# rho_min = -2,0\n", "grid metadata rho_min is not a number$"),
    ],
    ids=["missing-n", "m", "n", "rho_min"],
)
def test_snapshot_metadata_error_names_the_key(tmp_path, capsys, line, edited, message):
    """A missing grid key is called missing, and a malformed one is named
    and called not a number, in load_snapshot and through decompose."""
    grid = build_grid(-2.0, 2.0, 16)
    vmap, _ = build_initial_data(TailFamily("none"), grid, m=2)
    snap = tmp_path / "state.dat"
    save_snapshot(snap, vmap, grid)
    text = snap.read_text()
    assert line in text
    snap.write_text(text.replace(line, edited))
    with pytest.raises(ConfigError, match=message):
        load_snapshot(snap)
    cfg = write_config(tmp_path, snapshot=str(snap))
    assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert re.search(message, capsys.readouterr().err.strip())


@pytest.mark.parametrize(
    "where, lineno, key",
    [("header", 3, "m"), ("after_rows", 23, "m"), ("grid", 5, "rho_max")],
)
def test_snapshot_duplicate_metadata_key_is_rejected(tmp_path, capsys, where, lineno, key):
    """A repeated metadata key, in the header or after the data rows, is
    a ConfigError naming the key and its line, in load_snapshot and
    through decompose with exit code 2, as parse_config treats a repeated
    config key."""
    grid = build_grid(-2.0, 2.0, 16)
    vmap, _ = build_initial_data(TailFamily("none"), grid, m=2)
    snap = tmp_path / "state.dat"
    save_snapshot(snap, vmap, grid)
    lines = snap.read_text().splitlines()
    repeat = f"# {key} = 3"
    if where == "after_rows":
        lines.append(repeat)
    else:
        lines.insert(2, repeat)
    snap.write_text("\n".join(lines) + "\n")
    message = f"line {lineno}: duplicate key '{key}'$"
    with pytest.raises(ConfigError, match=message):
        load_snapshot(snap)
    cfg = write_config(tmp_path, snapshot=str(snap))
    assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert re.search(message, capsys.readouterr().err.strip())


def test_snapshot_slightly_off_the_sphere_is_renormalized(tmp_path):
    """Rows off the unit sphere by 1e-9, inside the load tolerance, load
    as v/|v|."""
    grid = build_grid(-6.0, 6.0, 128)
    v = (1.0 + 1e-9) * h_profile(Mu(1.0, 0.4, 3), grid).h
    path = tmp_path / "off.dat"
    save_snapshot(path, SphereMap(v, 3), grid)
    loaded, _ = load_snapshot(path)
    radii = np.linalg.norm(v, axis=1, keepdims=True)
    np.testing.assert_array_equal(loaded.v, v / radii)
    assert np.abs(np.linalg.norm(loaded.v, axis=1) - 1.0).max() <= 1e-15


def test_snapshot_blank_lines_are_skipped(tmp_path):
    """Blank and whitespace-only lines, among the metadata and between
    the rows, change nothing in the loaded map or its grid."""
    grid = build_grid(-6.0, 6.0, 64)
    path = tmp_path / "state.dat"
    save_snapshot(path, SphereMap(h_profile(Mu(1.0, 0.4, 3), grid).h, 3), grid)
    plain, plain_grid = load_snapshot(path)
    lines = path.read_text().splitlines()
    spaced = ["", *lines[:2], "   ", *lines[2:40], "\t", "", *lines[40:], ""]
    path.write_text("\n".join(spaced) + "\n")
    loaded, loaded_grid = load_snapshot(path)
    assert loaded_grid is plain_grid
    assert loaded.m == plain.m and loaded.beta is plain.beta is None
    assert loaded.v.tobytes() == plain.v.tobytes()


def edit_snapshot_row(tmp_path, edit):
    """Stored snapshot whose middle row holds edit(values of that row), and
    the line number of that row."""
    grid = build_grid(-8.0, 10.0, 256)
    vmap, _ = build_initial_data(TailFamily("log_drift", kappa=-0.3), grid)
    snap = tmp_path / "state.dat"
    save_snapshot(snap, vmap, grid)
    lines = snap.read_text().splitlines()
    row = len(lines) - grid.n // 2
    lines[row] = " ".join(edit(lines[row].split()))
    snap.write_text("\n".join(lines) + "\n")
    return snap, row + 1


def corrupt_snapshot(tmp_path, token):
    """Stored snapshot with one map value of its middle row replaced."""
    return edit_snapshot_row(tmp_path, lambda parts: parts[:2] + [token] + parts[3:])


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_snapshot_is_numerical_error(tmp_path, capsys, token):
    snap, _ = corrupt_snapshot(tmp_path, token)
    with pytest.raises(NumericalError, match="non-finite"):
        load_snapshot(snap)
    cfg = write_config(tmp_path, snapshot=str(snap))
    assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_non_numeric_snapshot_is_config_error(tmp_path, capsys):
    snap, lineno = corrupt_snapshot(tmp_path, "abc")
    with pytest.raises(ConfigError, match=f"line {lineno}"):
        load_snapshot(snap)
    cfg = write_config(tmp_path, snapshot=str(snap))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"line {lineno}" in capsys.readouterr().err


@pytest.mark.parametrize("width", [3, 5])
def test_ragged_snapshot_row_is_config_error(tmp_path, capsys, width):
    """A row of 3 or 5 values is named by its line, also through decompose."""
    snap, lineno = edit_snapshot_row(tmp_path, lambda parts: (parts + ["0.0"])[:width])
    with pytest.raises(ConfigError, match=f"line {lineno}: {width} values, expected 4"):
        load_snapshot(snap)
    cfg = write_config(tmp_path, snapshot=str(snap))
    assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"line {lineno}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, token",
    [
        (lambda parts: parts[:2] + ["1_0"] + parts[3:], "1_0"),
        (lambda parts: parts[:2] + ["\u0661"] + parts[3:], "\u0661"),
        (lambda parts: parts + ["#", "c"], "#"),
    ],
    ids=["underscore", "arabic-indic-digit", "trailing-comment"],
)
def test_snapshot_token_that_only_float_takes_is_config_error(tmp_path, capsys, edit, token):
    """A digit separator or a non-ASCII digit, which Python's float()
    takes, and a trailing comment on a row are a ConfigError naming the
    line and the token; decompose exits 2 with its one error line."""
    snap, lineno = edit_snapshot_row(tmp_path, edit)
    with pytest.raises(ConfigError, match=f"line {lineno}: .*'{token}'"):
        load_snapshot(snap)
    cfg = write_config(tmp_path, snapshot=str(snap))
    assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"line {lineno}: " in err and "Traceback" not in err


@pytest.mark.parametrize("key_first", [False, True], ids=["row-first", "key-first"])
def test_first_faulty_snapshot_line_is_named(tmp_path, capsys, key_first):
    """Of a faulty row and a repeated metadata key, the one earlier in the
    file is named, in load_snapshot and through decompose."""
    snap, row_line = corrupt_snapshot(tmp_path, "abc")
    lines = snap.read_text().splitlines()
    where = 3 if key_first else len(lines)
    lines.insert(where, "# m = 3")
    snap.write_text("\n".join(lines) + "\n")
    message = "line 4: duplicate key 'm'" if key_first else f"line {row_line}: could not convert"
    with pytest.raises(ConfigError, match=message):
        load_snapshot(snap)
    cfg = write_config(tmp_path, snapshot=str(snap))
    assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert re.search(message, capsys.readouterr().err)


def reference_rows(path) -> np.ndarray:
    """The data rows of a stored snapshot, read one float() per value."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return np.array([[float(p) for p in line.split()] for line in lines if line and line[0] != "#"])


def test_snapshot_parse_matches_a_float_reader(tmp_path):
    """On a perturbed n = 2048 map like those the round-trip bench loads,
    load_snapshot reads the bytes a per-value float() reader reads, and
    those are the stored map's."""
    grid = build_grid(-8.0, 16.0, 2048)
    prof = h_profile(Mu(s=math.exp(0.13), alpha=2.1, m=3), grid)
    bump = np.exp(-(((grid.rho - 0.4) / 0.7) ** 2))[:, None]
    v = prof.h + bump * (0.031 * prof.f.real - 0.017 * prof.f.imag)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    snap = tmp_path / "state.dat"
    save_snapshot(snap, SphereMap(v, 3), grid)
    loaded, lgrid = load_snapshot(snap)
    ref = reference_rows(snap)
    assert ref.shape == (2048, 4) and lgrid is grid
    assert loaded.v.tobytes() == ref[:, 1:].tobytes() == v.tobytes()


def test_rows_render_each_value_as_fmt():
    """Table rows hold each value as _fmt renders it: NaN, infinities,
    signed zeros, the smallest subnormal, the largest float and integer
    values, from float and integer columns, with either separator."""
    values = np.array([
        math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
        -1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e16, 1e22, 0.1, 1 / 3, 2.5e-308,
    ])
    columns = [values, values[::-1], np.arange(values.size), -values]
    for sep in (" ", ","):
        expected = [
            sep.join(cli_io._fmt(col[i]) for col in columns) for i in range(values.size)
        ]
        assert cli_io._rows(columns, sep) == expected


@pytest.mark.parametrize(
    "keys",
    [
        dict(m=3, n=128, delta=0.01, a_re=1e300),
        dict(family="log_drift", kappa=0.4, m=2, n=256, rho_min=-8.0, rho_max=12.0, a_re=1e-300),
    ],
    ids=["vector", "log_drift"],
)
def test_overflowing_run_prints_only_its_error_line(tmp_path, capsys, keys):
    """A flow coefficient that overflows the first step exits 3 with its
    error line and no floating-point warning, on the vector path and on
    the scalar path of an m = 2 tail. The scalar step scales its residual
    by 2 e^{2 rho}/(a1 dt), which overflows at a1 = 1e-300; a1 = 1e300
    only underflows it there."""
    cfg = write_config(tmp_path, **keys)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "non-finite" in err


def test_scalar_step_crank_nicolson_cannot_take_fails_fast(tmp_path, capsys, monkeypatch):
    """An m = 2 ln_ln_oscillation tail at kappa = 1, lam = 4, s0 = 0.3,
    ramped at 0.1, reaches a step at t = 20.1762, dt = 2.02, where a
    linearized mode grows faster than 2/dt. The Newton matrix there is not
    positive definite: the run exits 3 with that one error line, and no
    warning, before any back-solve of the step, where the Newton iteration
    once took all NEWTON_CAP iterations to report a divergence."""
    cfg = write_config(
        tmp_path, family="ln_ln_oscillation", kappa=1, lam=4, m=2, s0=0.3,
        rho_min=-14, rho_max=10, n=768, dt0=1e-4, ramp=0.1, t_end=1e5,
    )
    solves, per_step = [], []
    solve, step = evolve_llg.solve_banded, evolve_llg.step_scalar

    def counted_solve(*args):
        solves.append(1)
        return solve(*args)

    def counted_step(beta, t, dt, work, seed):
        per_step.append(0)
        before = len(solves)
        try:
            return step(beta, t, dt, work, seed)
        finally:
            per_step[-1] = len(solves) - before

    monkeypatch.setattr(evolve_llg, "solve_banded", counted_solve)
    monkeypatch.setattr(evolve_llg, "step_scalar", counted_step)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.endswith(
        "Newton matrix is not positive definite at t=20.1762, dt=2.02; reduce the step size\n"
    )
    assert len(per_step) > 100 and per_step[-1] == 0 and min(per_step[:-1]) >= 1


def test_fit_leaving_the_family_ends_without_a_traceback(tmp_path, capsys):
    """An m = 3 log_drift tail at kappa = 3, s0 = 3, ramped at 0.1: the
    finite-difference Newton steps of the record fit of the initial map
    take mu_1 = 3 log s from 3.3 to -5.9 and then to about -2807, where
    the scale underflows to 0. The fit fails like any other, leaving its
    row NaN, and simulate exits 0 with nothing on stderr, or 3 with one
    tagged numerical error line, and no warning either way, where it once
    ended in a ValueError traceback."""
    cfg = write_config(
        tmp_path, family="log_drift", kappa=3, m=3, s0=3,
        rho_min=-14, rho_max=10, n=768, dt0=1e-4, ramp=0.1, t_end=1e5,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert code in (0, 3)
    if code == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.startswith("equiflow error [numerical:")


# the tail recipes of the stress probe: every family, the oscillating ones
# at two frequencies
PROBE_TAILS = [
    ("none", 1.0), ("log_drift", 1.0),
    ("ln_ln_oscillation", 1.0), ("ln_ln_oscillation", 4.0), ("mixed", 1.0), ("mixed", 4.0),
]
# the completed runs of the probe today; a change that completes more
# raises it
PROBE_COMPLETED_FLOOR = 93


def test_stress_probe_of_ramped_tail_runs(tmp_path, capsys):
    """108 ramped simulate runs to t = 1e5 on rho in [-14, 10], n = 768:
    each tail recipe at kappa in {0.3, 1, 3}, m in {2, 3} and s0 in
    {0.3, 1, 3}. Every run exits 0 with nothing on stderr, or 3 with one
    tagged numerical error line, and none raises or warns; at least
    PROBE_COMPLETED_FLOOR of them exit 0."""
    bad, completed = [], 0
    for (family, lam), kappa, m, s0 in itertools.product(
        PROBE_TAILS, (0.3, 1, 3), (2, 3), (0.3, 1, 3)
    ):
        run = f"family={family} lam={lam} kappa={kappa} m={m} s0={s0}"
        cfg = write_config(
            tmp_path, family=family, lam=lam, kappa=kappa, m=m, s0=s0,
            rho_min=-14, rho_max=10, n=768, dt0=1e-4, ramp=0.1, t_end=1e5,
        )
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except Exception as exc:  # the traceback the probe looks for
                bad.append(f"{run}: raised {type(exc).__name__}: {exc}")
                continue
        err = capsys.readouterr().err
        if caught:
            bad.append(f"{run}: warned {[str(w.message) for w in caught]}")
        if code == 0 and err == "":
            completed += 1
        elif not (code == 3 and err.count("\n") == 1
                  and err.startswith("equiflow error [numerical:")):
            bad.append(f"{run}: exit {code}, stderr {err!r}")
    assert bad == []
    assert completed >= PROBE_COMPLETED_FLOOR


def test_rate_overflowing_after_the_last_step_prints_only_its_error_line(
    tmp_path, capsys, monkeypatch
):
    """A vector run whose dissipation rate overflows after its last
    step, its terms scaled past the float range there, exits 3 with its
    error line and no floating-point warning, and writes nothing to
    stdout, rather than booking an infinite dissipation and exiting 0."""
    cfg = write_config(tmp_path, m=3, n=128, delta=0.01)
    rate = evolve_llg.dissipation_rate
    calls = []

    def counted(terms, grid, a):
        calls.append(1)
        return rate(terms, grid, a)

    monkeypatch.setattr(evolve_llg, "dissipation_rate", counted)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "finite")]) == 0
    capsys.readouterr()
    last, calls[:] = len(calls), []

    def overflowing(terms, grid, a):
        calls.append(1)
        if len(calls) == last:
            radius, unit, lap, pa_lap = terms
            terms = radius, unit, 1e200 * lap, 1e200 * pa_lap
        return rate(terms, grid, a)

    monkeypatch.setattr(evolve_llg, "dissipation_rate", overflowing)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert [str(w.message) for w in caught] == []
    assert len(calls) == last
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "non-finite dissipation" in err


def drop_last_row(text):
    return "\n".join(text.splitlines()[:-1]) + "\n"


def shift_last_node(text):
    lines = text.splitlines()
    parts = lines[-1].split()
    parts[0] = repr(float(parts[0]) + 1e-6)
    lines[-1] = " ".join(parts)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "edit, message",
    [(drop_last_row, "has 15 rows, expected 16"), (shift_last_node, "nodes disagree")],
    ids=["row-count", "nodes"],
)
def test_snapshot_disagreeing_with_its_metadata_is_config_error(tmp_path, edit, message):
    """A snapshot with a row missing, or a node off its grid, is rejected."""
    grid = build_grid(-2.0, 2.0, 16)
    vmap, _ = build_initial_data(TailFamily("none"), grid, m=2)
    snap = tmp_path / "state.dat"
    save_snapshot(snap, vmap, grid)
    snap.write_text(edit(snap.read_text()))
    with pytest.raises(ConfigError, match=message):
        load_snapshot(snap)


# ---------------------------------------------------------------------------
# simulate


def scalar_run_config(tmp_path, **extra):
    keys = dict(
        m=2,
        rho_min=-6.0,
        rho_max=6.0,
        n=256,
        dt0=1e-3,
        ramp=0.02,
        t_end=1.0,
        records=5,
        family="none",
        s0=1.0,
    )
    keys.update(extra)
    return write_config(tmp_path, **keys)


def test_simulate_profile_has_constant_parameters(tmp_path, capsys):
    cfg = scalar_run_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert "solver=scalar" in report
    comments, header, data = read_csv(out / "series.csv")
    assert comments[0] == "# equiflow series schema 1"
    names = [c.split(":")[0].replace("# column ", "") for c in comments if c.startswith("# column")]
    assert names == header
    cols = dict(zip(header, data.T))
    fitted = ~np.isnan(cols["s"])
    assert fitted.all()
    np.testing.assert_allclose(cols["s"][fitted], 1.0, atol=1e-6)
    np.testing.assert_allclose(cols["alpha"][fitted], 0.0, atol=1e-9)
    np.testing.assert_allclose(cols["energy"], 8.0 * math.pi, rtol=1e-5)
    assert np.nanmax(cols["q_norm"]) < 1e-4
    loaded, _ = load_snapshot(out / "snapshot_final.dat")
    assert loaded.m == 2


def test_simulate_outputs_are_bit_identical(tmp_path):
    cfg = scalar_run_config(tmp_path, family="log_drift", kappa=-0.3, rho_max=10.0, n=384)
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
    for name in ("series.csv", "snapshot_final.dat"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_vector_path(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        m=3,
        a_re=1.0,
        a_im=1.0,
        rho_min=-6.0,
        rho_max=6.0,
        n=128,
        dt0=2e-3,
        t_end=0.05,
        records=3,
        family="none",
        delta=0.02,
        seed=7,
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert "solver=vector" in capsys.readouterr().out
    _, header, data = read_csv(out / "series.csv")
    cols = dict(zip(header, data.T))
    assert np.all(np.isfinite(cols["energy"]))
    assert np.all(np.isnan(cols["prediction"]))
    assert np.nanmax(cols["z_sup"]) < 0.3


def snapshot_run(tmp_path, capsys, vmap, grid):
    """simulate from a stored snapshot of vmap on grid: the summary line,
    the series comments and the final map."""
    snap = tmp_path / "start.dat"
    save_snapshot(snap, vmap, grid)
    cfg = write_config(tmp_path, snapshot=snap, dt0=2e-3, t_end=0.02, records=3)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    comments, _, _ = read_csv(out / "series.csv")
    final, _ = load_snapshot(out / "snapshot_final.dat")
    return summary, comments, final


def test_simulate_from_non_planar_snapshot_runs_vector_path(tmp_path, capsys):
    """A snapshot off the great circle runs on the vector stepper, with no
    family and so no initial energy excess, and ends on the sphere."""
    grid = build_grid(-6.0, 6.0, 128)
    prof = h_profile(Mu(1.0, 0.4, 3), grid)
    bump = 0.02 * np.exp(-(((grid.rho - 0.5) / 0.8) ** 2))
    v = prof.h + bump[:, None] * (prof.f.real + prof.f.imag)
    vmap = SphereMap(v / np.linalg.norm(v, axis=1, keepdims=True), 3)
    summary, comments, final = snapshot_run(tmp_path, capsys, vmap, grid)
    assert "solver=vector" in summary
    assert any("initial energy excess = nan" in c for c in comments)
    assert final.m == 3
    assert np.abs(np.linalg.norm(final.v, axis=1) - 1.0).max() <= 1e-10


def test_simulate_from_planar_snapshot_runs_scalar_path(tmp_path, capsys):
    grid = build_grid(-6.0, 6.0, 128)
    vmap = SphereMap(h_profile(Mu(1.0, 0.0, 2), grid).h, 2)
    summary, _, _ = snapshot_run(tmp_path, capsys, vmap, grid)
    assert "solver=scalar" in summary


def test_quiet_suppresses_report(tmp_path, capsys):
    cfg = scalar_run_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("solver", ["scalar", "vector"])
def test_simulate_report_iteration_stats(tmp_path, capsys, monkeypatch, solver):
    """The summary line gives the inner iterations per step, mean and
    maximum, the banded factorizations per step and, on the vector path,
    the energy identity residual; none of it reaches the CSV, whose bytes
    match a --quiet run."""
    if solver == "scalar":
        cfg = scalar_run_config(tmp_path)
    else:
        cfg = write_config(
            tmp_path, m=3, a_re=1.0, rho_min=-6.0, rho_max=6.0, n=128, dt0=2e-3,
            t_end=0.02, records=3, family="none", delta=0.02, seed=7,
        )
    runs = []
    run = getattr(cli_io, f"run_{solver}")

    def kept(*args):
        runs.append(run(*args))
        return runs[-1]

    monkeypatch.setattr(cli_io, f"run_{solver}", kept)
    loud, quiet = tmp_path / "loud", tmp_path / "quiet"
    assert main(["simulate", "--config", str(cfg), "--out", str(loud)]) == 0
    report = capsys.readouterr().out.splitlines()[0].split()
    assert main(["simulate", "--config", str(cfg), "--out", str(quiet), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    for name in ("series.csv", "snapshot_final.dat"):
        assert (loud / name).read_bytes() == (quiet / name).read_bytes()
    series = runs[0]
    stats = dict(item.split("=") for item in report[1:])
    assert stats["solver"] == solver
    assert series.steps > 0 and series.max_step_iterations > 0
    assert stats["iterations_per_step"] == f"{series.iterations / series.steps:.3g}"
    assert stats["max_step_iterations"] == str(series.max_step_iterations)
    assert series.steps <= series.factorizations <= series.iterations
    assert stats["factorizations_per_step"] == f"{series.factorizations / series.steps:.3g}"
    if solver == "vector":
        assert stats["energy_identity_residual"] == f"{energy_identity_residual(series):.3e}"
    else:
        assert "energy_identity_residual" not in stats
    text = (loud / "series.csv").read_text(encoding="utf-8")
    assert "iterations" not in text and "factorizations" not in text


def stiff_config(tmp_path, n, dt0):
    """A plain m = 3 heat-flow config whose first steps are stiff:
    dt e^{12} / drho^2 is large."""
    return write_config(
        tmp_path, m=3, a_re=1.0, rho_min=-6.0, rho_max=6.0, n=n, dt0=dt0,
        t_end=0.1, records=4, family="none", delta=0.02, seed=7,
    )


def test_simulate_diverging_chord_iteration_says_diverged(tmp_path, capsys, monkeypatch):
    """On this stiff config the Newton-chord iteration of step_vector
    re-factors when its updates contract poorly, and the run exits 0. A
    chord iteration that never re-factors (CHORD_CONTRACTION = inf)
    diverges on the first step, its updates growing past 1e20 by the last
    allowed iterate; that run exits 3 with a message that names the
    divergence and gives the first and the last update."""
    cfg = stiff_config(tmp_path, 768, 2e-3)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    monkeypatch.setattr(evolve_llg, "CHORD_CONTRACTION", math.inf)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 3
    err = capsys.readouterr().err
    assert "[numerical:StepError]" in err
    assert "midpoint iteration diverged" in err and "stalled" not in err
    first, last = re.search(r"first update (\S+), last (\S+)\)", err).groups()
    assert float(last) > 1e6 * float(first)


def test_simulate_stiff_vector_config_runs_through(tmp_path, capsys):
    """The stiff config at n = 1024 and dt0 = 1e-3, which diverged under a
    chord iteration that never re-factors, runs through at no more than 5
    iterations a step. The LU is held across steps, so the iteration
    factors little more than once a step: the re-factor that a poorly
    contracting update calls for replaces the factorization at the start
    of the next step."""
    cfg = stiff_config(tmp_path, 1024, 1e-3)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    report = capsys.readouterr().out.splitlines()[0].split()
    stats = dict(item.split("=") for item in report[1:])
    assert int(stats["max_step_iterations"]) <= 5
    assert 1.0 < float(stats["factorizations_per_step"]) <= 1.2


# ---------------------------------------------------------------------------
# predict


def test_predict_drift_sign_and_class(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        m=2,
        rho_min=-8.0,
        rho_max=10.0,
        n=512,
        family="log_drift",
        kappa=-0.5,
        t_min=10.0,
        t_max=1e5,
        t_points=21,
    )
    out = tmp_path / "out"
    assert main(["predict", "--config", str(cfg), "--out", str(out)]) == 0
    comments, header, data = read_csv(out / "predict.csv")
    cols = dict(zip(header, data.T))
    assert cols["q_form"][-1] < -0.3
    assert np.all(np.diff(cols["t"]) > 0)
    assert any("predicted class" in c for c in comments)


def test_predict_beyond_horizon_is_numerical_failure(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        m=2,
        rho_min=-8.0,
        rho_max=8.0,
        n=256,
        family="none",
        t_min=10.0,
        t_max=1e8,
        t_points=9,
    )
    code = main(["predict", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "code=3" in err and "largest usable" in err


def test_predict_on_few_times_is_undetermined(tmp_path, capsys):
    """Fewer than 8 prediction times are too few to classify."""
    cfg = write_config(
        tmp_path, m=2, rho_min=-8.0, rho_max=10.0, n=256, family="log_drift", kappa=-0.3,
        t_max=1e4, t_points=5,
    )
    out = tmp_path / "out"
    assert main(["predict", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("predict: class=UNDETERMINED ")
    comments, _, data = read_csv(out / "predict.csv")
    assert "# predicted class of the q form = UNDETERMINED" in comments
    assert data.shape == (5, 3)


def test_config_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, a_re=-1.0)
    assert main(["predict", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "code=2" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["config", "snapshot"])
def test_m1_rejected_before_any_compute(tmp_path, capsys, monkeypatch, source):
    """simulate and decompose exit 2 on m = 1, from the config or from a
    snapshot header, before any solve or fit."""

    def no_run(*args, **kwargs):
        raise AssertionError("computation started for m = 1")

    for name in ("run_vector", "run_scalar", "fit_mu"):
        monkeypatch.setattr(cli_io, name, no_run)
    if source == "config":
        cfg = write_config(tmp_path, m=1, a_im=1.0, n=128, delta=0.02)
    else:
        grid = build_grid(-6.0, 6.0, 128)
        snap = tmp_path / "m1.dat"
        save_snapshot(snap, SphereMap(h_profile(Mu(1.0, 0.0, 1), grid).h, 1), grid)
        cfg = write_config(tmp_path, a_im=1.0, snapshot=snap)
    for command in ("simulate", "decompose"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "code=2" in err and "m = 1 is not supported" in err


BAD_VALUES = [
    {"family": "log_drift", "kappa": "nan"},
    {"family": "ln_ln_oscillation", "kappa": 0.3, "lam": "inf"},
    {"t_max": "inf"},
    {"s0": "inf"},
    {"t_end": "inf"},
    {"dt0": "inf"},
    {"family": "log_drift", "kappa": 0.3, "cut_width": -1.0},
    {"family": "log_drift", "kappa": 0.3, "cut_width": 0.0},
    {"delta": 1e300},
]


@pytest.mark.parametrize("command", ["simulate", "predict"])
@pytest.mark.parametrize(
    "keys", BAD_VALUES, ids=lambda keys: ",".join(f"{k}={v}" for k, v in keys.items())
)
def test_bad_values_are_config_errors(tmp_path, capsys, monkeypatch, command, keys):
    """Non-finite numbers, a nonpositive cut_width and a delta whose
    perturbed map cannot be renormalized (a traceback from run_vector
    before) exit 2 with a config error line before any compute."""

    def no_compute(*args, **kwargs):
        raise AssertionError("computation started on an invalid config")

    for name in ("run_vector", "run_scalar", "predict_log_s", "build_initial_data"):
        monkeypatch.setattr(cli_io, name, no_compute)
    cfg = write_config(tmp_path, n=64, **keys)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "equiflow error [config] code=2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "predict"])
def test_every_tail_violation_is_reported(tmp_path, capsys, command):
    """A tail family that fails three of its checks exits 2 with one error
    block naming each on its own line; before, only the first was named."""
    cfg = write_config(tmp_path, family="log_drift", r1=0.5, cut_width=0, lam=-1)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("equiflow error") == 1
    lines = err.splitlines()
    assert lines[0] == "equiflow error [config] code=2: invalid config:"
    assert lines[1:] == [
        "  - activation radius r1 must exceed 1",
        "  - tail frequency lam must be positive",
        "  - cut_width must be positive",
    ]
    assert not (tmp_path / "o").exists()


OUT_OF_REACH = [
    ({"rho_min": -400.0, "rho_max": 400.0}, "grid spacing drho = 12.7 on [-400.0, 400.0] exceeds 2.0"),
    ({"s0": 1e300}, "s0 = 1e+300 puts log s0 = 690.8 outside the grid's rho range (-8.0, 8.0)"),
    ({"s0": 1e-300, "rho_min": -6.0, "rho_max": 6.0}, "log s0 = -690.8 outside the grid's rho range (-6.0, 6.0)"),
    (
        {"s0": 1e-108, "rho_min": -310.0, "rho_max": -200.0},
        "grid bounds [-310.0, -200.0] reach past |rho| = 300",
    ),
    (
        {"m": 6, "rho_min": -120.0, "rho_max": 5.0},
        "s0 = 1.0 puts m |rho - log s0| = 720 past 710 on the grid's rho range (-120.0, 5.0)",
    ),
]


@pytest.mark.parametrize("command", ["simulate", "predict"])
@pytest.mark.parametrize(
    "keys,message", OUT_OF_REACH, ids=["drho", "s0_above", "s0_below", "rho_far", "sinh_reach"]
)
def test_grid_and_scale_out_of_reach_are_config_errors(
    tmp_path, capsys, monkeypatch, recwarn, command, keys, message
):
    """A grid spacing the quadrature weights cannot resolve (a singular
    matrix traceback before), an initial scale whose log lies off the
    grid (an overflow warning and NaN fits before), a grid past the |rho|
    where e^{2 rho} or e^{-2 rho} overflows, and a profile whose
    sinh(m (rho - log s0)) overflows on the grid (overflow warnings and
    NaN fits before) exit 2 before any compute, name the limit, warn
    nothing and leave no --out behind."""

    def no_compute(*args, **kwargs):
        raise AssertionError("computation started on an invalid config")

    for name in ("run_vector", "run_scalar", "predict_log_s", "build_initial_data"):
        monkeypatch.setattr(cli_io, name, no_compute)
    cfg = write_config(tmp_path, n=64, **keys)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "equiflow error [config] code=2" in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()
    assert len(recwarn) == 0


@pytest.mark.parametrize(
    "keys, steps",
    [({"dt0": 1e-300}, "1e+300"), ({"dt_max": 1e-300}, "1e+300"), ({"t_end": 1e300}, "1e+303")],
    ids=["dt0", "dt_max", "t_end"],
)
def test_step_budget_is_a_config_error(tmp_path, capsys, monkeypatch, recwarn, keys, steps):
    """A schedule whose step count passes MAX_STEPS exits 2 before any
    compute and names the count; before, each of these ran step by step
    until MAX_STEPS = 2,000,000 steps."""

    def no_compute(*args, **kwargs):
        raise AssertionError("computation started on an invalid config")

    for name in ("run_vector", "run_scalar", "build_initial_data", "load_snapshot"):
        monkeypatch.setattr(cli_io, name, no_compute)
    cfg = write_config(tmp_path, n=64, **keys)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "equiflow error [config] code=2" in err
    assert f"take about {steps} steps" in err and "more than the 2000000 a run may take" in err
    assert not (tmp_path / "o").exists()
    assert len(recwarn) == 0



@pytest.mark.parametrize("command", ["simulate", "predict"])
def test_allocation_sizes_are_bounded(tmp_path, capsys, monkeypatch, recwarn, command):
    """records, t_points and n in the millions exit 2 before any compute
    and name each bound; before, the config was accepted, and simulate
    would have allocated records x n x 3 floats and predict a 1e8-point
    time grid."""

    def no_compute(*args, **kwargs):
        raise AssertionError("computation started on an invalid config")

    for name in ("run_vector", "run_scalar", "predict_log_s", "build_initial_data"):
        monkeypatch.setattr(cli_io, name, no_compute)
    cfg = write_config(tmp_path, records=100000000, t_points=100000000, n=10000000)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "equiflow error [config] code=2" in err
    assert "n must be at most 65536, got 10000000" in err
    assert "records x n x 3 floats, must be at most 33554432, got 3000000000000000" in err
    assert "t_points must be at most 1048576, got 100000000" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()
    assert len(recwarn) == 0

def test_snapshots_of_one_grid_share_it(tmp_path):
    grid = build_grid(-6.0, 6.0, 64)
    paths = [tmp_path / f"map{k}.dat" for k in range(2)]
    for k, path in enumerate(paths):
        save_snapshot(path, SphereMap(h_profile(Mu(1.0 + k, 0.0, 2), grid).h, 2), grid)
    (_, first), (_, second) = (load_snapshot(path) for path in paths)
    assert first is second is grid


def test_missing_config_file(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err


def test_bad_out_directory_is_config_error(tmp_path, capsys):
    """An --out that names an existing file, or a path below one, exits 2
    with a config error that names the directory."""
    cfg = write_config(tmp_path, n=64)
    blocker = tmp_path / "afile"
    blocker.write_text("", encoding="utf-8")
    for out in (blocker, blocker / "sub"):
        assert main(["predict", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"code=2: cannot create output directory {out}: " in err
        assert "Traceback" not in err


FAILING = {
    "decompose": (dict(m=2), 2),
    "sweep": (dict(m=2, family="log_drift", kappa=0.3), 2),
    "predict": (dict(m=2, n=256, family="none", t_max=1e8, t_points=9), 3),
}


@pytest.mark.parametrize("command", list(FAILING))
def test_failed_command_leaves_no_directory_behind(tmp_path, capsys, command):
    """A command that fails, decompose without a snapshot, sweep without
    sweep_kappa or predict beyond the grid, removes the --out directories
    main created for it, and keeps an --out that already existed."""
    keys, code = FAILING[command]
    cfg = write_config(tmp_path, **keys)
    new = tmp_path / "newdir"
    assert main([command, "--config", str(cfg), "--out", str(new / "deep")]) == code
    assert not new.exists()
    existing = tmp_path / "existing"
    existing.mkdir()
    for out in (existing, existing / "deep"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == code
    assert existing.is_dir() and not any(existing.iterdir())
    assert f"code={code}" in capsys.readouterr().err


def test_non_utf8_input_is_config_error(tmp_path, capsys):
    """A config or a snapshot holding a byte that is not UTF-8 exits 2
    with "cannot read"."""
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"# caf\xe9\nm = 2\n")
    assert main(["predict", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "code=2: cannot read config: " in capsys.readouterr().err
    grid = build_grid(-6.0, 6.0, 64)
    snap = tmp_path / "latin1.dat"
    save_snapshot(snap, SphereMap(h_profile(Mu(1.0, 0.0, 2), grid).h, 2), grid)
    snap.write_bytes(b"# caf\xe9\n" + snap.read_bytes())
    with pytest.raises(ConfigError, match="cannot read snapshot"):
        load_snapshot(snap)
    cfg = write_config(tmp_path, snapshot=snap)
    assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"code=2: cannot read snapshot {snap}: " in capsys.readouterr().err


def report_config(tmp_path, command):
    """A small config that the command runs through."""
    if command == "simulate":
        return scalar_run_config(tmp_path, n=64)
    if command == "decompose":
        grid = build_grid(-6.0, 6.0, 128)
        snap = tmp_path / "state.dat"
        save_snapshot(snap, SphereMap(h_profile(Mu(1.0, 0.0, 2), grid).h, 2), grid)
        return write_config(tmp_path, snapshot=snap)
    keys = dict(m=2, rho_min=-8.0, rho_max=10.0, n=256, family="log_drift", kappa=-0.3,
                t_max=1e4, t_points=9)
    if command == "sweep":
        keys["sweep_kappa"] = "-0.3,0.3"
    return write_config(tmp_path, **keys)


REPORTS = {
    "simulate": (
        r"solver=scalar steps=\d+ records=6 iterations_per_step=\S+ "
        r"max_step_iterations=\d+ factorizations_per_step=\S+",
        ["series.csv", "snapshot_final.dat"],
    ),
    "decompose": (r"s=\S+ alpha=\S+ q_norm=\S+", ["decompose.csv"]),
    "predict": (r"class=[A-Z]+ final_q_form=\S+", ["predict.csv"]),
    "sweep": (r"2 rows", ["sweep.csv"]),
}


@pytest.mark.parametrize("command", list(REPORTS))
def test_report_is_summary_then_written_paths(tmp_path, capsys, command):
    """Without --quiet, main prints the command's summary line, then one
    line per file written, in order; with --quiet it prints nothing and
    writes the same files."""
    cfg = report_config(tmp_path, command)
    summary, names = REPORTS[command]
    loud, quiet = tmp_path / "loud", tmp_path / "quiet"
    assert main([command, "--config", str(cfg), "--out", str(loud)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(f"{command}: {summary}", lines[0]), lines[0]
    assert lines[1:] == [f"{command}: wrote {loud / name}" for name in names]
    assert main([command, "--config", str(cfg), "--out", str(quiet), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert sorted(path.name for path in quiet.iterdir()) == sorted(names)


def test_failed_fit_leaves_its_row_nan(monkeypatch):
    """A record whose fit fails (here: no equator crossing, the profile
    reflected through the equator) reads NaN in every fitted column but
    keeps t, energy and dissipated; the next record is fit from the last
    good fit."""
    grid = build_grid(-6.0, 10.0, 512)
    first, last = Mu(1.0, 0.3, 3), Mu(1.1, 0.35, 3)
    h = h_profile(first, grid).h
    maps = [h, h * np.array([1.0, 1.0, -1.0]), h_profile(last, grid).h]
    series = evolve_llg.RunSeries(
        t=np.array([0.0, 0.5, 1.0]),
        v=np.stack(maps),
        energy=np.array([3.0, 2.0, 1.0]),
        dissipated=np.array([0.0, 1.0, 2.0]),
        steps=2,
        m=3,
        a=1.0 + 0.0j,
    )
    fit_mu, guesses, failures = cli_io.fit_mu, [], []

    def spy(vmap, guess, *args, **kwargs):
        guesses.append(guess)
        try:
            return fit_mu(vmap, guess, *args, **kwargs)
        except NumericalError as exc:
            failures.append(str(exc))
            raise

    monkeypatch.setattr(cli_io, "fit_mu", spy)
    out = cli_io.series_observables(series, grid, series.map_at(0))
    assert len(failures) == 1 and failures[0].startswith("no equatorial crossing found")
    assert guesses[0] is None and guesses[1] == guesses[2]
    assert abs(guesses[1].s - 1.0) <= 1e-9 and abs(guesses[1].alpha - 0.3) <= 1e-9
    for name in ("t", "energy", "dissipated"):
        assert np.array_equal(out[name], getattr(series, name))
    fitted = ("s", "alpha", "q_norm", "z_xnorm", "z_sup", "normal_form_re", "normal_form_im")
    for name in fitted:
        assert np.isnan(out[name][1]), name
        assert np.isfinite(out[name][[0, 2]]).all(), name
    assert abs(out["s"][2] - 1.1) <= 1e-9 and abs(out["alpha"][2] - 0.35) <= 1e-9


# ---------------------------------------------------------------------------
# decompose


# ---------------------------------------------------------------------------
# decompose


def test_decompose_snapshot(tmp_path, capsys):
    grid = build_grid(-8.0, 10.0, 1024)
    vmap, _ = build_initial_data(TailFamily("log_drift", kappa=-0.3), grid)
    snap = tmp_path / "state.dat"
    save_snapshot(snap, vmap, grid)
    cfg = write_config(tmp_path, snapshot=str(snap))
    out = tmp_path / "out"
    assert main(["decompose", "--config", str(cfg), "--out", str(out)]) == 0
    comments, header, data = read_csv(out / "decompose.csv")
    assert header == ["rho", "q_re", "q_im", "z_re", "z_im"]
    assert data.shape == (1024, 5)
    assert any("fitted s" in c for c in comments)
    assert "decompose: s=" in capsys.readouterr().out


def test_decompose_requires_snapshot(tmp_path, capsys):
    cfg = write_config(tmp_path, m=2)
    assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "needs a snapshot" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def sweep_config(tmp_path, **extra):
    """A log_drift sweep config; a key given as None is left out."""
    keys = dict(
        m=2,
        rho_min=-8.0,
        rho_max=10.0,
        n=512,
        family="log_drift",
        sweep_kappa="-0.5,-0.2,0.2,0.5",
        t_min=10.0,
        t_max=1e5,
        t_points=21,
    )
    keys.update(extra)
    return write_config(tmp_path, **{k: v for k, v in keys.items() if v is not None})


def test_sweep_rows_sorted_with_oracle_signs(tmp_path):
    cfg = sweep_config(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    _, header, data = read_csv(out / "sweep.csv")
    cols = dict(zip(header, data.T))
    np.testing.assert_array_equal(cols["kappa"], [-0.5, -0.2, 0.2, 0.5])
    # the gauge-field form has no core offset, so drift signs follow kappa
    assert np.all(np.sign(cols["q_drift"]) == np.sign(cols["kappa"]))
    assert np.all(np.diff(cols["q_drift"]) > 0)
    assert np.all(cols["excess"] > 0)


def test_sweep_two_parameter_grid_sorted_and_order_free(tmp_path):
    """A 4 x 2 sweep writes 8 rows sorted by (kappa, lam), and the same
    bytes whatever the order of the sweep_kappa and sweep_lam lists."""
    family = "ln_ln_oscillation"
    ordered = sweep_config(tmp_path, name="a.cfg", sweep_lam="1.0,2.0", family=family)
    shuffled = sweep_config(
        tmp_path, name="b.cfg", sweep_kappa="0.2,-0.5,0.5,-0.2", sweep_lam="2.0,1.0", family=family
    )
    out1, out2 = tmp_path / "ordered", tmp_path / "shuffled"
    assert main(["sweep", "--config", str(ordered), "--out", str(out1), "--quiet"]) == 0
    assert main(["sweep", "--config", str(shuffled), "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    _, header, data = read_csv(out1 / "sweep.csv")
    cols = dict(zip(header, data.T))
    np.testing.assert_array_equal(cols["kappa"], np.repeat([-0.5, -0.2, 0.2, 0.5], 2))
    np.testing.assert_array_equal(cols["lam"], np.tile([1.0, 2.0], 4))


def test_sweep_validation(tmp_path, capsys, monkeypatch):
    """A sweep without sweep_kappa, with an empty sweep_kappa, on the
    family none, or with a sweep_lam list on log_drift, which has no
    frequency, exits 2 before any initial data is built. A missing list is
    caught by cmd_sweep, an empty value already by parse_config."""

    def no_build(*args, **kwargs):
        raise AssertionError("initial data built for a rejected sweep")

    monkeypatch.setattr(cli_io, "build_initial_data", no_build)
    no_list = sweep_config(tmp_path, name="a.cfg", sweep_kappa=None)
    assert main(["sweep", "--config", str(no_list), "--out", str(tmp_path / "o")]) == 2
    assert "code=2: sweep needs a nonempty sweep_kappa list in the config" in (
        capsys.readouterr().err
    )
    empty = sweep_config(tmp_path, name="e.cfg", sweep_kappa="")
    assert main(["sweep", "--config", str(empty), "--out", str(tmp_path / "o")]) == 2
    assert "empty value for key 'sweep_kappa'" in capsys.readouterr().err
    bare = sweep_config(tmp_path, name="b.cfg", family="none")
    assert main(["sweep", "--config", str(bare), "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()
    no_lam = sweep_config(tmp_path, name="c.cfg", sweep_kappa="0.3", sweep_lam="1.0,2.0")
    assert main(["sweep", "--config", str(no_lam), "--out", str(tmp_path / "o")]) == 2
    assert "code=2: sweep_lam varies the tail frequency, which family 'log_drift'" in (
        capsys.readouterr().err
    )
