"""Tests for config parsing, CSV/snapshot output, and the CLI commands."""

import math

import numpy as np
import pytest

from equiflow.cli_io import (
    config_template,
    family_to_config,
    load_snapshot,
    main,
    parse_config,
    save_snapshot,
)
from equiflow.errors import ConfigError, NumericalError
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


def test_defaults_and_minimal_config():
    cfg = parse_config("m = 3\na_re = 2.0\n")
    assert cfg.m == 3
    assert cfg.a == 2.0 + 0.0j
    assert cfg.n == 1024
    assert cfg.family == "none"
    assert cfg.tail_family() == TailFamily("none")


def test_template_matches_defaults():
    assert parse_config(config_template()) == parse_config("")


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


def test_family_violations_folded_in():
    with pytest.raises(ConfigError, match="activation radius"):
        parse_config("family = log_drift\nkappa = 0.3\nr1 = 0.5\n")


def test_snapshot_and_family_conflict():
    text = "family = log_drift\nkappa = 0.1\nsnapshot = some/file.dat\n"
    with pytest.raises(ConfigError, match="not both"):
        parse_config(text)


def test_family_round_trip():
    fam = TailFamily("ln_ln_oscillation", kappa=-0.37, lam=2.25, r1=3.5, sign=-1, s0=0.8)
    cfg = parse_config(family_to_config(fam))
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


def test_snapshot_errors(tmp_path):
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


def corrupt_snapshot(tmp_path, token):
    """Stored snapshot with one map value of its middle row replaced."""
    grid = build_grid(-8.0, 10.0, 256)
    vmap, _ = build_initial_data(TailFamily("log_drift", kappa=-0.3), grid)
    snap = tmp_path / "state.dat"
    save_snapshot(snap, vmap, grid)
    lines = snap.read_text().splitlines()
    row = len(lines) - grid.n // 2
    parts = lines[row].split()
    parts[2] = token
    lines[row] = " ".join(parts)
    snap.write_text("\n".join(lines) + "\n")
    return snap, row + 1


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


def test_quiet_suppresses_report(tmp_path, capsys):
    cfg = scalar_run_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


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


def test_config_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, a_re=-1.0)
    assert main(["predict", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "code=2" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err


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
    return write_config(tmp_path, **keys)


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


def test_sweep_thread_cap_keeps_output_identical(tmp_path, monkeypatch):
    cfg = sweep_config(tmp_path, sweep_lam="1.0,2.0", family="ln_ln_oscillation")
    out1, out2 = tmp_path / "par", tmp_path / "seq"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
    monkeypatch.setenv("EQUIFLOW_THREADS", "1")
    assert main(["sweep", "--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    _, _, data = read_csv(out1 / "sweep.csv")
    assert data.shape[0] == 8


def test_sweep_validation(tmp_path, capsys, monkeypatch):
    no_list = sweep_config(tmp_path, name="a.cfg", sweep_kappa="")
    assert main(["sweep", "--config", str(no_list), "--out", str(tmp_path / "o")]) == 2
    bare = sweep_config(tmp_path, name="b.cfg", family="none")
    assert main(["sweep", "--config", str(bare), "--out", str(tmp_path / "o")]) == 2
    monkeypatch.setenv("EQUIFLOW_THREADS", "zero")
    good = sweep_config(tmp_path, name="c.cfg")
    assert main(["sweep", "--config", str(good), "--out", str(tmp_path / "o")]) == 2
    assert "EQUIFLOW_THREADS" in capsys.readouterr().err
