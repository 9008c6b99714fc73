"""Tests for tail construction, scale prediction, and behavior classification."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from equiflow.errors import ConfigError, NumericalError
from equiflow.evolve_llg import SphereMap, stationary_angle
from equiflow.radial_grid import build_grid
from equiflow.scenarios import (
    BehaviorClass,
    TailFamily,
    build_initial_data,
    classify_behavior,
    predict_log_s,
    tail_angle,
)


@pytest.fixture(scope="module")
def grid():
    return build_grid(-14.0, 10.0, 1536)


def synthetic_planar_map(fam: TailFamily, grid) -> SphereMap:
    """Great-circle map whose first component is exactly the tail field.

    The angle arccos(v1) wraps the prescribed first component into a unit
    map, so prediction readouts over the fully switched-on region obey
    the antiderivative of P in closed form.
    """
    v1 = -tail_angle(fam, grid)
    beta = np.arccos(np.clip(v1, -1.0, 1.0))
    v = np.stack([np.cos(beta), np.zeros_like(beta), np.sin(beta)], axis=-1)
    return SphereMap(v=v, m=2, beta=beta)


# ---------------------------------------------------------------------------
# tail family recipes


def test_family_validation():
    with pytest.raises(ConfigError):
        TailFamily("quadratic", kappa=0.1)
    with pytest.raises(ConfigError):
        TailFamily("log_drift", kappa=0.1, r1=1.0)
    with pytest.raises(ConfigError):
        TailFamily("ln_ln_oscillation", kappa=0.1, lam=0.0)
    with pytest.raises(ConfigError):
        TailFamily("log_drift", kappa=0.1, s0=0.0)
    with pytest.raises(ConfigError):
        TailFamily("log_drift", kappa=0.1, cut_width=0.0)


def p_value(fam: TailFamily, u: np.ndarray) -> np.ndarray:
    """The drift profile P of fam in closed form, the antiderivative of
    fam.p_prime: the reference for the prediction oracles."""
    u = np.asarray(u, dtype=float)
    if fam.family == "none":
        return np.zeros_like(u)
    if fam.family == "log_drift":
        return fam.kappa * u
    if fam.family == "ln_ln_oscillation":
        return fam.kappa * np.sin(fam.lam * u)
    return fam.kappa * (u + np.sin(fam.lam * u))


def test_drift_profile_consistency():
    u = np.linspace(0.1, 3.0, 200)
    du = u[1] - u[0]
    for fam in (
        TailFamily("log_drift", kappa=-0.7),
        TailFamily("ln_ln_oscillation", kappa=0.5, lam=2.3),
        TailFamily("mixed", kappa=0.4, lam=1.7),
    ):
        fd = np.gradient(p_value(fam, u), du)
        inner = slice(2, -2)
        assert np.max(np.abs(fd[inner] - fam.p_prime(u)[inner])) < 5e-3
    assert np.all(p_value(TailFamily("none"), u) == 0.0)
    assert np.all(TailFamily("none").p_prime(u) == 0.0)


def test_tail_angle_support_and_smoothness(grid):
    fam = TailFamily("log_drift", kappa=-0.8, r1=math.e)
    p = tail_angle(fam, grid)
    assert np.all(p[grid.rho <= 1.0] == 0.0)
    assert np.all(p[grid.rho >= 2.5] != 0.0)
    # the switched-on region carries -P' / ln r exactly
    far = grid.rho >= 2.5
    expected = -fam.kappa / grid.rho[far]
    assert np.max(np.abs(p[far] - expected)) < 1e-12
    # the ramp keeps the field between zero and the envelope
    ramp = (grid.rho > 1.0) & (grid.rho < 2.0)
    assert np.all(np.abs(p[ramp]) <= np.abs(-fam.kappa / grid.rho[ramp]) + 1e-15)


def test_tail_angle_cut_width(grid):
    fam = TailFamily("log_drift", kappa=0.5, cut_width=3.0)
    wide = tail_angle(fam, grid)
    assert np.all(wide[grid.rho <= 1.0] == 0.0)
    # with a 3 log-unit ramp the field is still partial at rho = 3
    j = np.searchsorted(grid.rho, 3.0)
    assert abs(wide[j]) < abs(0.5 / grid.rho[j])


# ---------------------------------------------------------------------------
# initial data builder


def test_none_family_is_bare_profile(grid):
    fam = TailFamily("none", s0=2.0)
    vmap, excess = build_initial_data(fam, grid)
    assert vmap.m == 2
    np.testing.assert_allclose(
        vmap.beta, stationary_angle(math.log(2.0), grid, 2), atol=1e-14
    )
    assert abs(excess) < 1e-7
    np.testing.assert_allclose(np.linalg.norm(vmap.v, axis=1), 1.0, atol=1e-14)


def test_far_field_sign_follows_kappa(grid):
    last_decade = grid.rho >= grid.rho_max - math.log(10.0)
    for kappa in (-0.8, 0.8):
        vmap, _ = build_initial_data(TailFamily("log_drift", kappa=kappa), grid)
        v1 = vmap.v[last_decade, 0]
        assert np.all(np.sign(v1) == np.sign(kappa))


def test_excess_energy_matches_tail_quadrature(grid):
    # independent oracle: adaptive quadrature of the closed-form tail
    # energy density pi * (p_rho^2 + 4 p^2), which dominates the excess;
    # the cross terms with the core profile contribute a few percent
    def chi(x: float) -> float:
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        lo = math.exp(-1.0 / x)
        hi = math.exp(-1.0 / (1.0 - x))
        return lo / (lo + hi)

    def chi_prime(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        lo = math.exp(-1.0 / x)
        hi = math.exp(-1.0 / (1.0 - x))
        dlo = lo / x**2
        dhi = -hi / (1.0 - x) ** 2
        return (dlo * hi - lo * dhi) / (lo + hi) ** 2

    for kappa in (-0.8, 0.8):
        fam = TailFamily("log_drift", kappa=kappa)
        rho1 = math.log(fam.r1)

        def density(rho: float) -> float:
            p = -kappa * chi(rho - rho1) / rho
            dp = -kappa * (chi_prime(rho - rho1) / rho - chi(rho - rho1) / rho**2)
            return math.pi * (dp * dp + 4.0 * p * p)

        oracle, _ = quad(density, rho1, grid.rho_max, limit=200)
        _, excess = build_initial_data(fam, grid)
        assert abs(excess / oracle - 1.0) < 0.1


def test_narrow_grid_rejected():
    small = build_grid(-4.0, 4.0, 256)
    with pytest.raises(ConfigError):
        build_initial_data(TailFamily("log_drift", kappa=0.5), small)
    # the bare profile carries no tail, so it builds on any grid
    vmap, excess = build_initial_data(TailFamily("none"), small)
    assert abs(excess) < 1e-4


# ---------------------------------------------------------------------------
# scale-history prediction


def test_prediction_closed_form_oracle(grid):
    # between radii where the switch is fully on, the first-component
    # form telescopes to (2/pi) * (P(u2) - P(u1)) with
    # u = ln ln sqrt(a1 t); the synthetic map realizes the tail exactly
    cases = [
        (TailFamily("log_drift", kappa=-0.8), 1.0),
        (TailFamily("log_drift", kappa=-0.5), 1.0),
        (TailFamily("ln_ln_oscillation", kappa=0.8, lam=2.0), 1.0),
        (TailFamily("mixed", kappa=0.4, lam=1.5), 2.0),
    ]
    for fam, a1 in cases:
        vmap = synthetic_planar_map(fam, grid)
        t = np.array([math.exp(17.0) / a1, math.exp(19.6) / a1])
        pred = predict_log_s(vmap, a1, t, grid, s0=1.0)
        u = np.log(0.5 * np.log(a1 * t))
        oracle = (2.0 / math.pi) * (p_value(fam, u[1]) - p_value(fam, u[0]))
        got = pred.v1_form[1] - pred.v1_form[0]
        assert abs(got - oracle) <= 1e-6 * abs(oracle)


def test_prediction_forms_converge_to_each_other(grid):
    vmap, _ = build_initial_data(TailFamily("log_drift", kappa=-0.8), grid)
    t = np.exp(np.array([10.0, 14.0, 18.0]))
    pred = predict_log_s(vmap, 1.0, t, grid, s0=1.0)
    gap = pred.v1_form - pred.q_form
    assert abs(gap[2] - gap[1]) < abs(gap[1] - gap[0])


def test_prediction_fits_scale_when_omitted(grid):
    fam = TailFamily("log_drift", kappa=-0.8, s0=math.exp(0.3))
    vmap, _ = build_initial_data(fam, grid)
    t = np.geomspace(10.0, 1e5, 9)
    fitted = predict_log_s(vmap, 1.0, t, grid)
    assert abs(math.log(fitted.s0) - 0.3) < 0.2
    pinned = predict_log_s(vmap, 1.0, t, grid, s0=fam.s0)
    assert pinned.s0 == fam.s0
    # the lower readout limit only shifts both forms by a constant
    shift = fitted.v1_form - pinned.v1_form
    assert np.max(shift) - np.min(shift) < 1e-12


def test_prediction_validation(grid):
    vmap, _ = build_initial_data(TailFamily("none"), grid)
    t = np.geomspace(10.0, 1e4, 5)
    with pytest.raises(ConfigError):
        wrong_degree, _ = build_initial_data(TailFamily("none"), grid, m=3)
        predict_log_s(wrong_degree, 1.0, t, grid)
    with pytest.raises(ConfigError):
        tilted = vmap.v.copy()
        tilted[:, 1] = 0.1
        tilted /= np.linalg.norm(tilted, axis=1)[:, None]
        predict_log_s(SphereMap(v=tilted, m=2), 1.0, t, grid)
    with pytest.raises(ConfigError):
        predict_log_s(vmap, 0.0, t, grid)
    with pytest.raises(ConfigError):
        predict_log_s(vmap, 1.0, np.array([10.0, 5.0]), grid)
    with pytest.raises(ConfigError):
        predict_log_s(vmap, 1.0, np.array([-1.0, 10.0]), grid)


def test_prediction_time_truncation(grid):
    vmap, _ = build_initial_data(TailFamily("none"), grid)
    t_max = math.exp(2.0 * grid.rho_max)
    ok = predict_log_s(vmap, 1.0, np.array([10.0, 0.99 * t_max]), grid, s0=1.0)
    assert ok.t_max_usable == pytest.approx(t_max)
    with pytest.raises(NumericalError, match="largest usable"):
        predict_log_s(vmap, 1.0, np.array([10.0, 1.01 * t_max]), grid, s0=1.0)
    # a larger dissipative coefficient shrinks the usable horizon
    with pytest.raises(NumericalError):
        predict_log_s(vmap, 4.0, np.array([10.0, 0.5 * t_max]), grid, s0=1.0)


# ---------------------------------------------------------------------------
# behavior classifier


def synthetic_history(shape: str, noise: float = 0.0):
    """Scale histories with known asymptotics on a 30-decade time span."""
    t = np.geomspace(10.0, 1e40, 4000)
    u = np.log(np.log(t))
    u = u - u[0]
    if shape == "settled":
        y = 0.05 * np.tanh(u) + 0.04
    elif shape == "concentrating":
        y = -0.6 * u
    elif shape == "spreading":
        y = 0.6 * u
    elif shape == "dipping":
        y = -(0.5 + 0.4 * u) * (1.0 - np.cos(3.0 * u))
    elif shape == "peaking":
        y = (0.5 + 0.4 * u) * (1.0 - np.cos(3.0 * u))
    elif shape == "swinging":
        y = (0.5 + 0.4 * u) * np.sin(3.0 * u)
    else:
        raise ValueError(shape)
    if noise:
        y = y + noise * np.sin(17.0 * np.log(t))
    return t, y


@pytest.mark.parametrize(
    "shape,expected",
    [
        ("settled", BehaviorClass.SETTLED),
        ("concentrating", BehaviorClass.CONCENTRATING),
        ("spreading", BehaviorClass.SPREADING),
        ("dipping", BehaviorClass.DIPPING),
        ("peaking", BehaviorClass.PEAKING),
        ("swinging", BehaviorClass.SWINGING),
    ],
)
def test_classifier_on_clean_histories(shape, expected):
    t, y = synthetic_history(shape)
    assert classify_behavior(t, y) == expected


@pytest.mark.parametrize(
    "shape,expected",
    [
        ("concentrating", BehaviorClass.CONCENTRATING),
        ("spreading", BehaviorClass.SPREADING),
        ("swinging", BehaviorClass.SWINGING),
    ],
)
def test_classifier_tolerates_noise(shape, expected):
    t, y = synthetic_history(shape, noise=0.02)
    assert classify_behavior(t, y) == expected


def test_classifier_one_sided_constant_envelopes():
    # bounded peaks with deep constant dips still read as dipping, via
    # the side comparison once neither envelope grows
    t = np.geomspace(10.0, 1e40, 4000)
    phase = 0.3 * np.log(t / t[0])
    assert classify_behavior(t, -2.0 * np.abs(np.sin(phase))) == BehaviorClass.DIPPING
    assert classify_behavior(t, 2.0 * np.abs(np.sin(phase))) == BehaviorClass.PEAKING


def test_classifier_undetermined_cases():
    # fewer than three decades of data
    t_short = np.geomspace(10.0, 1e3, 100)
    assert classify_behavior(t_short, np.linspace(0.0, 5.0, 100)) == (
        BehaviorClass.UNDETERMINED
    )
    # a drift too small to call either monotone class, too large to settle
    t = np.geomspace(10.0, 1e40, 400)
    y = 0.5 * (np.log(np.log(t)) - np.log(np.log(t[0]))) / np.log(np.log(t[-1]))
    assert classify_behavior(t, y) == BehaviorClass.UNDETERMINED


def test_classifier_on_two_time_clusters():
    """Times in two clusters, a decade each and four decades apart, leave
    the windows between them empty; each class still follows the trend."""
    t = np.concatenate([np.geomspace(1.0, 10.0, 10), np.geomspace(1e5, 1e6, 10)])
    lnt = np.log(t)
    assert classify_behavior(t, -0.5 * lnt) == BehaviorClass.CONCENTRATING
    assert classify_behavior(t, 0.4 * lnt) == BehaviorClass.SPREADING
    assert classify_behavior(t, 0.01 * np.sin(lnt)) == BehaviorClass.SETTLED


def test_classifier_validation():
    good_t = np.geomspace(1.0, 1e4, 50)
    good_y = np.zeros(50)
    with pytest.raises(ConfigError):
        classify_behavior(good_t.reshape(5, 10), np.zeros((5, 10)))
    with pytest.raises(ConfigError):
        classify_behavior(good_t, np.zeros(49))
    with pytest.raises(ConfigError):
        classify_behavior(good_t[:5], good_y[:5])
    with pytest.raises(ConfigError):
        classify_behavior(-good_t, good_y)
    with pytest.raises(ConfigError):
        classify_behavior(good_t[::-1], good_y)


def test_classifier_accepts_plain_lists():
    t = list(np.geomspace(10.0, 1e40, 400))
    y = [0.0] * 400
    assert classify_behavior(t, y) == BehaviorClass.SETTLED
