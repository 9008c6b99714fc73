"""Solver checks: exact invariants of the midpoint vector scheme, the
energy identity bookkeeping, and the scalar great-circle reduction."""

import math
import warnings

import numpy as np
import pytest

from equiflow.errors import StepError
from equiflow.evolve_llg import (
    FlowConfig,
    SphereMap,
    beta_to_map,
    dissipation_rate,
    energy_identity_residual,
    map_to_beta,
    run_scalar,
    run_vector,
    scalar_energy,
    scheme_energy,
    stationary_angle,
    step_vector,
)
from equiflow.harmonic_family import Mu, energy, h_profile
from equiflow.radial_grid import build_grid


@pytest.fixture(scope="module")
def grid():
    return build_grid(-6.0, 10.0, 768)


@pytest.fixture(scope="module")
def wide_grid():
    return build_grid(-8.0, 16.0, 1024)


@pytest.fixture(scope="module")
def profile(grid):
    return h_profile(Mu(s=1.0, alpha=0.3, m=3), grid)


@pytest.fixture(scope="module")
def perturbed(grid, profile):
    """Harmonic map plus a tangent bump of size 0.1, renormalized."""
    bump = 0.1 * np.exp(-(((grid.rho - 0.5) / 0.6) ** 2))
    v = profile.h + bump[:, None] * profile.f.real
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.fixture(scope="module")
def heat_runs(grid, perturbed):
    """One heat-flow run per step size, shared across the identity tests."""
    return {
        dt: run_vector(perturbed, grid, 3, FlowConfig(a=1.0, dt0=dt), t_end=0.5)
        for dt in (0.02, 0.01, 0.005)
    }


def test_sphere_map_validation():
    v = np.zeros((8, 3))
    v[:, 2] = 1.0
    SphereMap(v=v, m=2).check_unit()
    with pytest.raises(ValueError, match="shape"):
        SphereMap(v=np.zeros((8, 2)), m=2)
    with pytest.raises(ValueError, match="positive integer"):
        SphereMap(v=v, m=0)
    with pytest.raises(ValueError, match="unit sphere"):
        SphereMap(v=1.01 * v, m=2).check_unit()


def test_flow_config_validation():
    with pytest.raises(ValueError, match="nonzero"):
        FlowConfig(a=0.0)
    with pytest.raises(ValueError, match="Re a"):
        FlowConfig(a=-1.0 + 0.5j)
    with pytest.raises(ValueError, match="positive"):
        FlowConfig(dt0=0.0)
    for caps in (dict(max_outer=0), dict(max_newton=0), dict(max_outer=-3)):
        with pytest.raises(ValueError, match="at least 1"):
            FlowConfig(**caps)
    for bad in (0.0, -1e-12, math.nan, math.inf):
        for key in ("outer_tol", "newton_tol"):
            with pytest.raises(ValueError, match="finite and positive"):
                FlowConfig(**{key: bad})
    cfg = FlowConfig(dt0=0.01, ramp=0.05, dt_max=500.0)
    assert cfg.dt_at(0.0) == 0.01
    assert cfg.dt_at(1.0) == 0.05
    assert cfg.dt_at(1e9) == 500.0


def test_harmonic_profile_is_near_stationary(grid, profile):
    """One heat-flow step moves the harmonic map by far less than dt."""
    dt = 0.02
    v1 = step_vector(profile.h, 0.0, dt, grid, 3, FlowConfig(a=1.0, dt0=dt))
    assert np.max(np.abs(v1 - profile.h)) < 1e-6 * dt


def test_harmonic_profile_drift_over_unit_time(grid, profile):
    series = run_vector(profile.h, grid, 3, FlowConfig(a=1.0, dt0=0.02), t_end=1.0)
    assert np.max(np.abs(series.v[-1] - profile.h)) < 1e-6


def test_steps_stay_on_sphere_without_renormalization(grid, perturbed):
    """The midpoint update is tangent at the midpoint, so the radius of
    every node is preserved exactly; renormalization is a no-op."""
    cfg = FlowConfig(a=1.0, dt0=0.02, renormalize=False)
    v = perturbed
    for k in range(10):
        v = step_vector(v, 0.02 * k, 0.02, grid, 3, cfg)
    assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) < 1e-12


def test_heat_flow_energy_monotone(heat_runs):
    series = heat_runs[0.02]
    assert np.all(np.diff(series.energy) <= 1e-12)
    assert series.energy[-1] < series.energy[0] - 1e-4


def test_energy_identity_residual_small(heat_runs):
    assert energy_identity_residual(heat_runs[0.005]) < 2e-6


def test_identity_residual_refines_at_scheme_order(heat_runs):
    """Quartering dt shrinks the trapezoid bookkeeping error by well over
    the first-order factor; the scheme is second order in time."""
    r_coarse = energy_identity_residual(heat_runs[0.02])
    r_fine = energy_identity_residual(heat_runs[0.005])
    assert r_coarse / r_fine > 8.0


def test_conservative_flow_preserves_scheme_energy(grid, perturbed):
    series = run_vector(perturbed, grid, 3, FlowConfig(a=1j, dt0=0.01), t_end=1.0)
    drift = np.max(np.abs(series.energy - series.energy[0])) / series.energy[0]
    assert drift < 1e-11
    assert np.all(series.dissipated == 0.0)
    assert dissipation_rate(series.v[-1], grid, 3, 1j) == 0.0


def test_mixed_flow_dissipates(grid, perturbed):
    series = run_vector(perturbed, grid, 3, FlowConfig(a=0.6 + 0.8j, dt0=0.01), t_end=0.5)
    assert np.all(np.diff(series.energy) <= 1e-12)
    assert energy_identity_residual(series) < 1e-5


def test_scheme_energy_matches_quadrature_energy(grid, profile, perturbed):
    e_h = scheme_energy(profile.h, grid, 3)
    assert abs(e_h - 12 * math.pi) < 1e-6
    diff = scheme_energy(perturbed, grid, 3) - energy(perturbed, grid, 3)
    assert abs(diff) < 1e-5


def test_rotation_equivariance(wide_grid):
    """Rotating about the vertical axis commutes with the flow."""
    prof = h_profile(Mu(s=1.0, alpha=0.3, m=3), wide_grid)
    bump = 0.1 * np.exp(-(((wide_grid.rho - 0.5) / 0.6) ** 2))
    v0 = prof.h + bump[:, None] * prof.f.real
    v0 /= np.linalg.norm(v0, axis=1, keepdims=True)
    th = 0.7
    rot = np.array(
        [
            [math.cos(th), -math.sin(th), 0.0],
            [math.sin(th), math.cos(th), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    cfg = FlowConfig(a=0.6 + 0.8j, dt0=0.01)
    plain = run_vector(v0, wide_grid, 3, cfg, t_end=0.5, record_times=[0.5])
    turned = run_vector(v0 @ rot.T, wide_grid, 3, cfg, t_end=0.5, record_times=[0.5])
    assert np.max(np.abs(turned.v[-1] - plain.v[-1] @ rot.T)) < 1e-12


def test_scale_covariance(wide_grid):
    """Shifting the profile by j nodes and rescaling time by e^{2 j drho}
    reproduces the shifted evolution on the common interior."""
    prof = h_profile(Mu(s=1.0, alpha=0.0, m=3), wide_grid)
    bump = 0.1 * np.exp(-(((wide_grid.rho - 0.5) / 0.6) ** 2))
    v0 = prof.h + bump[:, None] * prof.f.real
    v0 /= np.linalg.norm(v0, axis=1, keepdims=True)
    j = 50
    lam2 = math.exp(2 * j * wide_grid.drho)
    v0s = np.roll(v0, j, axis=0)
    v0s[:j] = v0[0]
    plain = run_vector(v0, wide_grid, 3, FlowConfig(a=1.0, dt0=0.005), t_end=0.5, record_times=[0.5])
    moved = run_vector(
        v0s, wide_grid, 3, FlowConfig(a=1.0, dt0=0.005 * lam2), t_end=0.5 * lam2,
        record_times=[0.5 * lam2],
    )
    diff = moved.v[-1][3 + j : -8] - plain.v[-1][3 : -8 - j]
    assert np.max(np.abs(diff)) < 1e-9


def test_energy_budget_warning(grid, profile):
    bump = 0.2 * np.exp(-(((grid.rho - 0.5) / 0.6) ** 2))
    v0 = profile.h + bump[:, None] * profile.f.real
    v0 /= np.linalg.norm(v0, axis=1, keepdims=True)
    with pytest.warns(RuntimeWarning, match="harmonic floor"):
        run_vector(v0, grid, 3, FlowConfig(a=1.0, dt0=0.02, delta=0.01), t_end=0.02)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_vector(v0, grid, 3, FlowConfig(a=1.0, dt0=0.02, delta=1.0), t_end=0.02)


def test_outer_iteration_stall_raises(grid, perturbed):
    with pytest.raises(StepError, match="midpoint"):
        run_vector(perturbed, grid, 3, FlowConfig(a=1.0, dt0=0.02, max_outer=1), t_end=0.1)


def test_record_times_validation(grid, perturbed):
    cfg = FlowConfig(a=1.0, dt0=0.02)
    with pytest.raises(ValueError, match="record times"):
        run_vector(perturbed, grid, 3, cfg, t_end=0.1, record_times=[-0.5])
    with pytest.raises(ValueError, match="record times"):
        run_vector(perturbed, grid, 3, cfg, t_end=0.1, record_times=[0.2])


def test_cross_solver_agreement(wide_grid):
    """The scalar reduction and the full vector scheme agree on a
    great-circle heat flow to discretization accuracy."""
    beta0 = stationary_angle(0.0, wide_grid, 2)
    beta0 = beta0 + 0.12 * np.exp(-(((wide_grid.rho - 0.8) / 0.7) ** 2))
    marks = [0.25, 0.5, 1.0]
    cfg = FlowConfig(a=1.0, dt0=0.005)
    vec = run_vector(beta_to_map(beta0), wide_grid, 2, cfg, t_end=1.0, record_times=marks)
    sca = run_scalar(beta0, wide_grid, 2, cfg, t_end=1.0, record_times=marks)
    assert np.max(np.abs(vec.v[..., 2] - sca.v[..., 2])) < 1e-6
    # the vector scheme never generates a second component on circle data
    assert np.max(np.abs(vec.v[..., 1])) < 1e-14


def test_map_beta_roundtrip(grid):
    beta = stationary_angle(0.3, grid, 2) + 0.05 * np.sin(grid.rho)
    v = beta_to_map(beta)
    assert np.max(np.abs(map_to_beta(v) - beta)) < 1e-12
    tilted = v.copy()
    tilted[:, 1] = 1e-6
    with pytest.raises(ValueError, match="great circle"):
        map_to_beta(tilted)


def test_stationary_angle_matches_profile(grid):
    prof = h_profile(Mu(s=math.exp(0.4), alpha=0.0, m=2), grid)
    v = beta_to_map(stationary_angle(0.4, grid, 2))
    assert np.max(np.abs(v - prof.h)) < 1e-12


def test_scalar_stationary_profile_is_fixed(grid):
    beta0 = stationary_angle(0.0, grid, 2)
    cfg = FlowConfig(a=1.0, dt0=0.01, ramp=0.1, dt_max=10.0)
    series = run_scalar(beta0, grid, 2, cfg, t_end=10.0)
    assert np.max(np.abs(series.beta[-1] - beta0)) < 1e-7


def test_scalar_relaxes_to_harmonic_energy(grid):
    """A perturbed angle profile relaxes to the harmonic energy 8 pi under
    the heat flow, monotonically, in a few hundred ramped steps."""
    beta0 = stationary_angle(0.0, grid, 2) + 0.3 * np.exp(-((grid.rho - 1.0) ** 2))
    cfg = FlowConfig(a=1.0, dt0=0.01, ramp=0.05, dt_max=500.0)
    series = run_scalar(beta0, grid, 2, cfg, t_end=1e4)
    assert np.all(np.diff(series.energy) <= 1e-10)
    assert abs(series.energy[-1] - 8 * math.pi) < 1e-6 * 8 * math.pi
    assert series.steps < 400


def test_scalar_second_order_in_dt(grid):
    # record only the endpoint: the default snapshot schedule would clamp
    # the step size below dt0 and hide the dt dependence
    beta0 = stationary_angle(0.0, grid, 2) + 0.3 * np.exp(-((grid.rho - 1.0) ** 2))

    def final(dt):
        cfg = FlowConfig(a=1.0, dt0=dt)
        return run_scalar(beta0, grid, 2, cfg, t_end=0.2, record_times=[0.2]).beta[-1]

    ref = final(0.00125)
    errs = [np.max(np.abs(final(dt) - ref)) for dt in (0.02, 0.01)]
    assert 3.0 < errs[0] / errs[1] < 5.5


def test_scalar_rejects_complex_a(grid):
    beta0 = stationary_angle(0.0, grid, 2)
    with pytest.raises(ValueError, match="real"):
        run_scalar(beta0, grid, 2, FlowConfig(a=1j, dt0=0.01), t_end=0.1)


def test_scalar_newton_stall_raises(grid):
    beta0 = stationary_angle(0.0, grid, 2) + 0.3 * np.exp(-((grid.rho - 1.0) ** 2))
    cfg = FlowConfig(a=1.0, dt0=50.0, max_newton=1)
    with pytest.raises(StepError, match="Newton"):
        run_scalar(beta0, grid, 2, cfg, t_end=100.0)


def test_scalar_energy_helper(grid):
    beta0 = stationary_angle(0.0, grid, 3)
    assert abs(scalar_energy(beta0, grid, 3) - 12 * math.pi) < 1e-5
