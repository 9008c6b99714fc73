"""Solver checks: exact invariants of the midpoint vector scheme, the
energy identity bookkeeping, and the scalar great-circle reduction."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_banded

from equiflow import evolve_llg
from equiflow.errors import InstabilityError, StepError
from equiflow.evolve_llg import (
    N_PIN,
    FlowConfig,
    SphereMap,
    _ScalarWork,
    _VectorWork,
    beta_to_map,
    dissipation_rate,
    energy_identity_residual,
    map_to_beta,
    run_scalar,
    run_vector,
    scalar_energy,
    scheme_energy,
    stationary_angle,
    step_scalar,
    step_vector,
)
from equiflow.harmonic_family import Mu, energy, h_profile
from equiflow.radial_grid import _D2_CENTER, build_grid, d2_rho


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
    v[3, 0] = math.nan
    with pytest.raises(ValueError, match="unit sphere"):
        SphereMap(v=v, m=2).check_unit()


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


def pa_blocks(vhat, a):
    """Reference per-node 3x3 matrices a1 (I - nn^T) + a2 [n]_x for
    n = vhat/|vhat|, written out entry by entry."""
    nhat = vhat / np.linalg.norm(vhat, axis=1, keepdims=True)
    n = vhat.shape[0]
    blocks = np.zeros((n, 3, 3))
    eye = np.eye(3)
    blocks += a.real * (eye[None, :, :] - nhat[:, :, None] * nhat[:, None, :])
    cx = np.zeros((n, 3, 3))
    cx[:, 0, 1] = -nhat[:, 2]
    cx[:, 0, 2] = nhat[:, 1]
    cx[:, 1, 0] = nhat[:, 2]
    cx[:, 1, 2] = -nhat[:, 0]
    cx[:, 2, 0] = -nhat[:, 1]
    cx[:, 2, 1] = nhat[:, 0]
    blocks += a.imag * cx
    return blocks


@pytest.mark.parametrize("a", [1.0, 1j, 0.6 + 0.8j])
def test_step_projection_blocks_match_reference(grid, perturbed, a, monkeypatch):
    """The P_a blocks step_vector hands to the band assembly equal the
    entry-by-entry matrices exactly."""
    seen = []
    assemble = _VectorWork.assemble

    def spy(self, pa, dt):
        seen.append(np.array(pa))
        return assemble(self, pa, dt)

    monkeypatch.setattr(_VectorWork, "assemble", spy)
    step_vector(perturbed, 0.0, 0.01, grid, 3, FlowConfig(a=a, dt0=0.01))
    assert len(seen) == 1
    assert np.array_equal(seen[0], pa_blocks(perturbed, complex(a)))


def test_step_cap_raises(grid, perturbed, monkeypatch):
    """The run loop of both solvers stops with StepError past MAX_STEPS."""
    monkeypatch.setattr(evolve_llg, "MAX_STEPS", 3)
    cfg = FlowConfig(a=1.0, dt0=0.01)
    with pytest.raises(StepError, match="exceeded 3 steps"):
        run_vector(perturbed, grid, 3, cfg, t_end=0.1, record_times=[0.1])
    beta0 = stationary_angle(0.0, grid, 2)
    with pytest.raises(StepError, match="exceeded 3 steps"):
        run_scalar(beta0, grid, 2, cfg, t_end=0.1, record_times=[0.1])
    assert run_scalar(beta0, grid, 2, cfg, t_end=0.03, record_times=[0.03]).steps == 3


def assemble_loop(grid, m, pa, dt):
    """Reference band matrix of I - (dt/2) Pa L in solve_banded storage,
    built slice by slice; _VectorWork.assemble replaces it with a scatter."""
    n = grid.n
    U = _VectorWork.BAND
    ab = np.zeros((2 * U + 1, 3 * n))
    i = np.arange(N_PIN, n - N_PIN)
    coef = 0.5 * dt * np.exp(-2.0 * grid.rho)[i]
    taps = _D2_CENTER / grid.drho**2
    mm = float(m * m)
    kdiag = (1.0, 1.0, 0.0)
    for o in range(-3, 4):
        base = coef * taps[o + 3]
        for al in range(3):
            for be in range(3):
                vals = -base * pa[i, al, be]
                if o == 0:
                    vals = vals + coef * mm * kdiag[be] * pa[i, al, be]
                    if al == be:
                        vals = vals + 1.0
                ab[U + al - be - 3 * o, 3 * (i + o) + be] = vals
    for node in (*range(N_PIN), *range(n - N_PIN, n)):
        for c in range(3):
            ab[U, 3 * node + c] = 1.0
    return ab


def picard_step(v, dt, grid, m, config):
    """Reference midpoint step: Picard iteration on the frozen projection,
    one band assembly and one full banded solve per iteration. Returns
    the new map and the number of iterations."""
    a = complex(config.a)
    U = _VectorWork.BAND
    vhat = v
    for count in range(1, config.max_outer + 1):
        ab = assemble_loop(grid, m, pa_blocks(vhat, a), dt)
        vmid = solve_banded((U, U), ab, v.reshape(-1)).reshape(-1, 3)
        delta = float(np.max(np.abs(vmid - vhat)))
        vhat = vmid
        if delta < config.outer_tol:
            break
    else:
        raise StepError("reference Picard iteration stalled")
    v_new = 2.0 * vmid - v
    return v_new / np.linalg.norm(v_new, axis=1, keepdims=True), count


@pytest.mark.parametrize("a", [1.0, 1j, (1 + 1j) / math.sqrt(2)])
def test_chord_matches_picard(grid, perturbed, a):
    """The chord iteration reaches the Picard fixed point, at about the
    same number of iterations per step."""
    dt = 0.01
    cfg = FlowConfig(a=a, dt0=dt)
    series = run_vector(perturbed, grid, 3, cfg, t_end=20 * dt, record_times=[20 * dt])
    assert series.steps == 20
    v = perturbed
    picard_iterations = 0
    for _ in range(20):
        v, count = picard_step(v, dt, grid, 3, cfg)
        picard_iterations += count
    assert np.max(np.abs(series.v[-1] - v)) <= 1e-12
    assert abs(series.iterations - picard_iterations) / 20 <= 1.0


def test_assemble_scatter_matches_loop(grid, perturbed):
    work = _VectorWork(grid, 3)
    pa = pa_blocks(perturbed, 0.6 + 0.8j)
    ref = assemble_loop(grid, 3, pa, 0.01)
    ab = work.assemble(pa, 0.01)
    U = _VectorWork.BAND
    assert ab.shape == (3 * U + 1, 3 * grid.n)
    assert np.all(ab[:U] == 0.0)
    assert np.array_equal(ab[U:] != 0.0, ref != 0.0)
    assert np.max(np.abs(ab[U:] - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_non_finite_map_rejected_before_first_step(grid, profile, monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("step_vector ran on a non-finite map")

    monkeypatch.setattr(evolve_llg, "step_vector", no_step)
    v = profile.h.copy()
    v[400, 1] = math.nan
    with pytest.raises(ValueError, match="unit sphere"):
        run_vector(v, grid, 3, FlowConfig(a=1.0, dt0=0.01), t_end=0.1)


def test_non_finite_step_is_instability(grid, profile):
    """A NaN update ends the chord iteration at once and is reported as a
    non-finite map, not as a stalled iteration."""
    v = profile.h.copy()
    v[400, 1] = math.nan
    with pytest.raises(InstabilityError, match="non-finite"):
        step_vector(v, 0.0, 0.01, grid, 3, FlowConfig(a=1.0, dt0=0.01))


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


def test_scalar_relaxes_to_harmonic_energy(grid, monkeypatch):
    """A perturbed angle profile relaxes to the harmonic energy 8 pi under
    the heat flow, monotonically, in a few hundred ramped steps; the run
    counts one Newton iteration per banded solve."""
    solves = []
    solve = evolve_llg.solve_banded

    def counted(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(evolve_llg, "solve_banded", counted)
    beta0 = stationary_angle(0.0, grid, 2) + 0.3 * np.exp(-((grid.rho - 1.0) ** 2))
    cfg = FlowConfig(a=1.0, dt0=0.01, ramp=0.05, dt_max=500.0)
    series = run_scalar(beta0, grid, 2, cfg, t_end=1e4)
    assert series.iterations == len(solves) >= series.steps
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


def _reference_step_scalar(beta, dt, work, config):
    """The Crank-Nicolson step as it was written before the direct gbsv
    solve: a fresh band matrix and scipy's solve_banded per iteration."""
    u = work.u

    def rhs(b):
        out = work.a1 * work.decay * (d2_rho(b, work.grid) + 0.5 * work.m**2 * np.sin(2.0 * b))
        out[0] = out[-1] = 0.0
        return out

    def newton_matrix(b):
        ab = -0.5 * dt * work.a1 * np.array(work.scaled_d2)
        ab[u, :] += 1.0 - 0.5 * dt * work.a1 * work.decay * work.m**2 * np.cos(2.0 * b)
        ab[work.boundary] = 0.0
        ab[u, [0, -1]] = 1.0
        return ab

    rhs_old = rhs(beta)
    new = beta.copy()
    for it in range(1, config.max_newton + 1):
        resid = new - beta - 0.5 * dt * (rhs(new) + rhs_old)
        resid[0] = resid[-1] = 0.0
        delta = solve_banded((u, u), newton_matrix(new), resid)
        new = new - delta
        if float(np.max(np.abs(delta))) < config.newton_tol:
            return new, it
    raise StepError("reference Newton loop stalled")


def test_scalar_step_matches_reference_bytes(grid):
    """20 ramped steps of step_scalar reproduce the scipy solve_banded
    Newton loop bit for bit, with the same iteration count."""
    m = 2
    cfg = FlowConfig(a=1.0, dt0=0.01, ramp=0.5, dt_max=50.0)
    beta = stationary_angle(0.0, grid, m) + 0.3 * np.exp(-((grid.rho - 1.0) ** 2))
    ref = beta.copy()
    work = _ScalarWork(grid, m, 1.0)
    ref_work = _ScalarWork(grid, m, 1.0)
    t, ref_iters = 0.0, 0
    for _ in range(20):
        dt = cfg.dt_at(t)
        beta = step_scalar(beta, t, dt, work, cfg)
        ref, its = _reference_step_scalar(ref, dt, ref_work, cfg)
        ref_iters += its
        t += dt
    assert t > 10.0
    assert beta.tobytes() == ref.tobytes()
    assert work.iterations == ref_iters


def test_scalar_step_rejects_non_finite_angle(grid):
    beta = stationary_angle(0.0, grid, 2)
    beta[300] = np.nan
    work = _ScalarWork(grid, 2, 1.0)
    with pytest.raises(InstabilityError, match="non-finite Newton residual"):
        step_scalar(beta, 0.0, 0.01, work, FlowConfig(a=1.0, dt0=0.01))
    assert work.iterations == 0


def test_scalar_step_reports_singular_matrix(grid, monkeypatch):
    work = _ScalarWork(grid, 2, 1.0)
    # an all-zero band: LAPACK finds a zero pivot and returns info > 0
    monkeypatch.setattr(work, "newton_matrix", lambda beta, dt: np.zeros_like(work.ab))
    with pytest.raises(StepError, match="singular"):
        step_scalar(stationary_angle(0.0, grid, 2), 0.0, 0.01, work, FlowConfig(a=1.0))


def test_run_scalar_rejects_non_finite_initial_angle(grid, monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("stepped a non-finite angle")

    monkeypatch.setattr(evolve_llg, "step_scalar", no_step)
    for bad in (np.nan, np.inf):
        beta0 = stationary_angle(0.0, grid, 2)
        beta0[5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            run_scalar(beta0, grid, 2, FlowConfig(a=1.0, dt0=0.01), t_end=0.1)


def test_scalar_newton_stall_raises(grid):
    beta0 = stationary_angle(0.0, grid, 2) + 0.3 * np.exp(-((grid.rho - 1.0) ** 2))
    cfg = FlowConfig(a=1.0, dt0=50.0, max_newton=1)
    with pytest.raises(StepError, match="Newton"):
        run_scalar(beta0, grid, 2, cfg, t_end=100.0)


def test_scalar_energy_helper(grid):
    beta0 = stationary_angle(0.0, grid, 3)
    assert abs(scalar_energy(beta0, grid, 3) - 12 * math.pi) < 1e-5
