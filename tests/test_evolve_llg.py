"""Solver checks: exact invariants of the midpoint vector scheme, the
energy identity bookkeeping, and the scalar great-circle reduction."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded, solveh_banded
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf, dpbtrs

from equiflow import evolve_llg
from equiflow.errors import InstabilityError, StepError
from equiflow.evolve_llg import (
    N_PIN,
    FlowConfig,
    SphereMap,
    _ScalarWork,
    _VectorWork,
    _midpoint_terms,
    beta_to_map,
    dissipation_rate,
    energy_identity_residual,
    laplace_operator,
    map_to_beta,
    run_scalar,
    run_vector,
    scheme_energy,
    stationary_angle,
    step_scalar,
    step_vector,
)
from equiflow.harmonic_family import Mu, energy, h_profile
from equiflow.radial_grid import (
    _D2_CENTER,
    _D2_EDGE,
    RadialGrid,
    _apply_stencil,
    build_grid,
    d2_rho,
)
from equiflow.scenarios import TailFamily, build_initial_data


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


def first_step(v, t, dt, grid, m, config):
    """step_vector as the first step of a run: a new _VectorWork, which
    holds no LU, and the _midpoint_terms of v."""
    terms = _midpoint_terms(v, grid, m, config.a)
    return step_vector(v, t, dt, grid, m, config, _VectorWork(grid, m), terms)


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
    cfg = FlowConfig(dt0=0.01, ramp=0.05, dt_max=500.0)
    assert cfg.dt_at(0.0) == 0.01
    assert cfg.dt_at(1.0) == 0.05
    assert cfg.dt_at(1e9) == 500.0


@pytest.mark.parametrize(
    "a", [math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(0.0, math.inf)]
)
def test_flow_config_rejects_non_finite_a(a):
    """A non-finite flow coefficient is a ValueError when the schedule is
    built, not an instability at the first residual of a run."""
    with pytest.raises(ValueError, match="a must be finite"):
        FlowConfig(a=a)


def test_flow_config_is_the_run_schedule():
    """FlowConfig holds the flow coefficient and the step schedule and
    nothing else: tolerances and caps are module constants."""
    assert tuple(f.name for f in dataclasses.fields(FlowConfig)) == ("a", "dt0", "dt_max", "ramp")


def test_harmonic_profile_is_near_stationary(grid, profile):
    """One heat-flow step moves the harmonic map by far less than dt."""
    dt = 0.02
    v1 = first_step(profile.h, 0.0, dt, grid, 3, FlowConfig(a=1.0, dt0=dt))
    assert np.max(np.abs(v1 - profile.h)) < 1e-6 * dt


def test_harmonic_profile_drift_over_unit_time(grid, profile):
    series = run_vector(profile.h, grid, 3, FlowConfig(a=1.0, dt0=0.02), t_end=1.0)
    assert np.max(np.abs(series.v[-1] - profile.h)) < 1e-6


def test_steps_stay_on_sphere_without_renormalization(grid, perturbed):
    """The midpoint update is tangent at the midpoint, so the radius of
    every node is preserved exactly; run_vector's projection is a no-op."""
    cfg = FlowConfig(a=1.0, dt0=0.02)
    v = perturbed
    for k in range(10):
        v = first_step(v, 0.02 * k, 0.02, grid, 3, cfg)
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
    terms = _midpoint_terms(series.v[-1], grid, 3, 1j)
    assert dissipation_rate(terms, grid.drho * np.exp(2.0 * grid.rho), 1j) == 0.0


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


def test_outer_iteration_stall_raises(grid, perturbed, monkeypatch):
    """A chord iteration cut off by MIDPOINT_CAP while its updates shrink
    is reported as stalled, with its last update, not as diverged."""
    cfg = FlowConfig(a=1.0, dt0=0.02)
    for cap in (1, 3):
        monkeypatch.setattr(evolve_llg, "MIDPOINT_CAP", cap)
        with pytest.raises(StepError, match=r"iteration stalled .*\(last update [^,]*\)"):
            run_vector(perturbed, grid, 3, cfg, t_end=0.1)


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


def band_blocks(pa):
    """The blocks pa, indexed [node, row, column], on the evolving nodes
    and indexed [column, row, node], as _VectorWork.assemble reads them."""
    return pa[N_PIN:-N_PIN].transpose(2, 1, 0)


def derivative_blocks(x, w, a):
    """Reference blocks D = d/dx [P_a(x/|x|) w], node by node and entry by
    entry in scalar arithmetic:
    a1 (u (2 (u.w) u - w)^T - (u.w) I) / |x| + a2 ((w x u) u^T - [w]_x) / |x|
    with u = x/|x|, indexed [node, row, column]."""
    radius = np.linalg.norm(x, axis=1)
    out = np.zeros((x.shape[0], 3, 3))
    for k, (r, wk) in enumerate(zip(radius, w)):
        u = [x[k, j] / r for j in range(3)]
        uw = u[0] * wk[0] + u[1] * wk[1] + u[2] * wk[2]
        s1, s2 = a.real / r, a.imag / r
        cross = [
            wk[1] * u[2] - wk[2] * u[1],
            wk[2] * u[0] - wk[0] * u[2],
            wk[0] * u[1] - wk[1] * u[0],
        ]
        # minus the cross-product matrix of s2 w
        skew = [
            [0.0, s2 * wk[2], -(s2 * wk[1])],
            [-(s2 * wk[2]), 0.0, s2 * wk[0]],
            [s2 * wk[1], -(s2 * wk[0]), 0.0],
        ]
        for al in range(3):
            for be in range(3):
                heat = u[al] * (s1 * (2.0 * uw * u[be] - wk[be]))
                if al == be:
                    heat -= s1 * uw
                turn = (s2 * cross[al]) * u[be]
                if al != be:
                    turn += skew[al][be]
                if a.imag == 0:
                    out[k, al, be] = heat
                elif a.real == 0:
                    out[k, al, be] = turn
                else:
                    out[k, al, be] = heat + turn
    return out


def _reference_pa_derivative(unit, radius, w, a):
    """_pa_derivative with its cross product w x u written out on the
    transposed (3, n) layout by fancy-index gathers."""
    u, w = unit.T, w.T
    n = u.shape[1]
    if a.real != 0:
        s = a.real / radius[:, 0]
        uw = u[0] * w[0] + u[1] * w[1] + u[2] * w[2]
        out = np.multiply(u[:, None], (s * (2.0 * uw * u - w))[None], out=np.empty((3, 3, n)))
        out.reshape(9, n)[::4] -= s * uw
    if a.imag != 0:
        s = a.imag / radius[:, 0]
        cross = w[[1, 2, 0]] * u[[2, 0, 1]] - w[[2, 0, 1]] * u[[1, 2, 0]]
        turn = np.multiply((s * cross)[:, None], u[None], out=np.empty((3, 3, n)))
        flat, sw = turn.reshape(9, n), s * w
        flat[[1, 5, 6]] += sw[[2, 0, 1]]
        flat[[2, 3, 7]] -= sw[[1, 2, 0]]
        out = turn if a.real == 0 else out + turn
    return out.transpose(2, 0, 1)


@pytest.mark.parametrize("a", [1.0, 1j, 0.6 + 0.8j])
def test_pa_derivative_matches_gathered_cross_bytes(grid, perturbed, a):
    """The derivative blocks equal those of the gathered cross product
    byte for byte."""
    x = perturbed * np.linspace(0.9, 1.1, grid.n)[:, None]
    radius = np.linalg.norm(x, axis=1, keepdims=True)
    unit = x / radius
    lap = laplace_operator(x, grid, 3)
    got = evolve_llg._pa_derivative(unit, radius, lap, complex(a))
    ref = _reference_pa_derivative(unit, radius, lap, complex(a))
    assert np.array_equal(got, ref)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("a", [1.0, 1j, 0.6 + 0.8j])
def test_step_projection_blocks_match_reference(grid, perturbed, a, monkeypatch):
    """The P_a blocks and the derivative blocks step_vector hands to the
    band assembly equal the entry-by-entry matrices exactly."""
    seen = []
    assemble = _VectorWork.assemble

    def spy(self, pa, deriv, dt):
        seen.append((np.array(pa), np.array(deriv)))
        return assemble(self, pa, deriv, dt)

    monkeypatch.setattr(_VectorWork, "assemble", spy)
    first_step(perturbed, 0.0, 0.01, grid, 3, FlowConfig(a=a, dt0=0.01))
    assert len(seen) == 1
    pa, deriv = seen[0]
    assert np.array_equal(pa, band_blocks(pa_blocks(perturbed, complex(a))))
    lap = laplace_operator(perturbed, grid, 3)
    assert np.array_equal(deriv, derivative_blocks(perturbed, lap, complex(a)))


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


@pytest.mark.parametrize(
    "cfg, t_end",
    [
        (FlowConfig(dt0=0.01), 1.0),
        (FlowConfig(dt0=0.02, dt_max=0.005), 1.0),
        (FlowConfig(dt0=1e-4, ramp=0.01), 1e5),
        (FlowConfig(dt0=0.01, ramp=0.05, dt_max=500.0), 1e4),
        (FlowConfig(dt0=0.5, ramp=0.3, dt_max=40.0), 1e4),
    ],
    ids=["fixed", "capped_below_dt0", "ramp", "ramp_and_cap", "short_ramp"],
)
def test_steps_to_counts_the_schedule(cfg, t_end):
    """FlowConfig.steps_to is within one step of the steps the run driver
    takes with records only at 0 and t_end, and each of the 33 default
    records cuts at most one step more."""
    work = evolve_llg._ChordCounters()

    def steps(record_times):
        series = evolve_llg._drive(
            0.0, work, 2, cfg, t_end, record_times,
            lambda state, t, dt: state, lambda state, k, t, energies: (0.0, 0.0),
        )
        return series.steps

    count = cfg.steps_to(t_end)
    assert abs(steps([]) - count) < 1.0
    assert steps([]) < steps(None) <= count + 33


def assemble_loop(grid, m, pa, dt, deriv=None):
    """Reference band matrix of I - (dt/2) (Pa L + D) in solve_banded
    storage, built slice by slice, D the block diagonal of deriv (none when
    deriv is None); _VectorWork.assemble writes the same band by slices."""
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
                    if deriv is not None:
                        vals = vals - 0.5 * dt * deriv[i, al, be]
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
    for count in range(1, evolve_llg.MIDPOINT_CAP + 1):
        ab = assemble_loop(grid, m, pa_blocks(vhat, a), dt)
        vmid = solve_banded((U, U), ab, v.reshape(-1)).reshape(-1, 3)
        delta = float(np.max(np.abs(vmid - vhat)))
        vhat = vmid
        if delta < evolve_llg.MIDPOINT_TOL:
            break
    else:
        raise StepError("reference Picard iteration stalled")
    v_new = 2.0 * vmid - v
    return v_new / np.linalg.norm(v_new, axis=1, keepdims=True), count


@pytest.mark.parametrize("a", [1.0, 1j, (1 + 1j) / math.sqrt(2)])
def test_chord_matches_picard(grid, perturbed, a):
    """The Newton-chord iteration reaches the Picard fixed point, in no
    more iterations than Picard."""
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
    assert series.iterations <= picard_iterations


def test_assemble_scatter_matches_loop(grid, perturbed):
    work = _VectorWork(grid, 3)
    pa = pa_blocks(perturbed, 0.6 + 0.8j)
    deriv = derivative_blocks(perturbed, laplace_operator(perturbed, grid, 3), 0.6 + 0.8j)
    ref = assemble_loop(grid, 3, pa, 0.01, deriv)
    ab = work.assemble(band_blocks(pa), deriv, 0.01)
    U = _VectorWork.BAND
    assert ab.shape == (3 * U + 1, 3 * grid.n)
    assert np.all(ab[:U] == 0.0)
    assert np.array_equal(ab[U:] != 0.0, ref != 0.0)
    assert np.max(np.abs(ab[U:] - ref)) <= 1e-15 * np.max(np.abs(ref))


def assemble_scatter(grid, m, pa, dt, deriv):
    """Reference band array of I - (dt/2) (Pa L + D) in gbtrf storage, as
    _VectorWork.assemble built the Pa L part with a fancy scatter: the
    product indexed [off, al, be, node] for entry (3 node + al,
    3 (node + off) + be), and one flat index per entry into the
    Fortran-ordered array. (dt/2) D, D the block diagonal of deriv, which
    vanishes on the pinned nodes, is then subtracted entry by entry."""
    U = _VectorWork.BAND
    off = np.arange(-3, 4)[:, None, None, None]
    al = np.arange(3)[None, :, None, None]
    be = np.arange(3)[None, None, :, None]
    node = np.arange(N_PIN, grid.n - N_PIN)[None, None, None, :]
    rows = 2 * U + al - be - 3 * off
    cols = 3 * (node + off) + be
    flat = (cols * (3 * U + 1) + rows).reshape(-1)
    taps = _D2_CENTER / grid.drho**2
    planar = (off == 0) * float(m * m) * np.array([1.0, 1.0, 0.0])[be]
    decay = np.exp(-2.0 * grid.rho)[node]
    weights = decay * (planar - taps[off + 3])
    ab = np.zeros((3 * U + 1, 3 * grid.n), order="F")
    pa_t = np.ascontiguousarray(pa[N_PIN:-N_PIN].transpose(1, 2, 0))
    vals = (0.5 * dt * pa_t) * weights
    ab.reshape(-1, order="F")[flat] = vals.reshape(-1)
    half = 0.5 * dt
    for node in range(grid.n):
        for al in range(3):
            for be in range(3):
                ab[2 * U + al - be, 3 * node + be] -= half * deriv[node, al, be]
    ab[2 * U] += 1.0
    return ab


@pytest.mark.parametrize("a", [1.0, 1j, 0.6 + 0.8j])
def test_assemble_strided_write_matches_scatter_bytes(grid, perturbed, a):
    """The slice writes of assemble reproduce the scatter byte for byte,
    spare rows and signed zeros included, also on a work object used
    before. Every call writes the one band array of the work object, and
    dgbtrf factors it in place; the zeroing in assemble clears every slot
    the factorization filled and no slice write reaches."""
    work = _VectorWork(grid, 3)
    pa = pa_blocks(perturbed, complex(a))
    lap = laplace_operator(perturbed, grid, 3)
    deriv = derivative_blocks(perturbed, lap, complex(a))
    flipped = derivative_blocks(perturbed[::-1].copy(), lap[::-1].copy(), complex(a))
    U = _VectorWork.BAND
    for dt, blocks, d in ((0.01, pa, deriv), (0.3, pa[::-1].copy(), flipped), (0.01, pa, deriv)):
        ab = work.assemble(band_blocks(blocks), d, dt)
        ref = assemble_scatter(grid, 3, blocks, dt, d)
        assert ab is work.ab
        assert ab.flags.f_contiguous and ab.shape == ref.shape
        assert ab.tobytes(order="F") == ref.tobytes(order="F")
        lu, _, info = dgbtrf(ab, U, U, overwrite_ab=True)
        assert info == 0 and lu is ab and lu.tobytes() != ref.tobytes()


def _reference_laplacian(x, grid, m):
    """laplace_operator by its formula, e^{-2 rho} (d2_rho x - m^2 (x1, x2, 0))
    with e^{-2 rho} from np.exp, zeroed on the pinned nodes."""
    out = d2_rho(x, grid)
    out[:, 0] -= m * m * x[:, 0]
    out[:, 1] -= m * m * x[:, 1]
    out *= np.exp(-2.0 * grid.rho)[:, None]
    out[:N_PIN] = out[-N_PIN:] = 0.0
    return out


@st.composite
def vector_fields(draw):
    """An (n, 3) field, n from 16 to 400, with magnitudes from 1e-8 to 1e8
    and a drawn share of +-0.0 entries per component."""
    n = draw(st.integers(16, 400))
    zeros = draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]), min_size=3, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sign = rng.choice([-1.0, 1.0], (n, 3))
    vals = sign * 10.0 ** rng.uniform(-8.0, 8.0, (n, 3))
    vals[rng.random((n, 3)) < np.array(zeros)] = 0.0
    return np.copysign(vals, sign)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(vector_fields(), st.sampled_from([2, 3, 4]))
def test_laplace_operator_matches_reference_bytes(v, m):
    """laplace_operator, the centered stencil on the evolving rows alone,
    equals the Laplacian over d2_rho with its closure rows zeroed byte for
    byte, signed zeros included, and holds +0.0 on the pinned rows."""
    grid = build_grid(-2.0, 3.0, v.shape[0])
    got = laplace_operator(v, grid, m)
    assert got.tobytes() == _reference_laplacian(v, grid, m).tobytes()
    pinned = np.concatenate([got[:N_PIN], got[-N_PIN:]])
    assert pinned.tobytes() == np.zeros((2 * N_PIN, 3)).tobytes()


def _reference_pa(u, w, a):
    """pa_apply by its formula, a1 (w - (u.w) u) + a2 u x w, with numpy's
    axis sum and np.cross."""
    out = a.real * (w - np.sum(u * w, axis=-1, keepdims=True) * u)
    return out + a.imag * np.cross(u, w) if a.imag != 0.0 else out


def _reference_rate(v, grid, a):
    """dissipation_rate of v by its formula, with numpy's axis sums."""
    lap = _reference_laplacian(v, grid, 3)
    pa_lap = _reference_pa(v / np.linalg.norm(v, axis=1, keepdims=True), lap, a)
    w = grid.drho * np.exp(2.0 * grid.rho)
    return 0.0 if a.real == 0 else 2.0 * math.pi * float(w @ np.sum(lap * pa_lap, axis=1))


def _reference_step_vector(v, dt, grid, m, config, held=None):
    """The midpoint step written out apart from step_vector: the scatter
    band with the loop-built derivative blocks, and L x, x/|x| and
    P_a L x evaluated afresh in every iteration by the formulas of
    _reference_laplacian and _reference_pa, under the same re-factor
    rule and the same stop, on an update below MIDPOINT_TOL or on an
    estimated remaining error at most CHORD_KAPPA MIDPOINT_TOL. The step
    starts from held, the (lu, piv, dt) of an earlier factorization,
    unless held is None or its dt is more than CHORD_DT_DRIFT off.
    Returns the new map, the iteration count, the factorization count and
    the (lu, piv, dt) the step leaves held."""
    U = _VectorWork.BAND

    def unit(x):
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    lu, piv, lu_dt = (None, None, math.nan) if held is None else held
    refactor = held is None or abs(dt - lu_dt) > evolve_llg.CHORD_DT_DRIFT * lu_dt
    vmid, factors, before = v, 0, math.inf
    for count in range(1, evolve_llg.MIDPOINT_CAP + 1):
        lap = _reference_laplacian(vmid, grid, m)
        if refactor:
            pa = _reference_pa(unit(vmid), np.eye(3)[:, None, :], config.a).transpose(1, 2, 0)
            band = assemble_scatter(grid, m, pa, dt, derivative_blocks(vmid, lap, config.a))
            lu, piv, info = dgbtrf(band, U, U, overwrite_ab=True)
            assert info == 0
            lu_dt = dt
            factors += 1
        resid = vmid - v - 0.5 * dt * _reference_pa(unit(vmid), lap, config.a)
        update, _ = dgbtrs(lu, U, U, resid.reshape(-1), piv)
        vmid = vmid - update.reshape(-1, 3)
        delta = float(np.max(np.abs(update)))
        if delta < evolve_llg.MIDPOINT_TOL:
            break
        # the estimated remaining error theta/(1 - theta) delta, theta = delta/before
        if count > 1 and delta < before:
            if delta * delta / (before - delta) <= evolve_llg.CHORD_KAPPA * evolve_llg.MIDPOINT_TOL:
                break
        refactor, before = delta > evolve_llg.CHORD_CONTRACTION * before, delta
    else:
        raise StepError("reference chord iteration stalled")
    v_new = 2.0 * vmid - v
    return v_new / np.linalg.norm(v_new, axis=1, keepdims=True), count, factors, (lu, piv, lu_dt)


def _reference_run_vector(v, dt, steps, grid, config):
    """run_vector by the reference step, each step starting from the LU
    the step before left, recomputing the step-start terms in the
    reference rate, with a record every 5 steps. Returns the snapshots,
    energies, dissipated energies and the iteration and factorization
    counts."""
    spent, iterations, factors, held = 0.0, 0, 0, None
    snaps, energies, dissipated = [v], [scheme_energy(v, grid, 3)], [0.0]
    rate_prev = _reference_rate(v, grid, config.a)
    for k in range(1, steps + 1):
        v, count, refactors, held = _reference_step_vector(v, dt, grid, 3, config, held)
        iterations += count
        factors += refactors
        rate_now = _reference_rate(v, grid, config.a)
        spent += 0.5 * dt * (rate_prev + rate_now)
        rate_prev = rate_now
        if k % 5 == 0:
            snaps.append(v)
            energies.append(scheme_energy(v, grid, 3))
            dissipated.append(spent)
    return np.array(snaps), np.array(energies), np.array(dissipated), iterations, factors


@pytest.mark.parametrize("a", [1.0, 1j, 0.6 + 0.8j])
def test_run_vector_matches_reference_loop_bytes(grid, perturbed, a):
    """20 steps of run_vector reproduce, byte for byte, a run loop whose
    step builds its band and derivative blocks apart from step_vector and
    recomputes the step-start terms in the step and in the rate, with the
    Laplacian, P_a and the norms written out in numpy's own formulas.
    Both hold their LU across steps, so they factor fewer times than they
    step."""
    dt = 2.0**-7  # a power of two, so that the step times add up exactly
    cfg = FlowConfig(a=a, dt0=dt)
    marks = [5 * k * dt for k in range(1, 5)]
    series = run_vector(perturbed, grid, 3, cfg, t_end=marks[-1], record_times=marks)
    snaps, energies, dissipated, iterations, factors = _reference_run_vector(
        perturbed, dt, 20, grid, cfg
    )
    assert series.steps == 20
    assert series.v.tobytes() == snaps.tobytes()
    assert series.energy.tobytes() == energies.tobytes()
    assert series.dissipated.tobytes() == dissipated.tobytes()
    assert series.iterations == iterations
    assert series.factorizations == factors < series.steps


def test_run_vector_refactoring_matches_reference_bytes(grid, perturbed, monkeypatch):
    """With CHORD_CONTRACTION at 0 the iteration re-factors at every
    iterate from the second update on (the first update has none before it
    to compare with); run_vector still reproduces the reference loop byte
    for byte, factorization count included."""
    monkeypatch.setattr(evolve_llg, "CHORD_CONTRACTION", 0.0)
    dt = 2.0**-7
    cfg = FlowConfig(a=0.6 + 0.8j, dt0=dt)
    marks = [5 * dt, 10 * dt]
    series = run_vector(perturbed, grid, 3, cfg, t_end=marks[-1], record_times=marks)
    snaps, energies, dissipated, iterations, factors = _reference_run_vector(
        perturbed, dt, 10, grid, cfg
    )
    assert series.v.tobytes() == snaps.tobytes()
    assert series.energy.tobytes() == energies.tobytes()
    assert series.dissipated.tobytes() == dissipated.tobytes()
    assert series.iterations == iterations
    assert series.factorizations == factors > series.steps == 10


def _heat_vector_data():
    """The grid and initial map of data like the heat_vector benchmark's:
    m = 3, h[mu] plus two tangent Gaussian bumps, rho in [-6, 10],
    n = 1024."""
    grid = build_grid(-6.0, 10.0, 1024)
    prof = h_profile(Mu(s=1.1, alpha=0.4, m=3), grid)
    v = prof.h.copy()
    for amp, centre, width, direction in ((0.03, 0.5, 0.8, prof.f.real), (-0.02, 1.0, 1.0, prof.f.imag)):
        v += (amp * np.exp(-(((grid.rho - centre) / width) ** 2)))[:, None] * direction
    return grid, v / np.linalg.norm(v, axis=1, keepdims=True)


# the heat_vector benchmark's record times
HEAT_VECTOR_RECORDS = np.geomspace(0.002, 0.2, 11)


@pytest.mark.parametrize("a", [1.0, 1j])
def test_heat_vector_run_keeps_chord_margin(a):
    """On data like the heat_vector benchmark's (_heat_vector_data,
    dt0 = 2e-3, t_end = 0.2, 11 records) the Newton-chord iteration takes
    at most 4 iterations in any step, and with the LU held across steps it
    factors at most once every two steps on average. A chord matrix
    without the derivative blocks takes 6 iterations in every step."""
    grid, v = _heat_vector_data()
    cfg = FlowConfig(a=a, dt0=2e-3)
    series = run_vector(v, grid, 3, cfg, t_end=0.2, record_times=np.linspace(0.0, 0.2, 11))
    assert series.steps == 100
    assert series.max_step_iterations <= 4
    assert series.factorizations <= 0.5 * series.steps


@dataclasses.dataclass(frozen=True)
class _JumpConfig(FlowConfig):
    """A schedule whose dt jumps from dt0 to 4 dt0 at t = 0.1."""

    def dt_at(self, t: float) -> float:
        return self.dt0 if t < 0.1 else 4.0 * self.dt0


def _midpoint_update_size(v, x, dt, grid, a):
    """The largest entry of one Newton update from the midpoint x of the
    step of size dt from v: the residual and the Jacobian
    I - (dt/2) (P_a L + D) evaluated at x by the formulas of
    _reference_laplacian, _reference_pa, pa_blocks and assemble_loop, D
    the blocks d/dx [P_a(x/|x|) w] at w = L x in numpy's own array
    formulas, factored afresh by scipy's solve_banded."""
    lap = _reference_laplacian(x, grid, 3)
    radius = np.linalg.norm(x, axis=1)
    u, w = x / radius[:, None], lap
    uw = np.sum(u * w, axis=1)[:, None, None]
    heat = u[:, :, None] * (2.0 * uw[:, :, 0] * u - w)[:, None, :] - uw * np.eye(3)
    skew = np.zeros((grid.n, 3, 3))
    skew[:, 0, 1], skew[:, 0, 2], skew[:, 1, 2] = -w[:, 2], w[:, 1], -w[:, 0]
    skew -= skew.transpose(0, 2, 1)
    turn = np.cross(w, u)[:, :, None] * u[:, None, :] - skew
    deriv = (a.real * heat + a.imag * turn) / radius[:, None, None]
    resid = x - v - 0.5 * dt * _reference_pa(u, lap, a)
    U = _VectorWork.BAND
    band = assemble_loop(grid, 3, pa_blocks(x, a), dt, deriv)
    return float(np.max(np.abs(solve_banded((U, U), band, resid.reshape(-1)))))


@pytest.mark.parametrize(
    "a, schedule",
    [(1.0, FlowConfig), (1j, FlowConfig), (0.6 + 0.8j, FlowConfig), (1.0, _JumpConfig)],
    ids=["1", "i", "0.6+0.8i", "1-dt_jump"],
)
def test_vector_early_stop_leaves_less_than_midpoint_tol(a, schedule, monkeypatch):
    """Every midpoint step of a run on heat_vector-shaped data that stops
    on its estimated remaining error, before an update falls below
    MIDPOINT_TOL, leaves an error below MIDPOINT_TOL: one Newton update
    from the midpoint it returns, with a Jacobian built apart from
    _VectorWork and factored afresh there, is at most MIDPOINT_TOL. One
    case quadruples dt mid-run, where the chord iteration contracts more
    slowly. The stop at CHORD_KAPPA = 1 leaves up to 3.6e-12 at a = i and
    1.7e-12 after the dt jump."""
    grid, v0 = _heat_vector_data()
    chord, solve = evolve_llg._chord, evolve_llg.solve_banded
    updates, left = [], []

    def spy_solve(*args):
        out = solve(*args)
        updates.append(float(np.max(np.abs(out))))
        return out

    def checked_chord(x, evaluate, u, tol, cap, work, what, t, dt):
        updates.clear()
        out = chord(x, evaluate, u, tol, cap, work, what, t, dt)
        if updates[-1] >= tol:
            left.append(_midpoint_update_size(x, out, dt, grid, complex(a)))
        return out

    monkeypatch.setattr(evolve_llg, "solve_banded", spy_solve)
    monkeypatch.setattr(evolve_llg, "_chord", checked_chord)
    series = run_vector(v0, grid, 3, schedule(a=a, dt0=2e-3), 0.2, HEAT_VECTOR_RECORDS)
    assert len(left) > 0.2 * series.steps
    assert max(left) <= evolve_llg.MIDPOINT_TOL


def _count_calls(monkeypatch, owner, name, log, keywords=None):
    """Wrap owner.name so that each call appends its positional arguments
    to log and, if keywords is a list, its keyword arguments to keywords."""
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        log.append(args)
        if keywords is not None:
            keywords.append(kwargs)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_vector_run_layer_calls(grid, perturbed, monkeypatch):
    """The layers the benchmark traces stay on the vector hot path: one
    band assembly per factorization, at least one in the run, as the LU is
    held across steps, and one laplace_operator per chord iteration plus
    one for the terms at the initial map; max_step_iterations is the most
    chord iterations of one step. d2_rho, whose closure rows neither
    scheme reads, is kept out of evolve_llg by tests/test_src_surface.py."""
    assembles, factors, laplacians, per_step = [], [], [], []
    _count_calls(monkeypatch, _VectorWork, "assemble", assembles)
    _count_calls(monkeypatch, evolve_llg, "dgbtrf", factors)
    _count_calls(monkeypatch, evolve_llg, "laplace_operator", laplacians)
    step = evolve_llg.step_vector

    def counted_step(v, t, dt, grid, m, config, work, terms):
        before = work.iterations
        out = step(v, t, dt, grid, m, config, work, terms)
        per_step.append(work.iterations - before)
        return out

    monkeypatch.setattr(evolve_llg, "step_vector", counted_step)
    series = run_vector(perturbed, grid, 3, FlowConfig(a=1.0, dt0=0.01), t_end=0.1)
    assert series.steps == len(per_step) > 0
    assert 1 <= series.factorizations == len(factors) == len(assembles)
    assert series.iterations == sum(per_step)
    assert len(laplacians) == series.iterations + 1
    assert series.max_step_iterations == max(per_step) > 1


def test_scalar_run_layer_calls(grid, monkeypatch):
    """The scalar hot path: one evolve_llg.solve_banded back-solve per
    Newton iteration, one dpbtrf per step plus a re-factor after each
    update that has not shrunk to CHORD_CONTRACTION of the one before, and
    one centered stencil on the evolving rows, _apply_stencil, per
    iteration plus one per step for the seed, the first step seeded with
    beta itself and reusing its rhs, the second with the linear
    extrapolation in time of the two accepted angles before it and every
    later one with the quadratic through the three before it, each seed
    holding beta's values on the N_PIN pinned nodes at each end bit for
    bit; max_step_iterations is the most Newton iterations of one step."""
    solves, factors, stencils, per_step, seeds, quadratic = [], [], [], [], [], []
    _count_calls(monkeypatch, evolve_llg, "dpbtrf", factors)
    _count_calls(monkeypatch, evolve_llg, "_apply_stencil", stencils)
    _count_calls(monkeypatch, evolve_llg, "_quadratic_seed", quadratic)
    solve = evolve_llg.solve_banded

    def counted_solve(*args):
        x = solve(*args)
        solves.append(float(np.max(np.abs(x))))
        return x

    monkeypatch.setattr(evolve_llg, "solve_banded", counted_solve)
    step = evolve_llg.step_scalar

    def counted_step(beta, t, dt, work, seed):
        before = work.iterations, len(factors)
        out = step(beta, t, dt, work, seed)
        per_step.append((work.iterations - before[0], len(factors) - before[1], seed is beta))
        seeds.append((beta, dt, seed))
        return out

    monkeypatch.setattr(evolve_llg, "step_scalar", counted_step)
    beta0 = stationary_angle(0.0, grid, 2) + 0.3 * np.exp(-((grid.rho - 1.0) ** 2))
    cfg = FlowConfig(a=1.0, dt0=0.01, ramp=0.05, dt_max=500.0)
    series = run_scalar(beta0, grid, 2, cfg, t_end=1e3)
    its = [k for k, _, _ in per_step]
    assert series.steps == len(per_step) > 0
    assert [at_beta for _, _, at_beta in per_step] == [True] + [False] * (series.steps - 1)
    # the second step is seeded by the line through the two accepted angles
    # before it, every later one by the quadratic through the three before
    # it, which run_scalar takes from _quadratic_seed
    assert len(quadratic) == series.steps - 2
    for k, (beta, dt, seed) in enumerate(seeds):
        past = [(prev, h) for prev, h, _ in seeds[max(k - 2, 0) : k]]
        assert seed.tobytes() == _run_scalar_seed(beta, past, dt).tobytes()
        ends = np.r_[:N_PIN, grid.n - N_PIN : grid.n]
        assert seed[ends].tobytes() == beta[ends].tobytes()
    assert series.iterations == sum(its) == len(solves)
    assert len(stencils) == series.iterations + series.steps - 1
    assert all(len(args) == 2 and args[1] is _D2_CENTER for args in stencils)
    assert series.max_step_iterations == max(its) > 1
    # the re-factor rule, read off the updates of each step
    expected, at = [], 0
    for k, _, _ in per_step:
        updates = solves[at : at + k]
        at += k
        # the last update ended the step; each earlier one after the first
        # re-factors unless it shrank to CHORD_CONTRACTION of its forerunner
        shrink = evolve_llg.CHORD_CONTRACTION
        expected.append(1 + sum(b > shrink * a for a, b in zip(updates, updates[1:-1])))
    assert [f for _, f, _ in per_step] == expected
    assert series.factorizations == len(factors) == sum(expected) >= series.steps


def test_non_finite_map_rejected_before_first_step(grid, profile, monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("step_vector ran on a non-finite map")

    monkeypatch.setattr(evolve_llg, "step_vector", no_step)
    v = profile.h.copy()
    v[400, 1] = math.nan
    with pytest.raises(ValueError, match="unit sphere"):
        run_vector(v, grid, 3, FlowConfig(a=1.0, dt0=0.01), t_end=0.1)


@pytest.mark.parametrize(
    "bad_step, message",
    [
        (lambda v: 1.2 * v, "sphere constraint violated"),
        (lambda v: np.full_like(v, math.nan), "non-finite map after step"),
    ],
    ids=["off_sphere", "non_finite"],
)
def test_run_vector_rejects_a_bad_step(grid, profile, monkeypatch, bad_step, message):
    """run_vector checks each new map: a node off the unit sphere by more
    than 0.1, or a non-finite map, is an instability."""
    monkeypatch.setattr(evolve_llg, "step_vector", lambda v, *args: bad_step(v))
    with pytest.raises(InstabilityError, match=message):
        run_vector(profile.h, grid, 3, FlowConfig(a=1.0, dt0=0.01), t_end=0.1)


@pytest.mark.parametrize(
    "a, rise, grows",
    [(1.0, 1.0, True), (1.0, 2e-7, True), (1.0, 5e-8, False), (1j, 1.0, False)],
    ids=["heat", "heat_past_tolerance", "heat_within_tolerance", "rotational"],
)
def test_run_vector_energy_growth_check(grid, profile, monkeypatch, a, rise, grows):
    """Under a dissipative flow run_vector rejects a scheme energy that
    rises from one record to the next by more than 1e-8 max(1, E(0)); the
    rotational flow, which conserves it, takes no such check."""
    booked = iter(10.0 + rise * k for k in range(10))
    monkeypatch.setattr(evolve_llg, "scheme_energy", lambda v, grid, m: next(booked))
    cfg = FlowConfig(a=a, dt0=0.01)
    marks = [0.01, 0.02, 0.03]
    if grows:
        grew = f"energy grew from 10 to {10.0 + rise:.9g} .* at t=0.01$"
        with pytest.raises(InstabilityError, match=grew):
            run_vector(profile.h, grid, 3, cfg, t_end=0.03, record_times=marks)
    else:
        series = run_vector(profile.h, grid, 3, cfg, t_end=0.03, record_times=marks)
        assert series.energy.tolist() == [10.0 + rise * k for k in range(4)]


@pytest.mark.parametrize("solver", ["vector", "scalar"])
def test_non_finite_step_is_instability(grid, profile, solver):
    """A NaN in the state makes the first residual of the chord iteration
    non-finite. Either stepper reports that as an instability before any
    factorization or back-solve, not as a stalled iteration."""
    cfg = FlowConfig(a=1.0, dt0=0.01)
    if solver == "vector":
        v = profile.h.copy()
        v[400, 1] = math.nan
        work = _VectorWork(grid, 3)
        with pytest.raises(InstabilityError, match="non-finite midpoint residual"):
            step_vector(v, 0.0, 0.01, grid, 3, cfg, work, _midpoint_terms(v, grid, 3, cfg.a))
    else:
        beta = stationary_angle(0.0, grid, 2)
        beta[300] = np.nan
        work = _ScalarWork(grid, 2, 1.0)
        with pytest.raises(InstabilityError, match="non-finite Newton residual"):
            step_scalar(beta, 0.0, 0.01, work, beta)
    assert work.iterations == work.factorizations == 0


def _toy_problem(diagonal=1.0):
    """G(x) = x - c on 6 nodes, c spread over [-1, 1], and an evaluate for
    evolve_llg._chord whose matrix is diagonal times I in gbtrf storage
    with one sub- and super-diagonal: the exact Jacobian at diagonal = 1."""
    c = np.linspace(-1.0, 1.0, 6)

    def evaluate(x, factor):
        ab = None
        if factor:
            ab = np.zeros((4, 6), order="F")
            ab[2] = diagonal
        return x - c, ab

    return c, evaluate


def test_chord_exact_jacobian_converges_on_one_factorization():
    c, evaluate = _toy_problem()
    work = evolve_llg._ChordCounters()
    x = evolve_llg._chord(np.zeros(6), evaluate, 1, 1e-12, 5, work, "toy", 0.5, 0.25)
    assert np.array_equal(x, c)
    # one update to c, then a zero update that meets the tolerance
    assert (work.iterations, work.factorizations, work.max_step_iterations) == (2, 1, 2)
    # the second call at the same dt starts from the LU the first left
    evolve_llg._chord(np.zeros(6), evaluate, 1, 1e-12, 5, work, "toy", 0.5, 0.25)
    assert (work.iterations, work.factorizations, work.max_step_iterations) == (4, 1, 2)


def test_chord_stall_reports_last_update():
    """A matrix twice too large halves the error each iteration: updates
    0.5, 0.25, 0.125. Contraction 1/2 is poor, so the third iteration
    re-factors (the second never does: its forerunner is the start)."""
    _, evaluate = _toy_problem(diagonal=2.0)
    work = evolve_llg._ChordCounters()
    with pytest.raises(
        StepError, match=r"^toy iteration stalled at t=0.5, dt=0.25 \(last update 1.250e-01\)"
    ):
        evolve_llg._chord(np.zeros(6), evaluate, 1, 1e-12, 3, work, "toy", 0.5, 0.25)
    assert (work.iterations, work.factorizations, work.max_step_iterations) == (3, 2, 0)


def test_chord_divergence_reports_first_and_last_update(monkeypatch):
    """A matrix a quarter of the Jacobian triples the error each
    iteration: updates 4, 12, 36, 108. With re-factoring switched off the
    one factorization serves all four."""
    monkeypatch.setattr(evolve_llg, "CHORD_CONTRACTION", math.inf)
    _, evaluate = _toy_problem(diagonal=0.25)
    work = evolve_llg._ChordCounters()
    with pytest.raises(
        StepError,
        match=r"^toy iteration diverged at t=0.5, dt=0.25 "
        r"\(first update 4.000e\+00, last 1.080e\+02\)",
    ):
        evolve_llg._chord(np.zeros(6), evaluate, 1, 1e-12, 4, work, "toy", 0.5, 0.25)
    assert (work.iterations, work.factorizations, work.max_step_iterations) == (4, 1, 0)


def test_chord_non_finite_residual_raises_before_any_solve(monkeypatch):
    solves = []
    _count_calls(monkeypatch, evolve_llg, "solve_banded", solves)
    _, evaluate = _toy_problem()
    start = np.zeros(6)
    start[2] = math.inf
    work = evolve_llg._ChordCounters()
    with pytest.raises(InstabilityError, match="^non-finite toy residual at t=0.5, dt=0.25"):
        evolve_llg._chord(start, evaluate, 1, 1e-12, 5, work, "toy", 0.5, 0.25)
    assert solves == []
    assert (work.iterations, work.factorizations, work.max_step_iterations) == (0, 0, 0)


def test_chord_zero_band_is_singular():
    # an all-zero band: LAPACK finds a zero pivot and returns info > 0
    _, evaluate = _toy_problem(diagonal=0.0)
    work = evolve_llg._ChordCounters()
    with pytest.raises(StepError, match="^toy matrix is singular at t=0.5, dt=0.25"):
        evolve_llg._chord(np.zeros(6), evaluate, 1, 1e-12, 5, work, "toy", 0.5, 0.25)
    assert (work.iterations, work.factorizations, work.max_step_iterations) == (0, 0, 0)


def _hold_lu(work, diagonal, dt):
    """Put the LU of diagonal times I, in the toy's band storage, on work
    as if a call at dt had factored it."""
    ab = np.zeros((4, 6), order="F")
    ab[2] = diagonal
    work.lu, work.piv, _ = dgbtrf(ab, 1, 1, overwrite_ab=True)
    work.lu_dt = dt


DRIFT = evolve_llg.CHORD_DT_DRIFT


@pytest.mark.parametrize(
    "dt, factors",
    [
        (0.25, 0),
        (np.nextafter(0.25, 0.0), 0),
        (np.nextafter(0.25, 1.0), 0),
        (0.25 * (1.0 + 0.5 * DRIFT), 0),
        (0.25 * (1.0 - 0.5 * DRIFT), 0),
        (0.25 * (1.0 + 2.0 * DRIFT), 1),
        (0.25 * (1.0 - 2.0 * DRIFT), 1),
    ],
    ids=[
        "same", "ulp_below", "ulp_above", "half_drift_up", "half_drift_down", "drift_up",
        "drift_down",
    ],
)
def test_chord_reuses_the_held_lu_unless_dt_drifts(dt, factors):
    """A second call reuses the LU the first left when its dt is within
    CHORD_DT_DRIFT of the LU's: a roundoff-sized change, such as the clip
    of a step to a record time that dt divides, does not count. A larger
    change factors at the first iterate and holds the new LU at the new
    dt."""
    c, evaluate = _toy_problem()
    work = evolve_llg._ChordCounters()
    evolve_llg._chord(np.zeros(6), evaluate, 1, 1e-12, 5, work, "toy", 0.0, 0.25)
    assert work.factorizations == 1 and work.lu_dt == 0.25
    x = evolve_llg._chord(np.zeros(6), evaluate, 1, 1e-12, 5, work, "toy", 0.25, dt)
    assert np.array_equal(x, c)
    assert (work.iterations, work.factorizations) == (4, 1 + factors)
    assert work.lu is not None and work.lu_dt == (dt if factors else 0.25)


def test_chord_held_lu_with_growing_updates_refactors_at_the_current_iterate():
    """A held LU a quarter of the Jacobian triples the error: updates 4
    and 12 grow, where a fresh iteration would report a divergence. The
    second update re-factors at the current iterate, -8 c, with the exact
    Jacobian, whose update 9 lands on c; that update has not shrunk to
    CHORD_CONTRACTION of 12 either, so c is factored too before the zero
    update that converges."""
    c, evaluate = _toy_problem()
    calls = []

    def spy(x, factor):
        calls.append((x.copy(), factor))
        return evaluate(x, factor)

    work = evolve_llg._ChordCounters()
    _hold_lu(work, 0.25, 0.25)
    x = evolve_llg._chord(np.zeros(6), spy, 1, 1e-12, 5, work, "toy", 0.5, 0.25)
    assert np.array_equal(x, c)
    assert [factor for _, factor in calls] == [False, False, True, True]
    assert np.allclose(calls[2][0], -8.0 * c, rtol=0.0, atol=1e-14)
    assert (work.iterations, work.factorizations, work.max_step_iterations) == (4, 2, 4)


@pytest.mark.parametrize(
    "diagonal, start, dt, cap, error, message",
    [
        (0.0, 0.0, 0.5, 5, StepError, "matrix is singular"),
        (1.0, math.inf, 0.25, 5, InstabilityError, "non-finite toy residual"),
        (1.0, 0.0, 0.25, 1, StepError, "iteration stalled"),
        (0.25, 0.0, 0.5, 4, StepError, "iteration diverged"),
    ],
    ids=["singular", "non_finite", "stalled", "diverged"],
)
def test_chord_failure_drops_the_held_lu(diagonal, start, dt, cap, error, message):
    """Any failure of a call drops the LU it started with, as the band
    array may hold a new assembly by then: the next call factors afresh,
    even at the dt of the dropped LU."""
    _, failing = _toy_problem(diagonal)
    c, evaluate = _toy_problem()
    work = evolve_llg._ChordCounters()
    _hold_lu(work, 1.0, 0.25)
    with pytest.raises(error, match=message):
        evolve_llg._chord(np.full(6, start), failing, 1, 1e-12, cap, work, "toy", 0.5, dt)
    assert work.lu is None
    before = work.factorizations
    x = evolve_llg._chord(np.zeros(6), evaluate, 1, 1e-12, 5, work, "toy", 0.5, 0.25)
    assert np.array_equal(x, c)
    assert work.factorizations == before + 1


def test_scalar_work_factors_afresh_at_the_same_dt(grid, monkeypatch):
    """_chord leaves its LU on the work and step_scalar drops it: two
    steps at one dt each build and factor the Newton matrix at their seed
    first."""
    work = _ScalarWork(grid, 2, 1.0)
    built = []
    newton_matrix = work.newton_matrix

    def spy(x, w):
        built.append(x)
        return newton_matrix(x, w)

    monkeypatch.setattr(work, "newton_matrix", spy)
    beta = stationary_angle(0.0, grid, 2) + 0.3 * np.exp(-((grid.rho - 1.0) ** 2))
    for steps in (1, 2):
        built.clear()
        new = step_scalar(beta, 0.0, 0.01, work, beta)
        assert built and built[0] is beta
        assert work.lu is not None and work.lu_dt == 0.01
        assert work.factorizations >= steps
        beta = new


def test_record_times_validation(grid, perturbed):
    cfg = FlowConfig(a=1.0, dt0=0.02)
    with pytest.raises(ValueError, match="record times"):
        run_vector(perturbed, grid, 3, cfg, t_end=0.1, record_times=[-0.5])
    with pytest.raises(ValueError, match="record times"):
        run_vector(perturbed, grid, 3, cfg, t_end=0.1, record_times=[0.2])


@pytest.mark.parametrize(
    "t_end, record_times",
    [(math.nan, None), (math.inf, None), (0.1, [math.nan]), (0.1, [0.05, math.nan])],
    ids=["nan_end", "inf_end", "nan_record", "nan_among_records"],
)
@pytest.mark.parametrize("solver", ["vector", "scalar"])
def test_non_finite_record_times_rejected_before_any_step(
    grid, profile, monkeypatch, solver, t_end, record_times
):
    """A non-finite t_end or record time is a ValueError on both solvers,
    raised before any step and, on the vector solver, before the midpoint
    terms of the initial map are computed, with no numpy warning, instead
    of a series that records a NaN or an infinite time."""

    def no_compute(*args, **kwargs):
        raise AssertionError(f"the {solver} solver computed before checking its times")

    monkeypatch.setattr(evolve_llg, f"step_{solver}", no_compute)
    if solver == "vector":
        monkeypatch.setattr(evolve_llg, "_midpoint_terms", no_compute)
    cfg = FlowConfig(a=1.0, dt0=0.01)
    if solver == "vector":
        run, state, m = run_vector, profile.h, 3
    else:
        run, state, m = run_scalar, stationary_angle(0.0, grid, 2), 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            run(state, grid, m, cfg, t_end=t_end, record_times=record_times)


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
    counts one Newton iteration per back-solve and, per step, one banded
    Cholesky factorization, dpbtrf, plus the re-factors."""
    solves, factors = [], []
    _count_calls(monkeypatch, evolve_llg, "solve_banded", solves)
    _count_calls(monkeypatch, evolve_llg, "dpbtrf", factors)
    beta0, cfg = _relaxation_run(grid)
    series = run_scalar(beta0, grid, 2, cfg, t_end=1e4)
    assert series.iterations == len(solves) >= series.steps
    assert series.iterations >= series.factorizations == len(factors) >= series.steps
    assert np.all(np.diff(series.energy) <= 1e-10)
    assert abs(series.energy[-1] - 8 * math.pi) < 1e-6 * 8 * math.pi
    assert series.steps < 400


def _relaxation_run(grid):
    """The initial angle and step control of the relaxation run."""
    beta0 = stationary_angle(0.0, grid, 2) + 0.3 * np.exp(-((grid.rho - 1.0) ** 2))
    return beta0, FlowConfig(a=1.0, dt0=0.01, ramp=0.05, dt_max=500.0)


def test_scalar_chord_matches_full_newton(grid, monkeypatch):
    """Over the relaxation run (255 ramped steps to t = 1e4) the seeded
    chord iteration of step_scalar and the full Newton loop it replaced,
    seeded by the current state and re-factoring at every iterate, reach
    the same angles within 1e-9 at every record."""
    beta0, cfg = _relaxation_run(grid)
    series = run_scalar(beta0, grid, 2, cfg, t_end=1e4)

    def full_newton(beta, t, dt, work, seed=None):
        return _full_newton_step_scalar(beta, dt, grid, 2, 1.0)[0]

    monkeypatch.setattr(evolve_llg, "step_scalar", full_newton)
    ref = run_scalar(beta0, grid, 2, cfg, t_end=1e4)
    assert series.steps == ref.steps == 255
    assert np.max(np.abs(series.beta - ref.beta)) < 1e-9


@pytest.mark.parametrize("kappa", [-0.9824006838515902, -1.2], ids=["kappa-0.982", "kappa-1.2"])
def test_scalar_tail_run_keeps_newton_margin(kappa):
    """The long m = 2 tail run of acceptance criterion 7 at two negative
    tail amplitudes: log_drift data on rho in [-14, 10] with n = 1536,
    ramp 0.01 to t = 1e5, recorded as simulate records it
    (t_record_min = 10, 41 records). At kappa = -0.982 one step once took
    all max_newton = 12 Newton iterations near t = 9e4; at kappa = -1.2
    the updates once stalled on a roundoff floor just above newton_tol
    near t = 6.9e4. Both complete with at most 10 iterations in any step
    and about one factorization per step."""
    grid = build_grid(-14.0, 10.0, 1536)
    vmap, _ = build_initial_data(TailFamily("log_drift", kappa=kappa), grid, m=2)
    cfg = FlowConfig(a=1.0, dt0=1e-4, ramp=0.01)
    record = [0.0] + list(np.geomspace(10.0, 1e5, 41))
    series = run_scalar(vmap.beta, grid, 2, cfg, 1e5, record)
    assert series.steps == 1755
    assert series.max_step_iterations <= 10
    assert series.factorizations <= 1.05 * series.steps


def _tail_run_data():
    """The grid and initial angle of the long m = 2 tail run at kappa = 0.8:
    log_drift data on rho in [-14, 10] with n = 1536."""
    grid = build_grid(-14.0, 10.0, 1536)
    vmap, _ = build_initial_data(TailFamily("log_drift", kappa=0.8), grid, m=2)
    return grid, vmap.beta


def test_scalar_tail_steps_take_one_newton_iteration(monkeypatch):
    """The quadratic seed and the early stop on a run shaped like the long
    m = 2 tail run (dt0 = 1e-4, ramp 0.01) cut to t = 100, with records off
    the step grid: the first step takes 2 Newton iterations, as no Newton
    constant is measured yet, and every step from the third on takes 1
    iteration and 1 factorization, except every NEWTON_REFRESH + 1-th
    step, which takes a second iteration to measure the constant again.
    Before the early stop every step from the third on took 2. A vector
    run on heat_vector-shaped data stops on its estimated remaining error
    too, from the second update on: it takes fewer than 2.75 iterations
    per step, against 2.99 when it stops only on an update below
    MIDPOINT_TOL (CHORD_KAPPA = 0), with the same factorizations."""
    tail_grid, beta0 = _tail_run_data()
    cfg = FlowConfig(a=1.0, dt0=1e-4, ramp=0.01)
    per_step = []
    step = evolve_llg.step_scalar

    def counted_step(beta, t, dt, work, seed):
        before = work.iterations, work.factorizations
        out = step(beta, t, dt, work, seed)
        per_step.append((work.iterations - before[0], work.factorizations - before[1]))
        return out

    monkeypatch.setattr(evolve_llg, "step_scalar", counted_step)
    series = run_scalar(beta0, tail_grid, 2, cfg, 100.0, np.geomspace(0.0123, 93.0, 9))
    assert series.steps == len(per_step) > 1000
    period = evolve_llg.NEWTON_REFRESH + 1
    assert per_step[0] == (2, 1)
    assert per_step[2:] == [(1 + (k % period == 0), 1) for k in range(2, series.steps)]
    assert series.iterations < 1.1 * series.steps

    heat_grid, v0 = _heat_vector_data()
    runs = []
    for kappa in (evolve_llg.CHORD_KAPPA, 0.0):
        monkeypatch.setattr(evolve_llg, "CHORD_KAPPA", kappa)
        runs.append(run_vector(v0, heat_grid, 3, FlowConfig(dt0=2e-3), 0.2, HEAT_VECTOR_RECORDS))
    early, late = runs
    assert early.steps == late.steps == 104
    assert early.iterations < 2.75 * early.steps < 2.95 * late.steps < late.iterations
    assert early.factorizations == late.factorizations


def _newton_update_size(beta, new, dt, grid, band):
    """The largest entry of one Newton update from new for the
    Crank-Nicolson step of size dt from beta: the symmetric Newton matrix
    built from band, the _stencil_band of grid, and factored afresh at
    new by dpbtrf, applied by dpbtrs to the scaled residual, with the
    second derivative of new evaluated as d2_rho(beta) + d2_rho(new -
    beta), as step_scalar evaluates it on the evolving rows, so the update
    is not held up by the stencil's roundoff on the angle itself; the
    N_PIN pinned rows at each end are identity rows with zero residual;
    m = 2 and a1 = 1, as on the tail run."""
    m, a1 = 2, 1.0
    stencil, pinned, u = band
    w = _row_weights(grid, a1, dt)
    d2_beta = d2_rho(beta, grid)
    resid = _scaled_residual(new, beta, w, d2_beta + d2_rho(new - beta, grid), d2_beta, m)
    chol, info = dpbtrf(_reference_newton_matrix(new, w, m, stencil, pinned, u))
    assert info == 0
    update, info = dpbtrs(chol, resid)
    assert info == 0
    return float(np.max(np.abs(update)))


@pytest.mark.parametrize("ramp, t_end", [(0.01, 100.0), (0.03, 1e5), (0.1, 1e5)])
def test_scalar_early_stop_leaves_less_than_newton_tol(ramp, t_end, monkeypatch):
    """Every step of a tail run that stops after one Newton update, or
    later on its estimated remaining error before an update falls below
    NEWTON_TOL, leaves an error below NEWTON_TOL: one more Newton update
    from the returned angle, with a fresh factorization there, is at most
    NEWTON_TOL. The ramps 0.03 and 0.1 grow dt fast enough that the Newton
    constant moves between refreshes, and there 132 and 64 steps stop on
    the estimated error after two or more updates; a constant never
    refreshed (NEWTON_REFRESH = inf), or the stop at K d1^2 <= NEWTON_TOL
    (CHORD_KAPPA = 1), leaves up to 7e-8 and 1.5e-9 there."""
    grid, beta0 = _tail_run_data()
    band = _stencil_band(grid)
    left, updates = [], []
    step, solve = evolve_llg.step_scalar, evolve_llg.solve_banded

    def spy_solve(*args):
        out = solve(*args)
        updates.append(float(np.max(np.abs(out))))
        return out

    def checked_step(beta, t, dt, work, seed):
        updates.clear()
        new = step(beta, t, dt, work, seed)
        if len(updates) == 1 or updates[-1] >= evolve_llg.NEWTON_TOL:
            left.append(_newton_update_size(beta, new, dt, grid, band))
        return new

    monkeypatch.setattr(evolve_llg, "solve_banded", spy_solve)
    monkeypatch.setattr(evolve_llg, "step_scalar", checked_step)
    series = run_scalar(beta0, grid, 2, FlowConfig(a=1.0, dt0=1e-4, ramp=ramp), t_end)
    assert len(left) > 0.2 * series.steps
    assert max(left) <= evolve_llg.NEWTON_TOL


def test_scalar_run_holds_the_dirichlet_ends_exactly(grid):
    """Over the relaxation run, whose Newton matrices couple no evolving
    row into a pinned node, so that their Cholesky factors leave the
    pinned unknowns alone and their updates are exactly zero, every recorded
    angle keeps the initial values of the N_PIN pinned nodes at each end
    bit for bit, with no end put back after the step."""
    beta0, cfg = _relaxation_run(grid)
    series = run_scalar(beta0, grid, 2, cfg, t_end=1e4)
    ends = np.r_[:N_PIN, grid.n - N_PIN : grid.n]
    assert series.beta[:, ends].tobytes() == np.tile(beta0[ends], series.t.size).tobytes()


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


def banded_d2(grid: RadialGrid) -> tuple[np.ndarray, int, int]:
    """The d2_rho operator as a LAPACK band matrix.

    Returns (ab, l, u) with ab[u + i - j, j] holding entry (i, j), the
    diagonal-ordered band of LAPACK. Rows reproduce d2_rho exactly,
    including the one-sided closures, so implicit solvers stay consistent
    with the explicit residual evaluation.
    """
    n = grid.n
    half = 7
    ab = np.zeros((2 * half + 1, n))
    wc = _D2_CENTER / grid.drho**2
    for k, off in enumerate(range(-3, 4)):
        ab[half - off, 3 + off : n - 3 + off] = wc[k]
    for i in range(3):
        we = _D2_EDGE[i] / grid.drho**2
        for k in range(8):
            ab[half + i - k, k] = we[k]
            ab[half + k - i, n - 1 - k] = we[k]
    return ab, half, half


def _stencil_band(grid):
    """banded_d2 cut to the pinned-end scheme, in LAPACK's upper symmetric
    band storage, entry (i, j), i <= j, at row N_PIN + i - j: its N_PIN + 1
    diagonals on and above the main one, with every slot in a pinned row
    or a pinned column, or outside the matrix, zero. On the evolving block
    banded_d2 holds nothing past the N_PIN diagonals on each side, and its
    diagonals below the main one mirror those above to 1e-15 relative:
    the centered weights are symmetric but for their last bits. Returns
    the band, the index arrays of its slots in a pinned row or column
    inside the matrix, and u = N_PIN."""
    band, _, reach = banded_d2(grid)
    n = grid.n
    # the row and the column of each slot, band[reach + i - j, j] holding (i, j)
    i = np.arange(2 * reach + 1)[:, None] - reach + np.arange(n)[None, :]
    j = np.broadcast_to(np.arange(n), i.shape)
    evolving = (i >= N_PIN) & (i < n - N_PIN) & (j >= N_PIN) & (j < n - N_PIN)
    cut = np.where(evolving, band, 0.0)
    assert not np.delete(cut, np.r_[reach - N_PIN : reach + N_PIN + 1], axis=0).any()
    for k in range(1, N_PIN + 1):
        # (j, j + k) above the main diagonal against (j + k, j) below it
        above, below = cut[reach - k, k:], cut[reach + k, :-k]
        assert np.all(np.abs(above - below) <= 1e-15 * np.abs(above))
    upper = slice(reach - N_PIN, reach + 1)
    return cut[upper], np.nonzero((i[upper] >= 0) & ~evolving[upper]), N_PIN


def _row_weights(grid, a1, dt):
    """The row weights w = 2 e^{2 rho}/(a1 dt) of the scaled Crank-Nicolson
    residual over the whole mesh, in _ScalarWork's order of operations."""
    return 2.0 / (a1 * np.exp(-2.0 * grid.rho)) / dt


def _reference_tension(b, d2, m):
    """The tension d2 + (m^2/2) sin 2b, d2 over the whole mesh, zeroed on
    the N_PIN pinned rows at each end."""
    out = d2 + 0.5 * m**2 * np.sin(2.0 * b)
    out[:N_PIN] = out[-N_PIN:] = 0.0
    return out


def _scaled_residual(x, beta, w, d2_x, d2_beta, m):
    """The scaled Crank-Nicolson residual w (x - beta) - (T(x) + T(beta)),
    T from _reference_tension on the second derivatives d2_x of x and
    d2_beta of beta, zero on the N_PIN pinned rows at each end."""
    tension = _reference_tension(x, d2_x, m) + _reference_tension(beta, d2_beta, m)
    resid = w * (x - beta) - tension
    resid[:N_PIN] = resid[-N_PIN:] = 0.0
    return resid


def _reference_newton_matrix(beta, w, m, stencil, pinned, u):
    """The symmetric Newton matrix diag(w) - D2 - m^2 diag(cos 2 beta) of
    the scaled Crank-Nicolson step at beta, in upper symmetric band
    storage, entry (i, j), i <= j, at row u + i - j, for the row weights w
    over the whole mesh and the _stencil_band parts stencil, pinned and u,
    with identity rows and zero columns at the N_PIN pinned nodes at each
    end."""
    ab = -stencil
    ab[u] += w
    ab[u] -= m**2 * np.cos(2.0 * beta)
    ab[pinned] = 0.0
    ab[u, :N_PIN] = ab[u, -N_PIN:] = 1.0
    return ab


def _full_newton_step_scalar(beta, dt, grid, m, a1):
    """The Crank-Nicolson step as a full Newton loop on the scaled
    residual: seeded by beta, a fresh symmetric band matrix at every
    iterate, built from banded_d2 here, scipy's solveh_banded per
    iteration, and the tension evaluated afresh at every iterate from
    d2_rho of the iterate. Returns the new angle and the number of
    iterations."""
    stencil, pinned, u = _stencil_band(grid)
    w = _row_weights(grid, a1, dt)
    d2_beta = d2_rho(beta, grid)
    new = beta.copy()
    for it in range(1, evolve_llg.NEWTON_CAP + 1):
        resid = _scaled_residual(new, beta, w, d2_rho(new, grid), d2_beta, m)
        ab = _reference_newton_matrix(new, w, m, stencil, pinned, u)
        delta = solveh_banded(ab, resid)
        new = new - delta
        if float(np.max(np.abs(delta))) < evolve_llg.NEWTON_TOL:
            return new, it
    raise StepError("reference Newton loop stalled")


def _reference_step_scalar(beta, dt, grid, m, a1, seed):
    """The seeded chord iteration of step_scalar, written independently: a
    fresh symmetric band from banded_d2, factored by dpbtrf and
    back-solved by dpbtrs, from seed, on the scaled residual with
    d2_rho(x) evaluated as d2_rho(beta) + d2_rho(x - beta) and a re-factor
    at the current iterate after each update larger than
    CHORD_CONTRACTION times the one before, a stop on an update below
    NEWTON_TOL or on an estimated remaining error at most
    CHORD_KAPPA NEWTON_TOL, and nothing put back on the pinned nodes.
    Returns the new angle, the number of iterations and the number of
    factorizations."""
    stencil, pinned, u = _stencil_band(grid)
    w = _row_weights(grid, a1, dt)
    d2_beta = d2_rho(beta, grid)
    new = seed
    factors, last = 0, None
    refactor = True
    for it in range(1, evolve_llg.NEWTON_CAP + 1):
        # beta itself, at the step's start or as the first iterate
        d2_new = d2_beta if new is beta else d2_beta + d2_rho(new - beta, grid)
        resid = _scaled_residual(new, beta, w, d2_new, d2_beta, m)
        if refactor:
            chol, info = dpbtrf(_reference_newton_matrix(new, w, m, stencil, pinned, u))
            assert info == 0
            factors += 1
        delta, info = dpbtrs(chol, resid)
        assert info == 0
        new = new - delta
        size = float(np.max(np.abs(delta)))
        # below tol, or the estimated remaining error theta/(1 - theta) size,
        # theta = size/last, at most CHORD_KAPPA tol
        converged = size < evolve_llg.NEWTON_TOL or (
            last is not None
            and size < last
            and size * size / (last - size) <= evolve_llg.CHORD_KAPPA * evolve_llg.NEWTON_TOL
        )
        if converged:
            return new, it, factors
        refactor = last is not None and size > evolve_llg.CHORD_CONTRACTION * last
        last = size
    raise StepError("reference chord loop stalled")


def _run_scalar_seed(now, past, dt):
    """The seed run_scalar takes for a step of size dt from the angle now,
    written independently: now itself with no accepted angle before it,
    the line through the last one with one, the quadratic through the
    last two with two, in divided differences with the divisions on the
    scalar weights. past holds (angle, step size to the next angle),
    oldest first."""
    if not past:
        return now
    prev, h1 = past[-1]
    if len(past) == 1:
        return now + (dt / h1) * (now - prev)
    prev2, h2 = past[-2]
    # now + dt d1 + curve (d1 - d0), d1 and d0 the last two differences
    curve = dt * (dt + h1) / (h1 + h2)
    return now + ((dt + curve) / h1) * (now - prev) - (curve / h2) * (prev - prev2)


def test_scalar_step_matches_reference_bytes(grid):
    """20 steps of step_scalar, seeded as run_scalar seeds them, reproduce
    the independent pinned-end dpbtrf/dpbtrs chord loop bit for bit, with
    the same iteration and factorization counts: ramped, and at one step
    size throughout, where the Newton matrix parts built for the first
    step serve every later one."""
    m = 2
    ramped = FlowConfig(a=1.0, dt0=0.01, ramp=0.5, dt_max=50.0)
    for cfg in (ramped, FlowConfig(a=1.0, dt0=0.6)):
        beta = stationary_angle(0.0, grid, m) + 0.3 * np.exp(-((grid.rho - 1.0) ** 2))
        ref = beta.copy()
        work = _ScalarWork(grid, m, 1.0)
        t, ref_iters, ref_factors = 0.0, 0, 0
        # the accepted angles before beta and ref, with the step size from each to the next
        past, ref_past = [], []
        for _ in range(20):
            dt = cfg.dt_at(t)
            seed, ref_seed = _run_scalar_seed(beta, past, dt), _run_scalar_seed(ref, ref_past, dt)
            past, ref_past = [*past[-1:], (beta, dt)], [*ref_past[-1:], (ref, dt)]
            beta = step_scalar(beta, t, dt, work, seed)
            ref, its, factors = _reference_step_scalar(ref, dt, grid, m, 1.0, ref_seed)
            ref_iters += its
            ref_factors += factors
            t += dt
        assert t > 10.0
        assert beta.tobytes() == ref.tobytes()
        assert work.iterations == ref_iters
        assert work.factorizations == ref_factors >= 20


def _unfused_step_scalar(beta, t, dt, work, seed):
    """step_scalar with one temporary per operation: d2 through
    _apply_stencil's per-column path on the (n, 1) field, the tension as
    one expression, the residual written into a zero array, and each
    Newton matrix built in a new array, row by row from template in lower
    symmetric band storage, the diagonal in row 0, rather than copied into
    the ab that holds the last Cholesky factor; the chord iteration is
    _chord's, on work."""
    u, body = work.u, slice(N_PIN, -N_PIN)
    w = work.weight / dt

    def d2(f):
        return _apply_stencil(f[:, None], _D2_CENTER)[:, 0] / work.grid.drho**2

    def tension(b, d2_b):
        return d2_b + 0.5 * work.m**2 * np.sin(2.0 * b[body])

    def newton_matrix(x):
        band = np.zeros(work.ab.shape, order="F")
        for row in range(u + 1):
            band[row] = work.template[row]
        band[0, body] = work.template[0, body] + w - work.m**2 * np.cos(2.0 * x[body])
        return band

    d2_old = d2(beta)
    tension_old = tension(beta, d2_old)

    def evaluate(x, factor):
        tension_x = tension_old if x is beta else tension(x, d2_old + d2(x - beta))
        resid = np.zeros(x.shape)
        resid[body] = w * (x - beta)[body] - (tension_x + tension_old)
        return resid, newton_matrix(x) if factor else None

    work.lu = None
    return evolve_llg._chord(
        seed, evaluate, u, evolve_llg.NEWTON_TOL, evolve_llg.NEWTON_CAP, work, "Newton", t, dt
    )


def test_scalar_run_matches_the_unfused_step_bytes(monkeypatch):
    """run_scalar on small m = 2 log_drift data, about 100 ramped steps to
    t = 1e4, gives the same bytes, iterations and factorizations as with
    _unfused_step_scalar in place of step_scalar: the in-place tension and
    residual, the direct stencil path and the copy of template into the
    ab that holds the last factor change no bit. newton_matrix writes all
    of ab, whatever it held, the off-diagonal rows 1 to u as template holds
    them."""
    grid = build_grid(-6.0, 10.0, 160)
    beta0 = build_initial_data(TailFamily("log_drift", kappa=0.8), grid, m=2)[0].beta
    cfg = FlowConfig(a=1.0, dt0=0.05, ramp=0.12)
    records = np.geomspace(0.05, 1e4, 7)
    works = []
    step = evolve_llg.step_scalar

    def kept_step(beta, t, dt, work, seed):
        out = step(beta, t, dt, work, seed)
        works.append((work, dt))
        return out

    monkeypatch.setattr(evolve_llg, "step_scalar", kept_step)
    series = run_scalar(beta0, grid, 2, cfg, 1e4, records)
    monkeypatch.setattr(evolve_llg, "step_scalar", _unfused_step_scalar)
    ref = run_scalar(beta0, grid, 2, cfg, 1e4, records)
    assert 90 <= series.steps == ref.steps <= 110
    for name in ("t", "v", "beta", "energy", "dissipated"):
        assert getattr(series, name).tobytes() == getattr(ref, name).tobytes(), name
    assert series.iterations == ref.iterations > 3 * series.steps
    assert series.factorizations == ref.factorizations > series.steps
    work, dt = works[-1]
    w = work.weight / dt
    fresh = work.newton_matrix(series.beta[-1], w).copy()
    work.ab[:] = np.nan
    assert work.newton_matrix(series.beta[-1], w).tobytes() == fresh.tobytes()
    assert work.ab[1:].tobytes() == work.template[1:].tobytes()


@pytest.mark.parametrize("n", [16, 1024, 1536, 2048])
def test_banded_d2_outer_diagonals_only_in_boundary_rows(n):
    """The diagonals of banded_d2 past the centered stencil's reach of
    N_PIN = 3 hold closure weights of the N_PIN rows at each end only,
    which the scalar scheme pins; its band therefore drops them. The
    template _ScalarWork builds directly, in lower symmetric band storage
    at u = N_PIN, equals the _stencil_band of banded_d2, re-laid by
    _lower_band, negated off the main diagonal, with +0.0 in every slot
    of a pinned row or column, and its Newton matrix equals the reference
    one re-laid the same way, byte for byte in every slot that lies
    inside the matrix."""
    grid = build_grid(-6.0, 10.0, n)
    band, l, u = banded_d2(grid)
    assert (l, u) == (7, 7)
    # ab[u + i - j, j] holds entry (i, j)
    i = np.arange(2 * u + 1)[:, None] - u + np.arange(n)[None, :]
    outer = (np.abs(np.arange(2 * u + 1) - u) > N_PIN)[:, None] & (band != 0)
    assert outer.any()
    assert set(i[outer]) <= {*range(N_PIN), *range(n - N_PIN, n)}
    m, a1, dt = 2, 0.7, 0.37
    work = _ScalarWork(grid, m, a1)
    u = work.u
    assert u == N_PIN == 3
    assert work.ab.shape == work.template.shape == (u + 1, n)
    stencil, pinned, _ = _stencil_band(grid)
    i = np.arange(u + 1)[:, None] - u + np.arange(n)[None, :]
    inside = i >= 0
    boundary = np.zeros_like(inside)
    boundary[pinned] = True
    assert not (stencil[inside & ~boundary] == 0).any()
    # +0.0 in the pinned rows and columns, where -stencil reads -0.0
    expected = _lower_band(np.where(boundary, 0.0, -stencil), u)
    # ab[i - j, j] holds entry (i, j), i >= j: inside while i < n
    low = np.arange(u + 1)[:, None] + np.arange(n)[None, :] < n
    assert work.template[1:][low[1:]].tobytes() == expected[1:][low[1:]].tobytes()
    beta = stationary_angle(0.0, grid, m)
    w = _row_weights(grid, a1, dt)
    ref = _lower_band(_reference_newton_matrix(beta, w, m, stencil, pinned, u), u)
    got = work.newton_matrix(beta, work.weight / dt)
    assert got[low].tobytes() == ref[low].tobytes()


def _step_residual(x, beta, dt, grid, m, a1):
    """The Crank-Nicolson residual G(x) = x - beta - (dt/2) (f(x) + f(beta)),
    f(b) = a1 e^{-2 rho} (d2_rho b + (m^2/2) sin 2b), on the evolving rows
    and G(x) = x - beta on the N_PIN pinned rows at each end, for x of
    shape (n,) or (n, k), real or complex: the residual before the row
    scaling of step_scalar."""
    decay = np.exp(-2.0 * grid.rho)[:, None]
    x = x if x.ndim == 2 else x[:, None]

    def f(b):
        return a1 * decay * _reference_tension(b, d2_rho(b, grid), m)

    return x - beta[:, None] - 0.5 * dt * (f(x) + f(beta[:, None]))


def _lower_band(ab, u):
    """The lower symmetric band storage of the matrix that ab holds in
    upper storage: entry (i, j), i >= j, at row i - j, read from (j, i) at
    row u + j - i; +0.0 in the slots outside the matrix."""
    n = ab.shape[1]
    low = np.zeros_like(ab)
    for k in range(u + 1):
        low[k, : n - k] = ab[u - k, k:]
    return low


def _band_to_dense(ab, u):
    """The symmetric n x n matrix of lower symmetric band storage ab:
    entry (i, j), i >= j, at row i - j, and (j, i) equal to it."""
    n = ab.shape[1]
    dense = np.zeros((n, n))
    for k in range(u + 1):
        j = np.arange(n - k)
        dense[j + k, j] = dense[j, j + k] = ab[k, j]
    return dense


@st.composite
def pinned_steps(draw):
    """A grid of n nodes, n from 16 to 160, on rho in [rho_min, rho_min +
    span] with rho_min as low as the tail run's -14, an angle beta, an
    iterate x off beta by normal noise of scale 1e-8, 1e-3 or 0.3 on the
    evolving nodes and equal to it on the N_PIN pinned nodes at each end,
    a step dt from 1e-4 to 1e2, m and a1."""
    n = draw(st.integers(16, 160))
    rho_min = draw(st.floats(-14.0, 0.0))
    span = draw(st.floats(4.0, 24.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    beta = rng.uniform(-2.0, 2.0, n)
    x = beta + draw(st.sampled_from([1e-8, 1e-3, 0.3])) * rng.standard_normal(n)
    x[:N_PIN], x[-N_PIN:] = beta[:N_PIN], beta[-N_PIN:]
    dt = 10.0 ** draw(st.floats(-4.0, 2.0))
    m, a1 = draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([0.25, 1.0]))
    return build_grid(rho_min, rho_min + span, n), beta, x, dt, m, a1


@settings(derandomize=True, deadline=None, max_examples=100)
@given(pinned_steps())
def test_scalar_newton_matrix_is_the_jacobian_on_the_evolving_block(case):
    """The Newton matrix S of _ScalarWork at x, read from its lower
    symmetric band storage, is on the evolving block the Jacobian of the
    step's residual scaled row by row by w = 2 e^{2 rho}/(a1 dt): S
    equals diag(w) times the complex-step Jacobian Im G(x + i h e_j)/h of
    a test-local unscaled residual over d2_rho to 1e-13 of each row's
    largest entry, in both triangles, so the scaled Jacobian is symmetric
    to that accuracy. Its
    N_PIN pinned rows and columns at each end are identity rows and
    columns, so it couples no evolving row into a pinned node. Where
    dpbtrf factors it, one chord update, work.factor and solve_banded as
    _chord takes them, leaves the pinned nodes of x bit for bit; where it
    finds S not positive definite, a step seeded at x raises that
    StepError before any back-solve."""
    grid, beta, x, dt, m, a1 = case
    n = grid.n
    work = _ScalarWork(grid, m, a1)
    w = work.weight / dt
    ab = work.newton_matrix(x, w)
    got = _band_to_dense(ab, work.u)
    body = slice(N_PIN, n - N_PIN)
    h = 1e-20
    jac = _step_residual(x[:, None] + 1j * h * np.eye(n), beta, dt, grid, m, a1).imag / h
    scaled = w[:, None] * jac[body, body]
    scale = np.max(np.abs(scaled), axis=1, keepdims=True)
    assert np.all(np.abs(got[body, body] - scaled) <= 1e-13 * scale)
    ends = np.r_[:N_PIN, n - N_PIN : n]
    eye = np.eye(n)
    assert np.array_equal(got[ends], eye[ends])
    assert np.array_equal(got[:, ends], eye[:, ends])
    chol, piv, info = work.factor(ab.copy(), work.u)
    if info == 0:
        resid = _step_residual(x, beta, dt, grid, m, a1)[:, 0]
        new = x - evolve_llg.solve_banded(chol, piv, resid, work.u)
        assert new[ends].tobytes() == x[ends].tobytes()
    else:
        with pytest.raises(StepError, match="^Newton matrix is not positive definite at t=0,"):
            step_scalar(beta, 0.0, dt, work, x)
        assert work.iterations == work.factorizations == 0


def test_scalar_step_reports_singular_matrix(grid, monkeypatch):
    """A Newton matrix dpbtrf cannot factor, here an all-zero band, is
    reported as not positive definite, with the step's time and size."""
    work = _ScalarWork(grid, 2, 1.0)
    # an all-zero band: dpbtrf finds a zero pivot and returns info > 0
    monkeypatch.setattr(work, "newton_matrix", lambda beta, w: np.zeros_like(work.ab))
    beta = stationary_angle(0.0, grid, 2)
    message = "^Newton matrix is not positive definite at t=0, dt=0.01; reduce the step size$"
    with pytest.raises(StepError, match=message):
        step_scalar(beta, 0.0, 0.01, work, beta)


def test_scalar_step_on_an_unstable_angle_fails_before_any_back_solve(monkeypatch):
    """The equator beta = 0, m = 2, is a steady state whose linearized
    heat flow grows at rates up to a1 e^{-2 rho} m^2: on rho in [-4, 4]
    the modes near the inner end grow faster than 2/dt at dt = 10, so
    the Newton matrix is not positive definite there and step_scalar
    raises StepError before any back-solve, with no factorization counted
    and no factor held. At dt = 1e-4 every weight w = 2 e^{2 rho}/dt is
    above m^2, the matrix is positive definite, and the step keeps the
    steady state bit for bit."""
    solves = []
    _count_calls(monkeypatch, evolve_llg, "solve_banded", solves)
    grid = build_grid(-4.0, 4.0, 64)
    beta = np.zeros(grid.n)
    work = _ScalarWork(grid, 2, 1.0)
    message = "^Newton matrix is not positive definite at t=0.5, dt=10; reduce the step size$"
    with pytest.raises(StepError, match=message):
        step_scalar(beta, 0.5, 10.0, work, beta)
    assert solves == []
    assert (work.iterations, work.factorizations, work.lu) == (0, 0, None)
    assert step_scalar(beta, 0.5, 1e-4, work, beta).tobytes() == beta.tobytes()
    assert len(solves) == work.iterations == work.factorizations == 1


def test_scalar_run_factors_the_lower_band(grid, monkeypatch):
    """Every dpbtrf of a scalar run factors the Newton matrix in place in
    lower symmetric band storage, where LAPACK's rank-one updates read
    unit-stride vectors."""
    factors, keywords = [], []
    _count_calls(monkeypatch, evolve_llg, "dpbtrf", factors, keywords)
    beta0, cfg = _relaxation_run(grid)
    series = run_scalar(beta0, grid, 2, cfg, t_end=1.0)
    assert len(keywords) == series.factorizations > 0
    assert all(kw == {"lower": 1, "overwrite_ab": True} for kw in keywords)


@pytest.mark.parametrize("n", [16, 1536])
def test_scalar_factor_is_the_upper_cholesky_factor(n):
    """_ScalarWork.factor re-lays the lower Cholesky factor L of a Newton
    matrix as U = L^T in upper symmetric band storage: byte for byte the
    upper dpbtrf factor of the reference Newton matrix in every slot inside
    the matrix, at dt from 1e-4 to 900 on the tail run's rho range. A band
    that is not positive definite, the equator at m = 2 and dt = 10, still
    gives the info of the upper factorization, > 0."""
    grid = build_grid(-14.0, 10.0, n)
    m, a1 = 2, 1.0
    work = _ScalarWork(grid, m, a1)
    u = work.u
    stencil, pinned, _ = _stencil_band(grid)
    inside = np.arange(u + 1)[:, None] - u + np.arange(n)[None, :] >= 0
    beta = stationary_angle(0.0, grid, m) + 0.3 * np.exp(-((grid.rho - 1.0) ** 2))
    for dt in (1e-4, 1.0, 900.0):
        ref = _reference_newton_matrix(beta, _row_weights(grid, a1, dt), m, stencil, pinned, u)
        chol_ref, info_ref = dpbtrf(ref)
        chol, piv, info = work.factor(work.newton_matrix(beta, work.weight / dt), u)
        assert (piv, info, info_ref) == (None, 0, 0)
        assert chol is work.chol
        assert chol[inside].tobytes() == chol_ref[inside].tobytes()
    equator = np.zeros(n)
    ref = _reference_newton_matrix(equator, _row_weights(grid, a1, 10.0), m, stencil, pinned, u)
    info_ref = dpbtrf(ref)[1]
    info = work.factor(work.newton_matrix(equator, work.weight / 10.0), u)[2]
    assert info == info_ref > 0


def test_scalar_step_after_a_failed_factor_matches_a_fresh_work():
    """The re-laid Cholesky factor lives in one array on the work object,
    which a failed factorization leaves partly written: after a step that
    finds the Newton matrix not positive definite, a step at a quarter of
    its dt on the same work gives the bytes, counts and factor of that
    step on a fresh _ScalarWork."""
    grid = build_grid(-4.0, 4.0, 64)
    beta = 0.3 * np.exp(-(grid.rho**2))
    work = _ScalarWork(grid, 2, 1.0)
    with pytest.raises(StepError, match="^Newton matrix is not positive definite at t=0,"):
        step_scalar(beta, 0.0, 0.02, work, beta)
    assert work.chol.any()
    got = step_scalar(beta, 0.0, 0.005, work, beta)
    fresh = _ScalarWork(grid, 2, 1.0)
    ref = step_scalar(beta, 0.0, 0.005, fresh, beta)
    assert np.max(np.abs(ref - beta)) > 1e-3
    assert got.tobytes() == ref.tobytes()
    assert (work.iterations, work.factorizations) == (fresh.iterations, fresh.factorizations)
    assert work.chol.tobytes() == fresh.chol.tobytes()


def test_scalar_step_rejects_a_non_finite_angle(grid, monkeypatch):
    """Back-solves that return NaN end the chord iteration on a non-finite
    update; step_scalar then raises InstabilityError, not a NaN angle."""

    def nan_solve(lu, piv, b, u):
        return np.full_like(b, np.nan)

    monkeypatch.setattr(evolve_llg, "solve_banded", nan_solve)
    work = _ScalarWork(grid, 2, 1.0)
    beta = stationary_angle(0.0, grid, 2)
    with pytest.raises(InstabilityError, match="^non-finite angle after step at t=0.5$"):
        step_scalar(beta, 0.5, 0.01, work, beta)
    assert work.iterations == 1


def test_run_scalar_rejects_non_finite_initial_angle(grid, monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("stepped a non-finite angle")

    monkeypatch.setattr(evolve_llg, "step_scalar", no_step)
    for bad in (np.nan, np.inf):
        beta0 = stationary_angle(0.0, grid, 2)
        beta0[5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            run_scalar(beta0, grid, 2, FlowConfig(a=1.0, dt0=0.01), t_end=0.1)


def test_scalar_newton_stall_raises(grid, monkeypatch):
    beta0 = stationary_angle(0.0, grid, 2) + 0.3 * np.exp(-((grid.rho - 1.0) ** 2))
    cfg = FlowConfig(a=1.0, dt0=50.0)
    monkeypatch.setattr(evolve_llg, "NEWTON_CAP", 1)
    with pytest.raises(StepError, match=r"Newton iteration stalled .*\(last update [^,]*\)"):
        run_scalar(beta0, grid, 2, cfg, t_end=100.0)
