"""Acceptance suite: eight release checks, one test (and one report line) each.

The eight checks cover, in order: the closed-form constants of the
harmonic family, the right-inverse operator identities, the flat-frame
transform and its inverse, the flow solvers' energy bookkeeping, the
evolution equation of the gauge field, relaxation toward the harmonic
family, long-horizon scale tracking against the tail prediction, and
locality of the scale history in the initial data.  Shared long runs
live in module-scoped fixtures; the whole suite runs in about two
minutes.
"""

import math

import numpy as np
import pytest

from equiflow.evolve_llg import (
    FlowConfig,
    SphereMap,
    beta_to_map,
    energy_identity_residual,
    run_scalar,
    run_vector,
    stationary_angle,
)
from equiflow.gauge import hasimoto_forward, qeq_rhs, reconstruct_v
from equiflow.harmonic_family import Mu, degree, energy, h_profile, l_s_apply
from equiflow.modulation import bump_phi, fit_mu, psi_and_c, r_inverse
from equiflow.radial_grid import build_grid, deriv_r, inner_product, norm
from equiflow.scenarios import (
    BehaviorClass,
    TailFamily,
    build_initial_data,
    classify_behavior,
    predict_log_s,
)


@pytest.fixture(scope="module")
def wide_grid():
    return build_grid(-8.0, 16.0, 2048)


def perturbed_map(mu, grid, amp_re=0.1, amp_im=0.0):
    """Unit map near h[mu]: tangent Gaussian bumps added and renormalized."""
    prof = h_profile(mu, grid)
    pr = amp_re * np.exp(-(((grid.rho - 0.6) / 0.8) ** 2))
    pi = amp_im * np.exp(-(((grid.rho + 0.2) / 1.0) ** 2))
    v = prof.h + pr[:, None] * prof.f.real + pi[:, None] * prof.f.imag
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return SphereMap(v, mu.m)


def compact_bump(rho, lo, hi):
    """Infinitely smooth bump, exactly zero outside (lo, hi), peak one."""
    x = (rho - lo) / (hi - lo)
    out = np.zeros_like(rho)
    inside = (x > 0.0) & (x < 1.0)
    out[inside] = np.exp(4.0 - 1.0 / (x[inside] * (1.0 - x[inside])))
    top = out.max()
    return out / top if top > 0.0 else out


def random_smooth_fields(rng, grid, count):
    """Random smooth decaying fields: Gaussian bumps under a sech envelope."""
    fields = []
    for _ in range(count):
        out = np.zeros(grid.n)
        for _ in range(4):
            c = rng.uniform(-2.0, 2.0)
            w = rng.uniform(0.5, 1.5)
            out += rng.normal() * np.exp(-(((grid.rho - c) / w) ** 2))
        fields.append(out / np.cosh(0.8 * grid.rho))
    return fields


def chained_log_s(series, phi, grid):
    """Fitted log of the scale parameter at every snapshot of a run."""
    logs = []
    guess = None
    for k in range(series.t.size):
        fit = fit_mu(series.map_at(k), guess, phi, grid, strict=False)
        guess = fit.mu
        logs.append(math.log(fit.mu.s))
    return np.array(logs)


@pytest.fixture(scope="module")
def scale_tracking():
    """Long-horizon dissipative runs for the tail families, plus fits.

    One scalar great-circle run per family on a deep grid, stepped with
    a ramped step size out to t = 1e5 and snapshotted on 41 geometric
    record times from t = 10.  Each entry holds the record times, the
    fitted log-scale history, and the gauge-field form of the predicted
    history read at the same times.
    """
    grid = build_grid(-14.0, 10.0, 1536)
    records = np.geomspace(10.0, 1e5, 41)
    cfg = FlowConfig(a=1.0, dt0=1e-4, ramp=0.01)
    phi = bump_phi(2, grid)

    def run_one(beta):
        series = run_scalar(beta, grid, 2, cfg, 1e5, record_times=records)
        logs = chained_log_s(series, phi, grid)
        live = series.t >= 10.0 - 1e-9
        return series.t[live], logs[live]

    out = {}
    for key, fam in (
        ("settled", TailFamily("none")),
        ("inward", TailFamily("log_drift", kappa=-0.8)),
        ("outward", TailFamily("log_drift", kappa=0.8)),
        ("wavy", TailFamily("ln_ln_oscillation", kappa=0.8, lam=0.7)),
    ):
        vmap, _ = build_initial_data(fam, grid, m=2)
        t_w, logs = run_one(vmap.beta)
        pred = predict_log_s(vmap, 1.0, records, grid)
        out[key] = (t_w, logs, pred.q_form)

    # partner for the locality check: the outward-drift data plus an
    # angle hump supported strictly inside r < 1
    vmap, _ = build_initial_data(TailFamily("log_drift", kappa=0.8), grid, m=2)
    hump = 0.4 * compact_bump(grid.rho, -4.0, -0.5)
    assert hump[grid.rho >= -0.5].max(initial=0.0) == 0.0
    t_w, logs = run_one(vmap.beta + hump)
    out["outward_inner_hump"] = (t_w, logs)
    return out


def test_criterion_1_closed_form_family_constants(wide_grid):
    """Family energy 4 pi m, degree m, the pairing constant at degree 2,
    the kernel property of the gauge operator, and the adjoint-window
    tail exponent 1 - m."""
    g = wide_grid
    for m in (2, 3, 4):
        for s in (0.25, 1.0, 4.0):
            for alpha in (0.0, 0.7, -1.3):
                mu = Mu(s, alpha, m)
                prof = h_profile(mu, g)
                floor = 4.0 * math.pi * m
                assert abs(energy(prof.h, g, m) - floor) <= 1e-6 * floor
                assert abs(degree(prof.h, g, m) - m) <= 1e-6
                assert np.abs(l_s_apply(prof.h1s, mu, g)).max() <= 1e-8
    assert abs(psi_and_c(bump_phi(2, g), 2, g).c - 1.0 / math.pi**2) <= 1e-8
    last_decade = g.rho >= g.rho_max - math.log(10.0)
    for m in (2, 3, 4):
        psi = psi_and_c(bump_phi(m, g), m, g)
        slope = np.polyfit(
            g.rho[last_decade], np.log(np.abs(psi.psi[last_decade])), 1
        )[0]
        assert abs(slope - (1 - m)) <= 0.02


def test_criterion_2_right_inverse_operator_identities(wide_grid):
    """Applying the gauge operator after its right inverse returns the
    input; the reverse order projects out the kernel direction; and the
    measured operator norm is scale invariant to within five percent."""
    g = wide_grid
    rng = np.random.default_rng(2026)
    fields = random_smooth_fields(rng, g, 20)
    for m in (2, 3, 4):
        phi = bump_phi(m, g)
        for s in (0.25, 1.0, 4.0):
            mu = Mu(s, 0.0, m)
            h1s = 1.0 / np.cosh(m * (g.rho - math.log(s)))
            phiv = phi.paired_values(g, s)
            for f in fields:
                scale = max(1.0, np.abs(f).max())
                u = r_inverse(f, phi, s, g)
                assert np.abs(l_s_apply(u, mu, g) - f).max() <= 1e-7 * scale
                back = r_inverse(l_s_apply(f, mu, g), phi, s, g)
                fperp = f - h1s * inner_product(f, phiv, g)
                assert np.abs(back - fperp).max() <= 1e-7 * scale
    shapes = [
        (rng.normal(size=3), rng.uniform(-2.0, 2.0, size=3), rng.uniform(0.5, 1.5, size=3))
        for _ in range(20)
    ]
    for m in (2, 3, 4):
        phi = bump_phi(m, g)
        per_scale = []
        for s in (0.25, 1.0, 4.0):
            sigma = g.rho - math.log(s)
            best = 0.0
            for amps, centers, widths in shapes:
                f = np.zeros(g.n)
                for a0, c0, w0 in zip(amps, centers, widths):
                    f += a0 * np.exp(-(((sigma - c0) / w0) ** 2))
                f /= np.cosh(0.8 * sigma)
                best = max(
                    best, norm(r_inverse(f, phi, s, g), g, kind="X") / norm(f, g, kind="L2x")
                )
            per_scale.append(best)
        assert (max(per_scale) - min(per_scale)) / max(per_scale) <= 0.05


def test_criterion_3_flat_frame_gauge_suite(wide_grid):
    """The transform annihilates the harmonic family, collapses to the
    angle-derivative form on great circles, and inverts to the original
    map in the energy norm."""
    g23 = build_grid(-8.0, 16.0, 3072)
    g4 = build_grid(-6.0, 12.0, 3072)
    for m, g in ((2, g23), (3, g23), (4, g4)):
        for s in (0.5, 1.0, 2.0):
            for alpha in (0.0, 1.1):
                mu = Mu(s, alpha, m)
                st = hasimoto_forward(SphereMap(h_profile(mu, g).h, m), mu, g)
                assert np.abs(st.q).max() <= 1e-8

    g = wide_grid
    beta = stationary_angle(0.3, g, 2) + 0.08 * np.exp(-(((g.rho - 0.5) / 0.9) ** 2))
    vm = SphereMap(beta_to_map(beta), 2)
    mu = fit_mu(vm, None, bump_phi(2, g), g).mu
    st = hasimoto_forward(vm, mu, g)
    qref = -deriv_r(beta, g) + 2.0 * vm.v[:, 0] / g.r
    assert np.abs(st.q.real - qref).max() <= 1e-7
    assert np.abs(st.q.imag).max() <= 1e-9

    for m in (2, 3):
        mu0 = Mu(1.0, 0.0 if m == 2 else 0.4, m)
        vm = perturbed_map(mu0, g, amp_re=0.05)
        phi = bump_phi(m, g)
        fit = fit_mu(vm, None, phi, g)
        st = hasimoto_forward(vm, fit.mu, g)
        vrec, _ = reconstruct_v(fit.mu, st.q, phi, g)
        assert norm(vrec.v - vm.v, g, kind="X") <= 1e-6


def test_criterion_4_dissipation_and_conservation_bookkeeping():
    """Dissipative runs lose energy monotonically with the loss ledger
    closing to 1e-6 and tightening at the scheme's second order when the
    step is halved; the conservative flow holds energy and the gauge
    field norm to 1e-6 over a long run."""
    g = build_grid(-6.0, 10.0, 768)
    v0 = perturbed_map(Mu(1.0, 0.3, 3), g).v
    residuals = {}
    for dt in (0.004, 0.002):
        series = run_vector(v0, g, 3, FlowConfig(a=1.0, dt0=dt), 0.5)
        assert np.all(np.diff(series.energy) <= 1e-12)
        residuals[dt] = energy_identity_residual(series)
    assert residuals[0.004] <= 1e-6
    # second order in time: halving dt divides the defect by about four
    ratio = residuals[0.004] / residuals[0.002]
    assert 3.0 <= ratio <= 5.5

    delta = 0.05
    g = build_grid(-6.0, 10.0, 2048)
    mu0 = Mu(1.0, 0.3, 3)
    prof = h_profile(mu0, g)
    shape = compact_bump(g.rho, 1.0, 4.0)
    # scale a far-field hump (slowly varying, so its outgoing waves stay
    # resolved for the whole run) to sit just inside the energy budget
    probe = prof.h + (0.01 * shape)[:, None] * prof.f.real
    probe /= np.linalg.norm(probe, axis=1, keepdims=True)
    excess = energy(probe, g, 3) - 12.0 * math.pi
    amp = 0.01 * math.sqrt(0.9) * delta / math.sqrt(excess)
    v0 = prof.h + (amp * shape)[:, None] * prof.f.real
    v0 /= np.linalg.norm(v0, axis=1, keepdims=True)
    assert energy(v0, g, 3) - 12.0 * math.pi <= delta**2
    series = run_vector(v0, g, 3, FlowConfig(a=1j, dt0=0.01), 5.0, [0.0, 2.5, 5.0])
    assert energy_identity_residual(series) <= 1e-6
    qn = [
        norm(hasimoto_forward(series.map_at(k), mu0, g).q, g, kind="L2x")
        for k in range(series.t.size)
    ]
    assert max(abs(q - qn[0]) for q in qn) <= 1e-6 * qn[0]


def test_criterion_5_gauge_field_evolution_equation():
    """Centered differences of the gauge field across snapshots match the
    evolution right-hand side to one percent at five interior times.

    The comparison excludes half a log unit at the inner wall: the
    solver pins those nodes as its boundary closure, so the evolution
    equation is not supposed to hold there, and the 1/r^2 weight of the
    operator magnifies the closure kink.  The result is insensitive to
    the cut: widening it to three log units changes no digit shown.
    """
    m = 3
    g = build_grid(-6.0, 10.0, 1024)
    v0 = perturbed_map(Mu(1.0, 0.3, m), g, amp_re=0.05, amp_im=0.03).v
    times = [0.0125 * k for k in range(29)]
    series = run_vector(v0, g, m, FlowConfig(a=1.0, dt0=1e-3), times[-1], times)
    mu0 = Mu(1.0, 0.3, m)
    states = [
        hasimoto_forward(series.map_at(k), mu0, g)
        for k in range(series.t.size)
    ]
    weights = 2.0 * math.pi * g.w_rdr
    live = g.rho >= g.rho_min + 0.5
    for k in (8, 12, 16, 20, 24):
        fd = (states[k + 1].q - states[k - 1].q) / (series.t[k + 1] - series.t[k - 1])
        rhs = qeq_rhs(states[k], series.map_at(k), 1.0, m)
        num = math.sqrt(float(weights[live] @ np.abs(fd - rhs)[live] ** 2))
        den = math.sqrt(float(weights[live] @ np.abs(rhs)[live] ** 2))
        assert num / den <= 1e-2


def test_criterion_6_relaxation_to_the_harmonic_family():
    """Perturbed maps relax: the gauge field norm collapses tenfold under
    the dissipative flow, the residual coordinate spreads threefold down
    under the conservative flow, and the fitted parameters settle."""

    def mu_settles(mus, t):
        mus = np.asarray(mus)
        tv = np.abs(np.diff(mus))
        start = mus.size - (mus.size - 1) // 3
        assert tv[start - 1 :].sum() <= 0.10 * tv.sum()
        mid = int(np.argmin(np.abs(t - t[-1] / 2.0)))
        assert abs(mus[-1] - mus[mid]) <= 0.02

    m = 3
    mu0 = Mu(1.0, 0.3, m)
    times = np.linspace(0.0, 5.0, 21)

    g = build_grid(-6.0, 10.0, 1024)
    v0 = perturbed_map(mu0, g, amp_re=0.05, amp_im=0.03).v
    series = run_vector(v0, g, m, FlowConfig(a=1.0, dt0=2e-3), 5.0, times)
    phi = bump_phi(m, g)
    qn, mus, guess = [], [], None
    for k in range(series.t.size):
        vm = series.map_at(k)
        qn.append(norm(hasimoto_forward(vm, mu0, g).q, g, kind="L2x"))
        fit = fit_mu(vm, guess, phi, g)
        guess = fit.mu
        mus.append(fit.mu.as_complex)
    assert qn[-1] <= qn[0] / 10.0
    mu_settles(mus, series.t)

    g = build_grid(-6.0, 10.0, 2048)
    v0 = perturbed_map(mu0, g, amp_re=0.05, amp_im=0.03).v
    series = run_vector(v0, g, m, FlowConfig(a=1j, dt0=0.01), 5.0, times)
    phi = bump_phi(m, g)
    zs, mus, guess = [], [], None
    for k in range(series.t.size):
        fit = fit_mu(series.map_at(k), guess, phi, g)
        guess = fit.mu
        zs.append(float(np.abs(fit.z).max()))
        mus.append(fit.mu.as_complex)
    assert zs[-1] <= zs[0] / 3.0
    mu_settles(mus, series.t)


def test_criterion_7_long_horizon_scale_tracking(scale_tracking):
    """Great-circle runs at degree 2 follow the tail prediction: the bare
    profile holds its scale, prescribed drifts land within half of the
    predicted magnitude on the right side, the oscillating family tracks
    the prediction decade by decade, and the growing-envelope behavior
    types are certified on the classifier directly."""
    t, logs, _ = scale_tracking["settled"]
    assert abs(logs[-1] - logs[0]) <= 0.1

    for key, sign in (("inward", -1.0), ("outward", 1.0)):
        t, logs, pred = scale_tracking[key]
        drift = logs[-1] - logs[0]
        predicted = pred[-1] - pred[0]
        assert sign * drift >= 0.5
        assert math.copysign(1.0, drift) == math.copysign(1.0, predicted)
        assert abs(drift - predicted) <= 0.5 * abs(predicted)

    t, logs, pred = scale_tracking["wavy"]
    edges = [10.0, 1e2, 1e3, 1e4, 1e5]
    agreements = []
    for lo, hi in zip(edges, edges[1:]):
        i0 = int(np.argmin(np.abs(t - lo)))
        i1 = int(np.argmin(np.abs(t - hi)))
        agreements.append(
            math.copysign(1.0, logs[i1] - logs[i0])
            == math.copysign(1.0, pred[i1] - pred[i0])
        )
    assert np.mean(agreements) >= 0.8
    gap = (logs - logs[0]) - (pred - pred[0])
    assert gap.max() - gap.min() <= 1.0

    # growing-envelope types on synthetic histories: the oscillation
    # periods stretch beyond any affordable run, so the classifier is
    # certified on the formula directly
    ts = np.geomspace(10.0, 1e40, 4000)
    u = np.log(np.log(ts))
    u -= u[0]
    grown = (0.5 + 0.4 * u) * (1.0 - np.cos(3.0 * u))
    assert classify_behavior(ts, grown) == BehaviorClass.PEAKING
    assert classify_behavior(ts, (0.5 + 0.4 * u) * np.sin(3.0 * u)) == (
        BehaviorClass.SWINGING
    )


def test_criterion_8_scale_history_locality(scale_tracking):
    """Two spreading initial data that differ only inside r < 1 produce
    scale histories whose difference is flat over the final decade."""
    t, logs, _ = scale_tracking["outward"]
    t2, logs2 = scale_tracking["outward_inner_hump"]
    assert np.array_equal(t, t2)
    final = t >= 1e4 - 1e-9
    gap = (logs2 - logs)[final]
    assert np.abs(np.diff(gap)).sum() <= 0.2
