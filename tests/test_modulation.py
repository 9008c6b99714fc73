"""Tests for parameter fitting, the right inverse, and the adjoint window."""

import math
import warnings

import numpy as np
import pytest

from equiflow.errors import ConfigError, FitError, NumericalError
from equiflow.evolve_llg import FlowConfig, SphereMap, run_vector
from equiflow import modulation
from equiflow.gauge import _lstar, hasimoto_forward, reconstruct_v
from equiflow.harmonic_family import Mu, _frame_coords, _norm3, h_profile, l_s_apply
from equiflow.modulation import (
    bump_phi,
    fit_mu,
    normal_form_correction,
    psi_and_c,
    r_inverse,
)
from equiflow.radial_grid import build_grid, d_rho, inner_product, norm

# adaptive-quadrature values of the bump normalization constant
# (scipy.integrate.quad on the closed-form integrand, abs err < 5e-14)
_NORM_CONST = {2: 0.517151452948885, 3: 0.593427086302337, 4: 0.686215150515544}


@pytest.fixture(scope="module")
def grid():
    return build_grid(-8.0, 16.0, 2048)


def smooth_field(rng, grid, decay=0.8):
    """Random smooth decaying field: Gaussian bumps under a sech envelope."""
    out = np.zeros(grid.n)
    for _ in range(4):
        c = rng.uniform(-2.0, 2.0)
        w = rng.uniform(0.5, 1.5)
        out += rng.normal() * np.exp(-(((grid.rho - c) / w) ** 2))
    return out / np.cosh(decay * grid.rho)


def test_bump_support_and_normalization(grid):
    for m in (2, 3, 4):
        phi = bump_phi(m, grid)
        vals = phi.paired_values(grid, 1.0)
        assert vals[grid.r < 0.499].max(initial=0.0) == 0.0
        assert vals[grid.r > 2.001].max(initial=0.0) == 0.0
        h1 = 1.0 / np.cosh(m * grid.rho)
        pairing = inner_product(vals, h1, grid)
        assert abs(pairing - 1.0) <= 1e-10


def test_bump_constant_regression(grid):
    """Grid-quadrature constant matches the adaptive-quadrature oracle."""
    for m in (2, 3, 4):
        phi = bump_phi(m, grid)
        assert abs(phi.norm_const - _NORM_CONST[m]) <= 1e-9 * _NORM_CONST[m]


def test_bump_requires_covering_grid():
    with pytest.raises(ConfigError):
        bump_phi(2, build_grid(0.0, 16.0, 256))


def test_right_inverse_identities(grid):
    """L o R is the identity; R o L projects out the kernel direction."""
    rng = np.random.default_rng(11)
    for m in (2, 3, 4):
        phi = bump_phi(m, grid)
        for s in (0.25, 1.0, 4.0):
            mu = Mu(s, 0.0, m)
            h1s = 1.0 / np.cosh(m * (grid.rho - math.log(s)))
            phiv = phi.paired_values(grid, s)
            for _ in range(3):
                g = smooth_field(rng, grid)
                u = r_inverse(g, phi, s, grid)
                lr = l_s_apply(u, mu, grid)
                assert np.abs(lr - g).max() <= 1e-7 * max(1.0, np.abs(g).max())
                # output is orthogonal to the window by construction
                assert abs(inner_product(u, phiv, grid)) <= 1e-9 * max(
                    1.0, np.abs(u).max()
                )
                z = smooth_field(rng, grid)
                rl = r_inverse(l_s_apply(z, mu, grid), phi, s, grid)
                zperp = z - h1s * inner_product(z, phiv, grid)
                assert np.abs(rl - zperp).max() <= 1e-7 * max(1.0, np.abs(z).max())


def test_right_inverse_zero_and_projector(grid):
    m = 3
    phi = bump_phi(m, grid)
    assert np.abs(r_inverse(np.zeros(grid.n), phi, 1.0, grid)).max() == 0.0
    # on fields already orthogonal to the window, R o L is the identity
    rng = np.random.default_rng(5)
    h1 = 1.0 / np.cosh(m * grid.rho)
    phiv = phi.paired_values(grid, 1.0)
    mu = Mu(1.0, 0.0, m)
    for _ in range(5):
        z = smooth_field(rng, grid)
        z = z - h1 * inner_product(z, phiv, grid)
        rl = r_inverse(l_s_apply(z, mu, grid), phi, 1.0, grid)
        assert np.abs(rl - z).max() <= 1e-7 * max(1.0, np.abs(z).max())


def test_right_inverse_bounded_uniformly_in_scale(grid):
    """X-norm operator bound is scale invariant: dilating the test field
    along with the window leaves the norm ratio unchanged."""
    rng = np.random.default_rng(19)
    shapes = [
        (rng.normal(size=3), rng.uniform(-2.0, 2.0, size=3), rng.uniform(0.5, 1.5, size=3))
        for _ in range(6)
    ]
    for m in (2, 3, 4):
        phi = bump_phi(m, grid)
        per_scale = []
        for s in (0.25, 1.0, 4.0):
            sigma = grid.rho - math.log(s)
            best = 0.0
            for amps, centers, widths in shapes:
                g = np.zeros(grid.n)
                for a0, c0, w0 in zip(amps, centers, widths):
                    g += a0 * np.exp(-(((sigma - c0) / w0) ** 2))
                g /= np.cosh(0.8 * sigma)
                u = r_inverse(g, phi, s, grid)
                best = max(best, norm(u, grid, kind="X") / norm(g, grid, kind="L2x"))
            per_scale.append(best)
        spread = (max(per_scale) - min(per_scale)) / max(per_scale)
        assert spread <= 0.05


def test_right_inverse_overflow_guard():
    g = build_grid(-200.0, 200.0, 512)
    phi = bump_phi(4, g)
    with pytest.raises(NumericalError):
        r_inverse(np.zeros(g.n), phi, 1.0, g)


@pytest.mark.parametrize("s", [2000.0, 3000.0, 1e4, 1.0 / 2000.0])
def test_right_inverse_rejects_a_window_the_grid_cuts(s):
    """Once the window log s +- ln 2 leaves [rho_min, rho_max], R would be
    w2 times a right inverse, with w2 the cut window's pairing with h1s
    (0.859 at s = 2000, 0.291 at 3000, 0 at 1e4): the inverse, and the
    reconstruction built on it, raise ConfigError before any compute."""
    g = build_grid(-8.0, 8.0, 512)
    phi = bump_phi(2, g)
    with pytest.raises(ConfigError, match="leaves the grid"):
        r_inverse(np.exp(-((g.rho - math.log(s)) ** 2)), phi, s, g)
    with pytest.raises(ConfigError, match="leaves the grid"):
        reconstruct_v(Mu(s, 0.3, 2), np.zeros(g.n, dtype=complex), phi, g)


def test_right_inverse_at_the_grid_edge():
    """A window that just fits on the grid still inverts L."""
    g = build_grid(-8.0, 8.0, 512)
    phi = bump_phi(2, g)
    for log_s in (8.0 - math.log(2.0) - 1e-9, -8.0 + math.log(2.0) + 1e-9):
        s = math.exp(log_s)
        f = np.exp(-((g.rho - log_s) ** 2))
        lr = l_s_apply(r_inverse(f, phi, s, g), Mu(s, 0.0, 2), g)
        assert np.abs(lr - f).max() <= 1e-3


def test_fit_exact_profile(grid):
    """A bare profile is fit exactly, with zero residual field."""
    m = 3
    mu0 = Mu(0.8, 0.9, m)
    phi = bump_phi(m, grid)
    state = fit_mu(SphereMap(h_profile(mu0, grid).h, m), mu0, phi, grid)
    assert state.mu.s == pytest.approx(mu0.s, rel=1e-13)
    assert state.mu.alpha == pytest.approx(mu0.alpha, abs=1e-13)
    assert np.abs(state.z).max() <= 1e-12
    assert state.iterations <= 2


def test_fit_orthogonality_and_gamma(grid):
    """After a fit the residual is window-orthogonal and gamma is small."""
    m = 3
    mu0 = Mu(1.0, 0.4, m)
    prof = h_profile(mu0, grid)
    pz = 0.1 * np.exp(-(((grid.rho - 0.6) / 0.8) ** 2))
    v = prof.h + pz[:, None] * prof.f.real
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    phi = bump_phi(m, grid)
    state = fit_mu(SphereMap(v, m), None, phi, grid)
    phiv = phi.paired_values(grid, state.mu.s)
    assert abs(inner_product(state.z, phiv, grid)) <= 1e-10
    assert np.abs(state.z).max() <= 0.3
    assert np.all(np.abs(state.gamma) <= np.abs(state.z) ** 2 + 1e-15)


def test_fit_roundtrip_recovery(grid):
    """Parameters survive reconstruct -> fit to tight tolerance."""
    m = 3
    mu0 = Mu(0.9, 0.5, m)
    phi = bump_phi(m, grid)
    q = (0.04 * np.exp(-(((grid.rho - 0.3) / 0.8) ** 2)) * (1.0 - 0.5j)).astype(
        complex
    )
    vrec, _ = reconstruct_v(mu0, q, phi, grid)
    state = fit_mu(vrec, None, phi, grid)
    assert abs(state.mu.as_complex - mu0.as_complex) <= 1e-10


def test_fit_uniqueness_across_guesses(grid):
    """Distinct admissible guesses land on the same parameters."""
    m = 2
    mu0 = Mu(1.1, 0.0, m)
    prof = h_profile(mu0, grid)
    pz = 0.08 * np.exp(-(((grid.rho + 0.2) / 1.0) ** 2))
    v = prof.h + pz[:, None] * prof.f.real
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    phi = bump_phi(m, grid)
    fit_a = fit_mu(SphereMap(v, m), Mu(1.0, 0.05, m), phi, grid)
    fit_b = fit_mu(SphereMap(v, m), Mu(1.3, -0.05, m), phi, grid)
    assert abs(fit_a.mu.as_complex - fit_b.mu.as_complex) <= 1e-10


def test_fit_pins_rotation_on_planar_maps(grid):
    """Great-circle data fixes the rotation angle at zero."""
    m = 2
    mu0 = Mu(1.3, 0.0, m)
    prof = h_profile(mu0, grid)
    pz = 0.06 * np.exp(-(((grid.rho - 0.4) / 0.9) ** 2))
    v = prof.h + pz[:, None] * prof.f.real
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    assert np.abs(v[:, 1]).max() == 0.0
    state = fit_mu(SphereMap(v, m), None, bump_phi(m, grid), grid)
    assert state.mu.alpha == 0.0


def test_fit_falls_back_to_finite_difference_jacobian(monkeypatch):
    """A map on which the identity Jacobian fails to halve the residual
    converges through the finite-difference Jacobian, which pairs with
    the window twice more per iteration; without it the same fit runs
    out of iterations."""
    m = 4
    grid = build_grid(-6.0, 6.0, 512)
    prof = h_profile(Mu(s=0.5, alpha=5.44, m=m), grid)
    bump = 0.5 * np.exp(-((grid.rho / 0.9) ** 2))
    v = prof.h + bump[:, None] * (1.6 * prof.f.real + 0.9 * prof.f.imag)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    pairings = 0

    def counted(*args):
        nonlocal pairings
        pairings += 1
        return inner_product(*args)

    phi = bump_phi(m, grid)
    monkeypatch.setattr(modulation, "inner_product", counted)
    state = fit_mu(SphereMap(v, m), None, phi, grid, strict=False)
    assert state.residual <= 1e-12
    # the identity Jacobian pairs once per iteration, the initial pairing
    # included; each finite-difference iteration pairs twice more
    assert pairings > state.iterations + 1


def test_fit_planar_map_falls_back_to_slope_of_real_part(monkeypatch):
    """On a great-circle map on which the identity Jacobian fails to halve
    the residual, the finite-difference step keeps the rotation pinned at
    zero: the rotation's row of its Jacobian is the identity's, so the
    scale moves by the slope of the real part alone, and it pairs with
    the window once more per iteration."""
    m = 2
    grid = build_grid(-6.0, 6.0, 512)
    prof = h_profile(Mu(s=0.5, alpha=0.0, m=m), grid)
    bump = 0.9 * np.exp(-((grid.rho / 0.5) ** 2))
    v = prof.h + bump[:, None] * prof.f.real
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    assert np.abs(v[:, 1]).max() == 0.0
    pairings = 0

    def counted(*args):
        nonlocal pairings
        pairings += 1
        return inner_product(*args)

    phi = bump_phi(m, grid)
    monkeypatch.setattr(modulation, "inner_product", counted)
    state = fit_mu(SphereMap(v, m), None, phi, grid, strict=False)
    assert state.residual <= 1e-12
    assert state.mu.alpha == 0.0
    assert pairings > state.iterations + 1


@pytest.mark.parametrize(
    "alpha, message", [(0.0, "singular Jacobian"), (0.4, "singular Jacobian")]
)
def test_fit_error_on_a_pairing_blind_to_the_parameters(monkeypatch, alpha, message):
    """A window pairing that does not move with the parameters fails the
    identity step, and its finite-difference Jacobian is singular: a zero
    first row on a great-circle map (alpha = 0), whose second row is the
    identity's, and a zero matrix off it."""
    m = 2
    grid = build_grid(-6.0, 6.0, 512)
    vmap = SphereMap(h_profile(Mu(1.0, alpha, m), grid).h, m)
    phi = bump_phi(m, grid)
    monkeypatch.setattr(modulation, "inner_product", lambda *args: 0.3 + 0.2j)
    with pytest.raises(FitError, match=message):
        fit_mu(vmap, None, phi, grid)


@pytest.mark.parametrize("pull, cause", [(-1e4, ValueError), (1e4, OverflowError)])
def test_fit_error_on_an_iterate_outside_the_family(monkeypatch, pull, cause):
    """An identity step that moves mu_1 = m log s by -1e4 or +1e4 makes
    the scale e^{mu_1/m} underflow to 0 or overflow: the fit raises
    FitError, from the ValueError of Mu or the OverflowError of math.exp,
    rather than either of those."""
    m = 3
    grid = build_grid(-6.0, 6.0, 512)
    vmap = SphereMap(h_profile(Mu(1.0, 0.4, m), grid).h, m)
    phi = bump_phi(m, grid)
    monkeypatch.setattr(modulation, "inner_product", lambda *args: complex(pull, 0.0))
    with pytest.raises(FitError, match="^parameter fit left the family: mu = ") as info:
        fit_mu(vmap, None, phi, grid)
    assert type(info.value.__cause__) is cause


def test_fit_error_after_fifty_iterations(monkeypatch):
    """A pairing that never moves from 1 fails the identity step, and its
    finite-difference Jacobian is the identity: every Newton step is
    taken and none lowers the pairing, so the fit gives up after 50
    iterations. The pairings come in order: the start, the identity
    step's trial, then per iteration the scale and rotation probes and
    the new point."""
    m = 3
    grid = build_grid(-6.0, 6.0, 512)
    vmap = SphereMap(h_profile(Mu(1.0, 0.4, m), grid).h, m)
    calls = []

    def stuck(*args):
        k = len(calls) - 2
        calls.append(1)
        probe = {0: 1.0, 1: 1j}.get(k % 3, 0.0) if k >= 0 else 0.0
        return 1.0 + 1e-7 * probe

    phi = bump_phi(m, grid)
    monkeypatch.setattr(modulation, "inner_product", stuck)
    with pytest.raises(FitError, match="^parameter fit did not converge within 50 iterations$"):
        fit_mu(vmap, None, phi, grid)
    assert len(calls) == 2 + 3 * 49


def _reference_fit(vmap, mu_guess, phi, grid, strict=True):
    """fit_mu's mu, z, residual and iterations in the profile form: each
    evaluation builds h_profile and pairs the residual v - h with its frame
    f by _frame_coords, and the gap check is _norm3(v - h)."""
    m, v = vmap.m, vmap.v
    planar_rigid = float(np.max(np.abs(v[:, 1]))) <= 1e-9
    if mu_guess is not None and float(np.max(_norm3(v - h_profile(mu_guess, grid).h))) > 0.3:
        mu_guess = None
    if mu_guess is None:
        mu_guess = modulation._crossing_seed(v, m, grid)
    if planar_rigid:
        mu_guess = Mu(s=mu_guess.s, alpha=0.0, m=m)
    muc, use_fd, eps = mu_guess.as_complex, False, 1e-7

    def evaluate(mc):
        mu = Mu.from_complex(mc, m)
        prof = h_profile(mu, grid)
        z = _frame_coords(v - prof.h, prof.f)
        val = complex(inner_product(z, phi.paired_values(grid, mu.s), grid))
        return (complex(val.real, 0.0) if planar_rigid else val), z

    F, z = evaluate(muc)
    for iterations in range(1, 51):
        if abs(F) <= 1e-12:
            break
        if use_fd:
            f_s, _ = evaluate(muc + eps)
            f_a = complex(F.real, F.imag + eps) if planar_rigid else evaluate(muc + 1j * eps)[0]
            jac = np.array(
                [
                    [(f_s.real - F.real) / eps, (f_a.real - F.real) / eps],
                    [(f_s.imag - F.imag) / eps, (f_a.imag - F.imag) / eps],
                ]
            )
            dx = np.linalg.solve(jac, -np.array([F.real, F.imag]))
            step = complex(dx[0], dx[1])
        else:
            step = F
        F_new, z_new = evaluate(muc + step)
        if not use_fd and abs(F_new) > 0.5 * abs(F) and abs(F_new) > 1e-12:
            use_fd = True
            continue
        muc += step
        F, z = F_new, z_new
    if strict and float(np.max(np.abs(z))) > 0.3:
        return None
    return Mu.from_complex(muc, m), z, abs(F), iterations


def _bumped_map(grid, mu, sizes):
    """h[mu] plus Gaussian bumps of the given sizes along Re f and Im f,
    renormalized."""
    prof = h_profile(mu, grid)
    v = prof.h.copy()
    for size, centre, leg in zip(sizes, (0.4, -0.3), (prof.f.real, prof.f.imag)):
        v += (size * np.exp(-(((grid.rho - centre) / 0.9) ** 2)))[:, None] * leg
    return SphereMap(v / np.linalg.norm(v, axis=1, keepdims=True), mu.m)


def test_fit_matches_profile_form_bytes(grid):
    """fit_mu's mu, z, residual and iterations have the bytes of the
    profile form on planar and non-planar maps, near the family and far
    from it (sup |z| > 0.3), from no guess, from the fit of a neighbouring
    map as a series chains them, and from a guess the 0.3 gap rejects,
    with strict on and off; a strict fit is rejected where the reference
    is."""
    phi = {m: bump_phi(m, grid) for m in (2, 3)}
    cases = [
        (Mu(1.3, 0.0, 2), (0.06, 0.0)),
        (Mu(0.9, 2.1, 3), (0.04, -0.03)),
        (Mu(1.1, -0.7, 2), (0.03, 0.02)),
        (Mu(1.0, 0.0, 2), (3.0, 0.0)),
    ]
    rejected = 0
    for mu0, sizes in cases:
        window = phi[mu0.m]
        vm = _bumped_map(grid, mu0, sizes)
        chained = fit_mu(_bumped_map(grid, mu0, (0.8 * sizes[0], sizes[1])), None, window, grid, False)
        far_guess = Mu(4.0 * mu0.s, mu0.alpha + 1.0, mu0.m)
        assert float(np.max(_norm3(vm.v - h_profile(far_guess, grid).h))) > 0.3
        for guess in (None, chained.mu, far_guess):
            for strict in (True, False):
                ref = _reference_fit(vm, guess, window, grid, strict)
                if ref is None:
                    rejected += 1
                    with pytest.raises(FitError, match="> 0.3"):
                        fit_mu(vm, guess, window, grid, strict)
                    continue
                got = fit_mu(vm, guess, window, grid, strict)
                mu, z, residual, iterations = ref
                assert np.array([got.mu.s, got.mu.alpha, got.residual]).tobytes() == (
                    np.array([mu.s, mu.alpha, residual]).tobytes()
                )
                assert got.z.tobytes() == z.tobytes()
                assert got.iterations == iterations
    assert rejected == 3


def test_fit_error_without_crossing(grid):
    """Maps that never cross the equator admit no seed."""
    v = np.tile(np.array([0.8, 0.0, 0.6]), (grid.n, 1))
    with pytest.raises(FitError):
        fit_mu(SphereMap(v, 3), None, bump_phi(3, grid), grid)


def test_fit_error_on_large_residual(grid):
    """Data far from every profile is rejected after the fit."""
    m = 2
    prof = h_profile(Mu(1.0, 0.0, m), grid)
    pz = 0.9 * np.exp(-(((grid.rho - 0.5) / 1.5) ** 2))
    v = prof.h + pz[:, None] * prof.f.real
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    with pytest.raises(FitError):
        fit_mu(SphereMap(v, m), None, bump_phi(m, grid), grid)


def _profile_map(grid, m):
    return SphereMap(h_profile(Mu(1.0, 0.0, m), grid).h, m)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: bump_phi(3, g).paired_values(g, 0.0), "scale must be positive"),
        (lambda g: bump_phi(0, g), "must be a positive integer"),
        (lambda g: r_inverse(np.zeros(g.n), bump_phi(3, g), -1.0, g), "scale must be positive"),
        (lambda g: r_inverse(np.zeros((g.n, 2)), bump_phi(3, g), 1.0, g), "scalar radial field"),
        (lambda g: fit_mu(_profile_map(g, 2), None, bump_phi(3, g), g), "window and map disagree"),
        (
            lambda g: fit_mu(_profile_map(g, 2), Mu(1.0, 0.0, 3), bump_phi(2, g), g),
            "initial parameters and map disagree",
        ),
        (lambda g: psi_and_c(bump_phi(3, g), 2, g), "built for a different degree"),
        (
            lambda g: normal_form_correction(
                np.zeros(g.n, complex), Mu(1.0, 0.0, 2), 0.0, psi_and_c(bump_phi(3, g), 3, g)
            ),
            "adjoint window disagree",
        ),
    ],
    ids=[
        "window-scale",
        "window-degree",
        "inverse-scale",
        "inverse-field-rank",
        "fit-window-degree",
        "fit-guess-degree",
        "psi-window-degree",
        "normal-form-degree",
    ],
)
def test_bad_arguments_are_config_errors(grid, call, message):
    """Each argument check raises ConfigError itself; without it the call
    fails otherwise, or not at all."""
    with pytest.raises(ConfigError, match=message):
        call(grid)


def test_psi_constant_and_tail(grid):
    """c matches the closed form at m=2; psi obeys its power tail law."""
    phi2 = bump_phi(2, grid)
    psi2 = psi_and_c(phi2, 2, grid)
    assert abs(psi2.c - 1.0 / math.pi**2) <= 1e-8
    h1 = 1.0 / np.cosh(2 * grid.rho)
    phiv = phi2.paired_values(grid, 1.0)
    assert abs(inner_product(phiv - psi2.c * h1, h1, grid)) <= 1e-10
    for m in (2, 3, 4):
        phi = bump_phi(m, grid)
        psi = psi_and_c(phi, m, grid)
        last_decade = grid.rho >= grid.rho_max - math.log(10.0)
        scaled = psi.psi[last_decade] * grid.r[last_decade] ** (m - 1)
        target = -psi.c / (m - 1)
        assert np.abs(scaled - target).max() <= 1e-3 * abs(target)


def test_psi_rejects_degree_one(grid):
    with pytest.raises(ConfigError):
        psi_and_c(bump_phi(1, grid), 1, grid)


def mu_dot_diagnostic(state, gauge, a: complex, m: int) -> complex:
    """Instantaneous parameter velocity implied by a gauge state.

    Differentiating the window constraint in time gives a 2x2 linear
    system for the velocity (real part: m d/dt log s; imaginary part:
    d/dt alpha): a driving pairing built from the gauge field plus
    correction terms proportional to the velocity itself.
    """
    grid = state.grid
    mu = state.mu
    prof = h_profile(mu, grid)
    drive = complex(a) * _lstar(gauge.q, gauge.v[:, 2], m, grid)
    mg = (
        gauge.M[:, 0, 0] * drive.real
        + gauge.M[:, 0, 1] * drive.imag
        + 1j * (gauge.M[:, 1, 0] * drive.real + gauge.M[:, 1, 1] * drive.imag)
    )
    phiv = state.phi.paired_values(grid, mu.s)
    gval = -inner_product(mg, phiv, grid)
    g2 = inner_product(prof.h1s * state.gamma, phiv, grid).real
    acoef = inner_product(state.z, d_rho(phiv, grid), grid)
    bcoef = inner_product(state.z, prof.h3s * phiv, grid)
    k = np.array(
        [
            [1.0 + g2 + acoef.real / m, -bcoef.imag],
            [acoef.imag / m, 1.0 + g2 + bcoef.real],
        ]
    )
    # the correction matrix must stay well away from singular
    assert np.linalg.svd(k, compute_uv=False)[-1] >= 0.1
    sol = np.linalg.solve(k, np.array([gval.real, gval.imag]))
    return complex(sol[0], sol[1])


def test_mu_dot_zero_on_profile(grid):
    m = 3
    mu0 = Mu(1.0, 0.7, m)
    vm = SphereMap(h_profile(mu0, grid).h, m)
    phi = bump_phi(m, grid)
    state = fit_mu(vm, mu0, phi, grid)
    gauge = hasimoto_forward(vm, state.mu, grid)
    md = mu_dot_diagnostic(state, gauge, 1.0, m)
    assert abs(md) <= 1e-7


def test_mu_dot_matches_run(grid):
    """The parameter-rate diagnostic tracks finite differences of the
    fitted parameters along a heat-flow run, and obeys the rate bound."""
    m = 3
    g = build_grid(-6.0, 10.0, 1024)
    mu0 = Mu(1.0, 0.3, m)
    prof = h_profile(mu0, g)
    pz = 0.05 * np.exp(-(((g.rho - 0.6) / 0.8) ** 2))
    pz2 = 0.03 * np.exp(-(((g.rho + 0.2) / 1.0) ** 2))
    v0 = prof.h + pz[:, None] * prof.f.real + pz2[:, None] * prof.f.imag
    v0 /= np.linalg.norm(v0, axis=1, keepdims=True)
    times = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30]
    series = run_vector(v0, g, m, FlowConfig(a=1.0, dt0=2e-3), 0.30, times)
    phi = bump_phi(m, g)
    fits, rates, ratios = [], [], []
    guess = None
    for k in range(len(times)):
        vm = series.map_at(k)
        state = fit_mu(vm, guess, phi, g)
        guess = state.mu
        gauge = hasimoto_forward(vm, state.mu, g)
        md = mu_dot_diagnostic(state, gauge, 1.0, m)
        fits.append(state.mu.as_complex)
        rates.append(md)
        ratios.append(
            state.mu.s * abs(md) / norm(gauge.q / g.r, g, kind="L2x")
        )
    for k in (2, 3, 4, 5):
        fd = (fits[k + 1] - fits[k - 1]) / (times[k + 1] - times[k - 1])
        assert abs(rates[k] - fd) <= 0.05 * abs(fd)
    assert max(ratios) <= 10.0


def test_normal_form_zero_field(grid):
    m = 3
    phi = bump_phi(m, grid)
    psi = psi_and_c(phi, m, grid)
    val = normal_form_correction(
        np.zeros(grid.n, complex), Mu(1.0, 0.0, m), 0.3, psi
    )
    assert val == 0.0


def test_normal_form_cauchy_schwarz(grid):
    """The correction never exceeds the product of the paired norms."""
    m = 3
    phi = bump_phi(m, grid)
    psi = psi_and_c(phi, m, grid)
    npsi = norm(psi.psi, grid, kind="L2x")
    rng = np.random.default_rng(23)
    for s in (0.5, 1.0, 2.0):
        q = (smooth_field(rng, grid) + 1j * smooth_field(rng, grid)).astype(complex)
        val = normal_form_correction(q, Mu(s, 0.0, m), 0.2, psi)
        bound = norm(q, grid, kind="L2x") * npsi
        assert abs(val) <= bound * (1.0 + 1e-9)


def test_normal_form_m2_growth():
    """At degree 2 the pairing grows with the outer radius like the
    iterated logarithm; increments follow the analytic tail rate."""
    m = 2
    c = 1.0 / math.pi**2
    vals = {}
    for rmax, n in ((1e3, 1024), (1e4, 1280), (1e5, 1536)):
        g = build_grid(-2.0, math.log(rmax), n)
        phi = bump_phi(m, g)
        psi = psi_and_c(phi, m, g)
        q = np.where(
            g.r >= 1.0, 1.0 / (g.r * (1.0 + np.log(np.maximum(g.r, 1.0)))), 0.0
        ).astype(complex)
        with pytest.warns(RuntimeWarning):
            vals[rmax] = normal_form_correction(q, Mu(1.0, 0.0, m), 0.0, psi).real
    assert abs(vals[1e4]) > abs(vals[1e3])
    assert abs(vals[1e5]) > abs(vals[1e4])
    for r1, r2 in ((1e3, 1e4), (1e4, 1e5)):
        inc = vals[r2] - vals[r1]
        pred = -2.0 * math.pi * c * math.log((1.0 + math.log(r2)) / (1.0 + math.log(r1)))
        assert abs(inc - pred) <= 0.02 * abs(pred)


def test_energy_norm_chain(grid):
    """Reconstructed residuals obey the X-norm bound by the field norm."""
    m = 3
    phi = bump_phi(m, grid)
    rng = np.random.default_rng(29)
    for amp in (0.02, 0.05):
        q = (
            amp
            * np.exp(-(((grid.rho - 0.4) / 0.9) ** 2))
            * (1.0 + 0.6j)
        ).astype(complex)
        vrec, _ = reconstruct_v(Mu(1.0, 0.2, m), q, phi, grid)
        gauge = hasimoto_forward(vrec, Mu(1.0, 0.2, m), grid)
        state = fit_mu(vrec, Mu(1.0, 0.2, m), phi, grid)
        zx = norm(state.z, grid, kind="X")
        budget = norm(gauge.q, grid, kind="L2x") + np.abs(
            state.z
        ).max() * zx
        assert zx <= 10.0 * budget
