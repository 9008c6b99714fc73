"""Tests for the harmonic map family, its moving frame, and the tangent algebra."""

import math

import numpy as np
import pytest

from equiflow.errors import NumericalError
from equiflow.harmonic_family import (
    Mu,
    cross,
    degree,
    energy,
    h_profile,
    l_s_apply,
    mu_distance,
    pa_apply,
    project_tangent,
)
from equiflow.radial_grid import build_grid, cumint_dr, d2_rho, deriv_r, inner_product


@pytest.fixture(scope="module")
def grid():
    return build_grid(-8.0, 16.0, 2048)


def random_unit_field(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_mu_validation():
    with pytest.raises(ValueError):
        Mu(s=0.0, alpha=0.0, m=2)
    with pytest.raises(ValueError):
        Mu(s=-1.0, alpha=0.0, m=2)
    with pytest.raises(ValueError):
        Mu(s=1.0, alpha=0.0, m=0)


def test_mu_complex_roundtrip():
    """mu <-> m log s + i alpha is a bijection up to float error."""
    mu = Mu(s=0.37, alpha=1.2, m=3)
    back = Mu.from_complex(mu.as_complex, m=3)
    assert back.s == pytest.approx(mu.s, rel=1e-14)
    assert back.alpha == pytest.approx(mu.alpha, rel=1e-14)


def shifted(mu: Mu, dmu: complex) -> Mu:
    """mu moved by dmu in the complex parameter m log s + i alpha."""
    return Mu.from_complex(mu.as_complex + dmu, mu.m)


def test_mu_shifted():
    mu = shifted(Mu(s=1.0, alpha=0.0, m=2), 2.0 * math.log(2.0) + 1j * 0.5)
    assert mu.s == pytest.approx(2.0)
    assert mu.alpha == pytest.approx(0.5)


def test_mu_distance_wraps_rotation():
    """Rotation distance is measured modulo 2 pi."""
    a = Mu(s=1.0, alpha=0.1, m=2)
    b = Mu(s=1.0, alpha=0.1 + 2 * math.pi, m=2)
    assert mu_distance(a, b) < 1e-12
    c = Mu(s=1.0, alpha=0.1 + math.pi, m=2)
    assert mu_distance(a, c) == pytest.approx(math.pi, rel=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_profile_is_unit_sphere_valued(grid, m):
    """h[mu] lies on the sphere and runs from the south to the north pole.

    The pole values are reached only up to the e^{-m rho} tail that the
    finite mesh truncates, so the boundary tolerance scales with m.
    """
    prof = h_profile(Mu(s=1.3, alpha=0.7, m=m), grid)
    assert np.max(np.abs(np.sum(prof.h**2, axis=1) - 1.0)) < 1e-14
    assert prof.h1s[0] < 2.1 * math.exp(-m * 8.0)
    assert prof.h3s[0] == pytest.approx(-1.0, abs=1e-6)
    assert prof.h3s[-1] == pytest.approx(1.0, abs=1e-12)


def test_frame_is_orthonormal_tangent(grid):
    """Re f, Im f form an orthonormal tangent basis with Im f = h x Re f."""
    prof = h_profile(Mu(s=0.5, alpha=2.1, m=2), grid)
    re, im = prof.f.real, prof.f.imag
    assert np.max(np.abs(np.sum(re * re, axis=1) - 1.0)) < 1e-14
    assert np.max(np.abs(np.sum(im * im, axis=1) - 1.0)) < 1e-14
    assert np.max(np.abs(np.sum(re * im, axis=1))) < 1e-14
    assert np.max(np.abs(np.sum(prof.h * re, axis=1))) < 1e-14
    assert np.max(np.abs(np.cross(prof.h, re) - im)) < 1e-14


def test_frame_limit_at_infinity(grid):
    """f tends to e^{-i alpha} (1, i, 0) at the outer end of the mesh."""
    alpha = 0.9
    prof = h_profile(Mu(s=1.0, alpha=alpha, m=2), grid)
    limit = np.exp(-1j * alpha) * np.array([1.0, 1.0j, 0.0])
    assert np.max(np.abs(prof.f[-1] - limit)) < 1e-12


def test_dh_matches_finite_difference(grid):
    """The tangent map of mu -> h[mu] agrees with finite differences:
    d h[mu] = h1 (d mu o f), where o pairs real with real and imaginary
    with imaginary parts."""
    mu = Mu(s=1.7, alpha=0.4, m=3)
    prof = h_profile(mu, grid)
    eps = 1e-6
    for dmu in (1.0, 1j, 0.6 - 0.8j):
        fd = (h_profile(shifted(mu, eps * dmu), grid).h - prof.h) / eps
        dh = prof.h1s[:, None] * (dmu.real * prof.f.real + dmu.imag * prof.f.imag)
        assert np.max(np.abs(dh - fd)) < 5e-6


@pytest.mark.parametrize("m", [2, 3, 4])
def test_energy_of_harmonic_map(grid, m):
    """E(h) = 4 pi m, independent of scale and rotation."""
    for s, alpha in ((1.0, 0.0), (0.37, 1.1), (4.2, -2.0)):
        h = h_profile(Mu(s=s, alpha=alpha, m=m), grid).h
        assert energy(h, grid, m) == pytest.approx(4 * math.pi * m, rel=1e-8)


def bulk_degree(v, grid, m):
    """The degree from the bulk formula (m/2) int dv3/dr dr, the
    equivariant reduction of the usual degree integral, as the last entry
    of cumint_dr: the reference for degree's boundary value."""
    return 0.5 * m * float(cumint_dr(deriv_r(v[:, 2], grid), grid)[-1])


@pytest.mark.parametrize("m", [2, 3])
def test_degree_methods_agree(grid, m):
    h = h_profile(Mu(s=1.0, alpha=0.3, m=m), grid).h
    assert degree(h, grid, m) == pytest.approx(float(m), abs=1e-9)
    assert bulk_degree(h, grid, m) == pytest.approx(float(m), abs=1e-8)


def test_tangent_projection_algebra(grid):
    """P kills the radial part; a = i acts as v cross on tangent vectors."""
    rng = np.random.default_rng(5)
    v = random_unit_field(rng, grid.n)
    w = rng.normal(size=(grid.n, 3))
    pw = project_tangent(v, w)
    assert np.max(np.abs(np.sum(v * pw, axis=1))) < 1e-13
    assert np.max(np.abs(project_tangent(v, pw) - pw)) < 1e-13
    assert np.max(np.abs(pa_apply(v, w, 1.0) - pw)) < 1e-14
    assert np.max(np.abs(pa_apply(v, w, 1j) - np.cross(v, w))) < 1e-13
    mixed = pa_apply(v, w, 0.25 + 0.5j)
    assert np.max(np.abs(mixed - 0.25 * pw - 0.5 * np.cross(v, w))) < 1e-13


def test_cross_matches_numpy_bytes(grid):
    """The component-formula cross product gives np.cross's bytes, nodewise
    on (n, 3) fields and on the (n, 3) x (3, 1, 3) broadcast that builds
    the vector stepper's per-node P_a blocks."""
    rng = np.random.default_rng(8)
    v = random_unit_field(rng, grid.n)
    w = rng.normal(size=(grid.n, 3))
    assert cross(v, w).tobytes() == np.cross(v, w).tobytes()
    basis = np.eye(3)[:, None, :]
    assert cross(v, basis).shape == (3, grid.n, 3)
    assert cross(v, basis).tobytes() == np.cross(v, basis).tobytes()


def _reference_cross(a, b):
    """cross in its stacked form: the components moved to the front with
    np.moveaxis, and the three results stacked back along the last axis."""
    (a0, a1, a2), (b0, b1, b2) = np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0)
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=-1)


def test_cross_matches_stacked_form_bytes(grid):
    """cross written into one output has the stacked form's shape, dtype
    and bytes: an (n, 3) field against a fixed 3-vector on either side,
    transposed views of (3, n) rows as the vector stepper passes them, the
    (n, 3) x (3, 1, 3) basis broadcast, and the strided legs of a complex
    frame, alone and as a complex factor."""
    rng = np.random.default_rng(9)
    v = random_unit_field(rng, grid.n)
    rows = rng.normal(size=(2, 3, grid.n))
    c = rng.normal(size=3)
    f = h_profile(Mu(1.3, 0.4, 2), grid).f
    cases = [
        (v, c), (c, v), (rows[0].T, rows[1].T), (v, np.eye(3)[:, None, :]),
        (v, f.real), (f.imag, v), (v, f),
    ]
    for a, b in cases:
        got, ref = cross(a, b), _reference_cross(a, b)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()


def _reference_h_profile(mu, grid):
    """h_profile's h1s, h3s, h and f in the stacked form, sigma and x
    computed in their own steps."""
    sigma = grid.rho - mu.log_s
    x = mu.m * sigma
    h1s = 1.0 / np.cosh(x)
    h3s = np.tanh(x)
    ca, sa = math.cos(mu.alpha), math.sin(mu.alpha)
    h = np.stack([h1s * ca, h1s * sa, h3s], axis=1)
    f = np.stack([h3s * ca - 1j * sa, h3s * sa + 1j * ca, -h1s + 0j], axis=1)
    return h1s, h3s, h, f


def test_h_profile_matches_stacked_form_bytes(grid):
    """h_profile built from _profile_parts has the stacked form's bytes,
    signed zeros included: at rotations 0, -0, +-pi/2, pi, -pi and 2.1, and
    on a grid wide enough that cosh overflows and h1s is exactly zero."""
    wide = build_grid(-200.0, 200.0, 512)
    for g, m in ((grid, 2), (grid, 3), (wide, 4)):
        for alpha in (0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 2.1):
            mu = Mu(0.7, alpha, m)
            with np.errstate(over="ignore"):
                prof, ref = h_profile(mu, g), _reference_h_profile(mu, g)
            for got, want in zip((prof.h1s, prof.h3s, prof.h, prof.f), ref):
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
    assert np.any(prof.h1s == 0.0)


def laplace_m(v, grid, m):
    """The equivariant tension field input (d_rr + d_r/r + (m^2/r^2) R^2) v
    on every node, d2_rho's closures included: in log coordinates
    e^(-2 rho) (v_rhorho - m^2 (v1, v2, 0))."""
    out = d2_rho(v, grid)
    out[:, 0] -= m * m * v[:, 0]
    out[:, 1] -= m * m * v[:, 1]
    out *= grid.decay[:, None]
    return out


def stationarity_residual(mu: Mu, grid, a: complex = 1.0 + 0j) -> float:
    """sup norm of P^h_a applied to the tension field at v = h[mu].

    Vanishes in the continuum; measures the spatial discretization. For
    |a| = 1 the value is independent of a because |a1 P w + a2 J w|^2 =
    |a|^2 |P w|^2 pointwise.
    """
    prof = h_profile(mu, grid)
    res = pa_apply(prof.h, laplace_m(prof.h, grid, mu.m), complex(a))
    return float(np.abs(res).max())


@pytest.mark.parametrize("m", [2, 3, 4])
def test_harmonic_maps_are_stationary(grid, m):
    """The projected tension of h[mu] vanishes to stencil accuracy.

    The truncation constant grows like m^8, so m = 4 gets a looser bound.
    """
    tol = 1e-6 if m <= 3 else 4e-6
    for s in (0.5, 1.0, 2.0):
        for a in (1.0, 1j, (1 + 1j) / math.sqrt(2)):
            res = stationarity_residual(Mu(s=s, alpha=0.8, m=m), grid, a)
            assert res < tol


def test_laplacian_is_parallel_for_harmonic_maps(grid):
    """Delta_m h = -|grad h|^2 h away from the amplified left boundary."""
    sel = grid.r >= 0.01
    for m in (2, 3, 4):
        h = h_profile(Mu(s=0.37, alpha=0.9, m=m), grid).h
        hr = deriv_r(h, grid)
        grad2 = np.sum(hr**2, axis=1) + (m**2 / grid.r**2) * (h[:, 0] ** 2 + h[:, 1] ** 2)
        resid = laplace_m(h, grid, m) + grad2[:, None] * h
        assert np.max(np.abs(resid[sel])) < 2e-5


@pytest.mark.parametrize("m", [2, 3, 4])
def test_gauge_operator_annihilates_soliton_profile(grid, m):
    """L^s applied to its own kernel element sech(m sigma) is zero."""
    mu = Mu(s=1.3, alpha=0.0, m=m)
    prof = h_profile(mu, grid)
    assert np.max(np.abs(l_s_apply(prof.h1s, mu, grid))) < 1e-8


def test_gauge_operator_matches_direct_formula(grid):
    """Integrating-factor evaluation equals d/dr + m h3/r applied directly."""
    for m in (2, 3):
        mu = Mu(s=1.3, alpha=0.0, m=m)
        sig = grid.rho - math.log(mu.s)
        f = np.exp(-0.5 * (grid.rho - 1.2) ** 2) * (1 + 0.3 * np.sin(grid.rho))
        direct = deriv_r(f, grid) + (m * np.tanh(m * sig) / grid.r) * f
        via = l_s_apply(f, mu, grid)
        assert np.max(np.abs(via - direct)) < 1e-10 * np.max(np.abs(direct))


def test_gauge_operator_overflow_guard(grid):
    """Scales far outside the mesh would overflow cosh and must raise."""
    mu = Mu(s=math.exp(-400.0), alpha=0.0, m=2)
    with pytest.raises(NumericalError):
        l_s_apply(np.ones(grid.n), mu, grid)


def test_soliton_mass_closed_form(grid):
    """<h1, h1> = 4 pi^2 / (m^2 sin(pi/m)) for m >= 2."""
    for m in (2, 3, 4):
        h1 = h_profile(Mu(s=1.0, alpha=0.0, m=m), grid).h1s
        expected = 4 * math.pi**2 / (m**2 * math.sin(math.pi / m))
        assert inner_product(h1, h1, grid) == pytest.approx(expected, rel=1e-9)
