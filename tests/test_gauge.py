"""Tests for the flat-frame transform, its inverse, and the q-equation."""

import dataclasses
import math

import numpy as np
import pytest

from equiflow import gauge
from equiflow.errors import ConfigError, GaugeError, ReconstructionError
from equiflow.evolve_llg import (
    FlowConfig,
    SphereMap,
    beta_to_map,
    run_vector,
    stationary_angle,
)
from equiflow import gauge
from equiflow.gauge import (
    _DRIFT_LIMIT,
    _MID6,
    _RENORM_EVERY,
    GaugeState,
    _midpoints,
    _transport_frame,
    hasimoto_forward,
    phase_integral,
    qeq_rhs,
    reconstruct_v,
)
from equiflow.harmonic_family import Mu, _residual_terms, energy, h_profile
from equiflow.modulation import bump_phi, fit_mu
from equiflow.radial_grid import build_grid, d_rho, deriv_r, norm


@pytest.fixture(scope="module")
def grid():
    return build_grid(-8.0, 16.0, 2048)


def perturbed_map(mu, grid, amp_re=0.1, amp_im=0.0):
    """Unit map near h[mu]: tangent bumps added and renormalized."""
    prof = h_profile(mu, grid)
    pr = amp_re * np.exp(-(((grid.rho - 0.6) / 0.8) ** 2))
    pi = amp_im * np.exp(-(((grid.rho + 0.5) / 1.1) ** 2))
    v = prof.h + pr[:, None] * prof.f.real + pi[:, None] * prof.f.imag
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return SphereMap(v, mu.m)


def test_q_vanishes_on_harmonic_profiles():
    """The transform annihilates every member of the harmonic family."""
    g = build_grid(-8.0, 16.0, 3072)
    for m in (2, 3):
        for s in (0.5, 1.0, 2.0):
            for alpha in (0.0, 1.1):
                mu = Mu(s, alpha, m)
                st = hasimoto_forward(SphereMap(h_profile(mu, g).h, m), mu, g)
                assert np.abs(st.q).max() <= 1e-8


def test_q_vanishes_on_harmonic_profiles_m4():
    """Degree 4 needs a finer mesh for the same pointwise bound."""
    g = build_grid(-6.0, 12.0, 3072)
    for s in (0.5, 1.0, 2.0):
        for alpha in (0.0, 1.1):
            mu = Mu(s, alpha, 4)
            st = hasimoto_forward(SphereMap(h_profile(mu, g).h, 4), mu, g)
            assert np.abs(st.q).max() <= 1e-8


def test_frame_invariants(grid):
    """Transported frame is orthonormal, tangent, and outward-normalized."""
    mu = Mu(1.0, 0.4, 3)
    vm = perturbed_map(mu, grid, amp_im=0.05)
    st = hasimoto_forward(vm, mu, grid)
    re, im = st.e.real, st.e.imag
    v = vm.v
    assert np.abs(np.einsum("ij,ij->i", re, re) - 1.0).max() <= 1e-9
    assert np.abs(np.einsum("ij,ij->i", im, im) - 1.0).max() <= 1e-9
    assert np.abs(np.einsum("ij,ij->i", re, im)).max() <= 1e-9
    assert np.abs(np.einsum("ij,ij->i", re, v)).max() <= 1e-9
    assert np.abs(np.einsum("ij,ij->i", im, v)).max() <= 1e-9
    # the imaginary leg is the quarter-turn of the real leg around v
    assert np.abs(im - np.cross(v, re)).max() <= 1e-9
    # boundary normalization at the outer edge
    assert np.abs(st.e[-1] - np.array([1.0, 1j, 0.0])).max() <= 1e-12


def test_w_reproduction_and_tangency(grid):
    """q holds all of w: expanding q in the frame returns w exactly."""
    mu = Mu(1.0, 0.4, 3)
    vm = perturbed_map(mu, grid, amp_im=0.05)
    st = hasimoto_forward(vm, mu, grid)
    wrec = st.q.real[:, None] * st.e.real + st.q.imag[:, None] * st.e.imag
    assert np.abs(wrec - st.w).max() <= 1e-9
    assert np.abs(np.einsum("ij,ij->i", st.w, vm.v)).max() <= 1e-12
    # nu plays the same role for the projected vertical direction
    pk = -vm.v * vm.v[:, 2:3]
    pk[:, 2] += 1.0
    nrec = st.nu.real[:, None] * st.e.real + st.nu.imag[:, None] * st.e.imag
    assert np.abs(nrec - pk).max() <= 1e-9


def test_scalar_reduction_identity(grid):
    """On great-circle maps q collapses to the angle derivative form."""
    beta = stationary_angle(0.3, grid, 2) + 0.08 * np.exp(
        -(((grid.rho - 0.5) / 0.9) ** 2)
    )
    v = beta_to_map(beta)
    vm = SphereMap(v, 2)
    mu = fit_mu(vm, None, bump_phi(2, grid), grid).mu
    st = hasimoto_forward(vm, mu, grid)
    qref = -deriv_r(beta, grid) + 2.0 * v[:, 0] / grid.r
    assert np.abs(st.q.real - qref).max() <= 1e-7
    assert np.abs(st.q.imag).max() <= 1e-9


def test_energy_identity(grid):
    """Twice the map energy splits into the w-norm and a boundary term."""
    for m in (2, 3):
        mu = Mu(1.0, 0.0 if m == 2 else 0.4, m)
        vm = perturbed_map(mu, grid)
        st = hasimoto_forward(vm, mu, grid)
        lhs = 2.0 * energy(vm.v, grid, m)
        rhs = norm(st.w, grid, kind="L2x") ** 2 + 4.0 * math.pi * m * (
            vm.v[-1, 2] - vm.v[0, 2]
        )
        assert abs(lhs - rhs) <= 1e-6 * abs(lhs)
        # the frame expansion preserves the norm exactly
        nq = norm(st.q, grid, kind="L2x")
        nw = norm(st.w, grid, kind="L2x")
        assert abs(nq - nw) <= 1e-12 * nw


def test_rotation_covariance(grid):
    """A rigid rotation about the pole leaves |q| pointwise unchanged."""
    m = 3
    mu = Mu(1.0, 0.4, m)
    vm = perturbed_map(mu, grid, amp_im=0.05)
    a0 = 0.77
    rot = np.array(
        [
            [math.cos(a0), -math.sin(a0), 0.0],
            [math.sin(a0), math.cos(a0), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    st = hasimoto_forward(vm, mu, grid)
    st_rot = hasimoto_forward(
        SphereMap(vm.v @ rot.T, m), Mu(mu.s, mu.alpha + a0, m), grid
    )
    assert np.abs(np.abs(st.q) - np.abs(st_rot.q)).max() <= 1e-9


def test_phase_integral_two_ways(grid):
    """Conservative-flow phase: closed form agrees with direct quadrature."""
    m = 3
    mu = Mu(1.0, 0.4, m)
    vm = perturbed_map(mu, grid, amp_im=0.05)
    st = hasimoto_forward(vm, mu, grid, a=1j)
    s_quad = phase_integral(st.q, st.nu, vm.v[:, 2], 1j, m, grid)
    scale = max(1.0, np.abs(st.S).max())
    assert np.abs(st.S - s_quad).max() <= 1e-6 * scale
    assert abs(st.S[-1]) <= 1e-12
    assert s_quad[-1] == 0.0


def test_transition_matrix_isometry(grid):
    """M is an isometry where the two tangent planes meet, and a constant
    rotation along a pure profile."""
    m = 3
    alpha = 0.9
    mu = Mu(1.0, alpha, m)
    vm = perturbed_map(mu, grid, amp_im=0.05)
    st = hasimoto_forward(vm, mu, grid)
    # at the innermost node both the map and the profile sit at the pole,
    # so the frame change there is a pure rotation
    sv = np.linalg.svd(st.M[0], compute_uv=False)
    assert np.abs(sv - 1.0).max() <= 1e-6
    # on h[mu] the tangent planes coincide everywhere and the frame
    # change is the global rotation angle, with the innermost-node phase
    # read back as alpha_tilde = -alpha
    st_h = hasimoto_forward(SphereMap(h_profile(mu, grid).h, m), mu, grid)
    expected = np.array(
        [[math.cos(alpha), math.sin(alpha)], [-math.sin(alpha), math.cos(alpha)]]
    )
    assert np.abs(st_h.M - expected[None]).max() <= 1e-6
    assert st_h.alpha_tilde == pytest.approx(-alpha, abs=1e-8)


def assert_built_from(vmap, z, mu, grid):
    """The map is h[mu] plus the residual terms of z, bit for bit."""
    prof = h_profile(mu, grid)
    _, terms = _residual_terms(z, prof)
    assert (prof.h + terms[0] + terms[1] + terms[2]).tobytes() == vmap.v.tobytes()


def test_roundtrip_reconstruction(grid):
    """map -> (mu, q) -> map returns to the start in the energy norm."""
    for m, amp in ((2, 0.05), (3, 0.05)):
        mu0 = Mu(1.0, 0.0 if m == 2 else 0.4, m)
        vm = perturbed_map(mu0, grid, amp_re=amp)
        phi = bump_phi(m, grid)
        fit = fit_mu(vm, None, phi, grid)
        st = hasimoto_forward(vm, fit.mu, grid)
        vrec, z = reconstruct_v(fit.mu, st.q, phi, grid)
        assert norm(vrec.v - vm.v, grid, kind="X") <= 1e-6
        assert hasimoto_forward(vrec, fit.mu, grid).grid is grid
        assert_built_from(vrec, z, fit.mu, grid)


def test_roundtrip_through_damped_fixed_point(grid):
    """A residual coordinate past 0.1 in sup norm takes the damped
    fixed-point step, and the map still comes back in the energy norm."""
    m = 3
    vm = perturbed_map(Mu(1.0, 0.3, m), grid, amp_re=0.2)
    phi = bump_phi(m, grid)
    fit = fit_mu(vm, None, phi, grid)
    assert np.abs(fit.z).max() > 0.1
    st = hasimoto_forward(vm, fit.mu, grid)
    vrec, _ = reconstruct_v(fit.mu, st.q, phi, grid)
    assert norm(vrec.v - vm.v, grid, kind="X") <= 1e-6


def test_reconstruct_zero_q_returns_profile(grid):
    """With no gauge field the fixed point is the bare profile."""
    m = 3
    mu = Mu(0.7, 1.2, m)
    phi = bump_phi(m, grid)
    vrec, z = reconstruct_v(mu, np.zeros(grid.n, dtype=complex), phi, grid)
    assert np.abs(vrec.v - h_profile(mu, grid).h).max() <= 1e-13
    assert np.abs(hasimoto_forward(vrec, mu, grid).q).max() <= 1e-7
    assert_built_from(vrec, z, mu, grid)


def test_reconstruction_lipschitz(grid):
    """Nearby parameter/field pairs give nearby maps, with modest constant."""
    m = 3
    phi = bump_phi(m, grid)
    qbase = (0.05 * np.exp(-(((grid.rho - 0.4) / 0.9) ** 2)) * (1.0 + 0.4j)).astype(
        complex
    )
    dq = 0.01 * np.exp(-(((grid.rho + 1.0) / 1.2) ** 2)) * (0.3 - 1j)
    mua, mub = Mu(1.0, 0.2, m), Mu(1.06, 0.27, m)
    va, _ = reconstruct_v(mua, qbase, phi, grid)
    vb, _ = reconstruct_v(mub, qbase + dq, phi, grid)
    gap = norm(va.v - vb.v, grid, kind="X")
    budget = abs(mua.as_complex - mub.as_complex) + norm(dq, grid, kind="L2x")
    assert gap <= 10.0 * budget


def _noise_map(grid):
    """Unit vectors with independent normal components at every node."""
    rng = np.random.default_rng(3)
    v = rng.normal(size=(grid.n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_gauge_error_on_unresolved_map(grid):
    """Node-to-node noise makes the transport drift past its tolerance."""
    with pytest.raises(GaugeError):
        hasimoto_forward(SphereMap(_noise_map(grid), 3), Mu(1.0, 0.0, 3), grid)


def transport_frame_loop(v, grid):
    """Reference transport: one RK4 step per cell on the frame itself.

    The node-by-node loop that the batched propagators in
    _transport_frame replace, kept to check them against to roundoff.
    It takes its midpoint values from the package's _midpoints, whose
    bytes _reference_midpoints guards; _reference_transport_frame is the
    byte-level reference of the batched transport.
    """
    n = grid.n
    v_rho = d_rho(v, grid)
    vmid = _midpoints(v)
    vrmid = _midpoints(v_rho)
    e = np.empty((n, 3), dtype=complex)
    vk = v[n - 1]
    re0 = np.array([1.0, 0.0, 0.0]) - vk[0] * vk
    re0 /= math.sqrt(re0 @ re0)
    ec = re0 + 1j * np.cross(vk, re0)
    e[n - 1] = ec
    h = -grid.drho
    since = 0
    for k in range(n - 2, -1, -1):
        k1 = -v[k + 1] * (v_rho[k + 1] @ ec)
        e2 = ec + 0.5 * h * k1
        k2 = -vmid[k] * (vrmid[k] @ e2)
        e3 = ec + 0.5 * h * k2
        k3 = -vmid[k] * (vrmid[k] @ e3)
        e4 = ec + h * k3
        k4 = -v[k] * (v_rho[k] @ e4)
        ec = ec + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        since += 1
        if since >= _RENORM_EVERY or k == 0:
            re, im = ec.real.copy(), ec.imag.copy()
            vk = v[k]
            drift = max(
                abs(float(re @ re) - 1.0),
                abs(float(im @ im) - 1.0),
                abs(float(re @ im)),
                abs(float(re @ vk)),
                abs(float(im @ vk)),
            )
            assert drift <= _DRIFT_LIMIT
            re -= (re @ vk) * vk
            re /= math.sqrt(re @ re)
            ec = re + 1j * np.cross(vk, re)
            since = 0
        e[k] = ec
    re = e.real - np.einsum("ij,ij->i", e.real, v)[:, None] * v
    re /= np.linalg.norm(re, axis=1, keepdims=True)
    return re + 1j * np.cross(v, re)


def _transport_grid(n):
    """A grid on which a perturbed profile is resolved: narrow below two
    renormalization blocks, the module grid's span above."""
    return build_grid(-0.2, 0.2, n) if n < _RENORM_EVERY + 2 else build_grid(-8.0, 16.0, n)


@pytest.mark.parametrize("n", [16, 1024, 2048, 2050])
@pytest.mark.parametrize("m", [2, 3])
def test_transport_matches_node_loop(n, m):
    """Batched propagators reproduce the per-node RK4 loop to roundoff.

    n = 16 is less than one renormalization block, n = 2050 leaves a
    partial last block.  The products are summed in another order, so
    the frames agree to a tolerance, not bit for bit.
    """
    g = _transport_grid(n)
    vm = perturbed_map(Mu(1.1, 0.7, m), g, amp_re=0.04, amp_im=0.02)
    ref = transport_frame_loop(vm.v, g)
    e = _transport_frame(vm.v, g, d_rho(vm.v, g))
    assert np.abs(e - ref).max() <= 1e-13


def _reference_midpoints(field, n):
    """_midpoints as a gather of the six stencil nodes, index-clipped at
    the ends, contracted with einsum."""
    idx = np.arange(n - 1)[:, None] + np.arange(-2, 4)[None, :]
    np.clip(idx, 0, n - 1, out=idx)
    return np.einsum("j,ij...->i...", _MID6, field[idx])


def _reference_cell_propagators(v, v_rho, h):
    """_cell_propagators on _reference_midpoints, the identity added by
    fancy indexing."""
    n = v.shape[0]
    u1, w1 = -v[1:], v_rho[1:]
    u2, w2 = -_reference_midpoints(v, n), _reference_midpoints(v_rho, n)
    u4, w4 = -v[:-1], v_rho[:-1]
    w2p = w2 + (0.5 * h * np.einsum("ij,ij->i", w2, u1))[:, None] * w1
    w3p = w2 + (0.5 * h * np.einsum("ij,ij->i", w2, u2))[:, None] * w2p
    w4p = w4 + (h * np.einsum("ij,ij->i", w4, u2))[:, None] * w3p
    us = np.stack((u1, 2.0 * u2, u4), axis=2)
    ws = np.stack((w1, w2p + w3p, w4p), axis=1)
    prop = (h / 6.0) * (us @ ws)
    prop[:, [0, 1, 2], [0, 1, 2]] += 1.0
    return prop


def _reference_cross3(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _reference_transport_frame(v, grid, v_rho=None):
    """_transport_frame with the block chain on lists, each leg component
    a list comprehension over the block matrix rows, and the final
    imaginary legs from np.cross; the same floating-point operations in
    the same order, so the frames agree bit for bit."""
    n = grid.n
    if v_rho is None:
        v_rho = d_rho(v, grid)
    vk = v[n - 1]
    re0 = np.array([1.0, 0.0, 0.0]) - vk[0] * vk
    scale = math.sqrt(re0 @ re0)
    if not scale >= 1e-6:
        raise GaugeError(
            "the map is within 1e-6 of the frame reference direction at "
            "the outer edge, or not finite there; the transported frame "
            "is not defined"
        )
    re0 /= scale
    steps = n - 1
    nblocks = -(-steps // _RENORM_EVERY)
    prop = np.empty((nblocks * _RENORM_EVERY, 3, 3))
    prop[:steps] = _reference_cell_propagators(v, v_rho, -grid.drho)[::-1]
    prop[steps:] = np.eye(3)
    cum = prop.reshape(nblocks, _RENORM_EVERY, 3, 3)
    for i in range(1, _RENORM_EVERY):
        cum[:, i] = cum[:, i] @ cum[:, i - 1]
    end_nodes = np.minimum(np.arange(1, nblocks + 1) * _RENORM_EVERY, steps)
    v_end = v[n - 1 - end_nodes].tolist()
    re, im = re0.tolist(), _reference_cross3(vk, re0)
    starts = []
    for c, vb in zip(cum[:, -1].tolist(), v_end):
        starts.append(re)
        re = [ci[0] * re[0] + ci[1] * re[1] + ci[2] * re[2] for ci in c]
        im = [ci[0] * im[0] + ci[1] * im[1] + ci[2] * im[2] for ci in c]
        rv = re[0] * vb[0] + re[1] * vb[1] + re[2] * vb[2]
        terms = (
            abs(re[0] * re[0] + re[1] * re[1] + re[2] * re[2] - 1.0),
            abs(im[0] * im[0] + im[1] * im[1] + im[2] * im[2] - 1.0),
            abs(re[0] * im[0] + re[1] * im[1] + re[2] * im[2]),
            abs(rv),
            abs(im[0] * vb[0] + im[1] * vb[1] + im[2] * vb[2]),
        )
        drift = math.nan if math.isnan(sum(terms)) else max(terms)
        if not drift <= _DRIFT_LIMIT:
            raise GaugeError(
                f"frame transport drifted by {drift:.2e} between "
                "renormalizations: the map is not resolved on this grid"
            )
        re = [re[i] - rv * vb[i] for i in range(3)]
        scale = math.sqrt(re[0] * re[0] + re[1] * re[1] + re[2] * re[2])
        re = [x / scale for x in re]
        im = _reference_cross3(vb, re)
    legs = (cum @ np.asarray(starts)[:, None, :, None]).reshape(-1, 3)
    e_re = np.empty((n, 3))
    e_re[n - 1] = re0
    e_re[: n - 1] = legs[:steps][::-1]
    re = e_re - np.einsum("ij,ij->i", e_re, v)[:, None] * v
    re /= np.linalg.norm(re, axis=1, keepdims=True)
    return re + 1j * np.cross(v, re)


@pytest.mark.parametrize("n", [16, 17, 1024, 2050])
def test_midpoints_match_gathered_contraction_bytes(n):
    """The stencil midpoints of (n, 3) vector data, the only shape
    the transport interpolates, equal the gathered einsum contraction bit
    for bit, on a map, its derivative, node-to-node noise and signed
    zeros."""
    g = _transport_grid(n)
    v = perturbed_map(Mu(1.1, 0.7, 3), g, amp_re=0.04, amp_im=0.02).v
    noise = np.random.default_rng(n).normal(size=(n, 3))
    # signed zeros that make all six terms of cell 10 a negative zero:
    # the sum starts from +0.0, as the contraction's does
    signed = np.zeros((n, 3))
    signed[[8, 10, 11, 13]] = -0.0
    for field in (v, d_rho(v, g), noise, signed):
        assert _midpoints(field).tobytes() == _reference_midpoints(field, n).tobytes()


def _shifted_slice_midpoints(field, n):
    """_midpoints as six shifted slices of the edge-padded data, weighted
    and added onto zero in the order j = 0..5, the loop that
    _apply_stencil's correlation replaced."""
    pad = np.concatenate((field[:1], field[:1], field, field[-1:], field[-1:]))
    out = np.zeros_like(pad[: n - 1])
    for j, c in enumerate(_MID6):
        out += c * pad[j : j + n - 1]
    return out


@pytest.mark.parametrize("n", [1024, 2048])
def test_midpoints_match_shifted_slices_bytes(n):
    """The stencil midpoints equal the shifted-slice loop bit for bit on
    noise, a profile map and its derivative, signed zeros, and a field
    holding +-0.0, +-inf and NaN. Each column is interpolated on its own;
    the column of infinities, where inf - inf makes NaNs, holds no NaN
    of the data (see the next test)."""
    g = build_grid(-8.0, 16.0, n)
    h = h_profile(Mu(1.1, 0.7, 3), g).h
    rng = np.random.default_rng(n)
    special = np.stack(
        [
            rng.choice([0.0, -0.0, 1.0, np.inf, -np.inf], size=n),
            rng.choice([0.0, -0.0, 1.0, np.nan], size=n),
            rng.choice([0.0, -0.0], size=n),
        ],
        axis=1,
    )
    with np.errstate(invalid="ignore"):
        for field in (rng.normal(size=(n, 3)), h, d_rho(h, g), special):
            assert _midpoints(field).tobytes() == _shifted_slice_midpoints(field, n).tobytes()


@pytest.mark.parametrize("n", [1024, 2048])
def test_midpoints_differ_from_shifted_slices_only_in_nan_signs(n):
    """Where a cell's sum is already the NaN of inf - inf (sign bit set)
    and adds a NaN of the data (sign bit clear), which of the two NaNs
    survives is up to the summation kernel, so the stencil and the loop
    may disagree in that sign bit; every other byte agrees."""
    values = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]
    with np.errstate(invalid="ignore"):
        for seed in range(20):
            field = np.random.default_rng(seed).choice(values, size=(n, 3))
            new, old = _midpoints(field), _shifted_slice_midpoints(field, n)
            same = new.view(np.uint64) == old.view(np.uint64)
            assert np.isnan(new[~same]).all() and np.isnan(old[~same]).all()


@pytest.mark.parametrize("given_v_rho", [False, True])
@pytest.mark.parametrize("n", [16, 1024, 2048, 2050])
@pytest.mark.parametrize("m", [2, 3])
def test_transport_frame_matches_reference_bytes(m, n, given_v_rho):
    """The scalar block chain and the shifted-slice midpoints leave the
    transported frame's bytes as the list-based reference has them, with
    the reference handed the same v_rho or computing its own."""
    g = _transport_grid(n)
    v = perturbed_map(Mu(1.1, 0.7, m), g, amp_re=0.04, amp_im=0.02).v
    v_rho = d_rho(v, g)
    e = _transport_frame(v, g, v_rho)
    ref_v_rho = v_rho if given_v_rho else None
    assert e.tobytes() == _reference_transport_frame(v, g, ref_v_rho).tobytes()


@pytest.mark.parametrize("where", [None, 0, 1000, 2047])
def test_transport_frame_errors_match_reference(grid, where):
    """The noise map, and a profile with a NaN at the innermost, a middle
    and the outermost node, stop the transport with the reference's
    GaugeError text."""
    if where is None:
        v = _noise_map(grid)
    else:
        v = h_profile(Mu(1.0, 0.0, 3), grid).h.copy()
        v[where] = np.nan
    with pytest.raises(GaugeError) as ref:
        _reference_transport_frame(v, grid)
    with pytest.raises(GaugeError) as got:
        _transport_frame(v, grid, d_rho(v, grid))
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("where", [0, 1000, 2047])
def test_gauge_error_on_non_finite_map(grid, where):
    """A NaN anywhere in the map stops the transport with GaugeError."""
    v = h_profile(Mu(1.0, 0.0, 3), grid).h.copy()
    v[where] = np.nan
    with pytest.raises(GaugeError):
        hasimoto_forward(SphereMap(v, 3), Mu(1.0, 0.0, 3), grid)


def test_reconstruction_error_when_the_fixed_point_cycles(monkeypatch):
    """An inverse that alternates between two small residual coordinates
    keeps the iterates apart, inside the undamped region: after 200
    iterations the reconstruction gives up with ReconstructionError."""
    grid = build_grid(-6.0, 6.0, 256)
    calls = []

    def alternating(rhs, phi, s, g):
        calls.append(1)
        return (0.01 * (1 + len(calls) % 2) * np.exp(-(g.rho**2))).astype(complex)

    monkeypatch.setattr(gauge, "r_inverse", alternating)
    q = np.zeros(grid.n, dtype=complex)
    with pytest.raises(
        ReconstructionError, match="^fixed point did not contract to tolerance within 200 iterations$"
    ):
        reconstruct_v(Mu(1.0, 0.0, 3), q, bump_phi(3, grid), grid)
    assert len(calls) == 200


def test_reconstruction_error_on_large_q(grid):
    """A gauge field far beyond the contraction regime is rejected."""
    m = 3
    phi = bump_phi(m, grid)
    q = (5.0 * np.exp(-(((grid.rho - 0.2) / 0.7) ** 2))).astype(complex)
    with pytest.raises(ReconstructionError):
        reconstruct_v(Mu(1.0, 0.0, m), q, phi, grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_reconstruction_error_on_non_finite_q(grid, bad, monkeypatch):
    """A non-finite gauge field is rejected before any frame transport;
    the counter sees the transports of a finite field."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return _transport_frame(*args, **kwargs)

    monkeypatch.setattr(gauge, "_transport_frame", counted)
    q = np.zeros(grid.n, dtype=complex)
    reconstruct_v(Mu(1.0, 0.0, 3), q, bump_phi(3, grid), grid)
    assert calls
    calls.clear()
    q[900] = bad
    with pytest.raises(ReconstructionError, match="non-finite"):
        reconstruct_v(Mu(1.0, 0.0, 3), q, bump_phi(3, grid), grid)
    assert calls == []


def test_degree_mismatch_rejected(grid):
    m = 3
    vm = SphereMap(h_profile(Mu(1.0, 0.0, m), grid).h, m)
    with pytest.raises(ConfigError):
        hasimoto_forward(vm, Mu(1.0, 0.0, 2), grid)
    with pytest.raises(ConfigError):
        reconstruct_v(Mu(1.0, 0.0, 2), np.zeros(grid.n, complex), bump_phi(3, grid), grid)


@pytest.mark.parametrize("n", [2047, 2049])
def test_map_and_grid_sizes_must_agree(grid, n):
    """A map stored on another number of nodes is a ConfigError."""
    m = 3
    vm = SphereMap(h_profile(Mu(1.0, 0.0, m), build_grid(grid.rho_min, grid.rho_max, n)).h, m)
    with pytest.raises(ConfigError, match="map and grid sizes differ"):
        hasimoto_forward(vm, Mu(1.0, 0.0, m), grid)


def test_qeq_rhs_zero_field(grid):
    """The evolution right-hand side vanishes identically on q = 0."""
    m = 3
    mu = Mu(1.0, 0.4, m)
    vm = SphereMap(h_profile(mu, grid).h, m)
    st = hasimoto_forward(vm, mu, grid)
    zeroed = dataclasses.replace(
        st, q=np.zeros(grid.n, complex), S=np.zeros(grid.n)
    )
    rhs = qeq_rhs(zeroed, vm, 1.0, m)
    assert np.abs(rhs).max() == 0.0


def test_q_norm_dissipation_identity():
    """Along the heat flow, d/dt of the q-norm matches the adjoint-factor
    dissipation rate to finite-difference accuracy."""
    m = 3
    grid = build_grid(-6.0, 10.0, 1024)
    mu0 = Mu(1.0, 0.3, m)
    prof = h_profile(mu0, grid)
    pz = 0.05 * np.exp(-(((grid.rho - 0.6) / 0.8) ** 2))
    pz2 = 0.03 * np.exp(-(((grid.rho + 0.2) / 1.0) ** 2))
    v0 = prof.h + pz[:, None] * prof.f.real + pz2[:, None] * prof.f.imag
    v0 /= np.linalg.norm(v0, axis=1, keepdims=True)
    times = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30]
    series = run_vector(v0, grid, m, FlowConfig(a=1.0, dt0=2e-3), 0.30, times)
    phi = bump_phi(m, grid)
    qn2, lst2 = [], []
    guess = None
    for k in range(len(times)):
        vm = series.map_at(k)
        fit = fit_mu(vm, guess, phi, grid)
        guess = fit.mu
        st = hasimoto_forward(vm, fit.mu, grid)
        qn2.append(norm(st.q, grid, kind="L2x") ** 2)
        lst = (-d_rho(st.q, grid) - st.q + m * vm.v[:, 2] * st.q) / grid.r
        lst2.append(norm(lst, grid, kind="L2x") ** 2)
    for k in (2, 3, 4, 5):
        fd = (qn2[k + 1] - qn2[k - 1]) / (times[k + 1] - times[k - 1])
        pred = -2.0 * lst2[k]
        assert abs(fd - pred) <= 0.08 * abs(pred)
