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
    _remaining,
    beta_to_map,
    run_vector,
    stationary_angle,
)
from equiflow.gauge import (
    _MIN_OFF_AXIS,
    _RESOLVED,
    GaugeState,
    _transport_frame,
    hasimoto_forward,
    phase_integral,
    qeq_rhs,
    reconstruct_v,
)
from equiflow.harmonic_family import (
    Mu,
    _dot3,
    _frame_coords,
    _gamma,
    _residual_terms,
    energy,
    h_profile,
    project_tangent,
)
from equiflow.modulation import bump_phi, fit_mu, r_inverse
from equiflow.radial_grid import build_grid, cumint_dr, d2_rho, d_rho, deriv_r, norm


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
    st = hasimoto_forward(vm, mu, grid)
    s_closed = gauge._phase(1j, st, vm.v[:, 2], m)
    s_quad = phase_integral(st.q, st.nu, vm.v[:, 2], 1j, m, grid)
    scale = max(1.0, np.abs(s_closed).max())
    assert np.abs(s_closed - s_quad).max() <= 1e-6 * scale
    assert abs(s_closed[-1]) <= 1e-12
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


def swung_map(grid, amp, m=2, centre=0.5, width=0.6):
    """The m-equivariant harmonic great circle turned about e3 by an
    angle that rises smoothly to amp at rho = centre: an analytic map
    that leaves its plane by up to amp radians."""
    beta = stationary_angle(0.0, grid, m)
    turn = amp * np.exp(-(((grid.rho - centre) / width) ** 2))
    return np.stack(
        (np.cos(beta) * np.cos(turn), np.cos(beta) * np.sin(turn), np.sin(beta)), axis=1
    )


def swung_frame(n, amp, m):
    g = build_grid(-6.0, 8.0, n)
    v = swung_map(g, amp, m)
    return _transport_frame(v, g, d_rho(v, g))


@pytest.mark.parametrize("amp", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("m", [2, 3])
def test_transport_converges_at_sixth_order(m, amp):
    """Against the same map's frame on the grid refined eightfold, the
    frame error falls by at least 2^5.5 per halving of the spacing (2^6
    is the order of the angle integral and of d_rho) and reaches 1e-8
    at n = 1025."""
    errs = []
    for n in (257, 513, 1025):
        fine = swung_frame(8 * (n - 1) + 1, amp, m)[::8]
        errs.append(np.abs(swung_frame(n, amp, m) - fine).max())
    assert errs[0] / errs[1] >= 2.0**5.5
    assert errs[1] / errs[2] >= 2.0**5.5
    assert errs[2] <= 1e-8


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("bump", [0.0, 0.3, -0.8])
def test_transport_along_a_great_circle_is_a_constant_angle(grid, m, bump):
    """On a map of beta_to_map the reference normal c is e2, so the
    connection angle is constant: the imaginary leg stays the normal,
    as at the outer edge, to roundoff, and q has no imaginary part."""
    beta = stationary_angle(0.2, grid, m) + bump * np.exp(-(((grid.rho - 0.5) / 0.9) ** 2))
    v = beta_to_map(beta)
    e = _transport_frame(v, grid, d_rho(v, grid))
    assert np.abs(e.imag - e.imag[-1]).max() <= 1e-14
    assert np.abs(np.abs(e.imag[-1, 1]) - 1.0) <= 1e-15
    # q reads the frame and not the profile parameters
    st = hasimoto_forward(SphereMap(v, m), Mu(1.0, 0.0, m), grid)
    assert np.abs(st.q.imag).max() <= 1e-9


def _noise_map(grid):
    """Unit vectors with independent normal components at every node."""
    rng = np.random.default_rng(3)
    v = rng.normal(size=(grid.n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_gauge_error_on_unresolved_map(grid):
    """Node-to-node noise puts the connection angle's 6th-order integral
    far from its trapezoid rule."""
    with pytest.raises(GaugeError, match="not resolved on this grid$"):
        hasimoto_forward(SphereMap(_noise_map(grid), 3), Mu(1.0, 0.0, 3), grid)


def test_transport_frame_rejects_a_map_through_the_reference_normal(grid):
    """A great circle turned out of its plane by 3 radians, mostly near
    the equator, passes close to the normal c of its nearest plane, where
    the reference frame degenerates; the map is resolved, so the axis
    check raises."""
    v = swung_map(grid, 3.0)
    c = np.linalg.eigh(v.T @ v)[1][:, 0]
    assert np.sqrt(1.0 - (v @ c) ** 2).min() < 0.2 * _MIN_OFF_AXIS
    with pytest.raises(GaugeError, match=r"comes within \|P_v c\| = 0\.\d+ < 0\.5 of the normal c"):
        _transport_frame(v, grid, d_rho(v, grid))


def test_transport_frame_rejects_the_reference_direction_at_the_edge(grid):
    """A great circle that ends on e1 leaves no tangent projection of the
    reference direction to anchor the frame at the outer edge."""
    v = beta_to_map(0.5 * np.pi * np.exp(-(((grid.rho - grid.rho_min) / 4.0) ** 2)))
    assert abs(v[-1, 0] - 1.0) <= 1e-15
    with pytest.raises(GaugeError, match="frame reference direction at the outer edge"):
        _transport_frame(v, grid, d_rho(v, grid))


# quintic interpolation to the midpoint of a cell from the six nearest
# nodes (offsets -2..3 relative to the cell's left node)
_MID6 = np.array([3.0, -25.0, 150.0, 150.0, -25.0, 3.0]) / 256.0


def _midpoints(field):
    """field at the cell midpoints: the six stencil nodes gathered,
    index-clipped at the ends, and contracted with _MID6."""
    n = field.shape[0]
    idx = np.arange(n - 1)[:, None] + np.arange(-2, 4)[None, :]
    np.clip(idx, 0, n - 1, out=idx)
    return np.einsum("j,ij...->i...", _MID6, field[idx])


def transport_frame_loop(v, grid):
    """Reference transport: one classical RK4 step per cell on the
    transport rule e' = -v (v_rho . e) itself, inward from the outer
    edge, each leg projected onto the tangent plane and the real leg
    normalized at the end.  An integrator of the same ODE independent of
    the connection angle, fourth order in the spacing."""
    n = grid.n
    v_rho = d_rho(v, grid)
    vmid, vrmid = _midpoints(v), _midpoints(v_rho)
    e = np.empty((n, 3), dtype=complex)
    vk = v[n - 1]
    re0 = np.array([1.0, 0.0, 0.0]) - vk[0] * vk
    re0 /= math.sqrt(re0 @ re0)
    ec = re0 + 1j * np.cross(vk, re0)
    e[n - 1] = ec
    h = -grid.drho
    for k in range(n - 2, -1, -1):
        k1 = -v[k + 1] * (v_rho[k + 1] @ ec)
        e2 = ec + 0.5 * h * k1
        k2 = -vmid[k] * (vrmid[k] @ e2)
        e3 = ec + 0.5 * h * k2
        k3 = -vmid[k] * (vrmid[k] @ e3)
        e4 = ec + h * k3
        k4 = -v[k] * (v_rho[k] @ e4)
        ec = ec + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        e[k] = ec
    re = e.real - np.einsum("ij,ij->i", e.real, v)[:, None] * v
    re /= np.linalg.norm(re, axis=1, keepdims=True)
    return re + 1j * np.cross(v, re)


def _transport_grid(n):
    """A grid on which a perturbed profile is resolved: narrow at 16 and
    17 nodes, the module grid's span above."""
    return build_grid(-0.2, 0.2, n) if n < 18 else build_grid(-8.0, 16.0, n)


@pytest.mark.parametrize("n", [16, 1024, 2048, 2050])
@pytest.mark.parametrize("m", [2, 3])
def test_transport_matches_node_loop(n, m):
    """The connection-angle frame agrees with the per-node RK4 loop on
    the transport rule: two integrators of one ODE, each within its own
    order, on a profile perturbed in and out of its plane.  At n = 16
    the loop's index-clipped midpoints in the two end cells dominate (it
    is 7.7e-5 off the eightfold refined frame, the angle form 1.4e-9)."""
    g = _transport_grid(n)
    vm = perturbed_map(Mu(1.1, 0.7, m), g, amp_re=0.04, amp_im=0.02)
    ref = transport_frame_loop(vm.v, g)
    e = _transport_frame(vm.v, g, d_rho(vm.v, g))
    assert np.abs(e - ref).max() <= (2e-4 if n == 16 else 1e-6)


def _reference_transport_frame(v, grid, v_rho=None):
    """_transport_frame in plain numpy: np.cross for the package's cross
    and np.sum over the components for its _dot3, the operations in the
    package's order, so the frames agree bit for bit and the checks raise
    the same GaugeError texts."""
    if v_rho is None:
        v_rho = d_rho(v, grid)
    gram = v.T @ v
    if not np.isfinite(gram).all():
        raise GaugeError("map has non-finite values; no frame can be transported along it")
    vk = v[-1]
    re0 = np.array([1.0, 0.0, 0.0]) - vk[0] * vk
    scale = math.sqrt(re0 @ re0)
    if not scale >= 1e-6:
        raise GaugeError(
            "the map is within 1e-6 of the frame reference direction at "
            "the outer edge; the transported frame is not defined"
        )
    c = np.linalg.eigh(gram)[1][:, 0]
    vc = v @ c
    off2 = 1.0 - vc * vc
    vxc = np.cross(v, c)
    rate = vc * np.sum(v_rho * vxc, axis=1) / np.maximum(off2, _MIN_OFF_AXIS**2)
    theta = cumint_dr(rate / grid.r, grid)
    gap = float(np.max(np.abs(theta[1:] - np.cumsum(0.5 * grid.drho * (rate[1:] + rate[:-1])))))
    if not gap <= _RESOLVED:
        raise GaugeError(
            f"the connection angle's integral is off its trapezoid rule by "
            f"{gap:.2e}: the map is not resolved on this grid"
        )
    least = math.sqrt(max(float(off2.min()), 0.0))
    if not least >= _MIN_OFF_AXIS:
        raise GaugeError(
            f"the map comes within |P_v c| = {least:.3f} < {_MIN_OFF_AXIS} of "
            "the normal c of its nearest plane; the reference frame is not defined"
        )
    g = (c - vc[:, None] * v) / np.sqrt(off2)[:, None]
    b = vxc / np.sqrt(off2)[:, None]
    theta += math.atan2(re0 @ b[-1], re0 @ g[-1]) - theta[-1]
    re = np.cos(theta)[:, None] * g + np.sin(theta)[:, None] * b
    return re + 1j * np.cross(v, re)


@pytest.mark.parametrize("given_v_rho", [False, True])
@pytest.mark.parametrize("n", [16, 1024, 2048, 2050])
@pytest.mark.parametrize("m", [2, 3])
def test_transport_frame_matches_reference_bytes(m, n, given_v_rho):
    """The transported frame's bytes are the plain-numpy reference's,
    with the reference handed the same v_rho or computing its own."""
    g = _transport_grid(n)
    v = perturbed_map(Mu(1.1, 0.7, m), g, amp_re=0.04, amp_im=0.02).v
    v_rho = d_rho(v, g)
    e = _transport_frame(v, g, v_rho)
    ref_v_rho = v_rho if given_v_rho else None
    assert e.tobytes() == _reference_transport_frame(v, g, ref_v_rho).tobytes()


def _reference_frame_coords(field, e):
    """_frame_coords in its broadcast form: _dot3 with each leg on the
    whole (n, 3) arrays, joined as x + 1j * y."""
    return _dot3(field, e.real) + 1j * _dot3(field, e.imag)


def _reference_residual_terms(z, prof):
    """_residual_terms in its broadcast form: each coefficient as an
    (n, 1) column times its (n, 3) leg."""
    gamma = _gamma(z)
    f = prof.f
    return gamma, (
        z.real[:, None] * f.real, z.imag[:, None] * f.imag, gamma[:, None] * prof.h
    )


def test_frame_coords_match_broadcast_form_bytes(grid):
    """Frame coordinates by component slices give the broadcast form's
    bytes: on the transported frame and the profile frame, whose legs are
    strided views of a complex array, on a frame cut out of a wider
    complex array, on a transposed frame, and for the profile legs
    f.real and f.imag that hasimoto_forward passes as fields."""
    rng = np.random.default_rng(21)
    v = perturbed_map(Mu(1.1, 0.7, 3), grid, amp_re=0.04, amp_im=0.02).v
    e = _transport_frame(v, grid, d_rho(v, grid))
    f = h_profile(Mu(0.9, 2.1, 3), grid).f
    field = rng.normal(size=(grid.n, 3))
    wide = rng.normal(size=(grid.n, 5)) + 1j * rng.normal(size=(grid.n, 5))
    cases = [
        (field, e), (field, f), (field, wide[:, 1:4]), (field, e.T.copy().T),
        (f.real, e), (f.imag, e), (field[::-1], e),
    ]
    for fld, frame in cases:
        got = _frame_coords(fld, frame)
        assert got.tobytes() == _reference_frame_coords(fld, frame).tobytes()


def test_residual_terms_match_broadcast_form_bytes(grid):
    """The residual terms written column by column have the broadcast
    form's bytes, zeros of z and its parts included."""
    rng = np.random.default_rng(22)
    prof = h_profile(Mu(1.2, 0.4, 2), grid)
    z = 0.3 * (rng.uniform(-1.0, 1.0, grid.n) + 1j * rng.uniform(-1.0, 1.0, grid.n))
    z[::7] = 0.0
    z[1::7] = z[1::7].real
    gamma, terms = _residual_terms(z, prof)
    ref_gamma, ref_terms = _reference_residual_terms(z, prof)
    assert gamma.tobytes() == ref_gamma.tobytes()
    assert len(terms) == 3
    for term, ref in zip(terms, ref_terms):
        assert term.shape == ref.shape
        assert term.tobytes() == ref.tobytes()


@pytest.mark.parametrize("where", [None, 0, 1000, 2047])
def test_transport_frame_errors_match_reference(grid, where):
    """The noise map stops the transport as not resolved: it comes near
    +-c too, but the resolution check speaks first.  A profile with a NaN
    at the innermost, a middle or the outermost node stops it as
    non-finite before any frame is built.  The texts are the reference's."""
    if where is None:
        v, text = _noise_map(grid), "not resolved on this grid$"
    else:
        v, text = h_profile(Mu(1.0, 0.0, 3), grid).h.copy(), "^map has non-finite values"
        v[where] = np.nan
    with pytest.raises(GaugeError) as ref:
        _reference_transport_frame(v, grid)
    with pytest.raises(GaugeError, match=text) as got:
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

    def alternating(rhs):
        calls.append(1)
        return (0.01 * (1 + len(calls) % 2) * np.exp(-(grid.rho**2))).astype(complex)

    monkeypatch.setattr(gauge, "RightInverse", lambda phi, s, g: alternating)
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


@pytest.fixture
def transports(monkeypatch):
    """A list that gains one entry per gauge._transport_frame call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return _transport_frame(*args, **kwargs)

    monkeypatch.setattr(gauge, "_transport_frame", counted)
    return calls


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_reconstruction_error_on_non_finite_q(grid, bad, transports):
    """A non-finite gauge field is rejected before any frame transport;
    the counter sees the transports of a finite field."""
    q = np.zeros(grid.n, dtype=complex)
    reconstruct_v(Mu(1.0, 0.0, 3), q, bump_phi(3, grid), grid)
    assert transports
    transports.clear()
    q[900] = bad
    with pytest.raises(ReconstructionError, match="non-finite"):
        reconstruct_v(Mu(1.0, 0.0, 3), q, bump_phi(3, grid), grid)
    assert transports == []


def bench_shaped_maps(seed, grid):
    """The eight maps the gauge round trip benchmark draws at seed: m = 2,
    3, 2, 3, ..., each h[mu] at scale exp(U(-0.2, 0.2)) and rotation
    U(0, 2 pi) plus a bump of size U(0.02, 0.04) and width 0.8 along Re f
    and one of size U(0.01, 0.03) and width 1.0 along Im f, each with a
    random sign and a centre U(-0.5, 1.5) in rho, renormalized."""
    rng = np.random.default_rng(seed)
    maps = []
    for k in range(8):
        m = (2, 3)[k % 2]
        mu = Mu(math.exp(rng.uniform(-0.2, 0.2)), rng.uniform(0.0, 2.0 * math.pi), m)
        prof = h_profile(mu, grid)
        v = prof.h.copy()
        for size, width, direction in (
            ((0.02, 0.04), 0.8, prof.f.real), ((0.01, 0.03), 1.0, prof.f.imag)
        ):
            amp = rng.uniform(*size) * rng.choice((-1.0, 1.0))
            centre = rng.uniform(-0.5, 1.5)
            v += (amp * np.exp(-(((grid.rho - centre) / width) ** 2)))[:, None] * direction
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        maps.append(SphereMap(v, m))
    return maps


@pytest.fixture(scope="module")
def bench_states(grid):
    """Seed -> (mu, q, window) of the fit and forward state of each
    bench-shaped map, at seeds 1 and 2."""
    windows = {m: bump_phi(m, grid) for m in (2, 3)}
    states = {}
    for seed in (1, 2):
        states[seed] = []
        for vm in bench_shaped_maps(seed, grid):
            mu = fit_mu(vm, None, windows[vm.m], grid).mu
            states[seed].append((mu, hasimoto_forward(vm, mu, grid).q, windows[vm.m]))
    return states


def converged_z(mu, q, phi, grid):
    """z of reconstruct_v's fixed-point loop, copied here, run until the
    X-norm gap between iterates is at most 1e-14, and the largest |z| of
    any iterate."""
    m = mu.m
    prof = h_profile(mu, grid)
    z = np.zeros(grid.n, dtype=complex)
    zmax = 0.0
    for _ in range(200):
        gamma, terms = _residual_terms(z, prof)
        vres = terms[0] + terms[1] + terms[2]
        v = prof.h + vres
        e = _transport_frame(v, grid, d_rho(v, grid))
        mq = _frame_coords(q.real[:, None] * e.real + q.imag[:, None] * e.imag, prof.f)
        rhs = mq - (m / grid.r) * vres[:, 2] * z + (m / grid.r) * prof.h1s * gamma
        z_new = r_inverse(rhs, phi, mu.s, grid)
        sup = float(np.max(np.abs(z_new)))
        zmax = max(zmax, sup)
        if sup > 0.1:
            z_new = z + 0.5 * (z_new - z)
        gap = norm(z_new - z, grid, kind="X")
        z = z_new
        if gap <= 1e-14:
            return z, zmax
    raise AssertionError("the reference loop did not reach a gap of 1e-14")


def test_reconstruction_stops_near_the_converged_fixed_point(grid, bench_states):
    """Where reconstruct_v stops, on the gap or on its estimated remaining
    error, z is within 1e-10 in the X norm of z converged to a gap of
    1e-14, on the forward states of the bench-shaped maps at seeds 1 and
    2 (sup |z| about 0.03, contraction about 5e-3 per pass).  On 8 q, which
    takes z into the damped region (sup |z| in (0.1, 0.3), contraction
    about 0.5), the bound is 2e-10: there a stop on the gap alone already
    leaves up to 1.11e-10, and the stop on the estimate leaves the same.
    Each seed's fourth map, at 8 q, leaves the contraction region and is
    not taken."""
    for states in bench_states.values():
        for k, (mu, q, phi) in enumerate(states):
            _, z = reconstruct_v(mu, q, phi, grid)
            ref, _ = converged_z(mu, q, phi, grid)
            assert norm(z - ref, grid, kind="X") <= 1e-10
            if k == 3:
                continue
            _, z = reconstruct_v(mu, 8.0 * q, phi, grid)
            ref, zmax = converged_z(mu, 8.0 * q, phi, grid)
            assert 0.1 < zmax < 0.3
            assert norm(z - ref, grid, kind="X") <= 2e-10


def test_reconstruction_transports_per_inverse(grid, bench_states, transports):
    """On the bench-shaped maps at seeds 1 and 2 an inverse takes at most
    4.5 frame transports on average, and each takes at least 2: its first
    gap is not zero, and one gap measures no contraction."""
    for seed, states in bench_states.items():
        counts = []
        for mu, q, phi in states:
            transports.clear()
            reconstruct_v(mu, q, phi, grid)
            counts.append(len(transports))
        assert min(counts) >= 2, (seed, counts)
        assert sum(counts) / len(counts) <= 4.5, (seed, counts)


def _reference_forward(vmap, mu, grid):
    """hasimoto_forward's w, q, nu and M in their broadcast forms, on the
    plain-numpy frame."""
    v, m = vmap.v, vmap.m
    v_rho = d_rho(v, grid)
    e = _reference_transport_frame(v, grid, v_rho)
    pk = project_tangent(v, np.array([0.0, 0.0, 1.0]))
    w = v_rho / grid.r[:, None] - (m / grid.r)[:, None] * pk
    w -= np.einsum("ij,ij->i", w, v)[:, None] * v
    f = h_profile(mu, grid).f
    coords = [_reference_frame_coords(leg, e) for leg in (f.real, f.imag)]
    mmat = np.stack([np.stack([c.real, c.imag], axis=-1) for c in coords], axis=1)
    return w, _reference_frame_coords(w, e), _reference_frame_coords(pk, e), mmat


def _reference_reconstruct(mu, q, phi, grid):
    """reconstruct_v's fixed-point loop and stop rule in broadcast forms,
    on the plain-numpy frame: the map and z."""
    m = mu.m
    prof = h_profile(mu, grid)
    z = np.zeros(grid.n, dtype=complex)
    gap = math.inf
    for _ in range(200):
        gamma, terms = _reference_residual_terms(z, prof)
        vres = terms[0] + terms[1] + terms[2]
        v = prof.h + vres
        e = _reference_transport_frame(v, grid)
        eq = q.real[:, None] * e.real + q.imag[:, None] * e.imag
        mq = _reference_frame_coords(eq, prof.f)
        rhs = mq - (m / grid.r) * vres[:, 2] * z + (m / grid.r) * prof.h1s * gamma
        z_new = r_inverse(rhs, phi, mu.s, grid)
        if float(np.max(np.abs(z_new))) > 0.1:
            z_new = z + 0.5 * (z_new - z)
        gap, before = norm(z_new - z, grid, kind="X"), gap
        z = z_new
        if gap <= 1e-10 or _remaining(gap, before) <= 1e-10:
            break
    _, terms = _reference_residual_terms(z, prof)
    return prof.h + terms[0] + terms[1] + terms[2], z


def test_round_trip_matches_broadcast_form_bytes(grid, bench_states):
    """hasimoto_forward's w, q, nu and M, and reconstruct_v's map and z,
    have the bytes of their broadcast forms on the first two bench-shaped
    maps of seed 1, and on 8 q, whose iterates take damped steps."""
    maps = bench_shaped_maps(1, grid)[:2]
    for vm, (mu, q, phi) in zip(maps, bench_states[1]):
        st = hasimoto_forward(vm, mu, grid)
        for got, ref in zip((st.w, st.q, st.nu, st.M), _reference_forward(vm, mu, grid)):
            assert got.tobytes() == ref.tobytes()
        for scale in (1.0, 8.0):
            vrec, z = reconstruct_v(mu, scale * q, phi, grid)
            ref_v, ref_z = _reference_reconstruct(mu, scale * q, phi, grid)
            assert vrec.v.tobytes() == ref_v.tobytes()
            assert z.tobytes() == ref_z.tobytes()


def test_flat_frame_rotation_matches_profile_form_bytes(grid):
    """hasimoto_forward's M, paired with the profile's 1-D legs, and
    alpha_tilde have the bytes of M built from h_profile's frame f, at
    rotations at and near 0, +-pi/2 and pi, where cos or sin alpha is a
    signed zero or a rounding residue."""
    for alpha in (0.0, -0.0, 1e-17, math.pi / 2, -math.pi / 2, math.pi, -math.pi, math.pi - 1e-15):
        mu = Mu(1.1, alpha, 3)
        vm = perturbed_map(mu, grid, 0.05, 0.03)
        st = hasimoto_forward(vm, mu, grid)
        ref = _reference_forward(vm, mu, grid)[3]
        assert st.M.tobytes() == ref.tobytes()
        ref_alpha = math.atan2(ref[0, 1, 0], ref[0, 0, 0])
        assert np.float64(st.alpha_tilde).tobytes() == np.float64(ref_alpha).tobytes()


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
    zeroed = dataclasses.replace(st, q=np.zeros(grid.n, complex))
    rhs = qeq_rhs(zeroed, vm, 1.0, m)
    assert np.abs(rhs).max() == 0.0


@pytest.mark.parametrize("a", [1.0, 1j, 0.6 + 0.8j], ids=["1", "i", "0.6+0.8i"])
def test_qeq_rhs_pairing_with_q_is_the_dissipation(a):
    """Re <qeq_rhs(a), q> = -Re(a) Re <H q, q> on a map perturbed in and
    out of its plane: the phase term i S q is orthogonal to q for the
    real S that qeq_rhs computes for each a, so the conservative flow
    keeps the norm of q.  H is built here from its expanded form."""
    m = 3
    g = build_grid(-6.0, 10.0, 1024)
    mu = Mu(1.0, 0.3, m)
    vm = perturbed_map(mu, g, amp_re=0.05, amp_im=0.03)
    st = hasimoto_forward(vm, mu, g)
    q, v3, r2 = st.q, vm.v[:, 2], g.r**2
    hq = (
        -d2_rho(q, g) / r2
        + ((m - 1) ** 2 / r2) * q
        + (2.0 * m * (1.0 - v3) / r2) * q
        + (m / g.r) * st.w[:, 2] * q
    )
    hqq = float(g.w_rdr @ (hq * np.conj(q)).real)
    pairing = float(g.w_rdr @ (qeq_rhs(st, vm, a, m) * np.conj(q)).real)
    assert abs(pairing + complex(a).real * hqq) <= 1e-12 * abs(hqq)


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
