"""Transform between a sphere-valued radial map and its flat-frame field.

A complex tangent frame (two orthonormal tangent fields packed as real
and imaginary parts) is transported radially so that its covariant
radial derivative vanishes, normalized to (1, i, 0) at the outer edge.
In this frame the radial derivative of the map, with the equivariant
rotation term removed, becomes a single complex scalar field q; the
time-dependent part of the connection becomes a real phase integral S;
and the change of frame to the fitted harmonic profile becomes a
pointwise rotation M.  The reverse direction rebuilds the map from the
profile parameters and q by a damped fixed-point iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GaugeError, ReconstructionError
from .evolve_llg import SphereMap
from .harmonic_family import Mu, h_profile
from .modulation import BumpProfile, r_inverse
from .radial_grid import RadialGrid, cumint_dr, d2_rho, d_rho, norm

_RENORM_EVERY = 16
_DRIFT_LIMIT = 1e-3

# quintic interpolation to the midpoint of a cell from the six nearest
# nodes (offsets -2..3 relative to the cell's left node)
_MID6 = np.array([3.0, -25.0, 150.0, 150.0, -25.0, 3.0]) / 256.0


@dataclass
class GaugeState:
    """Flat-frame data of a map relative to a harmonic profile.

    e is the transported frame; w the rotation-free radial derivative;
    q and nu the frame coordinates of w and of the projected vertical
    direction; S the phase integral vanishing at the outer edge; Q the
    conserved-flow integrand whose weighted tail reproduces S when the
    flow is purely conservative; M the per-node rotation taking frame
    coordinates to profile-frame coordinates.  alpha_tilde is the angle
    of M at the innermost node.
    """

    e: np.ndarray
    w: np.ndarray
    q: np.ndarray
    nu: np.ndarray
    S: np.ndarray
    Q: np.ndarray
    M: np.ndarray
    v: np.ndarray
    a: complex
    alpha_tilde: float
    grid: RadialGrid


def _midpoints(field: np.ndarray, n: int) -> np.ndarray:
    """Quintic interpolation of nodal data to the n-1 cell midpoints."""
    idx = np.arange(n - 1)[:, None] + np.arange(-2, 4)[None, :]
    np.clip(idx, 0, n - 1, out=idx)
    return np.einsum("j,ij...->i...", _MID6, field[idx])


def _cross3(a, b) -> list[float]:
    """Cross product of two 3-sequences of floats (np.cross is slow on one)."""
    return [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]


def _cell_propagators(v: np.ndarray, v_rho: np.ndarray, h: float) -> np.ndarray:
    """Classical RK4 step of the transport rule across every cell at once.

    The rule e' = -v (v_rho . e) is linear in e with real coefficients,
    so the step across cell k (node k+1 to node k, signed width h) is a
    real 3x3 matrix P_k acting on both legs of the frame.  Every stage
    matrix is rank one, u w^T with u = -v and w = v_rho; the stages fold
    into P_k = I + (h/6)(u1 w1^T + 2 u2 (w2' + w3')^T + u4 w4'^T), where
    the primed rows carry the earlier stages and need only row dot
    products.  Returns the (n-1, 3, 3) stack indexed by cell.
    """
    n = v.shape[0]
    u1, w1 = -v[1:], v_rho[1:]
    u2, w2 = -_midpoints(v, n), _midpoints(v_rho, n)
    u4, w4 = -v[:-1], v_rho[:-1]
    w2p = w2 + (0.5 * h * np.einsum("ij,ij->i", w2, u1))[:, None] * w1
    w3p = w2 + (0.5 * h * np.einsum("ij,ij->i", w2, u2))[:, None] * w2p
    w4p = w4 + (h * np.einsum("ij,ij->i", w4, u2))[:, None] * w3p
    us = np.stack((u1, 2.0 * u2, u4), axis=2)
    ws = np.stack((w1, w2p + w3p, w4p), axis=1)
    prop = (h / 6.0) * (us @ ws)
    prop[:, [0, 1, 2], [0, 1, 2]] += 1.0
    return prop


def _transport_frame(
    v: np.ndarray, grid: RadialGrid, v_rho: np.ndarray | None = None
) -> np.ndarray:
    """Integrate the frame transport inward from the outer edge.

    Classical fourth-order explicit steps on the transport rule (the
    frame tilts only along the map, by the rate the map turns).  The
    rule is linear, so each cell's step is a 3x3 propagator, built for
    all cells at once.  The steps are grouped into blocks of
    _RENORM_EVERY cells, counted inward from the outer edge; the products
    inside every block are formed together, and the blocks are chained
    in order.  At each block end (and at the innermost node) the frame's
    drift from orthonormality and tangency is checked, a drift beyond
    the tolerance (or a non-finite frame) signalling unresolved data,
    and the frame is re-orthonormalized.  v_rho is the radial derivative
    of v, computed here when not given.
    """
    n = grid.n
    if v_rho is None:
        v_rho = d_rho(v, grid)
    # anchor the frame at the outer edge: the reference direction
    # projected onto the tangent plane there, so that slowly decaying
    # far fields (where the map has not yet reached the pole) still
    # start from a legal frame
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

    # step j runs across cell n-2-j; pad the last block with identities
    steps = n - 1
    nblocks = -(-steps // _RENORM_EVERY)
    prop = np.empty((nblocks * _RENORM_EVERY, 3, 3))
    prop[:steps] = _cell_propagators(v, v_rho, -grid.drho)[::-1]
    prop[steps:] = np.eye(3)
    # cum[b, i] carries the frame from the start of block b across its
    # first i+1 steps
    cum = prop.reshape(nblocks, _RENORM_EVERY, 3, 3)
    for i in range(1, _RENORM_EVERY):
        cum[:, i] = cum[:, i] @ cum[:, i - 1]

    # chain the blocks: carry the frame across each, check its drift,
    # re-orthonormalize; the block ends are the renormalization nodes
    end_nodes = np.minimum(np.arange(1, nblocks + 1) * _RENORM_EVERY, steps)
    v_end = v[n - 1 - end_nodes].tolist()
    re, im = re0.tolist(), _cross3(vk, re0)
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
        # max() passes over a NaN that is not its first argument
        drift = math.nan if math.isnan(sum(terms)) else max(terms)
        if not drift <= _DRIFT_LIMIT:
            raise GaugeError(
                f"frame transport drifted by {drift:.2e} between "
                "renormalizations: the map is not resolved on this grid"
            )
        re = [re[i] - rv * vb[i] for i in range(3)]
        scale = math.sqrt(re[0] * re[0] + re[1] * re[1] + re[2] * re[2])
        re = [x / scale for x in re]
        im = _cross3(vb, re)

    # real legs at every node; only they enter the final projection
    legs = (cum @ np.asarray(starts)[:, None, :, None]).reshape(-1, 3)
    e_re = np.empty((n, 3))
    e_re[n - 1] = re0
    e_re[: n - 1] = legs[:steps][::-1]
    # the integration error between renormalizations leaves a small
    # orthonormality defect at the in-between nodes; project it out
    # everywhere at once (the transported phase is untouched).  At the
    # block ends this is the renormalization the chain applied.
    re = e_re - np.einsum("ij,ij->i", e_re, v)[:, None] * v
    re /= np.linalg.norm(re, axis=1, keepdims=True)
    return re + 1j * np.cross(v, re)


def _frame_coords(field: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Complex coordinate of a tangent vector field in the frame e."""
    return np.einsum("ij,ij->i", field, e.real) + 1j * np.einsum(
        "ij,ij->i", field, e.imag
    )


def _lstar(q: np.ndarray, v3: np.ndarray, m: int, grid: RadialGrid) -> np.ndarray:
    """Adjoint first-order factor: -dq/dr - q/r + m v3 q / r."""
    return (-d_rho(q, grid) - q + m * v3 * q) / grid.r


def phase_integral(
    q: np.ndarray,
    nu: np.ndarray,
    v3: np.ndarray,
    a: complex,
    m: int,
    grid: RadialGrid,
) -> np.ndarray:
    """Phase integral by direct quadrature, anchored to zero at the edge.

    The radial derivative of the phase is the pairing of q plus the
    rotation profile with the dissipative part of the flow; integrating
    inward from the outer edge fixes the constant.
    """
    drive = 1j * complex(a) * _lstar(q, v3, m, grid)
    integrand = ((q + (m / grid.r) * nu) * np.conj(drive)).real
    cum = cumint_dr(integrand, grid)
    return cum - cum[-1]


def hasimoto_forward(
    vmap: SphereMap, mu: Mu, grid: RadialGrid, a: complex = 1.0 + 0.0j
) -> GaugeState:
    """Transform a map to its flat-frame field relative to a profile.

    The flow coefficient a only affects the stored phase integral; for
    the conservative flow (a = i) the phase is evaluated in closed form
    from the integrand Q, otherwise by direct quadrature.
    """
    if vmap.m != mu.m:
        raise ConfigError("map and parameters disagree on the degree m")
    vmap.check_unit()
    a = complex(a)
    v = vmap.v
    m = vmap.m
    n = grid.n
    if v.shape[0] != n:
        raise ConfigError("map and grid sizes differ")

    v_rho = d_rho(v, grid)
    e = _transport_frame(v, grid, v_rho)
    pk = -v * v[:, 2:3]
    pk[:, 2] += 1.0
    w = v_rho / grid.r[:, None] - (m / grid.r)[:, None] * pk
    # Both terms of w are tangent to the sphere for a unit map, so any
    # component along v is differentiation noise; removing it keeps the
    # identity w = (Re q) Re e + (Im q) Im e exact.
    w -= np.einsum("ij,ij->i", w, v)[:, None] * v
    q = _frame_coords(w, e)
    nu = _frame_coords(pk, e)

    f = h_profile(mu, grid).f
    mmat = np.empty((n, 2, 2))
    mmat[:, 0, 0] = np.einsum("ij,ij->i", f.real, e.real)
    mmat[:, 0, 1] = np.einsum("ij,ij->i", f.real, e.imag)
    mmat[:, 1, 0] = np.einsum("ij,ij->i", f.imag, e.real)
    mmat[:, 1, 1] = np.einsum("ij,ij->i", f.imag, e.imag)
    alpha_tilde = math.atan2(mmat[0, 1, 0], mmat[0, 0, 0])

    bigq = 0.5 * np.abs(q) ** 2 + m * w[:, 2] / grid.r
    if a == 1j:
        cum = cumint_dr(2.0 * bigq / grid.r, grid)
        s_field = bigq - (cum[-1] - cum)
    else:
        s_field = phase_integral(q, nu, v[:, 2], a, m, grid)

    return GaugeState(
        e=e,
        w=w,
        q=q,
        nu=nu,
        S=s_field,
        Q=bigq,
        M=mmat,
        v=v,
        a=a,
        alpha_tilde=alpha_tilde,
        grid=grid,
    )


def qeq_rhs(state: GaugeState, vmap: SphereMap, a: complex, m: int) -> np.ndarray:
    """Right-hand side of the flat-frame evolution equation for q.

    Returns i S q - a (second-order radial operator applied to q), with
    the operator in its expanded form: the flat (m-1)-equivariant
    Laplacian plus the vertical-deficit and derivative-coupling
    potentials.  If the requested flow coefficient differs from the one
    stored in the state, the phase integral is recomputed for it.
    """
    grid = state.grid
    a = complex(a)
    q = state.q
    v3 = vmap.v[:, 2]
    if a == state.a:
        s_field = state.S
    elif a == 1j:
        cum = cumint_dr(2.0 * state.Q / grid.r, grid)
        s_field = state.Q - (cum[-1] - cum)
    else:
        s_field = phase_integral(q, state.nu, v3, a, m, grid)
    r2 = grid.r**2
    op = (
        -d2_rho(q, grid) / r2
        + ((m - 1) ** 2 / r2) * q
        + (2.0 * m * (1.0 - v3) / r2) * q
        + (m / grid.r) * state.w[:, 2] * q
    )
    return 1j * s_field * q - a * op


def reconstruct_v(
    mu: Mu,
    q: np.ndarray,
    phi: BumpProfile,
    grid: RadialGrid,
    a: complex = 1.0 + 0.0j,
) -> tuple[SphereMap, GaugeState]:
    """Rebuild the map from profile parameters and the flat-frame field.

    Fixed-point iteration for the residual coordinate z: reassemble the
    map, transport the frame on it, rotate q into the profile frame, and
    invert the linearized radial operator on the window-free complement.
    The step is damped by half once z grows past 0.1 in sup norm, and
    abandoned past 0.3.
    """
    if phi.m != mu.m:
        raise ConfigError("bump window and parameters disagree on the degree m")
    m = mu.m
    q = grid.check_field(np.asarray(q, dtype=complex))
    prof = h_profile(mu, grid)
    f, hmap, h1s = prof.f, prof.h, prof.h1s
    z = np.zeros(grid.n, dtype=complex)
    for _ in range(200):
        gamma = np.sqrt(np.maximum(1.0 - np.abs(z) ** 2, 0.0)) - 1.0
        vres = (
            z.real[:, None] * f.real
            + z.imag[:, None] * f.imag
            + gamma[:, None] * hmap
        )
        v = hmap + vres
        e = _transport_frame(v, grid)
        eq = q.real[:, None] * e.real + q.imag[:, None] * e.imag
        mq = np.einsum("ij,ij->i", f.real, eq) + 1j * np.einsum(
            "ij,ij->i", f.imag, eq
        )
        rhs = mq - (m / grid.r) * vres[:, 2] * z + (m / grid.r) * h1s * gamma
        z_new = r_inverse(rhs, phi, mu.s, grid)
        zmax = float(np.max(np.abs(z_new)))
        if zmax > 0.3:
            raise ReconstructionError(
                f"fixed point left the contraction region (sup {zmax:.3f} "
                "> 0.3): the gauge field is too large for this profile"
            )
        if zmax > 0.1:
            z_new = z + 0.5 * (z_new - z)
        gap = norm(z_new - z, grid, kind="X")
        z = z_new
        if gap <= 1e-10:
            break
    else:
        raise ReconstructionError(
            "fixed point did not contract to tolerance within 200 iterations"
        )
    gamma = np.sqrt(np.maximum(1.0 - np.abs(z) ** 2, 0.0)) - 1.0
    v = (
        hmap
        + z.real[:, None] * f.real
        + z.imag[:, None] * f.imag
        + gamma[:, None] * hmap
    )
    vmap = SphereMap(v, m)
    return vmap, hasimoto_forward(vmap, mu, grid, a=a)
