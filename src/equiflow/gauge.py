"""Transform between a sphere-valued radial map and its flat-frame field.

A complex tangent frame (two orthonormal tangent fields packed as real
and imaginary parts) is transported radially so that its covariant
radial derivative vanishes, normalized to (1, i, 0) at the outer edge.
The transport is one connection angle, a cumulative integral, against
the tangent projection of c, the normal of the plane the map lies
nearest; a map that comes near +-c, or whose angle the grid does not
resolve, has no frame (GaugeError).

In this frame the radial derivative of the map, with the equivariant
rotation term removed, becomes a single complex scalar field q, and the
change of frame to the fitted harmonic profile becomes a pointwise
rotation M; both are functions of the map at one instant.  The flow
coefficient a enters only the evolution equation of q, through the
time-dependent part of the connection, a real phase integral S that
qeq_rhs computes for its own a.  The reverse direction rebuilds the
map, with its residual coordinate, from the profile parameters and q by
a damped fixed-point iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GaugeError, ReconstructionError
from .evolve_llg import SphereMap, _remaining
from .harmonic_family import (
    Mu, _dot3, _frame_coords, _profile_parts, _residual_terms, cross, h_profile, project_tangent
)
from .modulation import BumpProfile, RightInverse
from .radial_grid import RadialGrid, cumint_dr, d2_rho, d_rho, norm

# least |P_v c| along the map: the reference frame g, b stays defined
# with the map at most 60 degrees out of the reference plane
_MIN_OFF_AXIS = 0.5
# most gap between the 6th-order and the trapezoid integral of the
# connection angle; resolved maps read 1e-5 at n >= 1024, 1e-3 at n = 256
_RESOLVED = 1e-2


@dataclass
class GaugeState:
    """Flat-frame data of a map relative to a harmonic profile.

    e is the transported frame; w the rotation-free radial derivative;
    q and nu the frame coordinates of w and of the projected vertical
    direction; M the per-node rotation taking frame coordinates to
    profile-frame coordinates.  alpha_tilde is the angle of M at the
    innermost node.  None of it depends on the flow coefficient.
    """

    e: np.ndarray
    w: np.ndarray
    q: np.ndarray
    nu: np.ndarray
    M: np.ndarray
    v: np.ndarray
    alpha_tilde: float
    grid: RadialGrid


def _transport_frame(v: np.ndarray, grid: RadialGrid, v_rho: np.ndarray) -> np.ndarray:
    """The tangent frame parallel along the map, anchored at the outer edge.

    Transport along a curve on the sphere is one rotation angle against
    any smooth tangent frame along it (Bishop, Amer. Math. Monthly 82
    (1975) 246-251), here g = P_v c / |P_v c| and b = v x g for c the
    eigenvector of v^T v with the smallest eigenvalue: the normal of the
    plane the map lies nearest.  The real leg is cos(theta) g +
    sin(theta) b and the imaginary leg v x Re e, orthonormal and tangent
    by construction, with theta' = (v.c)(v_rho.b)/|P_v c| in rho
    integrated once at 6th order from the outer edge; on a great circle
    v.c = 0 and theta is constant.  v_rho is the radial derivative of v.

    Besides a non-finite map and one along e1 at the outer edge, a map
    within |P_v c| < _MIN_OFF_AXIS of +-c (where g, b degenerate) and one
    whose theta' the grid does not resolve (the 6th-order integral off
    the trapezoid rule by more than _RESOLVED) raise GaugeError.
    """
    gram = v.T @ v
    # the diagonal sums the squares of every entry of the map
    if not np.isfinite(gram).all():
        raise GaugeError("map has non-finite values; no frame can be transported along it")
    # anchor the frame at the outer edge: the reference direction
    # projected onto the tangent plane there, so that slowly decaying
    # far fields (where the map has not yet reached the pole) still
    # start from a legal frame
    re0 = np.array([1.0, 0.0, 0.0]) - v[-1, 0] * v[-1]
    scale = math.sqrt(re0 @ re0)
    if not scale >= 1e-6:
        raise GaugeError(
            "the map is within 1e-6 of the frame reference direction at "
            "the outer edge; the transported frame is not defined"
        )
    c = np.linalg.eigh(gram)[1][:, 0]
    vc = v @ c
    off2 = 1.0 - vc * vc
    # v x c = |P_v c| b; the floor keeps the rate finite for the
    # resolution check on maps the axis check rejects after it
    vxc = cross(v, c)
    rate = vc * _dot3(v_rho, vxc) / np.maximum(off2, _MIN_OFF_AXIS**2)
    theta = cumint_dr(rate / grid.r, grid)
    trap = np.cumsum(0.5 * grid.drho * (rate[1:] + rate[:-1]))
    gap = float(np.max(np.abs(theta[1:] - trap)))
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
    # g, b and the real leg as (3, n) rows: each product runs along the nodes
    off = np.sqrt(off2)
    g = (c.reshape(3, 1) - vc * v.T.copy()) / off
    b = vxc.T.copy() / off
    theta += math.atan2(re0 @ b[:, -1], re0 @ g[:, -1]) - theta[-1]
    e = np.empty(v.shape, dtype=complex)
    np.add(np.cos(theta) * g, np.sin(theta) * b, out=e.real.T)
    e.imag = cross(v, e.real)
    return e


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


def _phase(a: complex, state: GaugeState, v3: np.ndarray, m: int) -> np.ndarray:
    """The phase integral S for the flow coefficient a: in closed form
    for the conservative flow a = i, from the integrand Q = |q|^2/2 +
    m w3 / r whose weighted tail reproduces S, otherwise by direct
    quadrature."""
    grid = state.grid
    if a == 1j:
        bigq = 0.5 * np.abs(state.q) ** 2 + m * state.w[:, 2] / grid.r
        cum = cumint_dr(2.0 * bigq / grid.r, grid)
        return bigq - (cum[-1] - cum)
    return phase_integral(state.q, state.nu, v3, a, m, grid)


def hasimoto_forward(vmap: SphereMap, mu: Mu, grid: RadialGrid) -> GaugeState:
    """Transform a map to its flat-frame field relative to a profile.

    The transform reads the map at one instant and no flow coefficient;
    the phase integral of the q equation is computed by qeq_rhs.
    """
    if vmap.m != mu.m:
        raise ConfigError("map and parameters disagree on the degree m")
    if not np.all(np.isfinite(vmap.v)):
        raise GaugeError("map has non-finite values; no frame can be transported along it")
    vmap.check_unit()
    v = vmap.v
    m = vmap.m
    n = grid.n
    if v.shape[0] != n:
        raise ConfigError("map and grid sizes differ")

    v_rho = d_rho(v, grid)
    e = _transport_frame(v, grid, v_rho)
    pk = project_tangent(v, np.array([0.0, 0.0, 1.0]))
    w = np.empty_like(v)
    for k in range(3):
        w[:, k] = v_rho[:, k] / grid.r - m / grid.r * pk[:, k]
    # Both terms of w are tangent to the sphere for a unit map, so any
    # component along v is differentiation noise; removing it keeps the
    # identity w = (Re q) Re e + (Im q) Im e exact.
    wv = np.einsum("ij,ij->i", w, v)
    for k in range(3):
        w[:, k] -= wv * v[:, k]
    q = _frame_coords(w, e)
    nu = _frame_coords(pk, e)

    # M pairs the profile's legs Re f and Im f with e, as _frame_coords sums
    h1s, h3s, ca, sa = _profile_parts(mu, grid)
    mmat = np.empty((n, 2, 2))
    for col, leg in enumerate((e.real, e.imag)):
        e0, e1, e2 = leg.T
        mmat[:, 0, col] = 0.0 + h3s * ca * e0 + h3s * sa * e1 - h1s * e2
        mmat[:, 1, col] = 0.0 - sa * e0 + ca * e1
    alpha_tilde = math.atan2(mmat[0, 1, 0], mmat[0, 0, 0])

    return GaugeState(e=e, w=w, q=q, nu=nu, M=mmat, v=v, alpha_tilde=alpha_tilde, grid=grid)


def qeq_rhs(state: GaugeState, vmap: SphereMap, a: complex, m: int) -> np.ndarray:
    """Right-hand side of the flat-frame evolution equation for q.

    Returns i S q - a (second-order radial operator applied to q), with
    the operator in its expanded form: the flat (m-1)-equivariant
    Laplacian plus the vertical-deficit and derivative-coupling
    potentials.  The phase integral S is computed here, for this a.
    """
    grid = state.grid
    a = complex(a)
    q = state.q
    v3 = vmap.v[:, 2]
    s_field = _phase(a, state, v3, m)
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
) -> tuple[SphereMap, np.ndarray]:
    """Rebuild the map from profile parameters and the flat-frame field.

    Fixed-point iteration for the residual coordinate z: reassemble the
    map, transport the frame on it, rotate q into the profile frame, and
    invert the linearized radial operator on the window-free complement.
    The step is damped by half once z grows past 0.1 in sup norm, and
    abandoned past 0.3. The iteration stops once the X-norm gap between
    iterates is at most 1e-10, or once the error it leaves, estimated
    from the contraction of the last two gaps by _remaining, is at most
    1e-10; the first gap alone never stops it. Returns the map and the
    residual coordinate z of the last iterate, from which the map is
    built; hasimoto_forward on the map gives its flat-frame state.
    """
    if phi.m != mu.m:
        raise ConfigError("bump window and parameters disagree on the degree m")
    m = mu.m
    q = grid.check_field(np.asarray(q, dtype=complex))
    if not np.all(np.isfinite(q)):
        raise ReconstructionError("the flat-frame field q has non-finite values")
    invert = RightInverse(phi, mu.s, grid)
    prof = h_profile(mu, grid)
    f, hmap = prof.f, prof.h
    m_r, m_r_h1s = m / grid.r, (m / grid.r) * prof.h1s
    z = np.zeros(grid.n, dtype=complex)
    gap = math.inf
    for _ in range(200):
        gamma, terms = _residual_terms(z, prof)
        vres = terms[0] + terms[1] + terms[2]
        v = hmap + vres
        e = _transport_frame(v, grid, d_rho(v, grid))
        eq = np.empty(v.shape)
        for k in range(3):
            np.add(q.real * e.real[:, k], q.imag * e.imag[:, k], out=eq[:, k])
        mq = _frame_coords(eq, f)
        rhs = mq - m_r * vres[:, 2] * z + m_r_h1s * gamma
        z_new = invert(rhs)
        zmax = float(np.max(np.abs(z_new)))
        if zmax > 0.3:
            raise ReconstructionError(
                f"fixed point left the contraction region (sup {zmax:.3f} "
                "> 0.3): the gauge field is too large for this profile"
            )
        if zmax > 0.1:
            z_new = z + 0.5 * (z_new - z)
        gap, before = norm(z_new - z, grid, kind="X"), gap
        z = z_new
        if gap <= 1e-10 or _remaining(gap, before) <= 1e-10:
            break
    else:
        raise ReconstructionError(
            "fixed point did not contract to tolerance within 200 iterations"
        )
    _, terms = _residual_terms(z, prof)
    return SphereMap(hmap + terms[0] + terms[1] + terms[2], m), z
