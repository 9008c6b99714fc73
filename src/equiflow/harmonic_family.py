"""Equivariant harmonic map family and its tangent frame.

The degree-m equivariant harmonic profile through the equator is, in log
coordinates sigma = log(r/s),

    h1(r) = sech(m sigma),   h3(r) = tanh(m sigma),

embedded as h[mu] = exp(alpha R) (h1, 0, h3) with R = rotation generator
about the vertical axis and parameter mu = m log s + i alpha. The family
tangent frame along h[mu] is

    f[mu] = exp(alpha R) [ (h3, 0, -h1) + i (0, 1, 0) ],

orthonormal, orthogonal to h[mu], with Im f = h x Re f, and the family
derivative is d h[mu] = h1 (d mu o f) where o pairs real and imaginary
parts. All maps here send r=0 to the south pole -k and r=inf to k.

The frame algebra shared by the modulation split and the flat-frame
gauge lives here too: frame coordinates of tangent fields, and the map
h + (Re z) Re f + (Im z) Im f + gamma h at residual coordinate z, with
gamma = sqrt(1 - |z|^2) - 1. So does the tangent projection P^v_a of
the flows; their equivariant Laplacian is evolve_llg.laplace_operator.

Frame algebra here and in gauge runs its numpy loops along the nodes,
one component at a time on 1-D node slices or on a contiguous (3, n) copy:
a per-node scalar or a fixed 3-vector broadcast over an (n, 3) field makes
numpy loop 3 elements long, n times, at several times the cost. The bytes
are the broadcast form's, as each elementwise operation rounds the same
way in any loop order and component sums keep the order 0.0 + p0 + p1 + p2.
fit_mu and hasimoto_forward pair with the profile's 1-D parts from
_profile_parts and build none of h_profile's (n, 3) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import NumericalError
from .radial_grid import RadialGrid, deriv_r, quad_rdr

# cosh arguments beyond this overflow float64 (exp(710) > 1e308)
_COSH_LIMIT = 690.0


@dataclass(frozen=True)
class Mu:
    """Modulation parameter: scale s > 0 and rotation angle alpha, at equivariance degree m."""

    s: float
    alpha: float
    m: int

    def __post_init__(self):
        if not (self.s > 0 and np.isfinite(self.s)):
            raise ValueError(f"scale must be positive and finite, got {self.s}")
        if self.m < 1:
            raise ValueError(f"equivariance degree must be >= 1, got {self.m}")

    @property
    def log_s(self) -> float:
        return math.log(self.s)

    @property
    def as_complex(self) -> complex:
        return complex(self.m * math.log(self.s), self.alpha)

    @classmethod
    def from_complex(cls, mu: complex, m: int) -> "Mu":
        return cls(s=math.exp(mu.real / m), alpha=mu.imag, m=m)


def mu_distance(a: Mu, b: Mu) -> float:
    """Family metric: min(|d mu_1|, 1) + distance of d mu_2 to 2 pi Z."""
    d = a.as_complex - b.as_complex
    d2 = math.remainder(d.imag, 2 * math.pi)
    return min(abs(d.real), 1.0) + abs(d2)


@dataclass(frozen=True)
class HarmonicProfile:
    """h[mu] sampled on a grid, with scalar profiles and tangent frame."""

    mu: Mu
    h1s: np.ndarray
    h3s: np.ndarray
    h: np.ndarray  # (n, 3) unit vectors
    f: np.ndarray  # (n, 3) complex frame


def _profile_parts(mu: Mu, grid: RadialGrid) -> tuple[np.ndarray, np.ndarray, float, float]:
    """h1s, h3s, cos alpha and sin alpha of h[mu]: h = (h1s cos, h1s sin, h3s),
    Re f = (h3s cos, h3s sin, -h1s) and Im f = (-sin, cos, 0) up to the sign
    of exact zeros, which no sum from +0.0 sees."""
    x = mu.m * (grid.rho - mu.log_s)
    return 1.0 / np.cosh(x), np.tanh(x), math.cos(mu.alpha), math.sin(mu.alpha)


def h_profile(mu: Mu, grid: RadialGrid) -> HarmonicProfile:
    h1s, h3s, ca, sa = _profile_parts(mu, grid)
    h = np.stack([h1s * ca, h1s * sa, h3s], axis=1)
    f = np.stack(
        [h3s * ca - 1j * sa, h3s * sa + 1j * ca, -h1s + 0j],
        axis=1,
    )
    return HarmonicProfile(mu=mu, h1s=h1s, h3s=h3s, h=h, f=f)


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis, broadcasting: np.sum(a * b, axis=-1) byte
    for byte, summed from +0.0 in component order, without its overhead."""
    p = a * b
    return 0.0 + p[..., 0] + p[..., 1] + p[..., 2]


def _norm3(a: np.ndarray) -> np.ndarray:
    """|a| over the last axis, byte for byte np.linalg.norm(a, axis=-1)."""
    return np.sqrt(_dot3(a, a))


def project_tangent(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """P^v w = w - (v.w) v, nodewise (v assumed unit); the vector
    components run along the last axis."""
    return w - _dot3(v, w)[..., None] * v


def pa_apply(v: np.ndarray, w: np.ndarray, a: complex) -> np.ndarray:
    """P^v_a w = a1 P^v w + a2 v x w, nodewise."""
    out = a.real * project_tangent(v, w)
    if a.imag != 0.0:
        out = out + a.imag * cross(v, w)
    return out


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis, broadcasting: np.cross's operations in its
    order, so its bytes, without its overhead. Each component comes from
    component slices of a and b, so its products run along the nodes, and
    is written into its slot of one output of the broadcast shape and dtype."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    np.subtract(a1 * b2, a2 * b1, out=out[..., 0])
    np.subtract(a2 * b0, a0 * b2, out=out[..., 1])
    np.subtract(a0 * b1, a1 * b0, out=out[..., 2])
    return out


def _frame_coords(field: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Complex coordinate of a tangent vector field in the frame e: its _dot3
    with each leg as real and imaginary part, x + 1j * y's bytes if finite."""
    out = np.empty(field.shape[:-1], dtype=complex)
    for leg, part in ((e.real, out.real), (e.imag, out.imag)):
        part[...] = 0.0 + field[..., 0] * leg[..., 0] + field[..., 1] * leg[..., 1]
        part += field[..., 2] * leg[..., 2]
    return out


def _gamma(z: np.ndarray) -> np.ndarray:
    """The vertical correction gamma = sqrt(1 - |z|^2) - 1 that keeps
    h + (Re z) Re f + (Im z) Im f + gamma h on the sphere."""
    return np.sqrt(np.maximum(1.0 - np.abs(z) ** 2, 0.0)) - 1.0


def _residual_terms(z: np.ndarray, prof: HarmonicProfile) -> tuple[np.ndarray, tuple]:
    """gamma and the terms (Re z) Re f, (Im z) Im f, gamma h of the map
    h + ... at residual coordinate z.  The iteration sums the terms
    before adding h, the returned map adds them to h one by one; each
    keeps its own rounding."""
    gamma = _gamma(z)
    f = prof.f
    terms = np.empty((3,) + prof.h.shape)
    for term, coef, leg in zip(terms, (z.real, z.imag, gamma), (f.real, f.imag, prof.h)):
        for k in range(3):
            np.multiply(coef, leg[:, k], out=term[:, k])
    return gamma, tuple(terms)


def energy(v: np.ndarray, grid: RadialGrid, m: int) -> float:
    """Equivariant Dirichlet energy pi int (|v_r|^2 + m^2 (v1^2+v2^2)/r^2) r dr."""
    v = grid.check_field(v)
    vr = deriv_r(v, grid)
    integrand = _dot3(vr, vr) + (m**2 / grid.r**2) * (v[:, 0] ** 2 + v[:, 1] ** 2)
    return math.pi * float(quad_rdr(integrand, grid))


def degree(v: np.ndarray, grid: RadialGrid, m: int) -> float:
    """Topological degree of the equivariant map from its boundary values,
    (m/2) (v3(r_max) - v3(r_min))."""
    v = grid.check_field(v)
    return 0.5 * m * float(v[-1, 2] - v[0, 2])


def _checked_cosh(x: np.ndarray, what: str) -> np.ndarray:
    """cosh(x) for x = m log(r/s) on the mesh; NumericalError, naming
    what it is, where it would overflow float64."""
    if np.abs(x).max() > _COSH_LIMIT:
        raise NumericalError(
            f"{what} cosh(m log(r/s)) overflows: the grid is too wide for this "
            "equivariance degree and scale"
        )
    return np.cosh(x)


def l_s_apply(g: np.ndarray, mu: Mu, grid: RadialGrid) -> np.ndarray:
    """Apply L^s = d_r + (m/r) h3^s through its integrating-factor form.

    L^s g = h1^s d_r (g / h1^s), exact as an operator identity because
    d_r log h1^s = -(m/r) h3^s. In this form the discrete operator
    annihilates h1^s to roundoff. cosh(m sigma) overflows only for
    m |sigma| beyond ~700, guarded here.
    """
    g = grid.check_field(g)
    cosh_x = _checked_cosh(mu.m * (grid.rho - mu.log_s), "profile weight")
    return deriv_r(g * cosh_x, grid) / cosh_x
