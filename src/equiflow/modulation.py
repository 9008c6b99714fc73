"""Scale and rotation bookkeeping for maps near the harmonic family.

A map close to a harmonic profile is written as the profile plus a
residual whose complex coordinate (the pairing of the residual with the
moving tangent frame) is required to have no component against a fixed
bump window.  This module builds that window, fits the scale and
rotation so the constraint holds, inverts the linearized radial operator
on the constrained complement, and builds the adjoint window for the
frozen-phase pairing, whose time integral tracks the parameter drift.
The frame coordinate of the residual pairs it with the profile's frame
legs, built from harmonic_family._profile_parts; the vertical correction
gamma comes from the frame algebra there, shared with the gauge transform.

All pairings are planar inner products, 2 pi int f conj(g) r dr.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FitError
from .evolve_llg import SphereMap
from .harmonic_family import Mu, _checked_cosh, _gamma, _profile_parts
from .radial_grid import RadialGrid, cell_dr, inner_product, interp_rho

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class BumpProfile:
    """Smooth radial window on (1/2, 2) with unit pairing against h1.

    The window is norm_const * exp(-1 / (1 - (ln r / ln 2)^2)) inside
    its support and zero outside; all derivatives vanish at the support
    edges.  norm_const is fixed on the construction grid so that the
    planar pairing with the equivariant ground profile equals one, which
    makes the window usable as a projection weight.
    """

    m: int
    norm_const: float

    def shape(self, sigma: np.ndarray) -> np.ndarray:
        """Unnormalized window as a function of log-radius offset."""
        sigma = np.asarray(sigma, dtype=float)
        x = sigma / _LN2
        out = np.zeros_like(x)
        inside = np.abs(x) < 1.0 - 1e-9
        xi = x[inside]
        out[inside] = np.exp(-1.0 / (1.0 - xi * xi))
        return out

    def paired_values(self, grid: RadialGrid, s: float = 1.0) -> np.ndarray:
        """Rescaled window phi(r/s) / s^2 on the grid nodes.

        This is the weight that appears in pairings; the extra 1/s^2
        compensates the planar measure so that the pairing with the
        rescaled ground profile stays one for every s.
        """
        if not s > 0:
            raise ConfigError("scale must be positive")
        return (self.norm_const / s**2) * self.shape(grid.rho - math.log(s))


def bump_phi(m: int, grid: RadialGrid) -> BumpProfile:
    """Build the bump window normalized against the ground profile.

    The normalization uses the grid's own quadrature, so the unit
    pairing holds on that grid to rounding accuracy.
    """
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ConfigError("equivariance degree m must be a positive integer")
    if grid.rho_min > -2 * _LN2 or grid.rho_max < 2 * _LN2:
        raise ConfigError("grid must cover [1/4, 4] to hold the bump window")
    raw = BumpProfile(m=int(m), norm_const=1.0)
    # overflow-free sech: the pairing only sees |rho| < ln 2, but the
    # profile is evaluated on the whole grid
    ex = np.exp(-np.abs(m * grid.rho))
    h1 = 2.0 * ex / (1.0 + ex * ex)
    pairing = inner_product(raw.shape(grid.rho), h1, grid)
    return BumpProfile(m=int(m), norm_const=float(1.0 / pairing))


class RightInverse:
    """Right inverse of the linearized radial operator at scale s.

    Called on g, returns the field u with (d/dr + (m/r) tanh(m ln(r/s)))
    u = g whose component against the rescaled bump window vanishes.  The
    double integral collapses to one cumulative sum anchored at the window
    center; the exponentially growing integrating factor is multiplied
    back immediately, node by node, so every stored intermediate stays
    bounded by the data (no large cancellations).  The factors of window
    and scale are computed once; a window the grid cuts (w2 < 1) raises.
    """

    def __init__(self, phi: BumpProfile, s: float, grid: RadialGrid):
        if not s > 0:
            raise ConfigError("scale must be positive")
        log_s = math.log(s)
        if log_s - _LN2 < grid.rho_min or log_s + _LN2 > grid.rho_max:
            raise ConfigError(f"the bump window, log s +- ln 2 at scale s = {s:.6g}, leaves the grid")
        sigma = grid.rho - log_s
        self.grid, self.k0, self.window = grid, int(np.argmin(np.abs(sigma))), np.abs(sigma) < _LN2
        self.cosh = _checked_cosh(phi.m * sigma, "integrating factor")
        self.h1s = 1.0 / self.cosh
        self.phiv = phi.paired_values(grid, s)
        self.w2 = inner_product(self.h1s, self.phiv, grid)

    def __call__(self, g: np.ndarray) -> np.ndarray:
        h1s, k0, window = self.h1s, self.k0, self.window
        g = self.grid.check_field(g)
        if g.ndim != 1:
            raise ConfigError("right inverse expects a scalar radial field")
        cells = cell_dr(g * self.cosh, self.grid)
        u = np.empty(g.size, dtype=cells.dtype)
        u[k0] = 0.0
        u[k0 + 1 :] = h1s[k0 + 1 :] * np.cumsum(cells[k0:])
        u[:k0] = -h1s[:k0] * np.cumsum(cells[:k0][::-1])[::-1]
        avals = np.zeros_like(u)
        avals[window] = u[window] / h1s[window]
        b2 = inner_product(avals * self.phiv, h1s, self.grid)
        return self.w2 * u - b2 * h1s


def r_inverse(g: np.ndarray, phi: BumpProfile, s: float, grid: RadialGrid) -> np.ndarray:
    """RightInverse(phi, s, grid) applied once to g."""
    return RightInverse(phi, s, grid)(g)


@dataclass
class ModulationState:
    """Result of splitting a map into a harmonic profile plus residual.

    z is the complex coordinate of the residual in the profile's tangent
    frame, constrained to have no component against the bump window;
    gamma = sqrt(1 - |z|^2) - 1 is the vertical correction that keeps
    the reassembled map on the sphere.
    """

    mu: Mu
    z: np.ndarray
    gamma: np.ndarray
    residual: float
    iterations: int
    phi: BumpProfile
    grid: RadialGrid


def _crossing_seed(v: np.ndarray, m: int, grid: RadialGrid) -> Mu:
    """Initial parameters from where the map crosses the equator.

    A map near the harmonic family rises from the south pole to the
    north pole; the radius where the vertical component changes sign
    estimates the scale, and the horizontal direction there estimates
    the rotation.
    """
    v3 = v[:, 2]
    hits = np.nonzero((v3[:-1] <= 0.0) & (v3[1:] > 0.0))[0]
    if hits.size == 0:
        raise FitError(
            "no equatorial crossing found: the map is not close to the "
            "harmonic family on this grid"
        )
    k = int(hits[0])
    t = -v3[k] / (v3[k + 1] - v3[k])
    log_s = grid.rho[k] + t * grid.drho
    w1 = v[k, 0] + t * (v[k + 1, 0] - v[k, 0])
    w2 = v[k, 1] + t * (v[k + 1, 1] - v[k, 1])
    return Mu(s=math.exp(log_s), alpha=math.atan2(w2, w1), m=m)


def fit_mu(
    vmap: SphereMap,
    mu_guess: Mu | None,
    phi: BumpProfile,
    grid: RadialGrid,
    strict: bool = True,
) -> ModulationState:
    """Fit scale and rotation so the residual avoids the bump window.

    Newton iteration on the window pairing of the residual coordinate,
    using the identity as the (negated) leading Jacobian; if a step
    fails to halve the residual the Jacobian is re-estimated by finite
    differences.  Maps with an identically zero second component are fit
    with the rotation pinned to zero, its row of that Jacobian the
    identity's.  A singular Jacobian, an iterate whose scale e^{mu_1/m}
    is not a positive finite float, or 50 iterations raise FitError.

    By default a residual coordinate exceeding 0.3 in sup norm is
    rejected: the decomposition is only meaningful close to the family.
    Passing strict=False returns the fit anyway, for scale tracking of
    data with deliberately large far-field tails; the caller is expected
    to inspect the stored residual coordinate.
    """
    if phi.m != vmap.m:
        raise ConfigError("bump window and map disagree on the degree m")
    m = vmap.m
    v0, v1, v2 = vmap.v.T.copy()
    planar_rigid = float(np.max(np.abs(v1))) <= 1e-9

    def residual(mu: Mu) -> tuple[tuple, tuple]:
        """The rows v_k - h_k of the map's residual from h[mu], and h[mu]'s parts."""
        h1s, h3s, ca, sa = parts = _profile_parts(mu, grid)
        return (v0 - h1s * ca, v1 - h1s * sa, v2 - h3s), parts

    if mu_guess is not None and mu_guess.m != m:
        raise ConfigError("initial parameters and map disagree on the degree m")
    if mu_guess is not None:
        gap = float(np.max(np.sqrt(sum((r * r for r in residual(mu_guess)[0]), 0.0))))
        if gap > 0.3:
            mu_guess = None
    if mu_guess is None:
        mu_guess = _crossing_seed(vmap.v, m, grid)
    if planar_rigid:
        mu_guess = Mu(s=mu_guess.s, alpha=0.0, m=m)

    muc = mu_guess.as_complex
    use_fd = False
    eps = 1e-7

    def evaluate(mc: complex) -> tuple[complex, np.ndarray]:
        try:
            mu = Mu.from_complex(mc, m)
        except (ValueError, OverflowError) as exc:  # s = e^{mu_1/m} underflows or overflows
            raise FitError(f"parameter fit left the family: mu = {mc:.6g}") from exc
        # z pairs the residual with Re f and Im f, as _frame_coords sums
        (r0, r1, r2), (h1s, h3s, ca, sa) = residual(mu)
        z = np.empty(grid.n, dtype=complex)
        z.real = 0.0 + r0 * (h3s * ca) + r1 * (h3s * sa) - r2 * h1s
        z.imag = 0.0 - r0 * sa + r1 * ca
        phiv = phi.paired_values(grid, mu.s)
        val = complex(inner_product(z, phiv, grid))
        if planar_rigid:
            val = complex(val.real, 0.0)
        return val, z

    F, z = evaluate(muc)
    iterations = 0
    for iterations in range(1, 51):
        if abs(F) <= 1e-12:
            break
        if use_fd:
            f_s, _ = evaluate(muc + eps)
            # a pinned rotation makes the second row of the Jacobian the identity's
            f_a = complex(F.real, F.imag + eps) if planar_rigid else evaluate(muc + 1j * eps)[0]
            jac = np.array(
                [
                    [(f_s.real - F.real) / eps, (f_a.real - F.real) / eps],
                    [(f_s.imag - F.imag) / eps, (f_a.imag - F.imag) / eps],
                ]
            )
            try:
                dx = np.linalg.solve(jac, -np.array([F.real, F.imag]))
            except np.linalg.LinAlgError as exc:
                raise FitError("parameter fit stalled: singular Jacobian") from exc
            step = complex(dx[0], dx[1])
        else:
            step = F
        F_new, z_new = evaluate(muc + step)
        if not use_fd and abs(F_new) > 0.5 * abs(F) and abs(F_new) > 1e-12:
            use_fd = True
            continue
        muc += step
        F, z = F_new, z_new
    else:
        raise FitError("parameter fit did not converge within 50 iterations")

    znorm = float(np.max(np.abs(z)))
    if strict and znorm > 0.3:
        raise FitError(
            f"residual coordinate reaches {znorm:.3f} > 0.3: the map is too "
            "far from the harmonic family for a valid decomposition"
        )
    return ModulationState(
        mu=Mu.from_complex(muc, m),
        z=z,
        gamma=_gamma(z),
        residual=abs(F),
        iterations=iterations,
        phi=phi,
        grid=grid,
    )


@dataclass(frozen=True)
class PsiProfile:
    """Adjoint-propagated window used by the frozen-phase pairing.

    psi solves the adjoint of the right-inverse problem applied to the
    window minus its ground-profile component; it decays algebraically,
    psi ~ -(c/(m-1)) r^(1-m) for large r, with c the inverse squared
    norm of the ground profile.
    """

    psi: np.ndarray
    c: float
    m: int
    grid: RadialGrid


def _h1sq_rdr_beyond(m: int, rho_edge: float, side: int) -> float:
    """int sech(m rho)^2 e^(2 rho) d rho beyond the edge, by expansion:
    over [rho_edge, inf) for side = 1, over (-inf, rho_edge] for side = -1.

    Valid once the edge is in the decaying regime (side m rho_edge > 0);
    the series in e^(-2 m |rho_edge|) converges geometrically there.
    """
    total = 0.0
    for j in range(1, 7):
        expo = (2.0 - 2.0 * j * m * side) * rho_edge
        if expo < -700.0:
            break
        total += 4.0 * (-1.0) ** (j - 1) * j * math.exp(expo) / (2.0 * j * m - 2.0 * side)
    return total


M1_UNSUPPORTED = (
    "m = 1 is not supported: the adjoint window decays too slowly "
    "to pair against the fields that arise"
)


def psi_and_c(phi: BumpProfile, m: int, grid: RadialGrid) -> PsiProfile:
    """Adjoint window profile and the ground-profile normalization.

    The profile is assembled from its closed cumulative form: at radius
    r it is the pairing-tail of the window-minus-ground field from r
    outward, divided by r times the ground profile.  The tail integrals
    are accumulated from the nearest end (plus a series correction for
    the part beyond the mesh) so the algebraic decay is resolved at full
    relative accuracy all the way to the last node.
    """
    if m == 1:
        raise ConfigError(M1_UNSUPPORTED)
    if phi.m != m:
        raise ConfigError("bump window was built for a different degree m")
    rho = grid.rho
    h1 = 1.0 / _checked_cosh(m * rho, "ground profile weight")
    c = float(1.0 / inner_product(h1, h1, grid).real)
    phiv = phi.norm_const * phi.shape(rho)
    ufield = phiv - c * h1

    cells = cell_dr(h1 * ufield * grid.r, grid)
    tail = np.empty(grid.n)
    tail[-1] = -c * _h1sq_rdr_beyond(m, grid.rho_max, 1)
    tail[:-1] = tail[-1] + np.cumsum(cells[::-1])[::-1]

    # below the window the integrand is exactly -c h1^2 r; accumulate
    # from the left end instead, where the one-sided integral is tiny, to
    # keep full relative accuracy in the deep interior
    below = rho < -_LN2
    if np.any(below):
        cells2 = cell_dr(h1 * h1 * grid.r, grid)
        lead = np.empty(grid.n)
        lead[0] = _h1sq_rdr_beyond(m, grid.rho_min, -1)
        lead[1:] = lead[0] + np.cumsum(cells2)
        tail[below] = c * lead[below]

    psi = tail / (grid.r * h1)
    return PsiProfile(psi=psi, c=c, m=m, grid=grid)


def normal_form_correction(
    q: np.ndarray,
    mu: Mu,
    alpha_tilde: float,
    psi: PsiProfile,
) -> complex:
    """Frozen-phase pairing of the gauge field with the adjoint window.

    Evaluates exp(i alpha_tilde) <q, psi(r/s)/s> on the mesh.  The
    rescaled adjoint window is interpolated from its stored profile,
    with the algebraic tail continued analytically past the right edge.
    For m = 2 the continuum pairing can grow without bound as the domain
    widens; the truncated value is still returned, with a warning.
    """
    grid = psi.grid
    q = grid.check_field(q)
    if mu.m != psi.m:
        raise ConfigError("parameters and adjoint window disagree on m")
    s = mu.s
    sig = grid.rho - math.log(s)
    vals = interp_rho(psi.psi, grid, sig)
    beyond = sig > grid.rho_max
    if np.any(beyond):
        vals[beyond] = -(psi.c / (psi.m - 1)) * np.exp((1 - psi.m) * sig[beyond])
    vals[sig < grid.rho_min] = 0.0
    if psi.m == 2:
        warnings.warn(
            "m = 2: the pairing grows with the domain; returning the "
            "truncated value",
            RuntimeWarning,
            stacklevel=2,
        )
    return complex(cmath.exp(1j * alpha_tilde) * inner_product(q, vals / s, grid))
