"""Time integration of m-equivariant flows into the sphere.

Two solvers share one mesh and one run loop:

* a vector scheme for the full three-component map, implicit midpoint in
  time with the projection coefficients frozen and iterated to a fixed
  point. The update direction is tangent at the midpoint, so every node
  stays exactly on the unit sphere. Three nodes at each end are pinned,
  which keeps every evolving row on the centered 6th-order stencil: the
  spatial operator restricted to the evolving block is then an exactly
  symmetric matrix, so the midpoint rule conserves the matching
  quadratic energy to solver tolerance when the flow is purely
  rotational (a = i) and dissipates it monotonically when Re a > 0.
  Harmonic profiles are discrete near-equilibria: their step residual
  sits at the stencil floor, orders of magnitude below the step size.

* a scalar scheme for maps confined to a great circle, where the flow
  with real a reduces to a single angle beta(rho, t) obeying
  beta_t = a1 e^{-2 rho} (beta_rhorho + (m^2/2) sin 2 beta).
  Crank-Nicolson with a banded Newton solve makes very long dissipative
  runs cheap; a geometric time-step ramp covers t in [0, 1e5] in a few
  hundred steps.

Vector runs report the scheme's own quadratic energy (6th-order accurate
for decaying profiles); the dissipation integral is accumulated by
trapezoid sampling of the instantaneous rate at the step endpoints, so
the energy identity residual is a genuine O(dt^2) quantity that refines
at the scheme order.

Both ends of the mesh hold Dirichlet data (the poles for the vector
scheme, -pi/2 and pi/2 for the angle), so maps keep their topological
degree during evolution.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import warnings

import numpy as np
from scipy.linalg import solve_banded

from .errors import InstabilityError, StepError
from .harmonic_family import energy as map_energy
from .radial_grid import _D2_CENTER, RadialGrid, banded_d2, d2_rho

SOUTH = np.array([0.0, 0.0, -1.0])
NORTH = np.array([0.0, 0.0, 1.0])


@dataclass
class SphereMap:
    """A radial profile of an m-equivariant map into the sphere.

    v has shape (n, 3) with |v| = 1 nodewise. beta is the optional
    great-circle angle with v = (cos beta, 0, sin beta) when the map is
    confined to the circle through both poles.
    """

    v: np.ndarray
    m: int
    beta: np.ndarray | None = None

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        if self.v.ndim != 2 or self.v.shape[1] != 3:
            raise ValueError(f"map must have shape (n, 3), got {self.v.shape}")
        if int(self.m) < 1:
            raise ValueError(f"equivariance degree must be a positive integer, got {self.m}")

    def check_unit(self, tol: float = 1e-8) -> None:
        err = float(np.max(np.abs(np.linalg.norm(self.v, axis=1) - 1.0)))
        if err > tol:
            raise ValueError(f"map leaves the unit sphere by {err:.3e}")


@dataclass(frozen=True)
class FlowConfig:
    """Time-stepping parameters.

    a is the flow coefficient: a = 1 is the heat flow, a = i the
    rotational flow, mixtures in between need Re a > 0. The step size is
    dt(t) = clip(ramp * t, dt0, dt_max); ramp = 0 keeps dt0 throughout.
    delta, when set, declares the intended perturbation size: runs warn
    if the initial energy exceeds the harmonic floor by more than
    delta^2.
    """

    a: complex = 1.0 + 0.0j
    dt0: float = 1e-3
    dt_max: float = math.inf
    ramp: float = 0.0
    outer_tol: float = 1e-12
    max_outer: int = 40
    newton_tol: float = 1e-10
    max_newton: int = 12
    max_steps: int = 2_000_000
    renormalize: bool = True
    delta: float | None = None

    def __post_init__(self):
        a = complex(self.a)
        if a == 0:
            raise ValueError("flow coefficient a must be nonzero")
        if a.real < 0:
            raise ValueError(f"flow coefficient needs Re a >= 0, got {a}")
        if not (self.dt0 > 0 and self.dt_max > 0 and self.ramp >= 0):
            raise ValueError("step-size parameters must be positive")
        if not (self.max_outer >= 1 and self.max_newton >= 1):
            raise ValueError("iteration caps max_outer and max_newton must be at least 1")
        if not all(0 < tol < math.inf for tol in (self.outer_tol, self.newton_tol)):
            raise ValueError("tolerances outer_tol and newton_tol must be finite and positive")

    def dt_at(self, t: float) -> float:
        return min(max(self.dt0, self.ramp * t), self.dt_max)


@dataclass
class RunSeries:
    """Snapshots and scalar diagnostics collected along one run.

    Vector runs record the scheme's own quadratic energy and accumulate
    the dissipation rate by the trapezoid rule in time, so
    energy[k] + dissipated[k] - energy[0] is an O(dt^2) residual for
    dissipative runs and a solver-tolerance residual for the
    conservative flow. Scalar runs record the quadrature map energy and
    book dissipated as its exact decrement.
    """

    t: np.ndarray
    v: np.ndarray
    energy: np.ndarray
    dissipated: np.ndarray
    steps: int
    m: int
    a: complex
    beta: np.ndarray | None = None

    def map_at(self, k: int) -> SphereMap:
        beta = None if self.beta is None else self.beta[k]
        return SphereMap(v=self.v[k], m=self.m, beta=beta)


def _pa_blocks(vhat: np.ndarray, a: complex) -> np.ndarray:
    """Per-node 3x3 matrices a1 (I - nn^T) + a2 [n]_x for n = vhat/|vhat|."""
    nrm = np.linalg.norm(vhat, axis=1, keepdims=True)
    nhat = vhat / nrm
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


# nodes held fixed at each end of the mesh by the vector scheme; three per
# side keeps every evolving row on the centered second-derivative stencil
N_PIN = 3


def laplace_operator(v: np.ndarray, grid: RadialGrid, m: int) -> np.ndarray:
    """The solver's spatial operator e^{-2 rho} (d^2/drho^2 - m^2 diag(1,1,0)),
    zeroed on the pinned nodes at both ends."""
    out = d2_rho(v, grid)
    out[:, 0] -= m * m * v[:, 0]
    out[:, 1] -= m * m * v[:, 1]
    out *= np.exp(-2.0 * grid.rho)[:, None]
    out[:N_PIN] = 0.0
    out[-N_PIN:] = 0.0
    return out


def scheme_energy(v: np.ndarray, grid: RadialGrid, m: int) -> float:
    """The quadratic energy conserved or dissipated exactly by the vector
    scheme.

    This is the discrete form pi sum drho (|v_rho|^2 + m^2 (v1^2 + v2^2))
    built from the same centered stencil the scheme steps with, extended
    past the ends by constant padding. Its gradient on the evolving nodes
    is exactly -2 pi drho e^{2 rho} times the scheme operator (the padding
    only alters coefficients on pinned columns), so the midpoint step
    moves it by the dissipation rate alone. For fields that settle to
    constants at both ends it matches the quadrature map energy to the
    stencil order.
    """
    v = np.asarray(v, dtype=float)
    n = grid.n
    taps = _D2_CENTER / grid.drho**2
    pad = np.concatenate([np.repeat(v[:1], 3, axis=0), v, np.repeat(v[-1:], 3, axis=0)])
    d2 = np.zeros_like(v)
    for k in range(7):
        d2 += taps[k] * pad[k : k + n]
    quad = np.sum(v * d2)
    planar = np.sum(v[:, 0] ** 2 + v[:, 1] ** 2)
    return math.pi * grid.drho * float(m * m * planar - quad)


class _VectorWork:
    """Cached per-grid pieces of the midpoint band matrix."""

    BAND = 11

    def __init__(self, grid: RadialGrid, m: int):
        self.grid = grid
        self.m = m
        self.taps = _D2_CENTER / grid.drho**2
        self.decay = np.exp(-2.0 * grid.rho)

    def assemble(self, pa: np.ndarray, dt: float) -> np.ndarray:
        """Band matrix of I - (dt/2) Pa L over the 3n midpoint unknowns,
        with identity rows pinning the boundary nodes."""
        n = self.grid.n
        U = self.BAND
        ab = np.zeros((2 * U + 1, 3 * n))
        i = np.arange(N_PIN, n - N_PIN)
        coef = 0.5 * dt * self.decay[i]
        mm = float(self.m * self.m)
        kdiag = (1.0, 1.0, 0.0)
        for o in range(-3, 4):
            base = coef * self.taps[o + 3]
            for al in range(3):
                for be in range(3):
                    vals = -base * pa[i, al, be]
                    if o == 0:
                        vals = vals + coef * mm * kdiag[be] * pa[i, al, be]
                        if al == be:
                            vals = vals + 1.0
                    ab[U + al - be - 3 * o, 3 * (i + o) + be] = vals
        for node in (*range(N_PIN), *range(n - N_PIN, n)):
            for c in range(3):
                ab[U, 3 * node + c] = 1.0
        return ab


def dissipation_rate(v: np.ndarray, grid: RadialGrid, m: int, a: complex) -> float:
    """Instantaneous decay rate of the scheme energy,
    2 pi a1 sum drho e^{2 rho} |P^v L v|^2.

    Pointwise the summand is (L v) . (P_a L v) with the scheme's own
    weights, so minus this rate is the exact time derivative of
    scheme_energy along the semi-discrete flow; the rotational part drops
    out and the rate is identically zero when Re a = 0.
    """
    if a.real == 0:
        return 0.0
    lap = laplace_operator(v, grid, m)
    pa_lap = np.einsum("nij,nj->ni", _pa_blocks(v, a), lap)
    w = grid.drho * np.exp(2.0 * grid.rho)
    return 2.0 * math.pi * float(w @ np.sum(lap * pa_lap, axis=1))


def step_vector(
    v: np.ndarray,
    t: float,
    dt: float,
    grid: RadialGrid,
    m: int,
    config: FlowConfig,
    work: _VectorWork | None = None,
) -> np.ndarray:
    """One implicit midpoint step of the vector scheme."""
    if work is None:
        work = _VectorWork(grid, m)
    a = complex(config.a)
    b = v.reshape(-1)
    vhat = v
    U = _VectorWork.BAND
    for _ in range(config.max_outer):
        pa = _pa_blocks(vhat, a)
        ab = work.assemble(pa, dt)
        vmid = solve_banded((U, U), ab, b).reshape(-1, 3)
        delta = float(np.max(np.abs(vmid - vhat)))
        vhat = vmid
        if delta < config.outer_tol:
            break
    else:
        raise StepError(
            f"midpoint iteration stalled at t={t:.6g}, dt={dt:.3g} "
            f"(last update {delta:.3e}); reduce the step size"
        )
    v_new = 2.0 * vmid - v
    radii = np.linalg.norm(v_new, axis=1, keepdims=True)
    if np.max(np.abs(radii - 1.0)) > 0.1:
        raise InstabilityError(
            f"sphere constraint violated by {np.max(np.abs(radii - 1.0)):.3e} "
            f"at t={t:.6g}; reduce the step size"
        )
    if config.renormalize:
        v_new = v_new / radii
    if not np.all(np.isfinite(v_new)):
        raise InstabilityError(f"non-finite map after step at t={t:.6g}, dt={dt:.3g}")
    return v_new


def _record_schedule(t_end: float, record_times) -> np.ndarray:
    if record_times is None:
        times = np.linspace(0.0, t_end, 33)
    else:
        times = np.atleast_1d(np.asarray(record_times, dtype=float))
    times = np.unique(np.concatenate([[0.0, t_end], times]))
    if times[0] < 0 or times[-1] > t_end * (1 + 1e-12):
        raise ValueError("record times must lie in [0, t_end]")
    return times


def _as_array(v0) -> np.ndarray:
    return v0.v if isinstance(v0, SphereMap) else np.asarray(v0, dtype=float)


def run_vector(
    v0,
    grid: RadialGrid,
    m: int,
    config: FlowConfig,
    t_end: float,
    record_times=None,
) -> RunSeries:
    """Evolve a full three-component map and snapshot it at record times."""
    v = grid.check_field(np.array(_as_array(v0), dtype=float))
    if v.shape != (grid.n, 3):
        raise ValueError(f"map must have shape ({grid.n}, 3), got {v.shape}")
    SphereMap(v=v, m=m).check_unit(1e-8)
    times = _record_schedule(t_end, record_times)
    work = _VectorWork(grid, m)
    snaps = np.empty((times.size, grid.n, 3))
    energies = np.empty(times.size)
    dissipated = np.empty(times.size)
    snaps[0] = v
    e0 = scheme_energy(v, grid, m)
    energies[0] = e0
    dissipated[0] = 0.0
    floor = 4 * math.pi * m
    if config.delta is not None and e0 > floor + config.delta**2 + 1e-9 * floor:
        warnings.warn(
            f"initial energy {e0:.6g} exceeds the harmonic floor {floor:.6g} "
            f"by more than delta^2 = {config.delta**2:.3g}",
            RuntimeWarning,
            stacklevel=2,
        )
    spent = 0.0
    a = complex(config.a)
    rate_prev = dissipation_rate(v, grid, m, a)
    t = 0.0
    k = 1
    steps = 0
    tol = 1e-12 * max(1.0, t_end)
    while k < times.size:
        target = times[k]
        while t < target - tol:
            dt = min(config.dt_at(t), target - t)
            if steps >= config.max_steps:
                raise StepError(f"exceeded max_steps={config.max_steps} before t={target:.6g}")
            v = step_vector(v, t, dt, grid, m, config, work)
            rate_now = dissipation_rate(v, grid, m, a)
            spent += 0.5 * dt * (rate_prev + rate_now)
            rate_prev = rate_now
            t += dt
            steps += 1
        e_now = scheme_energy(v, grid, m)
        if config.a.real > 0 and e_now > energies[k - 1] + 1e-8 * max(1.0, e0):
            raise InstabilityError(
                f"energy grew from {energies[k - 1]:.9g} to {e_now:.9g} "
                f"under a dissipative flow at t={t:.6g}"
            )
        snaps[k] = v
        energies[k] = e_now
        dissipated[k] = spent
        k += 1
    return RunSeries(
        t=times, v=snaps, energy=energies, dissipated=dissipated,
        steps=steps, m=m, a=complex(config.a),
    )


def energy_identity_residual(series: RunSeries) -> float:
    """Largest relative defect of the energy identity over the run.

    For dissipative runs this is |E(t) + integral of the dissipation rate
    - E(0)| / E(0); for the conservative flow the dissipation term is
    zero and the same expression reports the conservation drift.
    """
    e0 = series.energy[0]
    resid = series.energy + series.dissipated - e0
    return float(np.max(np.abs(resid)) / abs(e0))


def beta_to_map(beta: np.ndarray) -> np.ndarray:
    """Great-circle map (cos beta, 0, sin beta) from the angle."""
    beta = np.asarray(beta, dtype=float)
    return np.stack([np.cos(beta), np.zeros_like(beta), np.sin(beta)], axis=-1)


def map_to_beta(v: np.ndarray) -> np.ndarray:
    """Angle of a great-circle map; rejects maps leaving the circle."""
    v = np.asarray(v, dtype=float)
    if np.max(np.abs(v[:, 1])) > 1e-9:
        raise ValueError("map is not confined to the great circle (second component != 0)")
    return np.unwrap(np.arctan2(v[:, 2], v[:, 0]))


def stationary_angle(log_s: float, grid: RadialGrid, m: int) -> np.ndarray:
    """Angle profile of the harmonic map at scale s: the Gudermannian
    arctan(sinh(m (rho - log s)))."""
    return np.arctan(np.sinh(m * (grid.rho - log_s)))


def scalar_energy(beta: np.ndarray, grid: RadialGrid, m: int) -> float:
    """Map energy of the great-circle field via the high-order quadrature."""
    return map_energy(beta_to_map(beta), grid, m)


class _ScalarWork:
    """Per-grid cached pieces of the Crank-Nicolson Jacobian."""

    def __init__(self, grid: RadialGrid, m: int, a1: float):
        self.grid = grid
        self.m = m
        self.a1 = a1
        ab, l, u = banded_d2(grid)
        self.u = u
        # row index of slot (d, j) is d - u + j; clip only for the mask
        d = np.arange(2 * u + 1)[:, None]
        j = np.arange(grid.n)[None, :]
        i = d - u + j
        valid = (i >= 0) & (i < grid.n)
        w = np.where(valid, np.exp(-2.0 * grid.rho[np.clip(i, 0, grid.n - 1)]), 0.0)
        self.scaled_d2 = ab * w
        self.decay = np.exp(-2.0 * grid.rho)

    def rhs(self, beta: np.ndarray) -> np.ndarray:
        out = self.a1 * self.decay * (
            d2_rho(beta, self.grid) + 0.5 * self.m**2 * np.sin(2.0 * beta)
        )
        out[0] = out[-1] = 0.0
        return out

    def newton_matrix(self, beta: np.ndarray, dt: float) -> np.ndarray:
        u = self.u
        ab = -0.5 * dt * self.a1 * self.scaled_d2.copy()
        ab[u, :] += 1.0 - 0.5 * dt * self.a1 * self.decay * self.m**2 * np.cos(2.0 * beta)
        for row in (0, self.grid.n - 1):
            cols = np.arange(max(0, row - u), min(self.grid.n, row + u + 1))
            ab[u + row - cols, cols] = 0.0
            ab[u, row] = 1.0
        return ab


def step_scalar(
    beta: np.ndarray, t: float, dt: float, work: _ScalarWork, config: FlowConfig
) -> np.ndarray:
    """One Crank-Nicolson step of the great-circle angle, Newton inner loop."""
    rhs_old = work.rhs(beta)
    # Seed Newton with the current state rather than an explicit predictor:
    # near the inner boundary the e^{-2 rho} factor blows an explicit guess
    # far outside the convergence basin once dt is large, while from here the
    # diffusion-dominated Jacobian reaches the solution in a few iterations.
    new = beta.copy()
    # convergence is measured on the Newton update: the raw residual sits on
    # a roundoff floor amplified by e^{-2 rho} near the inner boundary, and
    # the Jacobian solve removes exactly that amplification
    for _ in range(config.max_newton):
        resid = new - beta - 0.5 * dt * (work.rhs(new) + rhs_old)
        resid[0] = resid[-1] = 0.0
        ab = work.newton_matrix(new, dt)
        delta = solve_banded((work.u, work.u), ab, resid)
        new = new - delta
        err = float(np.max(np.abs(delta)))
        if err < config.newton_tol:
            break
    else:
        raise StepError(
            f"Newton stalled at t={t:.6g}, dt={dt:.3g} (last update {err:.3e}); "
            "reduce the step size or the ramp"
        )
    if not np.all(np.isfinite(new)):
        raise InstabilityError(f"non-finite angle after step at t={t:.6g}")
    return new


def run_scalar(
    beta0: np.ndarray,
    grid: RadialGrid,
    m: int,
    config: FlowConfig,
    t_end: float,
    record_times=None,
) -> RunSeries:
    """Evolve a great-circle angle profile; snapshots hold both the angle
    and the reconstructed map."""
    a = complex(config.a)
    if a.imag != 0:
        raise ValueError("the scalar reduction is only valid for real a")
    beta = np.array(grid.check_field(beta0), dtype=float)
    times = _record_schedule(t_end, record_times)
    work = _ScalarWork(grid, m, a.real)
    betas = np.empty((times.size, grid.n))
    energies = np.empty(times.size)
    betas[0] = beta
    energies[0] = scalar_energy(beta, grid, m)
    t = 0.0
    k = 1
    steps = 0
    tol = 1e-12 * max(1.0, t_end)
    while k < times.size:
        target = times[k]
        while t < target - tol:
            dt = min(config.dt_at(t), target - t)
            if steps >= config.max_steps:
                raise StepError(f"exceeded max_steps={config.max_steps} before t={target:.6g}")
            beta = step_scalar(beta, t, dt, work, config)
            t += dt
            steps += 1
        betas[k] = beta
        energies[k] = scalar_energy(beta, grid, m)
        k += 1
    snaps = beta_to_map(betas)
    return RunSeries(
        t=times, v=snaps, energy=energies,
        dissipated=energies[0] - energies, steps=steps, m=m, a=a, beta=betas,
    )
