"""Time integration of m-equivariant flows into the sphere.

Two solvers share one mesh, one chord iteration, _chord, for the
implicit equation of a step, and one run driver, _drive, which owns the
record times, the step loop with dt from FlowConfig.dt_at and at most
MAX_STEPS steps, the record arrays and the RunSeries. Each solver hands
the driver advance, one step with the solver's own checks, and observe,
the energy and dissipation booked at a record time. The solvers are:

* a vector scheme for the full three-component map, implicit midpoint in
  time. The midpoint x solves F(x) = x - v - (dt/2) P_a(x/|x|) L x = 0,
  with L the equivariant Laplacian laplace_operator, which has its one
  home here, and P_a from pa_apply. The chord matrix is the Jacobian
  F'(x) = I - (dt/2) (P_a(x/|x|) L + D), D the per-node derivative of
  P_a(x/|x|) L x in x, first at x = v, written by plain slices into the
  LAPACK band array. |v|, v/|v|, L v and P_a(v/|v|) L v at the start of a
  step are computed once, for the dissipation rate at the end of the step
  before and for the Jacobian and first residual of the step itself. The
  update direction is tangent at the midpoint, so the new map 2 x - v
  keeps every node on the unit sphere to solver tolerance; run_vector
  checks that, projects each node back to |v| = 1 and rejects a
  non-finite map. Three nodes at each end are pinned, which
  keeps every evolving row on the centered 6th-order stencil: the spatial
  operator restricted to the evolving block is then a symmetric matrix,
  to about 1e-15 relative, as the centered taps _D2_CENTER mirror each
  other but for their last bits, so the midpoint rule conserves the
  matching quadratic energy to solver tolerance when the flow is purely
  rotational (a = i) and dissipates it monotonically when Re a > 0.
  Harmonic profiles are discrete near-equilibria: their step residual
  sits at the stencil floor, orders of magnitude below the step size.

* a scalar scheme for maps confined to a great circle, where the flow
  with real a reduces to a single angle beta(rho, t) obeying
  beta_t = a1 e^{-2 rho} (beta_rhorho + (m^2/2) sin 2 beta).
  Crank-Nicolson with a banded Newton solve makes very long dissipative
  runs cheap; a geometric time-step ramp from dt0 = 1e-4 reaches t = 1e5
  in 1,755 steps at ramp 0.01, about 250 at 0.08. Each evolving row of
  the step's residual is scaled by
  w = 2 e^{2 rho}/(a1 dt), which makes the Newton matrix the mass term
  over dt/2 plus the energy Hessian, exactly symmetric, as both of its
  triangles hold the taps above the diagonal, and, at a step size
  Crank-Nicolson can take, positive definite. It is written into one
  preallocated array in LAPACK's lower symmetric band storage, 3
  diagonals below the main one, and factored by dpbtrf, first at a seed
  extrapolated in time, from the third step on by the quadratic through
  the last three accepted angles; the factor is re-laid into a second
  array in upper storage, which dpbtrs reads. Within a step the stencil
  on an iterate is the stencil on the step's start plus the stencil on
  the change, which keeps the stencil's roundoff, and with it the floor
  of the Newton updates, well below NEWTON_TOL. The stencil on the angle
  is one correlation, _apply_stencil's direct path, and the tension
  T = D2 beta + (m^2/2) sin 2 beta is one array updated in place.

The chord iteration (Kelley, Iterative Methods for Linear and Nonlinear
Equations, 1995, ch. 5) factors a band matrix, by LU with dgbtrf on the
vector path and by Cholesky with dpbtrf on the scalar one, does one
back-solve per iteration, and re-factors at the current iterate
only when an update has not shrunk to CHORD_CONTRACTION of the one
before. It stops once the largest update is below MIDPOINT_TOL (vector)
or NEWTON_TOL (scalar), or once the error the last update leaves is
estimated below CHORD_KAPPA times that tolerance: from the second update
on by the contraction of the updates, after the first update of a scalar
step by its Newton constant. It fails after MIDPOINT_CAP or NEWTON_CAP
iterations. A call leaves its LU on the run's work object, and a vector
step starts from it (Hairer and Wanner, Solving ODEs II, sec. IV.8)
unless dt has moved by more than CHORD_DT_DRIFT of the dt it was made at.
Near a harmonic map, where the Jacobian barely moves, a run at one dt
then factors a few times in all; a step cut short to meet a record time
factors at its own dt, and the step after it at the full dt again. A
failed step drops the LU, and a scalar step drops it to factor at its
seed. The matrix only steers the iteration; the residual alone fixes the
result.

Vector runs report the scheme's own quadratic energy (6th-order accurate
for decaying profiles); the dissipation integral is accumulated by
trapezoid sampling of the instantaneous rate at the step endpoints, so
the energy identity residual is a genuine O(dt^2) quantity that refines
at the scheme order.

Both schemes pin N_PIN nodes at each end (near the poles for a map, near
-pi/2 and pi/2 for the angle), so maps keep their topological degree,
and both step only rows on the centered stencil.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import cmath
import math

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf, dpbtrs

from .errors import InstabilityError, StepError
from .harmonic_family import _dot3, _norm3, cross, energy as map_energy, pa_apply
from .radial_grid import _D2_CENTER, RadialGrid, _apply_stencil

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

    def check_unit(self) -> None:
        """ValueError if a node is off the unit sphere by more than 1e-8."""
        err = float(np.max(np.abs(_norm3(self.v) - 1.0)))
        # written so that a NaN error fails the check
        if not err <= 1e-8:
            raise ValueError(f"map leaves the unit sphere by {err:.3e}")


@dataclass(frozen=True)
class FlowConfig:
    """The run schedule: the flow and its time steps.

    a is the finite flow coefficient, stored as complex: a = 1 is the heat flow,
    a = i the rotational flow, mixtures in between need Re a > 0. The step size is
    dt(t) = clip(ramp * t, dt0, dt_max); ramp = 0 keeps dt0 throughout.
    These four fields are the whole schedule: the tolerances and caps of
    the chord iteration are module constants, MIDPOINT_TOL, MIDPOINT_CAP,
    NEWTON_TOL and NEWTON_CAP, and so are CHORD_KAPPA of its stop on the
    estimated remaining error and NEWTON_REFRESH of the scalar iteration's
    first-update stop.
    """

    a: complex = 1.0 + 0.0j
    dt0: float = 1e-3
    dt_max: float = math.inf
    ramp: float = 0.0

    def __post_init__(self):
        a = complex(self.a)
        object.__setattr__(self, "a", a)
        if not cmath.isfinite(a):
            raise ValueError(f"flow coefficient a must be finite, got {a}")
        if a == 0:
            raise ValueError("flow coefficient a must be nonzero")
        if a.real < 0:
            raise ValueError(f"flow coefficient needs Re a >= 0, got {a}")
        if not (self.dt0 > 0 and self.dt_max > 0 and self.ramp >= 0):
            raise ValueError("step-size parameters must be positive")

    def dt_at(self, t: float) -> float:
        return min(max(self.dt0, self.ramp * t), self.dt_max)

    def steps_to(self, t_end: float) -> float:
        """About how many steps of dt_at reach t_end from t = 0, before any
        cut to a record time: t_end / dt at a fixed dt, else a phase at dt0
        up to t = dt0 / ramp, a geometric phase at dt = ramp t, where each
        step multiplies t by 1 + ramp, and a phase at dt_max. The count is
        a float, inf where it overflows."""
        dt0, dt_max, ramp = self.dt0, self.dt_max, self.ramp
        if ramp == 0 or dt_max <= dt0:
            return t_end / min(dt0, dt_max)
        fixed = min(t_end, dt0 / ramp) / dt0
        # the log of the growth of dt over the geometric phase
        growth = min(math.log(t_end) + math.log(ramp), math.log(dt_max)) - math.log(dt0)
        capped = max(t_end - dt_max / ramp, 0.0) / dt_max
        return fixed + max(growth, 0.0) / math.log1p(ramp) + capped


@dataclass
class RunSeries:
    """Snapshots and scalar diagnostics collected along one run.

    Vector runs record the scheme's own quadratic energy and accumulate
    the dissipation rate by the trapezoid rule in time, so
    energy[k] + dissipated[k] - energy[0] is an O(dt^2) residual for
    dissipative runs and a solver-tolerance residual for the
    conservative flow. Scalar runs record the quadrature map energy and
    book dissipated as its exact decrement. iterations is the total
    number of chord iterations, one back-solve each, on either path;
    max_step_iterations is the most of them taken in any single step.
    factorizations counts the band factorizations, Cholesky on the scalar
    path, one per step plus the re-factors of the chord iteration, LU on
    the vector path, which holds its LU across steps, one at the first
    step plus the re-factors.
    """

    t: np.ndarray
    v: np.ndarray
    energy: np.ndarray
    dissipated: np.ndarray
    steps: int
    m: int
    a: complex
    beta: np.ndarray | None = None
    iterations: int = 0
    max_step_iterations: int = 0
    factorizations: int = 0

    def map_at(self, k: int) -> SphereMap:
        beta = None if self.beta is None else self.beta[k]
        return SphereMap(v=self.v[k], m=self.m, beta=beta)


# nodes held fixed at each end of the mesh by both schemes; three per
# side keeps every evolving row on the centered second-derivative stencil
N_PIN = 3


def laplace_operator(v: np.ndarray, grid: RadialGrid, m: int) -> np.ndarray:
    """The equivariant Laplacian (d_rr + d_r/r + (m^2/r^2) R^2) v, in log
    coordinates e^{-2 rho} (v_rhorho - m^2 (v1, v2, 0)), on the evolving
    nodes by the centered stencil _D2_CENTER alone, whose reach is the
    N_PIN pinned nodes at each end; +0.0 on the pinned nodes."""
    out = np.zeros(v.shape)
    decay = grid.decay[N_PIN:-N_PIN]
    # column by column, each on the stencil's direct path, so that every
    # product runs along the nodes (the rule of harmonic_family's docstring)
    for c in range(3):
        col = _apply_stencil(v[:, c], _D2_CENTER)
        col /= grid.drho**2
        if c < 2:
            col -= m * m * v[N_PIN:-N_PIN, c]
        col *= decay
        out[N_PIN:-N_PIN, c] = col
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
    pad = np.concatenate([np.repeat(v[:1], 3, axis=0), v, np.repeat(v[-1:], 3, axis=0)])
    d2 = _apply_stencil(pad, _D2_CENTER / grid.drho**2)
    quad = np.sum(v * d2)
    planar = np.sum(v[:, 0] ** 2 + v[:, 1] ** 2)
    return math.pi * grid.drho * float(m * m * planar - quad)


# the chord iteration keeps its factorization while each update is at most
# this fraction of the one before, and re-factors at the current iterate
# otherwise
CHORD_CONTRACTION = 1e-2
# a held factorization starts a step whose dt is within this fraction of the
# dt it was made at; the clip of a step to a record time moves dt by
# roundoff, which must not count
CHORD_DT_DRIFT = 1e-2
# the largest update at which the chord iteration of a step stops, and the
# most iterations it may take, for the vector (midpoint) and the scalar
# (Newton) stepper
MIDPOINT_TOL, MIDPOINT_CAP = 1e-12, 40
NEWTON_TOL, NEWTON_CAP = 1e-10, 12
# the chord iteration also stops once its estimated remaining error is at
# most CHORD_KAPPA tol: after the k-th update d_k, k >= 2, the error
# theta/(1 - theta) d_k with theta = d_k/d_{k-1}, and after the first
# update d1 of a scalar (Newton) call K d1^2; K is measured on a call that
# takes a second update, and a call more than NEWTON_REFRESH calls after
# that measurement takes a second update again
CHORD_KAPPA, NEWTON_REFRESH = 0.01, 16


class _ChordCounters:
    """The chord state _chord keeps on the work object of a run: the
    counters (chord iterations in all, the most taken in one step, the
    band matrices factored) and the LU factors lu, piv of the last
    factorization, made at dt lu_dt; lu is None while no LU is held.
    newton_k is the Newton constant of the first-update stop, and
    newton_k_age the calls since it was measured; newton_k is None on a
    state that never stops after its first update, inf on one that has
    not measured it yet."""

    iterations = 0
    max_step_iterations = 0
    factorizations = 0
    lu = piv = None
    lu_dt = math.nan
    newton_k = None
    newton_k_age = 0
    unfactorable = "singular"

    @staticmethod
    def factor(ab: np.ndarray, u: int):
        """lu, piv, info of dgbtrf on ab, u sub- and super-diagonals."""
        return dgbtrf(ab, u, u, overwrite_ab=True)


def _remaining(d: float, before: float) -> float:
    """The error a linearly contracting iteration leaves after an update
    of size d that followed one of size before: theta/(1 - theta) d with
    theta = d/before (Hairer and Wanner, Solving ODEs II, sec. IV.8); inf
    unless d < before < inf, where no contraction has been measured."""
    return d * d / (before - d) if d < before < math.inf else math.inf


def _chord(
    x, evaluate, u: int, tol: float, cap: int, work: _ChordCounters, what: str, t: float, dt: float
):
    """The chord iteration of both steppers: x with G(x) = 0, from x.

    evaluate(x, factor) returns G(x), flat, and when factor is true the
    band array, in the storage of work.factor with u off-diagonals on each
    side, of a matrix close to G'(x), else None. The iteration starts from
    the factors, LU or Cholesky, that work holds, if it holds ones made at
    a dt within CHORD_DT_DRIFT of dt; else work.factor factors the matrix
    at the first iterate, and again at any iterate whose update has not
    shrunk to CHORD_CONTRACTION of the one before, so a held LU whose
    updates grow is replaced before the iteration can report a divergence.
    Each iteration is one solve_banded back-solve, x <- x - G'^{-1} G(x),
    until the largest update falls below tol. Convergence is measured on
    the update: the raw residual sits on a roundoff floor amplified by
    e^{-2 rho} near the inner boundary, which the solve removes.

    It also stops on the estimated remaining error (Hairer and Wanner,
    sec. IV.8; Shampine, SIAM J. Sci. Stat. Comput. 1 (1980) 103-118):
    after the k-th update d_k, k >= 2, once theta/(1 - theta) d_k <=
    CHORD_KAPPA tol, with theta = d_k/d_{k-1} < 1 measured within the
    call. This spares the update whose only job is to confirm the one
    before. On heat_vector-shaped data one Newton update from where it
    stops is at most 4.5e-14, against MIDPOINT_TOL = 1e-12; at
    CHORD_KAPPA = 1 it was up to 3.6e-12. A work object whose newton_k is
    not None (the scalar stepper's) may stop after the first update d1
    too, when K d1^2 <= CHORD_KAPPA tol, the Newton form of the same
    estimate.
    K = d2/d1^2 is taken from the last call whose second update d2 was
    made, as every second update is, on the LU of the first. A call more
    than NEWTON_REFRESH calls after that one, or before any, takes the
    second update and measures K again: a K measured on a roundoff-sized
    d2 and never refreshed left errors up to 7e-8 on an m = 2 tail run at
    ramp 0.1. That rule needs quadratic convergence, which the scalar
    stepper has, as it factors afresh at each step's seed; the vector
    stepper holds its LU across steps and converges linearly, so its
    first update has no rate to go by.

    A call that returns leaves its LU on work; an exception leaves none,
    as the band array may already hold a new assembly. A non-finite
    residual raises InstabilityError before any solve; a non-finite update
    ends the iteration, for the finiteness check of step_scalar or
    run_vector. A matrix work.factor fails on, work.unfactorable, or cap
    iterations without convergence, raises StepError naming the iteration
    by what; cap iterations whose last update is larger than the first are
    reported as diverged, otherwise as stalled.
    """
    lu, piv, lu_dt = work.lu, work.piv, work.lu_dt
    # the call takes the held LU; only a call that returns gives one back
    work.lu = None
    factor = lu is None or abs(dt - lu_dt) > CHORD_DT_DRIFT * lu_dt
    newton_k = work.newton_k
    if newton_k is not None:
        work.newton_k_age += 1
        if work.newton_k_age > NEWTON_REFRESH:
            newton_k = math.inf
    delta = math.inf
    for count in range(1, cap + 1):
        resid, ab = evaluate(x, factor)
        if not np.isfinite(resid).all():
            raise InstabilityError(f"non-finite {what} residual at t={t:.6g}, dt={dt:.3g}")
        if factor:
            lu, piv, info = work.factor(ab, u)
            if info != 0:
                fault = f"{what} matrix is {work.unfactorable} at t={t:.6g}, dt={dt:.3g}"
                raise StepError(f"{fault}; reduce the step size")
            lu_dt = dt
            work.factorizations += 1
        step = solve_banded(lu, piv, resid, u)
        work.iterations += 1
        x = x - step.reshape(x.shape)
        delta, before = float(np.max(np.abs(step))), delta
        if count == 1:
            first = delta
        elif count == 2 and newton_k is not None:
            work.newton_k, work.newton_k_age = delta / (first * first), 0
        if delta < tol or not math.isfinite(delta):
            break
        if count == 1:
            if newton_k is not None and newton_k * delta * delta <= CHORD_KAPPA * tol:
                break
        elif _remaining(delta, before) <= CHORD_KAPPA * tol:
            break
        factor = delta > CHORD_CONTRACTION * before
    else:
        if delta > first:
            verdict, updates = "diverged", f"first update {first:.3e}, last {delta:.3e}"
        else:
            verdict, updates = "stalled", f"last update {delta:.3e}"
        raise StepError(
            f"{what} iteration {verdict} at t={t:.6g}, dt={dt:.3g} ({updates}); "
            "reduce the step size"
        )
    work.max_step_iterations = max(work.max_step_iterations, count)
    work.lu, work.piv, work.lu_dt = lu, piv, lu_dt
    return x


def solve_banded(lu: np.ndarray, piv: np.ndarray, b: np.ndarray, u: int) -> np.ndarray:
    """The back-solve of the chord iteration of both steppers: x with
    A x = b, A factored by dgbtrf into lu and piv in gbtrf storage with u
    sub- and super-diagonals, or, piv None, A = U^T U with lu the Cholesky
    factor U in upper symmetric band storage, as _ScalarWork.factor lays
    it out. dgbtrs or dpbtrs overwrites b with x. One module-level name,
    so that the solves can be counted."""
    if piv is None:
        return dpbtrs(lu, b, overwrite_b=True)[0]
    return dgbtrs(lu, u, u, b, piv, overwrite_b=True)[0]


class _VectorWork(_ChordCounters):
    """The midpoint band matrix of one grid, in LAPACK gbtrf storage, and
    the chord state of a vector run, which holds its LU across steps.

    Entry (r, c) of the 3n x 3n matrix sits at row 2 BAND + r - c of the
    Fortran-ordered (3 BAND + 1)-row band array ab, allocated once; the
    top BAND rows are left spare for the fill-in of the factorization. The
    matrix is I - (dt/2) (P_a L + D), L the operator of laplace_operator
    and D block diagonal, with identity rows pinning the boundary nodes.
    assemble writes it by plain slices. dgbtrf factors ab in place, so the
    LU a run holds is ab itself, and the next assembly drops it.
    """

    BAND = 11

    def __init__(self, grid: RadialGrid, m: int):
        n = grid.n
        self.grid = grid
        taps = _D2_CENTER / grid.drho**2
        planar = float(m * m) * np.array([1.0, 1.0, 0.0])[:, None]
        decay = grid.decay[N_PIN : n - N_PIN]
        # -L from evolving node i to node i + d, as [column component, i]
        self._coupling = [decay * ((d == 0) * planar - taps[3 + d]) for d in range(-3, 4)]
        self.ab = np.zeros((3 * self.BAND + 1, 3 * n), order="F")

    def assemble(self, pa: np.ndarray, deriv: np.ndarray, dt: float) -> np.ndarray:
        """The band array of I - (dt/2) (Pa L + D) for the P_a blocks pa,
        [column, row, evolving node], and the block diagonal D of the
        blocks deriv, [node, row, column], written into ab and returned."""
        U = self.BAND
        n = self.grid.n
        ab = self.ab
        # clears the fill-in of a factorization and every slot no write reaches
        ab.fill(0.0)
        # (dt/2) P_a and, below, (dt/2) D as [column, row, node]
        half = 0.5 * dt * pa
        for d, coupling in zip(range(-3, 4), self._coupling):
            for be in range(3):
                # rows 3 i + al, al = 0..2, in the column 3 (i + d) + be
                top = 2 * U - be - 3 * d
                cols = slice(3 * (N_PIN + d) + be, 3 * (n - N_PIN + d), 3)
                np.multiply(half[be], coupling[be], out=ab[top : top + 3, cols])
        diagonal = (0.5 * dt) * np.ascontiguousarray(deriv.T)
        for be in range(3):
            ab[2 * U - be : 2 * U - be + 3, be::3] -= diagonal[be]
        ab[2 * U] += 1.0
        return ab


def _midpoint_terms(x: np.ndarray, grid: RadialGrid, m: int, a: complex):
    """|x| (shape (n, 1)), x/|x|, L x and P_a(x/|x|) L x for L of
    laplace_operator: the terms of the midpoint residual F and of its
    Jacobian at x. At the start of a step they serve the step and
    dissipation_rate alike."""
    radius = _norm3(x)[:, None]
    unit = x / radius
    lap = laplace_operator(x, grid, m)
    return radius, unit, lap, pa_apply(unit, lap, a)


def _pa_derivative(unit: np.ndarray, radius: np.ndarray, w: np.ndarray, a: complex) -> np.ndarray:
    """The per-node 3x3 blocks D = d/dx [P_a(x/|x|) w] at x = radius unit,
    w held fixed, indexed [node, row, column]:

        D = (a1 (u (2 (u.w) u - w)^T - (u.w) I) + a2 ((w x u) u^T - [w]_x)) / |x|

    with u = x/|x| and [w]_x the matrix of w x. radius has shape (n, 1).
    D vanishes where w does, so on the pinned nodes for w = L x. The
    blocks are built component by component, [row, column, node], and
    returned as a transposed view."""
    u, w = unit.T, w.T
    n = u.shape[1]
    if a.real != 0:
        s = a.real / radius[:, 0]
        uw = u[0] * w[0] + u[1] * w[1] + u[2] * w[2]
        out = np.multiply(u[:, None], (s * (2.0 * uw * u - w))[None], out=np.empty((3, 3, n)))
        out.reshape(9, n)[::4] -= s * uw
    if a.imag != 0:
        s = a.imag / radius[:, 0]
        turn = np.multiply((s * cross(w.T, u.T).T)[:, None], u[None], out=np.empty((3, 3, n)))
        # minus the cross-product matrix of s w, entry by entry
        flat, sw = turn.reshape(9, n), s * w
        flat[[1, 5, 6]] += sw[[2, 0, 1]]
        flat[[2, 3, 7]] -= sw[[1, 2, 0]]
        out = turn if a.real == 0 else out + turn
    return out.transpose(2, 0, 1)


def dissipation_rate(terms, weight: np.ndarray, a: complex) -> float:
    """Instantaneous decay rate of the scheme energy,
    2 pi a1 sum drho e^{2 rho} |P^v L v|^2, from terms, the _midpoint_terms
    of v, and weight, the grid's drho e^{2 rho}.

    Pointwise the summand is (L v) . (P_a L v) with the scheme's own
    weights, so minus this rate is the exact time derivative of
    scheme_energy along the semi-discrete flow; the rotational part drops
    out and the rate is identically zero when Re a = 0.
    """
    if a.real == 0:
        return 0.0
    _, _, lap, pa_lap = terms
    return 2.0 * math.pi * float(weight @ _dot3(lap, pa_lap))


def step_vector(
    v: np.ndarray,
    t: float,
    dt: float,
    grid: RadialGrid,
    m: int,
    config: FlowConfig,
    work: _VectorWork,
    terms,
) -> np.ndarray:
    """One implicit midpoint step of the vector scheme: the new map
    2 x - v, unprojected.

    The midpoint x solves F(x) = x - v - (dt/2) P_a(x/|x|) L x = 0, L
    from laplace_operator, by _chord from x = v with the Jacobian
    F'(x) = I - (dt/2) (P_a(x/|x|) L + D), D the blocks of _pa_derivative
    at w = L x, until an update is below MIDPOINT_TOL or the estimated
    remaining error below CHORD_KAPPA MIDPOINT_TOL, in at most
    MIDPOINT_CAP iterations. The pinned rows of F' are identity rows and F
    vanishes on them, so the pinned nodes stay put. The update is tangent
    at the midpoint, so the new map keeps |v| = 1 to solver tolerance by
    the scheme alone. The
    step starts from the LU that work, the run's _VectorWork, holds and
    factors where _chord calls for it. terms are the _midpoint_terms of v.
    """

    def evaluate(x: np.ndarray, factor: bool):
        radius, unit, lap, pa_lap = terms if x is v else _midpoint_terms(x, grid, m, config.a)
        ab = None
        if factor:
            # column k of the per-node blocks of P_a(x/|x|) is P_a e_k, taken
            # on the evolving nodes as [column, row, node] for assemble
            pa = pa_apply(unit[N_PIN:-N_PIN], np.eye(3)[:, None, :], config.a)
            pa = np.ascontiguousarray(pa.transpose(0, 2, 1))
            ab = work.assemble(pa, _pa_derivative(unit, radius, lap, config.a), dt)
        return (x - v - 0.5 * dt * pa_lap).reshape(-1), ab

    U = _VectorWork.BAND
    vmid = _chord(v, evaluate, U, MIDPOINT_TOL, MIDPOINT_CAP, work, "midpoint", t, dt)
    return 2.0 * vmid - v


# cap on the number of steps of one run
MAX_STEPS = 2_000_000


def _drive(state, work, m: int, config: FlowConfig, t_end, record_times, advance, observe):
    """The run driver of both solvers. From t = 0 it steps
    state = advance(state, t, dt) to each record time, dt from config.dt_at
    clipped to meet it exactly, and at the k-th, t = 0 included, snapshots
    state and books energy[k], dissipated[k] = observe(state, k, t, energy).
    The record times, 33 evenly spaced by default, with 0 and t_end added,
    must be finite and lie in [0, t_end], else ValueError before any step;
    one within 1e-12 max(1, t_end) of t counts as reached. More than
    MAX_STEPS steps raise StepError. work supplies the run's counters.
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if record_times is None:
        times = np.linspace(0.0, t_end, 33)
    else:
        times = np.atleast_1d(np.asarray(record_times, dtype=float))
    times = np.unique(np.concatenate([[0.0, t_end], times]))
    # written so that a NaN, which np.unique sorts last, fails the check
    if not (times[0] >= 0 and times[-1] <= t_end * (1 + 1e-12)):
        raise ValueError("record times must be finite and lie in [0, t_end]")
    snaps = np.empty((times.size, *np.shape(state)))
    energies = np.empty(times.size)
    dissipated = np.empty(times.size)
    t = 0.0
    steps = 0
    tol = 1e-12 * max(1.0, t_end)
    for k, target in enumerate(times):
        while t < target - tol:
            dt = min(config.dt_at(t), target - t)
            if steps >= MAX_STEPS:
                raise StepError(f"exceeded {MAX_STEPS} steps before t={target:.6g}")
            state = advance(state, t, dt)
            t += dt
            steps += 1
        snaps[k] = state
        energies[k], dissipated[k] = observe(state, k, t, energies)
    return RunSeries(
        t=times, v=snaps, energy=energies, dissipated=dissipated,
        steps=steps, m=m, a=config.a, iterations=work.iterations,
        max_step_iterations=work.max_step_iterations, factorizations=work.factorizations,
    )


def run_vector(
    v0: np.ndarray,
    grid: RadialGrid,
    m: int,
    config: FlowConfig,
    t_end: float,
    record_times=None,
) -> RunSeries:
    """Evolve a full three-component map and snapshot it at record times.

    After each step_vector it raises InstabilityError if a node has left
    the unit sphere by more than 0.1, projects every node back to
    |v| = 1, removing the solver-tolerance drift, and raises
    InstabilityError if the map, or the dissipation booked up to it, is
    not finite.
    """
    v = grid.check_field(np.array(v0, dtype=float))
    SphereMap(v=v, m=m).check_unit()
    work = _VectorWork(grid, m)
    weight = grid.drho * np.exp(2.0 * grid.rho)  # of dissipation_rate
    spent = 0.0
    terms = rate_prev = None  # of the next step's start map; the first step sets them

    def advance(v: np.ndarray, t: float, dt: float) -> np.ndarray:
        nonlocal spent, rate_prev, terms
        with np.errstate(all="ignore"):  # an overflow in here fails a check, unwarned
            if terms is None:
                terms = _midpoint_terms(v, grid, m, config.a)
                rate_prev = dissipation_rate(terms, weight, config.a)
            v = step_vector(v, t, dt, grid, m, config, work, terms)
            radii = _norm3(v)[:, None]
            if np.max(np.abs(radii - 1.0)) > 0.1:
                raise InstabilityError(
                    f"sphere constraint violated by {np.max(np.abs(radii - 1.0)):.3e} "
                    f"at t={t:.6g}; reduce the step size"
                )
            v = v / radii
            if not np.all(np.isfinite(v)):
                raise InstabilityError(f"non-finite map after step at t={t:.6g}, dt={dt:.3g}")
            # computed once, for the rate here and the next step
            terms = _midpoint_terms(v, grid, m, config.a)
            rate_now = dissipation_rate(terms, weight, config.a)
        spent += 0.5 * dt * (rate_prev + rate_now)
        if not math.isfinite(spent):
            raise InstabilityError(f"non-finite dissipation after step at t={t:.6g}, dt={dt:.3g}")
        rate_prev = rate_now
        return v

    def observe(v: np.ndarray, k: int, t: float, energies: np.ndarray):
        e_now = scheme_energy(v, grid, m)
        if k and config.a.real > 0 and e_now > energies[k - 1] + 1e-8 * max(1.0, energies[0]):
            raise InstabilityError(
                f"energy grew from {energies[k - 1]:.9g} to {e_now:.9g} "
                f"under a dissipative flow at t={t:.6g}"
            )
        return e_now, spent

    return _drive(v, work, m, config, t_end, record_times, advance, observe)


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


class _ScalarWork(_ChordCounters):
    """The per-grid pieces of the Crank-Nicolson Newton matrix, the one
    array it is built and factored in, and the one its factor is re-laid
    in.

    step_scalar scales each evolving row of its residual by w = weight/dt
    = 2 e^{2 rho}/(a1 dt), so that the Newton matrix there is
    diag(w) - D2 - m^2 diag(cos 2 beta), D2 the centered stencil over
    drho^2 with the taps above the diagonal in both triangles, as
    _D2_CENTER is symmetric but for its last bits: exactly symmetric, and
    positive definite unless a linearized mode grows faster than 2/dt,
    which Crank-Nicolson cannot step. ab holds it in LAPACK's lower
    symmetric band storage, a Fortran-ordered (u + 1, n) array with entry
    (i, j), i >= j, at row i - j, the diagonal in row 0, u = N_PIN = 3 the
    stencil's reach. dpbtrf factors it in place into L with L L^T the
    matrix, its rank-one updates on unit-stride vectors, which OpenBLAS
    runs faster than the strided ones of upper storage; factor re-lays L
    into chol as U = L^T in upper storage, entry (i, j), i <= j, at row
    u + i - j, which the back-solves read: the bytes of the upper
    factorization. The N_PIN rows at each end are identity rows and the
    pinned columns are zero on the evolving rows, which keeps the matrix
    symmetric and the pinned updates exactly zero. template holds what
    depends on neither dt nor beta: the off-diagonals -D2, row k the tap
    -taps[3 + k], and the diagonal, -D2's on the evolving rows and 1 on
    the pinned ones; each Newton matrix is a copy of it with
    w - m^2 cos(2 beta) added on the evolving diagonal. Every step factors
    afresh at its seed: a factorization held across steps made the ramped
    runs slower, as dt moves every step, and the fresh one makes the
    Newton iteration converge quadratically, so a scalar run
    takes _chord's early stop, newton_k unmeasured at first.
    """

    unfactorable = "not positive definite"

    def __init__(self, grid: RadialGrid, m: int, a1: float):
        n = grid.n
        self.grid = grid
        self.newton_k = math.inf
        self.m = m
        self.u = u = N_PIN
        with np.errstate(all="ignore"):  # an infinite weight fails a step's checks, unwarned
            self.weight = 2.0 / (a1 * grid.decay[N_PIN : n - N_PIN])
        taps = _D2_CENTER / grid.drho**2
        self.template = np.zeros((u + 1, n), order="F")
        for k in range(u + 1):
            self.template[k, N_PIN : n - N_PIN - k] = -taps[3 + k]
        self.template[0, :N_PIN] = self.template[0, n - N_PIN :] = 1.0
        self.ab = np.zeros((u + 1, n), order="F")
        self.chol = np.zeros((u + 1, n), order="F")

    def factor(self, ab: np.ndarray, u: int):
        """chol, None, info of dpbtrf on ab in lower symmetric band storage,
        its factor L re-laid into chol as U = L^T in upper storage."""
        c, info = dpbtrf(ab, lower=1, overwrite_ab=True)
        for k in range(u + 1):
            self.chol[u - k, k:] = c[k, : c.shape[1] - k]
        return self.chol, None, info

    def tension(self, beta: np.ndarray, d2: np.ndarray) -> np.ndarray:
        """T = d2 + (m^2/2) sin 2 beta on the evolving rows, for d2 the
        centered second derivative of beta there, evaluated by the caller:
        one new array, the products and sums in that order."""
        out = np.multiply(2.0, beta[N_PIN:-N_PIN])
        np.sin(out, out=out)
        out *= 0.5 * self.m**2
        out += d2
        return out

    def newton_matrix(self, beta: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The Newton matrix at beta for the row weights w, written into ab
        and returned: a copy of template, then w - m^2 cos(2 beta) added on
        the evolving diagonal, w first."""
        np.copyto(self.ab, self.template)
        diag = self.ab[0, N_PIN:-N_PIN]
        diag += w
        diag -= self.m**2 * np.cos(2.0 * beta[N_PIN:-N_PIN])
        return self.ab


def step_scalar(
    beta: np.ndarray,
    t: float,
    dt: float,
    work: _ScalarWork,
    seed: np.ndarray,
) -> np.ndarray:
    """One Crank-Nicolson step of the great-circle angle.

    The new angle x solves g(x) = w (x - beta) - T(x) - T(beta) = 0 on
    the evolving rows, T the tension and w the row weights of work, by
    _chord with the Newton matrix g' of work, to NEWTON_TOL in at most
    NEWTON_CAP iterations, factored afresh at seed; one that is not
    positive definite raises StepError before any back-solve. An
    iteration whose estimated remaining error is at most CHORD_KAPPA
    NEWTON_TOL also ends the step, the first one once work has measured
    its Newton constant; see _chord. seed is the starting iterate and
    must hold beta's values on the N_PIN pinned nodes at each end, which
    the step leaves as they are. run_scalar passes beta itself at the
    first step, the linear extrapolation in time of its last two accepted
    angles at the second and the quadratic one of its last three after.
    """
    # d2 of an iterate x, on the evolving rows, is d2(beta) + d2(x - beta).
    # The stencil's roundoff scales with the values it reads: on the angle
    # itself it leaves a noise in T that the Jacobian barely damps along
    # the slow scale mode, a floor of 1e-10 to 4e-10 on the Newton updates
    # at the dt of 400 to 900 that long m = 2 runs reach, against
    # NEWTON_TOL = 1e-10. On the change over the step the noise shrinks
    # with the change, and d2(beta) is one fixed vector within the step.
    def d2(f: np.ndarray) -> np.ndarray:
        out = _apply_stencil(f, _D2_CENTER)
        out /= work.grid.drho**2
        return out

    d2_old = d2(beta)
    tension_old = work.tension(beta, d2_old)
    w = work.weight / dt

    def evaluate(x: np.ndarray, factor: bool):
        resid = x - beta
        tension = tension_old if x is beta else work.tension(x, d2_old + d2(resid))
        resid[N_PIN:-N_PIN] *= w
        resid[N_PIN:-N_PIN] -= tension + tension_old
        resid[:N_PIN] = resid[-N_PIN:] = 0.0  # the pinned rows
        return resid, work.newton_matrix(x, w) if factor else None

    # The seed never comes from an explicit predictor: near the inner
    # boundary the e^{-2 rho} factor blows an explicit guess far outside the
    # convergence basin once dt is large. From beta itself, or extrapolated
    # from two or three accepted Crank-Nicolson states, which evaluates no
    # T, the diffusion-dominated Jacobian reaches the solution in a few
    # iterations; on long m = 2 runs, one per step from the quadratic seed on,
    # and a second on every NEWTON_REFRESH + 1-th step.
    work.lu = None
    new = _chord(seed, evaluate, work.u, NEWTON_TOL, NEWTON_CAP, work, "Newton", t, dt)
    if not np.all(np.isfinite(new)):
        raise InstabilityError(f"non-finite angle after step at t={t:.6g}")
    return new


def _quadratic_seed(beta, prev, prev2, dt: float, h1: float, h2: float) -> np.ndarray:
    """The quadratic in time through the accepted angles prev2, prev and
    beta, h2 and h1 apart, dt past beta: beta + dt d1 + c (d1 - d0) in the
    divided differences d1 = (beta - prev)/h1, d0 = (prev - prev2)/h2,
    c = dt (dt + h1)/(h1 + h2), the divisions moved onto the scalar
    weights, a third of the time of dividing arrays. The differences
    vanish where the three angles agree, keeping beta's ends bit for bit."""
    c = dt * (dt + h1) / (h1 + h2)
    return beta + ((dt + c) / h1) * (beta - prev) - (c / h2) * (prev - prev2)


def run_scalar(
    beta0: np.ndarray,
    grid: RadialGrid,
    m: int,
    config: FlowConfig,
    t_end: float,
    record_times=None,
) -> RunSeries:
    """Evolve a great-circle angle profile; snapshots hold both the angle
    and the reconstructed map. Each step's Newton iteration is seeded with
    beta itself at the first step, the line in time through the last two
    accepted angles at the second, and from the third on the quadratic
    through the last three, _quadratic_seed, at the step's end; the ends
    stay exact, as the angles agree there."""
    if config.a.imag != 0:
        raise ValueError("the scalar reduction is only valid for real a")
    beta = np.array(grid.check_field(beta0), dtype=float)
    if not np.all(np.isfinite(beta)):
        raise ValueError("initial angle has non-finite entries")
    work = _ScalarWork(grid, m, config.a.real)
    # the two accepted angles before beta, latest first, and the step
    # sizes from each of them to the next
    prev = prev2 = h1 = h2 = None

    def advance(beta: np.ndarray, t: float, dt: float) -> np.ndarray:
        nonlocal prev, prev2, h1, h2
        if prev is None:
            seed = beta
        elif prev2 is None:
            seed = beta + (dt / h1) * (beta - prev)
        else:
            seed = _quadratic_seed(beta, prev, prev2, dt, h1, h2)
        prev, prev2, h1, h2 = beta, prev, dt, h1
        with np.errstate(all="ignore"):  # an overflow fails step_scalar's checks, unwarned
            return step_scalar(beta, t, dt, work, seed)

    def observe(beta: np.ndarray, k: int, t: float, energies: np.ndarray):
        e_now = map_energy(beta_to_map(beta), grid, m)
        return e_now, (energies[0] if k else e_now) - e_now

    series = _drive(beta, work, m, config, t_end, record_times, advance, observe)
    return replace(series, v=beta_to_map(series.v), beta=series.v)
