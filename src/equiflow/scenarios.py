"""Far-field tail families, the scale-history prediction, and the classifier.

For degree-2 great-circle data the long-time scale parameter is driven
by the weighted tail integral of the first map component.  This module
builds initial data whose tail realizes a prescribed drift profile in
iterated-logarithm time, evaluates the prediction integrals in both the
map form and the gauge-field form, and classifies scale histories into
the settled / concentrating / spreading / oscillating behavior types.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigError, NumericalError
from .evolve_llg import SphereMap, beta_to_map, map_to_beta, stationary_angle
from .harmonic_family import energy
from .modulation import bump_phi, fit_mu
from .radial_grid import RadialGrid, cumint_dr, deriv_r, interp_rho

_FAMILIES = ("none", "log_drift", "ln_ln_oscillation", "mixed")

# the prediction integrals resolve the iterated logarithm of the radius,
# so the grid must reach at least exp(e^2) times the activation radius
_LNLN_HEADROOM = math.exp(math.exp(2.0))


class BehaviorClass(IntEnum):
    """Long-time scale behavior types, numbered 1-6 plus undetermined.

    SETTLED: s approaches a finite positive limit.
    CONCENTRATING: s decreases without bound on the log scale.
    SPREADING: s increases without bound on the log scale.
    DIPPING: oscillation with excursions toward zero, bounded peaks.
    PEAKING: oscillation with growing peaks, bounded dips.
    SWINGING: oscillation growing on both sides.
    """

    UNDETERMINED = 0
    SETTLED = 1
    CONCENTRATING = 2
    SPREADING = 3
    DIPPING = 4
    PEAKING = 5
    SWINGING = 6


@dataclass(frozen=True)
class TailFamily:
    """Recipe for the far-field angle tail of great-circle initial data.

    The tail adds -P'(ln ln r) / ln r to the profile angle beyond the
    activation radius r1, smoothly switched on over cut_width log units,
    so that the first map component picks up +P'(ln ln r) / ln r and the
    predicted scale history sweeps out P along the iterated logarithm of
    time.  P is selected by `family`, and the sign of kappa sets the
    orientation of the tail:

      none               P = 0 (bare profile at scale s0)
      log_drift          P(u) = kappa * u
      ln_ln_oscillation  P(u) = kappa * sin(lam * u)
      mixed              P(u) = kappa * (u + sin(lam * u))
    """

    family: str = "none"
    kappa: float = 0.0
    lam: float = 1.0
    r1: float = math.e
    s0: float = 1.0
    cut_width: float = 1.0

    def __post_init__(self):
        failed = []
        if self.family not in _FAMILIES:
            failed.append(f"unknown tail family {self.family!r}; expected one of {_FAMILIES}")
        if not self.r1 > 1.0:
            failed.append("activation radius r1 must exceed 1")
        if self.lam <= 0.0:
            failed.append("tail frequency lam must be positive")
        if not self.s0 > 0.0:
            failed.append("initial scale s0 must be positive")
        if not self.cut_width > 0.0:
            failed.append("cut_width must be positive")
        if failed:
            raise ConfigError("\n".join(failed))  # every failed check, a line each

    def p_prime(self, u: np.ndarray) -> np.ndarray:
        """Derivative of the drift profile P at iterated-log radius u."""
        u = np.asarray(u, dtype=float)
        if self.family == "none":
            return np.zeros_like(u)
        if self.family == "log_drift":
            return np.full_like(u, self.kappa)
        if self.family == "ln_ln_oscillation":
            return self.kappa * self.lam * np.cos(self.lam * u)
        return self.kappa * (1.0 + self.lam * np.cos(self.lam * u))


@dataclass(frozen=True)
class Prediction:
    """Predicted scale history from the initial data alone.

    v1_form is (2/pi) times the integral of v1/r and q_form is (1/pi)
    times the integral of the planar gauge field, both taken from the
    initial scale s0 out to sqrt(a1 t) for each requested time.  The two
    differ by a contribution that converges as t grows.  t_max_usable
    records the largest time whose integration radius stays on the grid.
    """

    t: np.ndarray
    v1_form: np.ndarray
    q_form: np.ndarray
    s0: float
    a1: float
    t_max_usable: float


def _smooth_step(x: np.ndarray) -> np.ndarray:
    """Infinitely smooth ramp: 0 for x <= 0, 1 for x >= 1."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    lo = np.zeros_like(x)
    hi = np.zeros_like(x)
    inner = (x > 0.0) & (x < 1.0)
    lo[inner] = np.exp(-1.0 / x[inner])
    hi[inner] = np.exp(-1.0 / (1.0 - x[inner]))
    out = np.where(x >= 1.0, 1.0, 0.0)
    out[inner] = lo[inner] / (lo[inner] + hi[inner])
    return out


def tail_angle(fam: TailFamily, grid: RadialGrid) -> np.ndarray:
    """Angle perturbation of the tail recipe on the grid.

    Zero below the activation radius, and -P'(ln ln r)/ln r far out,
    joined by a smooth switch over fam.cut_width log units.
    """
    p = np.zeros(grid.n)
    rho1 = math.log(fam.r1)
    chi = _smooth_step((grid.rho - rho1) / fam.cut_width)
    live = chi > 0.0
    lnr = grid.rho[live]
    u = np.log(lnr)
    p[live] = -fam.p_prime(u) * chi[live] / lnr
    return p


def build_initial_data(fam: TailFamily, grid: RadialGrid, m: int = 2) -> tuple[SphereMap, float]:
    """Great-circle initial data with the prescribed far-field tail.

    Returns the map and its energy excess over the harmonic floor.
    """
    if fam.family != "none" and grid.r[-1] < _LNLN_HEADROOM * fam.r1:
        raise ConfigError(
            "grid too narrow to resolve the iterated-log tail: need "
            f"r_max >= {_LNLN_HEADROOM * fam.r1:.3g}, have {grid.r[-1]:.3g}"
        )
    beta = stationary_angle(math.log(fam.s0), grid, m) + tail_angle(fam, grid)
    v = beta_to_map(beta)
    excess = energy(v, grid, m) - 4.0 * math.pi * m
    return SphereMap(v=v, m=m, beta=beta), float(excess)


def predict_log_s(
    v0: SphereMap,
    a1: float,
    t_grid,
    grid: RadialGrid,
    s0: float | None = None,
) -> Prediction:
    """Scale-history prediction integrals for great-circle degree-2 data.

    Both integral forms are accumulated once over the grid and read off
    at radius sqrt(a1 t) for each time.  The lower limit is the fitted
    initial scale (or the explicit s0).  Times whose radius leaves the
    grid raise an error naming the largest usable time.
    """
    if v0.m != 2:
        raise ConfigError("the scale prediction applies to degree m = 2")
    if np.abs(v0.v[:, 1]).max() > 1e-9:
        raise ConfigError("the scale prediction needs great-circle data (v2 = 0)")
    if not a1 > 0.0:
        raise ConfigError("the dissipative coefficient a1 must be positive")
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t.size == 0 or np.any(t <= 0.0) or np.any(np.diff(t) <= 0.0):
        raise ConfigError("t_grid must be positive and strictly increasing")
    if s0 is None:
        # scale extraction only: tail data may sit far from the family,
        # so the perturbative validity bound is not enforced here
        s0 = fit_mu(v0, None, bump_phi(2, grid), grid, strict=False).mu.s
    t_max_usable = math.exp(2.0 * grid.rho_max) / a1
    if t[-1] > t_max_usable * (1.0 + 1e-12):
        raise NumericalError(
            f"integration radius sqrt(a1 t) leaves the grid; largest "
            f"usable t is {t_max_usable:.6g}"
        )
    v1 = v0.v[:, 0]
    beta = map_to_beta(v0.v)
    qfield = -deriv_r(beta, grid) + 2.0 * v1 / grid.r
    cum_v = cumint_dr((2.0 / math.pi) * v1 / grid.r, grid)
    cum_q = cumint_dr(qfield / math.pi, grid)
    rho_t = 0.5 * np.log(a1 * t)
    rho_0 = math.log(s0)
    v_at = interp_rho(cum_v, grid, rho_t) - interp_rho(cum_v, grid, np.array([rho_0]))
    q_at = interp_rho(cum_q, grid, rho_t) - interp_rho(cum_q, grid, np.array([rho_0]))
    return Prediction(
        t=t,
        v1_form=v_at,
        q_form=q_at,
        s0=float(s0),
        a1=float(a1),
        t_max_usable=t_max_usable,
    )


def _window_stats(lnt: np.ndarray, y: np.ndarray, k: int):
    """Mean, min, and max of y over k equal windows in ln t."""
    edges = np.linspace(lnt[0], lnt[-1], k + 1)
    idx = np.clip(np.searchsorted(edges, lnt, side="right") - 1, 0, k - 1)
    means = np.empty(k)
    mins = np.empty(k)
    maxs = np.empty(k)
    for j in range(k):
        sel = y[idx == j]
        if sel.size == 0:
            means[j] = means[j - 1] if j else y[0]
            mins[j] = maxs[j] = means[j]
        else:
            means[j] = sel.mean()
            mins[j] = sel.min()
            maxs[j] = sel.max()
    return means, mins, maxs


def _turning_points(means: np.ndarray) -> tuple[list, list, float]:
    """Turning values of the window means and the largest single swing.

    Envelope growth is judged on the sequences of local maxima and
    minima, which makes it insensitive to how the oscillation phase
    stretches in time.  The swing is the largest jump between
    chronologically consecutive turning values, so jitter on a monotone
    series stays small while genuine oscillation registers in full.  The
    series endpoints are included as candidates only when fewer than two
    interior turns of a kind exist, since an endpoint caught mid-swing
    says nothing about the envelope.
    """
    k = len(means)

    def turns(above) -> list:
        """Indices j where above(means[j], neighbor) holds for both neighbors."""
        ix = [
            j
            for j in range(1, k - 1)
            if above(means[j], means[j - 1]) and above(means[j], means[j + 1])
        ]
        if len(ix) < 2:
            if above(means[0], means[1]):
                ix.insert(0, 0)
            if above(means[-1], means[-2]):
                ix.append(k - 1)
        return ix

    peak_ix, trough_ix = turns(operator.ge), turns(operator.le)
    peaks = [float(means[j]) for j in peak_ix]
    troughs = [float(means[j]) for j in trough_ix]
    merged = [float(means[j]) for j in sorted(set(peak_ix + trough_ix))]
    swing = 0.0
    for a, b in zip(merged, merged[1:]):
        swing = max(swing, abs(b - a))
    return peaks, troughs, swing


def classify_behavior(t, log_s) -> BehaviorClass:
    """Sort a scale history into the behavior classes 1-6.

    Windowed trend analysis over logarithmic time: small total range is
    settled; a large mostly-monotone drift concentrates or spreads;
    otherwise large swings are classed by which envelope grows.  Series
    spanning fewer than three decades are undetermined.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(log_s, dtype=float)
    if t.ndim != 1 or t.shape != y.shape:
        raise ConfigError("time and log-scale series must be 1-d and congruent")
    if t.size < 8 or np.any(t <= 0.0) or np.any(np.diff(t) <= 0.0):
        raise ConfigError("time series must be positive, increasing, length >= 8")
    decades = math.log10(t[-1] / t[0])
    if decades < 3.0:
        return BehaviorClass.UNDETERMINED
    k = max(6, int(round(2.0 * decades)))
    k = min(k, t.size // 2)
    means, mins, maxs = _window_stats(np.log(t), y, k)
    total_range = float(y.max() - y.min())
    if total_range < 0.2:
        return BehaviorClass.SETTLED
    drift = float(means[-1] - means[0])
    inc = np.diff(means)
    nz = inc[np.abs(inc) > 1e-12]
    monotone_frac = 0.0
    if nz.size:
        monotone_frac = max(np.mean(nz > 0), np.mean(nz < 0))
    peaks, troughs, swing = _turning_points(means)
    up_growth = peaks[-1] - peaks[0] if len(peaks) >= 2 else 0.0
    down_growth = troughs[0] - troughs[-1] if len(troughs) >= 2 else 0.0
    if swing > 0.5 and len(peaks) + len(troughs) >= 3:
        if up_growth > 0.3 and down_growth > 0.3:
            return BehaviorClass.SWINGING
        if down_growth > 0.3:
            return BehaviorClass.DIPPING
        if up_growth > 0.3:
            return BehaviorClass.PEAKING
        start = means[0]
        if start - mins.min() >= maxs.max() - start:
            return BehaviorClass.DIPPING
        return BehaviorClass.PEAKING
    if abs(drift) > 1.0 and monotone_frac >= 0.7:
        return (
            BehaviorClass.CONCENTRATING if drift < 0 else BehaviorClass.SPREADING
        )
    return BehaviorClass.UNDETERMINED
