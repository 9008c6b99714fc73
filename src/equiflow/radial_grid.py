"""Logarithmic radial grid, quadrature and differentiation.

Nodes are uniform in rho = log r on [rho_min, rho_max]. Radial integrals
int f r dr are evaluated with product quadrature weights: on each cell
[r_i, r_{i+1}] the integrand f is replaced by the degree-5 interpolant
through the six nearest nodes and integrated against r dr exactly, so the
rule is exact for f = r^k, k = 0..5, and converges at high order for
smooth decaying profiles. Radial inner products carry the planar factor:
<f, g> = 2 pi int f conj(g) r dr. Integrals int f dr go through the
per-cell rule cell_dr and its running sum cumint_dr; the total is the
last entry of cumint_dr.

Derivatives use 6th-order centered stencils in rho scaled by 1/r, with
one-sided closures of matching order at the ends. The high order is not
a luxury: residuals of the form L h1 = 0 are checked at 1e-8 on grids
with drho ~ 1e-2, which a 4th-order stencil cannot reach for m >= 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import math
import warnings

import numpy as np

from .errors import ConfigError

_QUAD_DEGREE = 5
# widest spacing in rho the product weights resolve: they integrate r^k,
# k <= 5, to 6e-10 at 2.0, 9e-5 at 3.0, no digit at 4, singular past 10
_MAX_DRHO = 2.0
# largest |rho| of a grid: e^{2 rho} in the product weights overflows past
# 354.9, and e^{-2 rho} below -354.9; predict on m = 2 data ran clean up to
# rho_max = 350 and fitted a NaN scale from 352, so the limit leaves room for
# the products of the weights with the integrands
_MAX_ABS_RHO = 300.0


def _weights(offsets: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """Weights w on integer node offsets o with sum_i w_i o_i^j = moments[j]
    for j < len(offsets): j! at one j gives the j-th derivative at 0, and
    1/(j + 1) the integral over the unit cell [0, 1]."""
    return np.linalg.solve(np.vander(offsets, len(offsets), increasing=True).T, moments)


# quintic per-cell cumulative weights; index = position of the cell inside
# its 6-node window (2 = centered interior, 0/1 left edge, 3/4 right edge)
_CUM_CELL = [_weights(np.arange(-pos, 6 - pos), 1.0 / np.arange(1, 7)) for pos in range(5)]


def _product_weights(r: np.ndarray) -> np.ndarray:
    """Per-node weights so that w @ f ~= int f r dr over [r0, r_end]."""
    n = r.size
    k = _QUAD_DEGREE + 1
    i = np.arange(n - 1)
    j0 = np.clip(i - _QUAD_DEGREE // 2, 0, n - k)
    idx = j0[:, None] + np.arange(k)[None, :]
    rs = r[idx]
    c = 0.5 * (r[:-1] + r[1:])
    h = rs[:, -1] - rs[:, 0]
    x = (rs - c[:, None]) / h[:, None]
    xa = (r[:-1] - c) / h
    xb = (r[1:] - c) / h
    jj = np.arange(k)[None, :]
    # moments int x^j r dr over the cell, with r = c + h x
    mom = h[:, None] * (
        c[:, None] * (xb[:, None] ** (jj + 1) - xa[:, None] ** (jj + 1)) / (jj + 1)
        + h[:, None] * (xb[:, None] ** (jj + 2) - xa[:, None] ** (jj + 2)) / (jj + 2)
    )
    vand = x[:, None, :] ** np.arange(k)[None, :, None]
    wk = np.linalg.solve(vand, mom[..., None])[..., 0]
    w = np.zeros(n)
    np.add.at(w, idx, wk)
    return w


@dataclass(frozen=True)
class RadialGrid:
    """Uniform-in-log radial mesh with its quadrature weights attached.

    w_rdr, the one weight vector, integrates against r dr; integrals
    against dr go through cell_dr and cumint_dr. decay is e^{-2 rho}, the
    Laplacian's factor in log coordinates, made once per grid. Fields live
    on the nodes as plain numpy arrays of length n (last axis free for
    vector components).
    """

    rho_min: float
    rho_max: float
    n: int
    rho: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    drho: float
    w_rdr: np.ndarray = field(repr=False)
    decay: np.ndarray = field(repr=False)

    def check_field(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f)
        if f.shape[0] != self.n:
            raise ValueError(f"field length {f.shape[0]} does not match grid n={self.n}")
        return f


def build_grid(rho_min: float, rho_max: float, n: int) -> RadialGrid:
    """The grid on [rho_min, rho_max] with n nodes, after check_grid.

    Grids are shared: equal arguments return the same object, whose
    arrays are read-only.
    """
    check_grid(rho_min, rho_max, n)
    return _shared_grid(rho_min, rho_max, n)


def check_grid(rho_min: float, rho_max: float, n: int) -> None:
    """ConfigError unless [rho_min, rho_max] with n nodes is a grid the
    quadrature and the exponentials of rho can be evaluated on."""
    span = rho_max - rho_min
    if not 0.0 < span < math.inf:  # also for NaN, infinite or overflowing bounds
        raise ConfigError(f"invalid grid bounds [{rho_min}, {rho_max}]")
    if n < 16:
        raise ConfigError(f"grid needs at least 16 nodes, got {n}")
    if span / (n - 1) > _MAX_DRHO:
        raise ConfigError(
            f"grid spacing drho = {span / (n - 1):.3g} on [{rho_min}, {rho_max}] exceeds "
            f"{_MAX_DRHO}, the widest the quadrature weights resolve; use at least "
            f"n = {math.ceil(span / _MAX_DRHO) + 1} nodes"
        )
    if max(-rho_min, rho_max) > _MAX_ABS_RHO:
        raise ConfigError(
            f"grid bounds [{rho_min}, {rho_max}] reach past |rho| = {_MAX_ABS_RHO:g}, "
            "where the grid's e^{2 rho} and e^{-2 rho} overflow"
        )


@functools.lru_cache(maxsize=32)
def _shared_grid(rho_min: float, rho_max: float, n: int) -> RadialGrid:
    rho = np.linspace(rho_min, rho_max, n)
    r = np.exp(rho)
    arrays = {"rho": rho, "r": r, "w_rdr": _product_weights(r), "decay": np.exp(-2.0 * rho)}
    for arr in arrays.values():
        arr.flags.writeable = False
    return RadialGrid(
        rho_min=float(rho_min),
        rho_max=float(rho_max),
        n=int(n),
        drho=float(rho[1] - rho[0]),
        **arrays,
    )


# 7-point interior stencils (order 6) and matching one-sided closures
_D1_CENTER = _weights(np.arange(-3, 4), np.eye(7)[1])
_D2_CENTER = _weights(np.arange(-3, 4), 2.0 * np.eye(7)[2])
_D1_EDGE = [_weights(np.arange(0, 7) - i, np.eye(7)[1]) for i in range(3)]
_D2_EDGE = [_weights(np.arange(0, 8) - i, 2.0 * np.eye(8)[2]) for i in range(3)]


def _along_nodes(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """x, one value per entry of the first axis of f (the nodes), shaped
    to broadcast against f."""
    return x[(slice(None),) + (None,) * (f.ndim - 1)]


def _per_node(x: np.ndarray) -> np.ndarray:
    """x summed over every axis after the first (the vector components)."""
    return x.sum(axis=tuple(range(1, x.ndim))) if x.ndim > 1 else x


def _apply_stencil(f: np.ndarray, center, left=(), right=None, parity: float = 1.0) -> np.ndarray:
    """A stencil with one-sided closures, applied along the first axis.

    The interior rows are sum_k center[k] f[j + k], one for each full
    window of f; they are preceded by one row per weight vector in left,
    applied to the first nodes. The rows after them apply the weights in
    right to the last nodes, or, with right None, mirror the left ones:
    row -1-i applies left[i] to the nodes counted from the end, times
    parity (-1 for an odd derivative).

    A real 1-D field with no closure rows takes a direct path: the
    interior rows are the one np.correlate of its contiguous copy (the
    field itself when it is contiguous already), returned as it is. It
    equals the per-column path bit for bit and skips that path's
    real-column views, its output array and the copy of the correlation
    into it. Every other field, (n, k) and complex ones included, takes
    the per-column path. Fewer than 8 nodes raise ConfigError on either
    path.
    """
    if f.shape[0] < 8:
        raise ConfigError(f"stencils need at least 8 nodes, got {f.shape[0]}")
    # BLAS rounds a product over a strided or reversed view differently
    # from one over contiguous memory, so every product below reads a
    # contiguous copy
    f = np.ascontiguousarray(f, dtype=np.result_type(f.dtype, np.float64))
    if f.ndim == 1 and f.dtype.kind != "c" and not left and not right:
        return np.correlate(f, center, "valid")
    interior = f.shape[0] - len(center) + 1
    tail = len(left) if right is None else len(right)
    out = np.empty((len(left) + interior + tail,) + f.shape[1:], dtype=f.dtype)
    body = out[len(left) : len(left) + interior]
    # one compiled correlation per real column (re and im for a complex
    # field), summing the products center[k] f[j + k] in the order of k;
    # it sums from +0.0, so the sign of an exactly zero sum is not that of
    # its products
    f_cols, body_cols = _real_columns(f), _real_columns(body)
    for c in range(f_cols.shape[1]):
        body_cols[:, c] = np.correlate(f_cols[:, c], center, "valid")
    if right is None and left:
        rev = np.ascontiguousarray(f[: -max(map(len, left)) - 1 : -1])
    # one BLAS dot per closure row, w.dot(x): w @ x to the bit at half the
    # call cost, where one matrix product of all rows rounds otherwise
    for i, w in enumerate(left):
        out[i] = w.dot(f[: len(w)])
        if right is None:
            row = w.dot(rev[: len(w)])
            out[-1 - i] = row if parity == 1.0 else parity * row
    for i, w in enumerate(right or ()):
        out[out.shape[0] - tail + i] = w.dot(f[-len(w) :])
    return out


def _real_columns(a: np.ndarray) -> np.ndarray:
    """A C-contiguous array as a (nodes, real components) float view."""
    n = a.shape[0]
    if np.iscomplexobj(a):
        a = a.view(np.float64)
    return a.reshape(n, -1)


def d_rho(f: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """d f / d rho, 6th order, one-sided at the three boundary nodes."""
    f = grid.check_field(f)
    return _apply_stencil(f, _D1_CENTER, _D1_EDGE, parity=-1.0) / grid.drho


def deriv_r(f: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """df/dr on the nodes (= rho-derivative / r)."""
    out = d_rho(f, grid)
    return out / _along_nodes(grid.r, out)


def d2_rho(f: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """d^2 f / d rho^2, 6th order centered, one-sided closures."""
    f = grid.check_field(f)
    return _apply_stencil(f, _D2_CENTER, _D2_EDGE) / grid.drho**2


def quad_rdr(f: np.ndarray, grid: RadialGrid) -> complex | float:
    """int f r dr over the mesh."""
    f = grid.check_field(f)
    return grid.w_rdr @ f


def inner_product(f: np.ndarray, g: np.ndarray, grid: RadialGrid):
    """Planar inner product <f, g> = 2 pi int f conj(g) r dr.

    Complex in general; the second slot is conjugated. Vector fields
    (n, 3) pair componentwise and sum.
    """
    f = grid.check_field(f)
    g = grid.check_field(g)
    prod = _per_node(f * np.conj(g))
    return 2 * np.pi * (grid.w_rdr @ prod)


def cell_dr(f: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Per-cell integrals c_i = int_{r_i}^{r_{i+1}} f dr, 6th order.

    Returns an (n-1, ...) array; cell i spans [rho_i, rho_{i+1}] and is
    integrated with the quintic interpolant through the six nearest nodes
    (window shifted near the ends).  Exposed separately from the cumulative
    so that callers can reweight cells before summing, which keeps
    exponentially weighted integrals well conditioned.
    """
    f = grid.check_field(f)
    c = f * _along_nodes(grid.r, f)
    return _apply_stencil(c, _CUM_CELL[2], _CUM_CELL[:2], _CUM_CELL[3:]) * grid.drho


def cumint_dr(f: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Cumulative integral C_i = int_{r_0}^{r_i} f dr, 6th order.

    Works on (n,) or (n, k) arrays; the integrand is f(rho) e^rho in log
    coordinates, accumulated cell by cell with the quintic interpolant
    through the six nearest nodes.
    """
    cell = cell_dr(f, grid)
    out = np.zeros_like(cell, shape=(cell.shape[0] + 1,) + cell.shape[1:])
    np.cumsum(cell, axis=0, out=out[1:])
    return out


def _l2x(mag2: np.ndarray, grid: RadialGrid) -> float:
    """sqrt(2 pi int mag2 r dr), the L2x norm from the squared modulus
    per node; a NaN passes through, a rounding-negative sum reads 0."""
    total = 2 * np.pi * float(grid.w_rdr @ mag2)
    return 0.0 if total <= 0.0 else math.sqrt(total)


def norm(f: np.ndarray, grid: RadialGrid, kind: str = "L2x"):
    """Norms of a radial field.

    kind = "L2x": sqrt(2 pi int |f|^2 r dr).
    kind = "X":   ||f/r||_L2x + ||df/dr||_L2x  (scale-invariant norm).
    """
    f = grid.check_field(f)
    if kind == "L2x":
        return _l2x(_per_node(np.abs(f) ** 2), grid)
    if kind == "X":
        fr = deriv_r(f, grid)
        over_r = f / _along_nodes(grid.r, f)
        # the X norm presumes decay at the mesh ends; flag when the ends
        # carry a visible share of the integral
        m1 = _per_node(np.abs(over_r) ** 2)
        m2 = _per_node(np.abs(fr) ** 2)
        both = m1 + m2
        tot = float(grid.w_rdr @ both)
        edge = float(grid.w_rdr[:2] @ both[:2] + grid.w_rdr[-2:] @ both[-2:])
        if tot > 0 and edge > 0.01 * tot:
            warnings.warn(
                "X norm: endpoint nodes carry more than 1% of the integral; "
                "the field is not resolved by this mesh",
                RuntimeWarning,
                stacklevel=2,
            )
        return _l2x(m1, grid) + _l2x(m2, grid)
    raise ValueError(f"unknown norm kind {kind!r}")


def interp_rho(f: np.ndarray, grid: RadialGrid, rho_new: np.ndarray) -> np.ndarray:
    """Cubic Lagrange interpolation of a nodal field at arbitrary rho.

    Queries outside the mesh clamp to the boundary values.
    """
    f = grid.check_field(f)
    rho_new = np.atleast_1d(np.asarray(rho_new, dtype=float))
    t = (rho_new - grid.rho_min) / grid.drho
    i = np.clip(np.floor(t).astype(int), 0, grid.n - 2)
    j0 = np.clip(i - 1, 0, grid.n - 4)
    x = t - j0
    out = np.zeros((rho_new.size,) + f.shape[1:], dtype=f.dtype)
    dx = [x - mth for mth in range(4)]
    for k in range(4):
        first, *rest = [mth for mth in range(4) if mth != k]
        lk = dx[first] / (k - first)
        for mth in rest:
            lk = lk * dx[mth] / (k - mth)
        out += _along_nodes(lk, f) * f[j0 + k]
    lo = rho_new <= grid.rho_min
    hi = rho_new >= grid.rho_max
    out[lo] = f[0]
    out[hi] = f[-1]
    return out
