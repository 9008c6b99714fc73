"""Tests for the logarithmic radial mesh: quadrature, derivatives, norms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad as scipy_quad

from equiflow import radial_grid
from equiflow.errors import ConfigError
from equiflow.radial_grid import (
    _CUM_CELL,
    _D1_CENTER,
    _D1_EDGE,
    _D2_CENTER,
    _D2_EDGE,
    _QUAD_DEGREE,
    _apply_stencil,
    _real_columns,
    build_grid,
    cell_dr,
    cumint_dr,
    d2_rho,
    d_rho,
    deriv_r,
    inner_product,
    interp_rho,
    norm,
    quad_rdr,
)


@pytest.fixture(scope="module")
def grid():
    return build_grid(-8.0, 16.0, 2048)


def exp_poly_antideriv(j, a, rho):
    """Antiderivative of rho^j e^(a rho), by repeated integration by parts."""
    total = 0.0
    coef = 1.0
    for i in range(j + 1):
        total += (-1) ** i * coef * rho ** (j - i) / a ** (i + 1)
        coef *= j - i
    return math.exp(a * rho) * total


def test_build_grid_validation():
    """Bad bounds or too few nodes are configuration errors."""
    with pytest.raises(ConfigError):
        build_grid(2.0, 2.0, 64)
    with pytest.raises(ConfigError):
        build_grid(0.0, -1.0, 64)
    with pytest.raises(ConfigError):
        build_grid(-1.0, 1.0, 8)


@pytest.mark.parametrize("lo,hi,n", [(-400.0, 400.0, 64), (-15.1, 15.0, 16), (-1e308, 1e308, 64)])
def test_build_grid_rejects_spacing_the_weights_cannot_resolve(lo, hi, n):
    """A spacing past 2.0 in rho, where the product weights' Vandermonde
    solve loses exactness on r^k (singular at 12.7), and a span that
    overflows, are configuration errors; 2.0 itself is built."""
    with pytest.raises(ConfigError):
        build_grid(lo, hi, n)
    grid = build_grid(-15.0, 15.0, 16)
    assert grid.drho == 2.0
    for k in range(_QUAD_DEGREE + 1):
        exact = (grid.r[-1] ** (k + 2) - grid.r[0] ** (k + 2)) / (k + 2)
        assert abs(quad_rdr(grid.r**k, grid) - exact) <= 1e-8 * exact


@pytest.mark.parametrize("lo,hi", [(-300.5, -200.0), (200.0, 300.5), (-400.0, 400.0)])
def test_build_grid_rejects_bounds_whose_exponentials_overflow(lo, hi, recwarn):
    """Bounds past |rho| = 300 are configuration errors at any spacing, raised
    before any array is made; before, rho_max = 352 gave NaN integrals and
    |rho| = 355 overflow warnings. |rho| = 300 itself is built, with
    finite weights and decay."""
    with pytest.raises(ConfigError, match=r"reach past \|rho\| = 300"):
        build_grid(lo, hi, 2001)
    grid = build_grid(-300.0, 300.0, 601)
    assert np.all(np.isfinite(grid.w_rdr)) and np.all(np.isfinite(grid.decay))
    assert len(recwarn) == 0


def test_grid_nodes_are_log_uniform(grid):
    """Nodes are uniform in log r and r = e^rho."""
    assert grid.rho[0] == pytest.approx(-8.0)
    assert grid.rho[-1] == pytest.approx(16.0)
    assert np.allclose(np.diff(grid.rho), grid.drho, rtol=0, atol=1e-14)
    assert np.allclose(grid.r, np.exp(grid.rho), rtol=1e-15, atol=0)


def test_check_field_rejects_wrong_length(grid):
    with pytest.raises(ValueError):
        grid.check_field(np.zeros(grid.n - 1))


@pytest.mark.parametrize("j", range(6))
def test_quad_rdr_exact_for_log_polynomials(grid, j):
    """The product rule integrates (ln r)^j against r dr exactly."""
    approx = quad_rdr(grid.rho**j, grid)
    exact = exp_poly_antideriv(j, 2.0, grid.rho_max) - exp_poly_antideriv(j, 2.0, grid.rho_min)
    assert approx == pytest.approx(exact, rel=5e-12)


def test_quad_rdr_soliton_profile(grid):
    """int sech(2 ln r)^2 r dr = pi/2, cross-checked against adaptive quadrature."""
    closed_form = math.pi / 2
    oracle, _ = scipy_quad(lambda t: np.exp(2 * t) / np.cosh(2 * t) ** 2, -8.0, 16.0)
    assert oracle == pytest.approx(closed_form, rel=1e-10)
    approx = quad_rdr(1.0 / np.cosh(2.0 * grid.rho) ** 2, grid)
    assert approx == pytest.approx(closed_form, rel=1e-10)


def test_quad_convergence_is_high_order():
    """Refining the mesh by 2 shrinks the quadrature error like h^6."""
    errs = []
    for n in (512, 1024):
        g = build_grid(-8.0, 16.0, n)
        val = quad_rdr(1.0 / np.cosh(2.0 * g.rho) ** 2, g)
        errs.append(abs(val - math.pi / 2))
    order = math.log2(errs[0] / errs[1])
    assert order > 5.0


def test_derivatives_exact_for_degree_six(grid):
    """7-point stencils reproduce derivatives of degree-6 polynomials."""
    rng = np.random.default_rng(42)
    c = rng.uniform(-1, 1, 7)
    p = np.polynomial.Polynomial(c)
    f = p(grid.rho)
    scale = np.max(np.abs(p.deriv(1)(grid.rho)))
    assert np.max(np.abs(d_rho(f, grid) - p.deriv(1)(grid.rho))) < 1e-8 * scale
    scale2 = np.max(np.abs(p.deriv(2)(grid.rho)))
    assert np.max(np.abs(d2_rho(f, grid) - p.deriv(2)(grid.rho))) < 1e-7 * max(scale2, 1.0)


def test_derivatives_on_smooth_profile(grid):
    """d_rho and d2_rho hit analytic derivatives of tanh to stencil accuracy."""
    f = np.tanh(2.0 * grid.rho)
    exact1 = 2.0 / np.cosh(2.0 * grid.rho) ** 2
    exact2 = -8.0 * np.tanh(2.0 * grid.rho) / np.cosh(2.0 * grid.rho) ** 2
    assert np.max(np.abs(d_rho(f, grid) - exact1)) < 1e-7
    assert np.max(np.abs(d2_rho(f, grid) - exact2)) < 1e-6


def test_deriv_r_chain_rule(grid):
    """d/dr of r^3 is 3 r^2; the log-coordinate chain rule supplies the 1/r."""
    got = deriv_r(grid.r**3, grid)
    assert np.max(np.abs(got - 3 * grid.r**2) / (3 * grid.r**2)) < 1e-9


def test_derivatives_accept_vector_fields(grid):
    """(n, 3) fields differentiate columnwise."""
    v = np.stack([grid.rho, grid.rho**2, np.sin(grid.rho)], axis=1)
    dv = d_rho(v, grid)
    assert dv.shape == v.shape
    assert np.max(np.abs(dv[:, 0] - 1.0)) < 1e-9
    assert np.max(np.abs(dv[:, 1] - 2 * grid.rho)) < 1e-8


def _reference_stencil(f, center, left=(), right=None, parity=1.0):
    """_apply_stencil as a loop over the stencil taps, with tensordot for
    the closure rows: the reference the compiled kernel must match."""
    interior = f.shape[0] - len(center) + 1
    tail = len(left) if right is None else len(right)
    out = np.empty(
        (len(left) + interior + tail,) + f.shape[1:], dtype=np.result_type(f.dtype, np.float64)
    )
    acc = center[0] * f[:interior]
    for k in range(1, len(center)):
        acc = acc + center[k] * f[k : k + interior]
    out[len(left) : len(left) + interior] = acc
    for i, w in enumerate(left):
        out[i] = np.tensordot(w, f[: len(w)], axes=(0, 0))
        if right is None:
            out[out.shape[0] - 1 - i] = parity * np.tensordot(w, f[-len(w) :][::-1], axes=(0, 0))
    for i, w in enumerate(right or ()):
        out[out.shape[0] - tail + i] = np.tensordot(w, f[-len(w) :], axes=(0, 0))
    return out


# the stencils of d_rho, d2_rho, cell_dr and scheme_energy
STENCILS = [
    (_D1_CENTER, _D1_EDGE, None, -1.0),
    (_D2_CENTER, _D2_EDGE, None, 1.0),
    (_CUM_CELL[2], _CUM_CELL[:2], _CUM_CELL[3:], 1.0),
    (_D2_CENTER / 0.01**2, (), None, 1.0),
]


@st.composite
def stencil_fields(draw):
    """A field of n nodes, real, (n, 3) or complex, with magnitudes from
    1e-8 to 1e8 and a drawn share of +-0.0 entries per real component,
    stored C-ordered, F-ordered, as a view on every other row, reversed,
    or, real only, as a column of an (n, 3) array."""
    n = draw(st.integers(8, 400))
    kind = draw(st.sampled_from(["real", "vector", "complex"]))
    ncols = {"real": 1, "vector": 3, "complex": 2}[kind]
    zeros = draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]), min_size=ncols, max_size=ncols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sign = rng.choice([-1.0, 1.0], (n, ncols))
    vals = sign * 10.0 ** rng.uniform(-8.0, 8.0, (n, ncols))
    vals[rng.random((n, ncols)) < np.array(zeros)] = 0.0
    vals = np.copysign(vals, sign)
    if kind == "real":
        f = vals[:, 0]
    elif kind == "vector":
        f = vals
    else:
        f = np.empty(n, dtype=complex)
        f.real, f.imag = vals[:, 0], vals[:, 1]
    layouts = ["C", "F", "strided", "reversed"] + ["column"] * (kind == "real")
    layout = draw(st.sampled_from(layouts))
    if layout == "F":
        return np.asfortranarray(f)
    if layout == "strided":
        big = np.zeros((2 * n,) + f.shape[1:], dtype=f.dtype)
        big[::2] = f
        return big[::2]
    if layout == "reversed":
        return np.ascontiguousarray(f[::-1])[::-1]
    if layout == "column":
        big = rng.standard_normal((n, 3))
        big[:, 1] = f
        return big[:, 1]
    return f


@settings(derandomize=True, deadline=None, max_examples=200)
@given(stencil_fields(), st.sampled_from(range(len(STENCILS))))
def test_apply_stencil_matches_reference_bytes(f, which):
    """The compiled kernel equals the loop bit for bit, apart from the
    sign of an exact zero, which adding +0.0 makes positive on both. The
    reference reads a contiguous copy: on a strided view the loop's
    tensordot sums the closure rows in BLAS's strided order, while the
    kernel's result depends on the values only, whatever the layout."""
    got = _apply_stencil(f, *STENCILS[which])
    ref = _reference_stencil(np.ascontiguousarray(f), *STENCILS[which])
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert (got + 0.0).tobytes() == (ref + 0.0).tobytes()


def _per_weight_stencil(f, center, left=(), right=None, parity=1.0):
    """_apply_stencil as it was before its reversed tail block was shared
    by the closure rows: a contiguous reversed copy of the last nodes per
    closure weight, and every mirrored row multiplied by parity."""
    f = np.ascontiguousarray(f, dtype=np.result_type(f.dtype, np.float64))
    interior = f.shape[0] - len(center) + 1
    tail = len(left) if right is None else len(right)
    out = np.empty((len(left) + interior + tail,) + f.shape[1:], dtype=f.dtype)
    body = out[len(left) : len(left) + interior]
    f_cols, body_cols = _real_columns(f), _real_columns(body)
    for c in range(f_cols.shape[1]):
        body_cols[:, c] = np.correlate(f_cols[:, c], center, "valid")
    for i, w in enumerate(left):
        out[i] = w @ f[: len(w)]
        if right is None:
            rev = np.ascontiguousarray(f[: -len(w) - 1 : -1])
            out[out.shape[0] - 1 - i] = parity * (w @ rev)
    for i, w in enumerate(right or ()):
        out[out.shape[0] - tail + i] = w @ f[-len(w) :]
    return out


@settings(derandomize=True, deadline=None, max_examples=150)
@given(stencil_fields().filter(lambda f: f.shape[0] >= 16), st.sampled_from(["d1", "d2", "cell"]))
def test_derivatives_and_cells_match_per_weight_stencil_bytes(f, which):
    """d_rho, d2_rho and cell_dr equal their formulas over the per-weight
    stencil byte for byte, signed zeros included, on real, (n, 3) and
    complex fields."""
    grid = build_grid(-2.0, 3.0, f.shape[0])
    if which == "d1":
        got, ref = d_rho(f, grid), _per_weight_stencil(f, _D1_CENTER, _D1_EDGE, parity=-1.0)
        ref = ref / grid.drho
    elif which == "d2":
        got, ref = d2_rho(f, grid), _per_weight_stencil(f, _D2_CENTER, _D2_EDGE) / grid.drho**2
    else:
        c = f * grid.r.reshape((-1,) + (1,) * (f.ndim - 1))
        got = cell_dr(f, grid)
        ref = _per_weight_stencil(c, _CUM_CELL[2], _CUM_CELL[:2], _CUM_CELL[3:]) * grid.drho
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    stencil_fields().filter(lambda f: f.dtype.kind != "c"),
    st.sampled_from([_D2_CENTER, _D1_CENTER, _D2_CENTER / 0.01**2]),
)
def test_apply_stencil_direct_path_matches_per_column_bytes(f, center):
    """A real 1-D field with no closure rows takes the direct path, one
    np.correlate on the field; it equals the per-column path, which an
    (n, 1) or (n, 3) field takes, byte for byte, signed zeros included,
    whatever the layout of the field: contiguous, F-ordered, every other
    row, reversed or a column of an (n, 3) array."""
    if f.ndim == 1:
        got, ref = _apply_stencil(f, center), _apply_stencil(f[:, None], center)[:, 0]
    else:
        ref = _apply_stencil(f, center)
        got = np.stack([_apply_stencil(f[:, c], center) for c in range(3)], axis=1)
    assert got.dtype == ref.dtype == np.float64
    assert got.shape == ref.shape == (f.shape[0] - 6,) + f.shape[1:]
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "field, closures, direct",
    [
        ("real", False, True),
        ("strided", False, True),
        ("real", True, False),
        ("n_by_1", False, False),
        ("complex", False, False),
    ],
)
def test_apply_stencil_takes_the_direct_path_for_real_1d_fields_only(
    field, closures, direct, monkeypatch
):
    """The direct path reads no real-column view: a 1-D real field with no
    closure rows, contiguous or strided, takes it; one with closure rows,
    an (n, 1) field and a complex one take the per-column path."""
    views = []

    def counted(a):
        views.append(a.shape)
        return _real_columns(a)

    monkeypatch.setattr(radial_grid, "_real_columns", counted)
    x = np.linspace(-1.0, 1.0, 32)
    f = {
        "real": x,
        "strided": np.repeat(x, 2)[::2],
        "n_by_1": x[:, None],
        "complex": x + 1j * x[::-1],
    }[field]
    args = (_D2_CENTER, _D2_EDGE) if closures else (_D2_CENTER,)
    out = _apply_stencil(f, *args)
    assert bool(views) is not direct
    assert out.shape[0] == (32 if closures else 26)


@pytest.mark.parametrize("shape", [(7,), (1,), (7, 3)])
def test_apply_stencil_rejects_fewer_than_8_nodes(shape):
    """Fewer than 8 nodes raise ConfigError on either path."""
    with pytest.raises(ConfigError, match="at least 8 nodes"):
        _apply_stencil(np.ones(shape), _D2_CENTER)


def test_cumint_dr_polynomial(grid):
    """Cumulative integral of r^2 dr matches r^3/3 - r0^3/3 at every node."""
    got = cumint_dr(grid.r**2, grid)
    exact = (grid.r**3 - grid.r[0] ** 3) / 3.0
    rel = np.abs(got[1:] - exact[1:]) / exact[1:]
    assert rel.max() < 1e-9


def test_cumint_dr_against_adaptive_quadrature(grid):
    """Spot-check a non-elementary cumulative against scipy.integrate.quad."""
    f = 1.0 / np.cosh(2.0 * (grid.rho - 0.3))
    got = cumint_dr(f / grid.r, grid)
    for idx in (517, 1200, 2047):
        oracle, _ = scipy_quad(
            lambda t: 1.0 / np.cosh(2.0 * (t - 0.3)), grid.rho[0], grid.rho[idx], limit=400
        )
        assert abs(got[idx] - oracle) < 1e-12


def test_cumint_endpoint_matches_quad(grid):
    """The last cumulative value agrees with the global quadrature.

    The two rules weight the Jacobian differently, so they agree only to
    their common discretization accuracy, not to roundoff.
    """
    f = np.exp(-0.5 * (grid.rho - 1.0) ** 2)
    assert cumint_dr(f * grid.r, grid)[-1] == pytest.approx(quad_rdr(f, grid), rel=1e-10)


def test_deriv_of_cumint_recovers_integrand(grid):
    """d/dr of the cumulative integral returns the integrand."""
    f = np.exp(-0.5 * (grid.rho - 1.0) ** 2) * (1 + 0.2 * np.sin(grid.rho))
    got = deriv_r(cumint_dr(f, grid), grid)
    assert np.max(np.abs(got - f)) < 1e-8


def test_inner_product_is_sesquilinear(grid):
    """The pairing conjugates its second slot and carries the 2 pi factor."""
    rng = np.random.default_rng(3)
    f = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    g = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    assert inner_product(f, g, grid) == pytest.approx(np.conj(inner_product(g, f, grid)))
    assert inner_product(2j * f, g, grid) == pytest.approx(2j * inner_product(f, g, grid))
    one = np.ones(grid.n)
    area = math.pi * (grid.r[-1] ** 2 - grid.r[0] ** 2)
    assert inner_product(one, one, grid) == pytest.approx(area, rel=1e-12)


def test_inner_product_soliton_mass(grid):
    """<h1, h1> = pi^2 for the m = 2 soliton profile."""
    h1 = 1.0 / np.cosh(2.0 * grid.rho)
    assert inner_product(h1, h1, grid) == pytest.approx(math.pi**2, rel=1e-10)


def test_norm_l2_matches_inner_product(grid):
    rng = np.random.default_rng(11)
    f = rng.normal(size=(grid.n, 3))
    assert norm(f, grid, "L2x") == pytest.approx(
        math.sqrt(inner_product(f, f, grid).real), rel=1e-12
    )


def test_norm_x_on_soliton(grid):
    """Scale-invariant norm of sech(m rho): closed form from two dr integrals."""
    for m in (2, 3):
        f = 1.0 / np.cosh(m * grid.rho)
        expected = math.sqrt(2 * math.pi * 2 / m) + math.sqrt(2 * math.pi * 2 * m / 3)
        assert norm(f, grid, "X") == pytest.approx(expected, rel=1e-8)
        # the X norm is the sum of the two L2x norms, bit for bit
        parts = norm(f / grid.r, grid, "L2x") + norm(deriv_r(f, grid), grid, "L2x")
        assert norm(f, grid, "X") == parts


def test_norm_x_warns_when_unresolved(grid):
    """A field with mass on the outer boundary triggers the resolution warning."""
    with pytest.warns(RuntimeWarning):
        norm(grid.r, grid, "X")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm(1.0 / np.cosh(2.0 * grid.rho), grid, "X")


@pytest.mark.parametrize("kind", ["L2x", "X"])
def test_norm_of_nan_field_is_nan(grid, kind):
    """A NaN in the field makes the norm NaN, not 0.0; a field whose
    quadrature sum is zero still reads 0.0."""
    f = 1.0 / np.cosh(2.0 * grid.rho)
    f[700] = np.nan
    assert math.isnan(norm(f, grid, kind))
    assert norm(np.zeros(grid.n), grid, kind) == 0.0


def test_norm_rejects_bad_exponents(grid):
    """A norm kind other than L2x and X, the dyadic Lpq included, is rejected."""
    z = np.ones(grid.n)
    for kind in ("nope", "Lpq"):
        with pytest.raises(ValueError, match="unknown norm kind"):
            norm(z, grid, kind)


def test_pointwise_bound_by_x_norm():
    """max |z|^2 <= (1/pi) ||z/r|| ||dz/dr|| on random smooth decaying fields."""
    g = build_grid(-8.0, 16.0, 1024)
    rng = np.random.default_rng(2024)
    for _ in range(100):
        z = np.zeros(g.n)
        for _ in range(4):
            center = rng.uniform(-4.0, 12.0)
            width = rng.uniform(0.5, 2.0)
            z += rng.uniform(-1, 1) * np.exp(-0.5 * ((g.rho - center) / width) ** 2)
        lhs = np.max(np.abs(z)) ** 2
        rhs = norm(z / g.r, g, "L2x") * norm(deriv_r(z, g), g, "L2x") / math.pi
        assert lhs <= rhs * (1 + 1e-8)


def test_interp_rho_reproduces_cubics(grid):
    """Cubic interpolation is exact on cubic polynomials."""
    rho_new = np.linspace(-7.3, 15.2, 501)
    f = grid.rho**3 - 2 * grid.rho + 1
    got = interp_rho(f, grid, rho_new)
    exact = rho_new**3 - 2 * rho_new + 1
    assert np.max(np.abs(got - exact)) < 1e-9 * np.max(np.abs(exact))


def test_interp_rho_smooth_accuracy_and_clamping(grid):
    f = np.tanh(2 * grid.rho)
    rho_new = np.array([-9.0, -3.3, 0.17, 5.5, 17.0])
    got = interp_rho(f, grid, rho_new)
    assert got[0] == f[0]
    assert got[-1] == f[-1]
    assert np.max(np.abs(got[1:4] - np.tanh(2 * rho_new[1:4]))) < 1e-7


def _reference_interp_rho(f, grid, rho_new):
    """interp_rho with each Lagrange weight started from np.ones_like and
    x - j formed afresh in every factor."""
    rho_new = np.atleast_1d(np.asarray(rho_new, dtype=float))
    t = (rho_new - grid.rho_min) / grid.drho
    i = np.clip(np.floor(t).astype(int), 0, grid.n - 2)
    j0 = np.clip(i - 1, 0, grid.n - 4)
    x = t - j0
    out = np.zeros((rho_new.size,) + f.shape[1:], dtype=f.dtype)
    for k in range(4):
        lk = np.ones_like(x)
        for mth in range(4):
            if mth != k:
                lk = lk * (x - mth) / (k - mth)
        out += lk.reshape((-1,) + (1,) * (f.ndim - 1)) * f[j0 + k]
    out[rho_new <= grid.rho_min] = f[0]
    out[rho_new >= grid.rho_max] = f[-1]
    return out


def test_interp_rho_matches_product_form_bytes(grid):
    """interp_rho has the bytes of the product form on (n,) real and
    complex fields and an (n, 2) field, at queries on and between the
    nodes and clamped beyond both ends."""
    rng = np.random.default_rng(4)
    rho_new = np.concatenate(
        [
            np.linspace(grid.rho_min - 2.0, grid.rho_max + 2.0, 1001),
            grid.rho[::7],
            [grid.rho_min, grid.rho_max, np.nextafter(grid.rho_max, 0.0)],
        ]
    )
    fields = (
        np.tanh(2.0 * grid.rho),
        np.exp(-grid.rho**2) * (1.0 - 0.5j),
        rng.normal(size=(grid.n, 2)),
    )
    for f in fields:
        got, ref = interp_rho(f, grid, rho_new), _reference_interp_rho(f, grid, rho_new)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()


def test_grids_are_shared_and_read_only():
    grid = build_grid(-3.0, 5.0, 40)
    assert grid.decay.tobytes() == np.exp(-2.0 * grid.rho).tobytes()
    assert build_grid(-3.0, 5.0, 40) is grid
    assert build_grid(-3.0, 5.0, 41) is not grid
    for arr in (grid.rho, grid.r, grid.w_rdr, grid.decay):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
