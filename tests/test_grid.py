import math

import numpy as np
import pytest

from hjot.cost import QuadraticCost
from hjot.grid import (GridSpec, centered_gradient, discrete_laplacian, forward_gradient,
                       make_grid)


def small_grid(N_X=4, N_T=4, d=1, eps=0.0625, R=0.5):
    return GridSpec(d=d, D=1.0, N_T=N_T, N_X=N_X, eps=eps, R=R)


def backward_diffs(psi, grid):
    """The backward differences psi(j) - psi(j-1) that the Laplacian and the
    centered gradient sum, one component per axis as forward_gradient's."""
    fwd = forward_gradient(psi, grid)
    return np.stack([np.roll(fwd[k], 1, axis=k - grid.d) for k in range(grid.d)])


def test_spec_derived_quantities(quad):
    g = small_grid(N_X=8, N_T=16)
    assert g.dt == 1.0 / 16
    assert g.dx == 1.0 / 8
    assert g.zeta == g.dt / g.dx
    assert g.h == g.dt
    assert g.space_shape == (8,)
    assert np.allclose(g.spatial_nodes(), np.arange(8) / 8)
    assert np.allclose(g.times(), np.arange(17) / 16)
    # the default clamp is lip_L of the torus diameter D sqrt(d) / 2 = 0.5
    assert make_grid(1, 1.0, 16, 8, quad).R == quad.lip_L(0.5)


@pytest.mark.parametrize("kw", [dict(d=0), dict(N_T=0), dict(N_X=0),
                                dict(D=0.0), dict(eps=-1.0), dict(R=0.0),
                                dict(N_X=8.5), dict(N_T=True), dict(d=True)])
def test_gridspec_rejects_bad_fields(kw):
    base = dict(d=1, D=1.0, N_T=4, N_X=4, eps=0.1, R=0.5)
    base.update(kw)
    with pytest.raises(ValueError):
        GridSpec(**base)


def test_gridspec_rejects_non_finite_fields():
    base = dict(d=1, D=1.0, N_T=4, N_X=4, eps=0.1, R=0.5)
    for name in ("D", "eps", "R"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                GridSpec(**dict(base, **{name: value}))
    with pytest.raises(ValueError, match="^D must be finite, got nan"):
        GridSpec(d=1, D=math.nan, N_T=2, N_X=4, eps=math.nan, R=math.nan)


def test_forward_diff_hand_example():
    g = small_grid()
    psi = np.array([0.0, 1.0, 3.0, 2.0])
    assert np.array_equal(forward_gradient(psi, g), [[1.0, 2.0, -1.0, -2.0]])


def test_backward_diff_hand_example():
    g = small_grid()
    psi = np.array([0.0, 1.0, 3.0, 2.0])
    assert np.array_equal(backward_diffs(psi, g), [[-2.0, 1.0, 2.0, -1.0]])


def test_diffs_kill_constants():
    g = small_grid(N_X=8)
    c = np.full(8, 3.7)
    assert np.array_equal(forward_gradient(c, g), np.zeros((1, 8)))
    assert np.array_equal(backward_diffs(c, g), np.zeros((1, 8)))
    assert np.array_equal(centered_gradient(c, g), np.zeros((1, 8)))
    assert np.array_equal(discrete_laplacian(c, g), np.zeros(8))


def test_backward_is_shifted_forward():
    g = small_grid(N_X=8)
    rng = np.random.default_rng(0)
    psi = rng.normal(size=8)
    assert np.array_equal(backward_diffs(psi, g), np.roll(forward_gradient(psi, g), 1, axis=-1))


def test_forward_diff_linear_in_index():
    # a*j is linear away from the periodic seam
    g = small_grid(N_X=8)
    a = 0.3
    psi = a * np.arange(8)
    out = forward_gradient(psi, g)[0]
    assert np.allclose(out[:-1], a)


def test_forward_diff_telescopes():
    g = small_grid(N_X=8)
    rng = np.random.default_rng(1)
    psi = rng.normal(size=8)
    assert abs(forward_gradient(psi, g).sum()) < 1e-12


def test_centered_gradient_hand_example():
    g = small_grid()
    psi = np.array([0.0, 1.0, 3.0, 2.0])
    assert np.allclose(centered_gradient(psi, g)[0], [-2.0, 6.0, 2.0, -6.0])


def test_centered_gradient_is_half_sum():
    g = small_grid(N_X=8)
    rng = np.random.default_rng(2)
    psi = rng.normal(size=8)
    expected = ((psi - np.roll(psi, 1)) + (np.roll(psi, -1) - psi)) / (2.0 * g.dx)
    assert np.array_equal(centered_gradient(psi, g)[0], expected)


def test_laplacian_hand_example():
    g = small_grid()
    psi = np.array([0.0, 1.0, 3.0, 2.0])
    assert np.allclose(discrete_laplacian(psi, g), [48.0, 16.0, -48.0, -16.0])


def test_laplacian_sums_to_zero():
    g = small_grid(N_X=8)
    rng = np.random.default_rng(3)
    psi = rng.normal(size=8)
    assert abs(discrete_laplacian(psi, g).sum()) < 1e-10


def test_operators_broadcast_over_leading_axes():
    g = small_grid(N_X=8)
    rng = np.random.default_rng(4)
    batch = rng.normal(size=(5, 8))
    row_by_row = np.stack([discrete_laplacian(b, g) for b in batch])
    assert np.array_equal(discrete_laplacian(batch, g), row_by_row)


def test_two_dimensional_stencils():
    g = small_grid(N_X=4, d=2)
    rng = np.random.default_rng(5)
    psi = rng.normal(size=(4, 4))
    lap = discrete_laplacian(psi, g)
    manual = (np.roll(psi, -1, 0) + np.roll(psi, 1, 0) + np.roll(psi, -1, 1)
              + np.roll(psi, 1, 1) - 4 * psi) / g.dx ** 2
    assert np.allclose(lap, manual, atol=1e-12)
    assert centered_gradient(psi, g).shape == (2, 4, 4)
    assert forward_gradient(psi, g).shape == (2, 4, 4)


@pytest.mark.parametrize("n_x", [3, 4, 8])
@pytest.mark.parametrize("d", [1, 2])
def test_adjoint_pairing(n_x, d):
    # the stencil identities A^T is built from: the centered gradient is
    # skew-adjoint per axis, the Laplacian self-adjoint, and the adjoint of
    # the forward difference is minus the backward difference
    g = small_grid(N_X=n_x, d=d)
    rng = np.random.default_rng(10 * d + n_x)
    sp = g.space_shape
    psi = rng.normal(size=sp)
    m = rng.normal(size=(d,) + sp)
    lhs = np.sum(centered_gradient(psi, g) * m)
    rhs = -np.sum(psi * sum(centered_gradient(m[k], g)[k] for k in range(d)))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    phi2 = rng.normal(size=sp)
    lhs = np.sum(discrete_laplacian(psi, g) * phi2)
    rhs = np.sum(psi * discrete_laplacian(phi2, g))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    eta = rng.normal(size=(d,) + sp)
    lhs = np.sum(forward_gradient(psi, g) * eta)
    rhs = -sum(np.sum(psi * backward_diffs(eta[k], g)[k]) for k in range(d))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_make_grid_viscosity_is_admissible():
    cost = QuadraticCost()
    for n in (8, 16, 64):
        g = make_grid(1, 1.0, n, n, cost)
        lo = cost.lip_H(1.05 * g.R) / 2.0
        hi = g.dx / (2.0 * g.d * g.dt)
        assert lo <= g.eps / g.dx <= hi
        assert g.R == 0.5  # lip_L(diam) for the quadratic cost on D=1


def test_make_grid_rejects_empty_interval():
    # dx/(2 d dt) < lip_H(R)/2 when the time step is too coarse
    with pytest.raises(ValueError):
        make_grid(1, 1.0, 4, 64, QuadraticCost())


def test_make_grid_checks_R_before_the_viscosity_interval():
    # an infinite R made the interval empty and was reported as such
    for R, message in ((np.inf, "R must be finite, got inf"),
                       (-np.inf, "R must be finite, got -inf"),
                       (np.nan, "R must be finite, got nan"),
                       (0.0, "R must be positive, got 0.0"),
                       (-0.5, "R must be positive, got -0.5")):
        with pytest.raises(ValueError, match=message):
            make_grid(1, 1.0, 8, 8, QuadraticCost(), R=R)


def test_make_grid_custom_radius():
    cost = QuadraticCost()
    g = make_grid(1, 1.0, 16, 16, cost, R=0.3)
    assert g.R == 0.3
    assert g.eps == pytest.approx(cost.lip_H(1.05 * 0.3) * g.dx / 2.0)


# np.roll forms of the stencils, as the defining formulas read
def _roll_fwd(psi, k, d):
    return np.roll(psi, -1, axis=k - d) - psi


def _roll_bwd(psi, k, d):
    return psi - np.roll(psi, 1, axis=k - d)


def _roll_reference(name, psi, g):
    d = g.d
    if name == "forward_diff":
        return np.stack([_roll_fwd(psi, k, d) for k in range(d)])
    if name == "backward_diff":
        return np.stack([_roll_bwd(psi, k, d) for k in range(d)])
    if name == "centered_gradient":
        return np.stack([(_roll_bwd(psi, k, d) + _roll_fwd(psi, k, d)) / (2.0 * g.dx)
                         for k in range(d)])
    out = np.zeros_like(psi)
    for k in range(d):
        out += _roll_fwd(psi, k, d) - _roll_bwd(psi, k, d)
    return out / g.dx ** 2


# the forward and the backward differences along every axis, and the two
# stencils that sum them
_STENCILS = {"forward_diff": forward_gradient, "backward_diff": backward_diffs,
             "centered_gradient": centered_gradient, "discrete_laplacian": discrete_laplacian}


@pytest.mark.parametrize("name", ["forward_diff", "backward_diff",
                                  "centered_gradient", "discrete_laplacian"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
@pytest.mark.parametrize("clobber_input", [False, True])
@pytest.mark.parametrize("strided", [False, True])
def test_stencils_equal_roll_reference(name, n, d, batch, clobber_input, strided):
    g = small_grid(N_X=n, d=d)
    rng = np.random.default_rng(7 * n + d + len(batch))
    # the stencils read views, so a strided input must give the same values
    psi = rng.standard_normal(batch + g.space_shape + (2,))[..., 0] if strided \
        else rng.standard_normal(batch + g.space_shape)
    got = _STENCILS[name](psi, g)
    want = _roll_reference(name, psi, g)
    if clobber_input:
        # a stencil allocates its result: overwriting the input leaves it as it was
        psi[...] = np.nan
    assert np.array_equal(got, want)


# Reference formulation of the stencils: two ufunc calls per difference, one
# over slices of the input and one over the wrap slab, into preallocated
# buffers. The library's stencils, which difference one padded copy, must
# match it bitwise.
def _ref_neighbour_op(op, psi, ax, out, forward):
    rest = (slice(None),) * (-ax - 1)
    nxt, prv = (Ellipsis, slice(1, None)) + rest, (Ellipsis, slice(None, -1)) + rest
    first, last = (Ellipsis, slice(0, 1)) + rest, (Ellipsis, slice(-1, None)) + rest
    op(psi[nxt], psi[prv], out=out[prv if forward else nxt])
    op(psi[first], psi[last], out=out[last if forward else first])
    return out


def _ref_empty(shape, like):
    return np.empty(shape, np.result_type(like, 1.0))


def _ref_forward_gradient(psi, grid):
    out = _ref_empty((grid.d,) + psi.shape, psi)
    for k in range(grid.d):
        _ref_neighbour_op(np.subtract, psi, k - grid.d, out[k], True)
    return out


def _ref_centered(psi, grid, k, out, work):
    ax = k - grid.d
    _ref_neighbour_op(np.add, _ref_neighbour_op(np.subtract, psi, ax, work, True), ax, out,
                      False)
    out /= 2.0 * grid.dx
    return out


def _ref_centered_gradient(psi, grid):
    out = _ref_empty((grid.d,) + psi.shape, psi)
    work = _ref_empty(psi.shape, psi)
    for k in range(grid.d):
        _ref_centered(psi, grid, k, out[k], work)
    return out


def _ref_discrete_laplacian(psi, grid):
    out = _ref_empty(psi.shape, psi)
    work = _ref_empty(psi.shape, psi)
    for k in range(grid.d):
        ax = k - grid.d
        fwd = _ref_neighbour_op(np.subtract, psi, ax, work, True)
        if k == 0:
            _ref_neighbour_op(np.subtract, fwd, ax, out, False)
            out += 0.0
        else:
            out += _ref_neighbour_op(np.subtract, fwd, ax, _ref_empty(psi.shape, psi), False)
    out /= grid.dx ** 2
    return out


_REFERENCE = {forward_gradient: _ref_forward_gradient, centered_gradient: _ref_centered_gradient,
              discrete_laplacian: _ref_discrete_laplacian}


def _same(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
def test_stencils_equal_the_two_call_formulation_bitwise(n, d, batch, dtype):
    g = small_grid(N_X=n, d=d)
    rng = np.random.default_rng(100 * d + 10 * n + len(batch))
    psi = rng.standard_normal(batch + g.space_shape)
    psi = (100 * psi).astype(dtype) if dtype is np.int64 else psi.astype(dtype)
    for stencil, ref in _REFERENCE.items():
        assert _same(stencil(psi, g), ref(psi, g)), stencil.__name__


def test_laplacian_turns_negative_zero_into_positive_zero():
    # the difference of the forward differences at cell 0 is -0.0 - 0.0 = -0.0
    for d in (1, 2):
        g = small_grid(N_X=4, d=d)
        psi = np.full(g.space_shape, -0.0)
        psi[(0,) * d] = 0.0
        lap = discrete_laplacian(psi, g)
        assert _same(lap, _ref_discrete_laplacian(psi, g))
        assert lap[(0,) * d] == 0.0 and not np.signbit(lap).any()


@pytest.mark.parametrize("d", [1, 2])
def test_constraint_matrix_is_unchanged_by_the_stencil_formulation(d, monkeypatch):
    import hjot.transport as transport

    g = small_grid(N_X=5, N_T=6, d=d)
    new = transport.constraint_matrix(g)
    for stencil, ref in _REFERENCE.items():
        monkeypatch.setattr(transport, stencil.__name__, ref)
    old = transport.constraint_matrix(g)
    for attr in ("data", "indices", "indptr"):
        assert _same(getattr(new, attr), getattr(old, attr)), attr
