from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitchinlab.catalog import _spread
from hitchinlab.families import j_from_mu
from hitchinlab.fields import (
    ChartGrid,
    TorusGrid,
    grad,
    identity_like,
    mat_mul,
    max_norm,
    proj_anti,
    proj_holo,
)
from hitchinlab.operators import _section_sups


def test_torus_spectral_derivative_exact():
    grid = TorusGrid(32)
    f = np.sin(2 * np.pi * grid.x) * np.cos(4 * np.pi * grid.y)
    dfx = 2 * np.pi * np.cos(2 * np.pi * grid.x) * np.cos(4 * np.pi * grid.y)
    dfy = -4 * np.pi * np.sin(2 * np.pi * grid.x) * np.sin(4 * np.pi * grid.y)
    assert max_norm(grid.deriv(f, -2) - dfx) < 1e-11
    assert max_norm(grid.deriv(f, -1) - dfy) < 1e-11


def test_chart_stencil_exact_on_quartics():
    grid = ChartGrid(17)
    f = grid.x**4 - 2.0 * grid.x**2 * grid.y + grid.y**3
    dfx = 4.0 * grid.x**3 - 4.0 * grid.x * grid.y
    dfy = -2.0 * grid.x**2 + 3.0 * grid.y**2
    # 4th-order stencils (one-sided included) differentiate quartics exactly
    assert max_norm(grid.deriv(f, -2) - dfx) < 1e-11
    assert max_norm(grid.deriv(f, -1) - dfy) < 1e-11


def test_chart_derivative_fourth_order():
    def err(n: int) -> float:
        grid = ChartGrid(n)
        f = np.exp(grid.x) * np.sin(2.0 * grid.y)
        dfx = np.exp(grid.x) * np.sin(2.0 * grid.y)
        return max_norm(grid.deriv(f, -2) - dfx, grid.interior())

    e1, e2 = err(33), err(65)
    order = np.log(e1 / e2) / np.log(64 / 32)
    assert order > 3.5


def test_real_input_gives_float64_output():
    for grid in (TorusGrid(16), ChartGrid(17)):
        f = np.cos(2 * np.pi * grid.x) * np.sin(2 * np.pi * grid.y)
        for axis in (-2, -1):
            assert grid.deriv(f, axis).dtype == np.float64
            assert grid.deriv(f.astype(complex), axis).dtype == np.complex128


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize(
    "lead", [(), (2,), (2, 2), (2, 2, 2)], ids=["rank0", "rank1", "rank2", "rank3"]
)
@pytest.mark.parametrize("axis", [-2, -1])
def test_chart_real_path_is_the_real_part_of_the_complex_path(n, lead, axis):
    # both paths scale by 1/12 and 1/h as multiplications, so they agree bit for bit
    grid = ChartGrid(n)
    f = np.random.default_rng(n + len(lead)).standard_normal(lead + grid.shape)
    assert np.array_equal(grid.deriv(f, axis), grid.deriv(f.astype(complex), axis).real)


def test_torus_real_path_matches_the_complex_path():
    grid = TorusGrid(32)
    f = np.sin(2 * np.pi * grid.x) * np.cos(4 * np.pi * grid.y) + 0.3 * np.cos(
        6 * np.pi * grid.x + 2 * np.pi * grid.y
    )
    for axis in (-2, -1):
        ref = grid.deriv(f.astype(complex), axis)
        assert max_norm(grid.deriv(f, axis) - ref) <= 1e-13 * max_norm(ref)
        # a constant field's transform has no other mode: exact zeros
        assert not np.any(grid.deriv(np.full((2,) + grid.shape, 3.7), axis))


def test_torus_real_nyquist_mode_has_zero_derivative():
    grid = TorusGrid(32)
    for f, axis in ((np.cos(32 * np.pi * grid.x), -2), (np.cos(32 * np.pi * grid.y), -1)):
        assert not np.any(grid.deriv(f, axis))


def test_chart_grid_geometry():
    grid = ChartGrid(21)
    assert grid.x[0, 0] == pytest.approx(-0.5)
    assert grid.x[-1, 0] == pytest.approx(0.5)
    assert grid.y[0, 0] == pytest.approx(-0.5)
    assert grid.y[0, -1] == pytest.approx(0.5)
    assert grid.h == pytest.approx(1.0 / 20)
    assert grid.interior().sum() == (21 - 2 * ChartGrid.margin) ** 2


def test_max_norm_mask():
    a = np.zeros((4, 4))
    a[0, 0] = 5.0
    mask = np.ones((4, 4), dtype=bool)
    mask[0, 0] = False
    assert max_norm(a) == 5.0
    assert max_norm(a, mask) == 0.0


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("grid", [TorusGrid(32), TorusGrid(33), ChartGrid(24)], ids=repr)
@pytest.mark.parametrize("dtype", [float, complex])
def test_grid_entry_points_broadcast_a_one_node_field(grid, dtype):
    """A one-node field, grid axes ``(1, 1)``, gives at each entry point that
    needs the grid the bits of its full-grid copy: the derivatives
    differentiate the broadcast (at an odd torus grid and on the chart the
    derivative of a constant is rounding noise, not zero), and the masked
    sups and the spread see every node."""
    rng = np.random.default_rng(7)
    node = rng.standard_normal((2, 2, 1, 1)) + 0.5
    if dtype is complex:
        node = node + 1j * rng.standard_normal(node.shape)
    full = np.array(np.broadcast_to(node, (2, 2) + grid.shape))
    mask = grid.interior()
    for axis in (-2, -1):
        assert _same_bits(grid.deriv(node, axis), grid.deriv(full, axis))
        out = np.empty(full.shape, dtype=full.dtype)
        assert _same_bits(grid.deriv(node, axis, out=out), grid.deriv(full, axis))
    assert _same_bits(grad(grid, node), grad(grid, full))
    assert max_norm(node, mask) == max_norm(full, mask)
    for a, b in zip(_section_sups(node, 2 * node, mask), _section_sups(full, 2 * full, mask)):
        assert _same_bits(a, b)
    assert _spread(node[0, 1], mask) == _spread(full[0, 1], mask)


@st.composite
def beltrami(draw):
    re = draw(st.floats(-0.6, 0.6, allow_nan=False))
    im = draw(st.floats(-0.6, 0.6, allow_nan=False))
    return complex(re, im)


@given(mu=beltrami())
@settings(max_examples=40, deadline=None)
def test_projectors_from_any_structure(mu):
    # any |mu| < 1 defines a compatible structure; the type projectors must
    # then be complementary idempotents splitting the identity
    field = np.full((3, 3), mu, dtype=complex)
    J = j_from_mu(field)
    eye = identity_like(J)
    assert max_norm(mat_mul(J, J) + eye) < 1e-10
    P, Q = proj_holo(J), proj_anti(J)
    assert max_norm(P + Q - eye) < 1e-12
    assert max_norm(mat_mul(P, P) - P) < 1e-10
    assert max_norm(mat_mul(P, Q)) < 1e-10


@given(mu=beltrami(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_projected_slots_are_type_pure(mu, data):
    field = np.full((3, 3), mu, dtype=complex)
    J = j_from_mu(field)
    comps = np.array(
        [
            data.draw(st.floats(-2, 2)) + 1j * data.draw(st.floats(-2, 2))
            for _ in range(2)
        ]
    )[:, None, None] * np.ones((2, 3, 3))
    holo = np.einsum("za...,a...->z...", proj_holo(J), comps)
    # a (1,0) vector is an eigenvector of J with eigenvalue +i
    JX = np.einsum("ab...,b...->a...", J, holo)
    assert max_norm(JX - 1j * holo) < 1e-9
