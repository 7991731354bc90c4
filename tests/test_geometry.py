from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hitchinlab.catalog import RunConfig, chart_family
from hitchinlab.families import TorusFamily
from hitchinlab.fields import Array, Grid, TorusGrid, max_norm
from hitchinlab.geometry import (
    christoffel,
    compatible_metric,
    cov_deriv,
    inv2,
    make_omega,
    ricci_form,
)

# standard structure on the square torus: J(d/dx) = d/dy
_J_STD = np.array([[0.0, -1.0], [1.0, 0.0]])


def _riemann(grid: Grid, gamma: Array) -> Array:
    r"""The full curvature of the symbols, the reference for the contracted
    Ricci form: ``R[a,b,c,d]`` = :math:`R^a{}_{bcd}` with
    :math:`R(e_c, e_d)e_b = R^a{}_{bcd}\, e_a`."""
    dgam = np.stack([grid.deriv(gamma, -2), grid.deriv(gamma, -1)])  # [p,a,b,c]
    r = np.einsum("cadb...->abcd...", dgam) - np.einsum("dacb...->abcd...", dgam)
    r += np.einsum("ace...,edb...->abcd...", gamma, gamma)
    r -= np.einsum("ade...,ecb...->abcd...", gamma, gamma)
    return r


def _ricci_form_of_riemann(grid: Grid, gamma: Array, J: Array) -> Array:
    """``J . r`` with ``r_ab = R^c_bca`` contracted from the full curvature."""
    ric = np.einsum("cbca...->ab...", _riemann(grid, gamma))
    return np.einsum("ca...,cb...->ab...", J, ric)


def _conformal(grid: TorusGrid, phi):
    g = np.zeros((2, 2) + grid.shape)
    g[0, 0] = np.exp(2.0 * phi)
    g[1, 1] = np.exp(2.0 * phi)
    return g


def test_flat_metric_has_no_curvature():
    grid = TorusGrid(16)
    g = _conformal(grid, np.zeros(grid.shape))
    gamma = christoffel(grid, g)
    assert max_norm(gamma) < 1e-13
    assert max_norm(_riemann(grid, gamma)) < 1e-12
    J = np.broadcast_to(_J_STD[:, :, None, None], (2, 2) + grid.shape)
    assert max_norm(ricci_form(grid, gamma, J)) < 1e-12


def test_inv2_pointwise():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(2, 2, 5, 5)) + 3.0 * np.eye(2)[:, :, None, None]
    prod = np.einsum("ab...,bc...->ac...", inv2(m), m)
    eye = np.eye(2)[:, :, None, None]
    assert max_norm(prod - eye) < 1e-12


def test_compatible_metric_symmetric_positive():
    grid = TorusGrid(8)
    omega = make_omega(grid, 2 * np.pi)
    J = np.broadcast_to(_J_STD[:, :, None, None], (2, 2) + grid.shape)
    g = compatible_metric(omega, J)
    assert max_norm(g - np.einsum("ab...->ba...", g)) < 1e-14
    assert np.all(g[0, 0] > 0)
    assert np.all(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0] > 0)


def test_ricci_form_conformal_oracle():
    r"""For ``g = e^{2\phi}(dx^2+dy^2)`` the Gauss curvature is
    ``K = -e^{-2\phi}\Delta\phi`` and the Ricci form ``K\,\omega_g``, so
    ``\rho_{xy} = -\Delta\phi`` -- an independent closed form."""
    grid = TorusGrid(48)
    phi = 0.1 * np.sin(2 * np.pi * grid.x) * np.cos(2 * np.pi * grid.y)
    lap = -2.0 * (2 * np.pi) ** 2 * phi  # exact Laplacian of the mode
    g = _conformal(grid, phi)
    J = np.broadcast_to(_J_STD[:, :, None, None], (2, 2) + grid.shape)
    rho = ricci_form(grid, christoffel(grid, g), J)
    assert max_norm(rho[0, 1] - (-lap)) < 1e-9
    assert max_norm(rho + np.einsum("ab...->ba...", rho)) < 1e-9


def test_cov_deriv_metric_compatibility():
    grid = TorusGrid(32)
    phi = 0.2 * np.cos(2 * np.pi * grid.x) + 0.1 * np.sin(2 * np.pi * grid.y)
    g = _conformal(grid, phi)
    gamma = christoffel(grid, g)
    nabla_g = cov_deriv(grid, gamma, g.astype(complex), "dd")
    assert max_norm(nabla_g) < 1e-9


def test_cov_deriv_leibniz():
    grid = TorusGrid(32)
    phi = 0.15 * np.sin(2 * np.pi * (grid.x + grid.y))
    gamma = christoffel(grid, _conformal(grid, phi))
    f = np.cos(2 * np.pi * grid.x).astype(complex)
    X = np.stack([np.sin(2 * np.pi * grid.y), np.ones(grid.shape)]).astype(complex)
    lhs = cov_deriv(grid, gamma, f * X, "u")
    df = np.stack([grid.deriv(f, -2), grid.deriv(f, -1)])
    rhs = df[:, None] * X[None] + f * cov_deriv(grid, gamma, X, "u")
    assert max_norm(lhs - rhs) < 1e-9


@given(
    c1=st.floats(-0.3, 0.3),
    c2=st.floats(-0.3, 0.3),
    k1=st.integers(1, 3),
    k2=st.integers(1, 3),
)
@settings(max_examples=15, deadline=None)
def test_first_bianchi_identity(c1, c2, k1, k2):
    # cyclic symmetry of the curvature holds for every torsion-free symbol
    # field, independent of discretization error
    grid = TorusGrid(24)
    phi = c1 * np.sin(2 * np.pi * k1 * grid.x) + c2 * np.cos(2 * np.pi * k2 * grid.y)
    gamma = christoffel(grid, _conformal(grid, phi))
    R = _riemann(grid, gamma)
    cyc = (
        R
        + np.einsum("abcd...->acdb...", R)
        + np.einsum("abcd...->adbc...", R)
    )
    assert max_norm(cyc) < 1e-8 * max(max_norm(R), 1.0)


def test_riemann_antisymmetry():
    grid = TorusGrid(24)
    phi = 0.2 * np.sin(2 * np.pi * grid.x) * np.sin(2 * np.pi * grid.y)
    gamma = christoffel(grid, _conformal(grid, phi))
    R = _riemann(grid, gamma)
    assert max_norm(R + np.einsum("abcd...->abdc...", R)) < 1e-10


def test_ricci_form_is_the_riemann_contraction():
    """The Ricci form contracted from the symbols equals the contraction of
    the full curvature: bit for bit on the torus (both are zero there),
    within rounding on the catalog chart (max |rho| is about 6.5e-3 there)."""
    fam = TorusFamily(TorusGrid(64))
    for tau in (1j, 1 + 1j, 0.5 + 0.8j):
        st = fam.state(tau)
        ref = _ricci_form_of_riemann(fam.grid, st.gamma, st.J)
        assert np.array_equal(ricci_form(fam.grid, st.gamma, st.J), ref)
    cfg = RunConfig()
    chart = chart_family(cfg.grid)
    st = chart.state(cfg.sigma)
    ref = _ricci_form_of_riemann(chart.grid, st.gamma, st.J)
    assert max_norm(ref) > 1e-3  # a curved member, so the comparison has content
    assert max_norm(ricci_form(chart.grid, st.gamma, st.J) - ref) <= 1e-14


def test_state_geometry_is_real():
    """``g``, ``gamma`` and ``rho`` are float64 on both backends, and the
    torus members, of constant coefficients, have exactly zero symbols and
    Ricci form."""
    fam = TorusFamily(TorusGrid(32))
    cfg = RunConfig()
    chart = chart_family(cfg.grid)
    for st in (fam.state(1j), fam.state(0.5 + 0.8j), chart.state(cfg.sigma)):
        for field in (st.g, st.gamma, st.rho):
            assert field.dtype == np.float64
    for tau in (1j, 0.5 + 0.8j):
        st = fam.state(tau)
        assert not np.any(st.gamma) and not np.any(st.rho)
