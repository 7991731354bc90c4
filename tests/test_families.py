from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitchinlab import families
from hitchinlab.bundle import a_T
from hitchinlab.catalog import CHART_COEFFS, chart_family
from hitchinlab.families import (
    d_holo,
    dir_deriv,
    j_from_mu,
    make_state,
    nonholo_family,
    nonrigid_family,
    rigid_family,
    step_for,
    v_parts,
    variation,
    variation_tensors,
    vj_of,
)
from hitchinlab.fields import ChartGrid, identity_like, mat_mul, max_norm
from hitchinlab.geometry import christoffel, ricci_form

EPS = 1e-4


def test_state_ricci_form_reuses_christoffel(torus32, chart48):
    """The state's Ricci form equals the one built from a fresh Christoffel pass."""
    for fam, sigma in ((torus32, 0.5 + 0.8j), (chart48, 0.1 + 0.05j)):
        st = make_state(fam, sigma)
        rho = ricci_form(fam.grid, christoffel(fam.grid, st.g), st.J)
        assert np.array_equal(st.rho, rho)


def test_torus_structure_squares_to_minus_one(torus32):
    for tau in (1j, 2j, 1 + 1j, 0.5 + 0.8j):
        J = torus32.J_at(tau)
        assert max_norm(mat_mul(J, J) + identity_like(J)) < 1e-12


def test_torus_exact_variation_matches_quotient(torus32):
    for tau in (1j, 1 + 1j, 0.5 + 0.8j):
        for v in (1.0, 1j):
            fd = dir_deriv(torus32.J_at, tau, v, EPS)
            assert max_norm(torus32.vj_exact(tau, v) - fd) < 1e-6


def test_torus_variation_gates(torus32):
    var = variation(torus32, 1 + 1j, 1.0, EPS, exact=True)
    assert var.anticommute_residual < 1e-12
    assert var.symmetry_residual < 1e-12
    assert var.holomorphy_residual < 1e-12
    assert var.rigidity_residual < 1e-10
    # the closed-form G matches the one assembled from the FD variation
    st = torus32.state(1 + 1j)
    G = variation_tensors(st, vj_of(torus32, 1 + 1j, 1.0, EPS, exact=True))[1]
    G_fd = variation_tensors(st, vj_of(torus32, 1 + 1j, 1.0, EPS))[1]
    assert max_norm(G - G_fd) < 1e-6
    assert max_norm(G - torus32.g_exact(1 + 1j, 1.0)) < 1e-12


def test_state_cache_returns_same_object(torus32):
    assert torus32.state(1j) is torus32.state(1j)


def test_rigid_family_constant_datum_closed_form():
    # with f = c the generator must reproduce mu = (omega0 c / 4) sigma exactly
    grid = ChartGrid(17)
    c = 0.3 - 0.2j
    fam, _ = rigid_family(grid, {0: c}, order=6, radius=0.2)
    for sigma in (0.1, 0.05 + 0.12j):
        target = (2 * np.pi * c / 4.0) * sigma
        assert max_norm(fam.mu(sigma) - target) < 1e-14


def _capture_series(monkeypatch) -> list:
    """Record the ``(mu_series, w_series)`` of every polynomial family built."""
    built = []
    make = families._poly_series_family

    def recording(grid, mu_series, w_series, label):
        built.append((mu_series, w_series))
        return make(grid, mu_series, w_series, label)

    monkeypatch.setattr(families, "_poly_series_family", recording)
    return built


def _direct_sum(series: list[dict], sigma: complex, z: np.ndarray) -> np.ndarray:
    """``sum_j sigma**j * p_j(z)``, each coefficient evaluated on the grid anew."""
    out = np.zeros_like(z, dtype=complex)
    for j, p in enumerate(series):
        if p:
            out = out + sigma**j * families._peval(p, z)
    return out


@pytest.mark.parametrize("n", [64, 128])
def test_chart_family_fields_match_direct_evaluation(monkeypatch, n):
    """The family's stored sigma^j fields give, bit for bit, the sum that
    evaluates every coefficient polynomial on the grid at each sigma (128 is
    the first grid whose complex fields NumPy reuses as temporaries)."""
    built = _capture_series(monkeypatch)
    fam = chart_family(n)
    (mu_series, w_series), = built
    z = fam.grid.x + 1j * fam.grid.y
    sigma = 0.1 + 0.05j
    e = step_for(sigma, EPS)  # the step of a catalog row
    for s in (sigma, sigma + e, sigma - e, sigma + 1j * e, sigma - 1j * e, 0.35j):
        mu = _direct_sum(mu_series, s, z)
        wz = _direct_sum([families._pdz(p) for p in w_series], s, z)
        wzb = _direct_sum([families._pdzbar(p) for p in w_series], s, z)
        assert np.array_equal(fam.mu(s), mu)
        assert np.array_equal(fam.J_at(s), j_from_mu(mu))
        assert np.array_equal(fam.dw_at(s), np.stack([wz + wzb, 1j * (wz - wzb)]))


def test_chart_family_evaluates_its_polynomials_once(monkeypatch):
    """Each nonzero coefficient polynomial is evaluated on the grid when the
    family is built, and states and variations evaluate none."""
    built = _capture_series(monkeypatch)
    calls = []
    peval = families._peval

    def counting(p, z):
        calls.append(p)
        return peval(p, z)

    monkeypatch.setattr(families, "_peval", counting)
    fam = chart_family(32)
    (mu_series, w_series), = built
    polys = mu_series + [families._pdz(p) for p in w_series]
    polys += [families._pdzbar(p) for p in w_series]
    assert len(calls) == sum(1 for p in polys if p) == 25
    calls.clear()
    for s in (0.1 + 0.05j, 0.12 + 0.05j, 0.1 + 0.07j, 0.08 + 0.05j, 0.1 + 0.03j):
        fam.state(s)
    vj_of(fam, 0.1 + 0.05j, 1.0, EPS)
    assert calls == []


def test_rigid_family_gates():
    fam, report = rigid_family(ChartGrid(48), CHART_COEFFS, order=8, radius=0.35)
    assert report.order == 8
    assert report.mu_sup < 0.5  # still a genuine structure at the stated radius
    var = variation(fam, 0.1 + 0.05j, 1.0, EPS)
    assert var.anticommute_residual < 1e-8
    assert var.symmetry_residual < 1e-10
    assert var.holomorphy_residual < 1e-8
    assert var.rigidity_residual < 1e-8


def test_nonrigid_family_is_flagged():
    grid = ChartGrid(48)
    var = variation(nonrigid_family(grid), 0.05, 1.0, EPS)
    assert var.rigidity_residual > 0.1


def test_nonholo_family_is_flagged():
    grid = ChartGrid(48)
    var = variation(nonholo_family(grid), 0.05, 1.0, EPS)
    assert var.holomorphy_residual > 0.5


def test_variation_raises_without_closed_form():
    fam = nonholo_family(ChartGrid(16))
    for fn in (variation, vj_of, a_T):
        with pytest.raises(ValueError, match="no closed-form variation"):
            fn(fam, 0.05, 1.0, EPS, exact=True)


@given(
    sr=st.floats(-0.5, 0.5),
    si=st.floats(-0.5, 0.5),
)
@settings(max_examples=30, deadline=None)
def test_parameter_wirtinger_derivatives(sr, si):
    sigma = complex(sr, si)

    def f(s: complex) -> np.ndarray:
        return np.array([[s**3]])

    # cubic in sigma: holomorphic derivative 3 sigma^2, antiholomorphic zero
    scale = max(abs(sigma) ** 2, 1.0)
    assert abs(d_holo(f, sigma, 1e-5)[0, 0] - 3 * sigma**2) < 1e-7 * scale
    assert abs(v_parts(f, sigma, 1.0, 1e-5)[1][0, 0]) < 1e-7 * scale


@given(mr=st.floats(-0.5, 0.5), mi=st.floats(-0.5, 0.5))
@settings(max_examples=30, deadline=None)
def test_structure_from_beltrami_datum(mr, mi):
    mu = np.full((4, 4), complex(mr, mi))
    J = j_from_mu(mu)
    assert max_norm(mat_mul(J, J) + identity_like(J)) < 1e-10
    assert max_norm(np.imag(J)) < 1e-12  # the structure is a real endomorphism


def test_torus_default_potential_is_zero(torus32):
    st_ = torus32.state(1 + 1j)
    assert max_norm(st_.F) == 0.0
    # the metric coefficient in the holomorphic frame is constant on the torus
    assert max_norm(st_.h_w - st_.h_w[0, 0]) < 1e-10
