from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitchinlab import families
from hitchinlab.bundle import a_T, halfform_potential
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
from hitchinlab.geometry import christoffel, compatible_metric, make_omega, ricci_form

EPS = 1e-4
TAUS = (1j, 2j, 1 + 1j, 0.5 + 0.8j)


def _spectral_geometry(st):
    """``(gamma, rho, half-form potential)`` of a state by the full formulas,
    with no shortcut for a constant metric or frame: the reference for
    :func:`make_state` and :func:`halfform_potential`."""
    gamma = christoffel(st.grid, st.g)
    rho = ricci_form(st.grid, gamma, st.J)
    ddw = grad(st.grid, st.dw) - np.einsum("cab...,c...->ab...", gamma, st.dw)
    return gamma, rho, 0.5 * np.einsum("ab...,b...->a...", ddw, st.E)


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _one_node_as(a, full) -> bool:
    """``a`` is held at one node, and broadcast to the grid it is ``full``
    bit for bit."""
    return a.shape[-2:] == (1, 1) and _same_bits(np.broadcast_to(a, full.shape), full)


def _grid_copy(a, grid):
    """A contiguous full-grid copy of the one-node field ``a``."""
    return np.array(np.broadcast_to(a, a.shape[:-2] + grid.shape))


def test_state_ricci_form_reuses_christoffel(chart48):
    """A curved chart member's symbols, Ricci form and half-form potential
    are those of the full formulas, bit for bit."""
    st = make_state(chart48, 0.1 + 0.05j)
    gamma, rho, a_d = _spectral_geometry(st)
    assert st.gamma.any()
    assert _same_bits(st.gamma, gamma) and _same_bits(st.rho, rho)
    assert _same_bits(halfform_potential(st), a_d)


def test_torus_state_takes_no_derivative(monkeypatch):
    """A torus member, of constant metric and frame, gets exact zeros for its
    symbols, Ricci form and half-form potential without a field derivative."""

    def raising(self, f, axis):
        raise AssertionError("a torus field was differentiated")

    monkeypatch.setattr(TorusGrid, "deriv", raising)
    fam = families.TorusFamily(TorusGrid(32))
    for tau in TAUS:
        st = make_state(fam, tau)
        a_d = halfform_potential(st)
        assert st.gamma.shape == (2, 2, 2, 1, 1) and st.gamma.dtype == np.float64
        assert st.rho.shape == (2, 2, 1, 1) and st.rho.dtype == np.float64
        assert a_d.shape == (2, 1, 1) and a_d.dtype == np.complex128
        assert not st.gamma.any() and not st.rho.any() and not a_d.any()


@pytest.mark.parametrize("n", [32, 64])
def test_torus_closed_form_equals_the_full_formulas(n):
    """At even grids the spectral derivatives of the constant torus metric and
    frame are exact zeros, so the closed form, held at one node, changes no
    bit of the full-grid formulas."""
    fam = families.TorusFamily(TorusGrid(n))
    for tau in TAUS:
        st = make_state(fam, tau)
        gamma, rho, a_d = _spectral_geometry(st)
        assert gamma.shape[-2:] == (n, n)
        assert _one_node_as(st.gamma, gamma) and _one_node_as(st.rho, rho)
        assert _one_node_as(halfform_potential(st), a_d)


def test_torus_closed_form_at_an_odd_grid():
    """At an odd grid the FFT of a constant is not exact: the full formulas
    leave rounding noise, which the closed form replaces by zeros."""
    fam = families.TorusFamily(TorusGrid(33))
    for tau in TAUS:
        st = make_state(fam, tau)
        gamma, rho, a_d = _spectral_geometry(st)
        assert not st.gamma.any() and not st.rho.any() and not halfform_potential(st).any()
        assert max(max_norm(gamma), max_norm(rho), max_norm(a_d)) <= 1e-10


FIELDS = ("J", "omega", "g", "gamma", "rho", "dw", "E", "h_w", "F")


def _full_grid_fields(fam, sigma) -> dict:
    """Every field of the member at ``sigma`` by the full-grid formulas of a
    constant metric, from contiguous grid copies of ``J_at`` and ``dw_at``:
    the reference for the one-node fields of a flat member."""
    J, dw = _grid_copy(fam.J_at(sigma), fam.grid), _grid_copy(fam.dw_at(sigma), fam.grid)
    omega = make_omega(fam.grid.shape, fam.omega0)
    g = compatible_metric(omega, J)
    E = families._holo_vector(dw)
    h_w = 2.0 * np.einsum("ab...,a...,b...->...", g, E, np.conj(E))
    if fam.normalized_potential:
        F = np.zeros(fam.grid.shape, dtype=complex)
    else:
        F = -0.5 * np.log(h_w)
    gamma, rho = np.zeros((2,) + g.shape), np.zeros(g.shape)
    return dict(J=J, omega=omega, g=g, gamma=gamma, rho=rho, dw=dw, E=E, h_w=h_w, F=F)


@pytest.mark.parametrize("n", [32, 33, 64])
@pytest.mark.parametrize("tau", [1j, 1 + 1j, 0.3 + 1.1j])
def test_flat_state_equals_the_full_grid_formulas(n, tau):
    """A torus member's fields, computed at one node and broadcast, equal
    the full-grid formulas bit for bit, as does its half-form potential."""
    fam = families.TorusFamily(TorusGrid(n))
    st = make_state(fam, tau)
    ref = _full_grid_fields(fam, tau)
    for name in FIELDS:
        assert _one_node_as(getattr(st, name), ref[name]), name
    assert _one_node_as(st.P, proj_holo(ref["J"])) and _one_node_as(st.Q, proj_anti(ref["J"]))
    assert _one_node_as(halfform_potential(st), np.zeros((2, n, n), dtype=complex))


def test_flat_chart_member_equals_the_full_grid_formulas():
    """The family's representation decides the flat branch: the adversarial
    chart family of constant ``mu`` hands back one-node fields, so it is
    flat too, and its Ricci potential ``F = -1/2 log h_w``, taken at one
    node, equals the full-grid formula bit for bit."""
    fam = nonholo_family(ChartGrid(24))
    for sigma in (0.0, 0.1 + 0.05j, -0.07 + 0.2j):
        st = make_state(fam, sigma)
        assert st.F.shape[-2:] == (1, 1)
        ref = _full_grid_fields(fam, sigma)
        for name in FIELDS:
            assert _one_node_as(getattr(st, name), ref[name]), name


def test_flat_state_fields_are_read_only_broadcasts():
    """A flat member holds every field, its projectors and its half-form
    potential at one node, with grid axes ``(1, 1)``."""
    fam = families.TorusFamily(TorusGrid(32))
    st = make_state(fam, 1 + 1j)
    for name in FIELDS + ("P", "Q"):
        a = getattr(st, name)
        assert a.shape[-2:] == (1, 1), name
    a_d = halfform_potential(st)
    assert a_d.shape[-2:] == (1, 1)


def test_torus_family_hands_back_one_node():
    """``J_at`` and ``dw_at`` of the torus are held at one node, so a member
    is built without a grid-sized array: one state at 256x256 peaks below
    64 KiB of traced allocations (a full-grid ``J`` alone is 2 MiB)."""
    fam = families.TorusFamily(TorusGrid(256))
    for a in (fam.J_at(1 + 1j), fam.dw_at(1 + 1j)):
        assert a.shape[-2:] == (1, 1)
    make_state(fam, 1j)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        make_state(fam, 0.5 + 0.8j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


def test_chart_state_keeps_full_writable_arrays(chart48):
    st = make_state(chart48, 0.1 + 0.05j)
    assert st.gamma.any()
    for name in FIELDS + ("P", "Q"):
        a = getattr(st, name)
        assert a.shape[-2:] == (48, 48) and 0 not in a.strides[-2:], name
        assert a.flags.writeable, name


def test_chart_state_builds_symbols_on_first_read(monkeypatch, chart48):
    """A chart member builds its symbols and Ricci form when they are first
    read, each once, and the Ricci form reuses the symbols.  (A flat member's
    are zeros held at one node, without a derivative: the torus tests above.)"""
    calls = []
    for name in ("christoffel", "ricci_form"):

        def counted(*args, _fn=getattr(families, name), _name=name):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(families, name, counted)
    st = make_state(chart48, 0.1 + 0.05j)
    assert st.F.any() and st.E.any() and st.P.any()  # what a quotient reads
    assert calls == []
    gamma = st.gamma
    assert calls == ["christoffel"]
    rho = st.rho
    assert calls == ["christoffel", "ricci_form"]
    assert st.gamma is gamma and st.rho is rho
    assert calls == ["christoffel", "ricci_form"]
    st = make_state(chart48, 0.1 + 0.05j)
    st.rho  # reads the symbols it contracts
    assert calls[2:] == ["christoffel", "ricci_form"]


@pytest.mark.parametrize("n", [45, 64, 128])
def test_lazy_symbols_equal_the_eager_formulas(n):
    """The symbols and Ricci form built on first read are those of
    ``christoffel`` and ``ricci_form`` on the state's metric, bit for bit."""
    fam = chart_family(n)
    sigma = 0.1 + 0.05j
    for s in (sigma, sigma + step_for(sigma, EPS)):
        st = make_state(fam, s)
        gamma = christoffel(fam.grid, st.g)
        assert _same_bits(st.gamma, gamma)
        assert _same_bits(st.rho, ricci_form(fam.grid, gamma, st.J))


def test_chart_state_holds_no_symbols_until_read():
    """A 128x128 chart member holds 3 MiB of fields until its symbols are
    read (4.5 MiB with the symbols and the Ricci form)."""
    fam = chart_family(128)
    make_state(fam, 0.1 + 0.05j)
    tracemalloc.start()
    try:
        st = make_state(fam, 0.12 + 0.05j)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert "gamma" not in vars(st)
    assert held < 3.5 * 2**20


def test_dir_deriv_of_flat_members_is_one_node():
    """Between two flat members the difference quotient is taken at one node
    and held there; between chart members it is a full array.  Both equal
    the full-grid quotient bit for bit."""
    torus = families.TorusFamily(TorusGrid(32))
    chart = chart_family(32)
    for fam, sigma, flat in ((torus, 0.5 + 0.8j, True), (chart, 0.1 + 0.05j, False)):
        for fieldfn in (fam.J_at, fam.dw_at, lambda s: fam.state(s).F):
            for v in (1.0, 1j):
                e = step_for(sigma, EPS)
                plus, minus = (_grid_copy(fieldfn(sigma + d * v), fam.grid) for d in (e, -e))
                ref = (plus - minus) / (2.0 * e)
                got = dir_deriv(fieldfn, sigma, v, EPS)
                assert _same_bits(np.broadcast_to(got, ref.shape), ref)
                assert (got.shape[-2:] == (1, 1)) == flat


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


def test_state_cache_policy(monkeypatch):
    """``Family.state`` keeps the 48 latest-inserted states: the 49th distinct
    sigma evicts the first inserted, even after a lookup of it; during a
    build at most 48 states are held, the new one included; `drop_states`
    keeps only its member; and a build that raises is built again."""
    fam = families.TorusFamily(TorusGrid(4))
    held, fail = [], []

    def building(family, sigma):
        held.append(len([s for s in family._states if s != sigma]) + 1)
        if fail:
            raise fail.pop()
        return make_state(family, sigma)

    monkeypatch.setattr(families, "make_state", building)
    sigmas = [complex(0.01 * i, 1.0) for i in range(49)]
    first = fam.state(sigmas[0])
    for s in sigmas[1:48]:
        fam.state(s)
    assert fam.state(sigmas[0]) is first and len(held) == 48
    fam.state(sigmas[48])
    assert list(fam._states) == sigmas[1:]
    assert max(held) == 48
    keep = fam.state(sigmas[10])
    fam.drop_states(keep=sigmas[10])
    assert list(fam._states) == [sigmas[10]] and fam.state(sigmas[10]) is keep
    fail.append(RuntimeError("planted"))
    with pytest.raises(RuntimeError, match="planted"):
        fam.state(2j)
    assert fam.state(2j).sigma == 2j and held[-2:] == [2, 2]


def test_rigid_family_constant_datum_closed_form():
    # with f = c the generator must reproduce mu = (omega0 c / 4) sigma exactly
    grid = ChartGrid(17)
    c = 0.3 - 0.2j
    fam = rigid_family(grid, {0: c})
    for sigma in (0.1, 0.05 + 0.12j):
        target = (2 * np.pi * c / 4.0) * sigma
        assert max_norm(fam.mu(sigma) - target) < 1e-14


def _capture_series(monkeypatch) -> list:
    """Record the ``(mu_series, w_series)`` of every polynomial family built."""
    built = []
    make = families._poly_series_family

    def recording(grid, mu_series, w_series):
        built.append((mu_series, w_series))
        return make(grid, mu_series, w_series)

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
    fam = rigid_family(ChartGrid(48), CHART_COEFFS)
    for phase in (1.0, 1j, (1 + 1j) / np.sqrt(2)):
        assert max_norm(fam.mu(0.35 * phase)) < 0.5  # still a genuine structure at |sigma| 0.35
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
