from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb

from hitchinlab import families, operators
from hitchinlab.bundle import _times_potential, bundle_data, sec_deriv, sec_grad
from hitchinlab.catalog import case_ratio, chart_family
from hitchinlab.families import variation_tensors, vj_of
from hitchinlab.fields import ChartGrid, TorusGrid, grad, max_norm
from hitchinlab.geometry import cov_deriv
from hitchinlab.operators import (
    H_of,
    Point,
    chart_sections,
    comparison_multiplier,
    connection_agreement_residual,
    dF_holo,
    delta_G,
    eq_defining_residual,
    eq_transfer_residual,
    frame_comparison_residuals,
    operator_pullback_residual,
    potential_fn,
    potential_oneform_residual,
    potential_variation_residual,
    section_on,
    torus_sections,
    u_apply,
)
from hitchinlab.theta import theta_basis

EPS = 1e-4
TAU = 1 + 2j
SIGMA = 0.1 + 0.05j


def test_second_order_principal_symbol(torus64):
    r"""Vandermonde extraction of the symbol: for the conjugated operator
    :math:`p(\lambda) = e^{-i\lambda\chi}\,\Delta_G(e^{i\lambda\chi}s)` the
    :math:`\lambda^2` coefficient must be :math:`-G(d\chi, d\chi)\,s` --
    an oracle independent of every connection term."""
    grid = torus64.grid
    bd = bundle_data(torus64, TAU, 1)
    G = torus64.g_exact(TAU, 1.0)
    chi = np.cos(2 * np.pi * (grid.x + 2 * grid.y))
    dchi = np.stack([grid.deriv(chi, -2), grid.deriv(chi, -1)])
    s = theta_basis(grid, 1, TAU)[0]
    lams = (1.0, 2.0, 3.0)
    vals = np.stack(
        [np.exp(-1j * lam * chi) * delta_G(bd, G, np.exp(1j * lam * chi) * s) for lam in lams]
    )
    V = np.vander(np.array(lams), 3, increasing=True)  # columns: 1, lam, lam^2
    coeffs = np.einsum("ij,j...->i...", np.linalg.inv(V), vals)
    target = -np.einsum("a...,ab...,b...->...", dchi, G, dchi) * s
    assert max_norm(coeffs[2] - target) / max_norm(target) < 1e-7
    # and the lambda^0 coefficient is the plain operator
    assert max_norm(coeffs[0] - delta_G(bd, G, s)) / max_norm(target) < 1e-7


def test_divergence_potential_vanishes_on_torus(torus32):
    st = torus32.state(TAU)
    assert max_norm(H_of(st, Point(torus32, TAU, 1.0, EPS).G, dF_holo(st, st.F))) == 0.0


def test_H_of_takes_no_derivative_of_a_vanishing_potential(torus32, monkeypatch):
    st = torus32.state(TAU)
    G = Point(torus32, TAU, 1.0, EPS).G

    def no_deriv(self, f, axis):
        raise AssertionError("H_of differentiated the zero potential")

    monkeypatch.setattr(TorusGrid, "deriv", no_deriv)
    pF = dF_holo(st, st.F)
    assert pF.dtype == complex and pF.shape == (2, 1, 1) and not pF.any()
    for flip in (None, "quad", "div"):
        H = H_of(st, G, pF, flip)
        assert H.dtype == complex and H.shape[-2:] == (1, 1)
        assert not H.any()


def test_H_of_propagates_nan_in_the_potential(torus32):
    st = torus32.state(TAU)
    F = np.zeros(st.grid.shape, dtype=complex)
    F[3, 5] = np.nan
    assert np.isnan(H_of(st, Point(torus32, TAU, 1.0, EPS).G, dF_holo(st, F))).all()


def _H_full(st, G, F):
    r""":math:`H(V) = -\partial F\,G\,\partial F - \operatorname{Tr}\tilde\nabla(G\,\partial F)`
    written out with no shortcut for a vanishing ``F``: the reference for
    :func:`H_of`."""
    pF = np.einsum("a...,ab...->b...", grad(st.grid, F), st.P)
    quad = np.einsum("a...,ab...,b...->...", pF, G, pF)
    GdF = np.einsum("ab...,b...->a...", G, pF)
    div = np.einsum("aa...->...", cov_deriv(st.grid, st.gamma, GdF, "u"))
    return -quad - div


def test_H_of_matches_the_full_formula_bit_for_bit(chart48):
    st = chart48.state(SIGMA)
    G = Point(chart48, SIGMA, 1.0, EPS).G
    assert st.F.any()
    assert np.array_equal(H_of(st, G, dF_holo(st, st.F)), _H_full(st, G, st.F))


def test_u_apply_rejects_level_zero(torus32):
    pt = Point(torus32, TAU, 1.0, EPS)
    with pytest.raises(ValueError):
        u_apply(bundle_data(torus32, TAU, 0), pt.G, pt.H, np.ones(torus32.grid.shape))


def test_defining_identity_torus(torus64):
    for k in (1, 2):
        s = theta_basis(torus64.grid, k, TAU)[0]
        pt = Point(torus64, TAU, 1.0, EPS, bundle_data(torus64, TAU, k), s)
        r = case_ratio(*eq_defining_residual(pt))
        assert r < 1e-9


def test_defining_identity_mutations_visible_on_chart(chart48):
    # every term of this identity vanishes individually on the flat torus
    # (the corrected derivative of a theta section is again holomorphic),
    # so sign flips are only observable on a deformed chart member
    fam = chart48
    bd = bundle_data(fam, SIGMA, 1)
    s = chart_sections(bd).values[0]
    pt = Point(fam, SIGMA, 1.0, EPS, bd, s)
    base = case_ratio(*eq_defining_residual(pt))
    for flip in ("vj", "trace"):
        r = case_ratio(*eq_defining_residual(pt, flip=flip))
        assert r > 1e4 * base


def test_transfer_identity_torus(torus64):
    for k in (1, 3):
        s = theta_basis(torus64.grid, k, TAU)[0]
        bd = bundle_data(torus64, TAU, k)
        assert case_ratio(*eq_transfer_residual(Point(torus64, TAU, 1.0, EPS, bd, s))) < 1e-8


def test_transfer_mutations_visible_on_chart(chart48):
    # the rho-term vanishes identically on the torus, so its flip is only
    # observable on a deformed chart member
    fam = chart48
    bd = bundle_data(fam, SIGMA, 1)
    s = chart_sections(bd).values[0]
    pt = Point(fam, SIGMA, 1.0, EPS, bd, s)
    base = case_ratio(*eq_transfer_residual(pt))
    for flip, factor in (("omega", 1e4), ("trace", 1e4), ("rho", 50.0)):
        r = case_ratio(*eq_transfer_residual(pt, flip=flip))
        assert r > factor * base


def test_potential_variation_residuals(torus32, chart48):
    assert case_ratio(*potential_variation_residual(Point(torus32, TAU, 1.0, EPS))) < 1e-8
    fam = chart48
    assert case_ratio(*potential_variation_residual(Point(fam, SIGMA, 1.0, EPS))) < 1e-5


def test_potential_oneform_mutations_visible(chart48):
    fam = chart48
    pt = Point(fam, SIGMA, 1.0, EPS)
    base = case_ratio(*potential_oneform_residual(pt))
    for flip in ("quad", "div"):
        r = case_ratio(*potential_oneform_residual(pt, flip=flip))
        assert r > 100.0 * base


def test_comparison_multiplier_torus_closed_form(torus32):
    m = comparison_multiplier(torus32, potential_fn(torus32, "ricci"), TAU)
    assert max_norm(m - (np.pi / TAU.imag) ** 0.25) < 1e-12


def test_frame_comparison_direction_dependence(torus32):
    r"""With the flat potential the parameter part misses exactly
    :math:`1/(4\operatorname{Im}\tau)` in the first coordinate direction,
    while the second direction cancels -- the sharp signature of the
    non-closed comparison one-form."""
    zero = potential_fn(torus32, "ricci")
    _, rt1 = frame_comparison_residuals(torus32, zero, TAU, 1.0, EPS)
    _, rt2 = frame_comparison_residuals(torus32, zero, TAU, 1j, EPS)
    assert abs(rt1 - 1.0 / (4.0 * TAU.imag)) < 1e-6
    assert rt2 < 1e-6


def test_frame_comparison_repaired_potential(torus32):
    fixed = potential_fn(torus32, "log-imtau")
    for v in (1.0, 1j):
        rm, rt = frame_comparison_residuals(torus32, fixed, TAU, v, EPS)
        assert rm < 1e-10
        assert rt < 1e-6


def test_pullback_identity_and_mutations(torus64, chart48):
    s = theta_basis(torus64.grid, 1, TAU)[0]
    bd = bundle_data(torus64, TAU, 1)
    assert case_ratio(*operator_pullback_residual(Point(torus64, TAU, 1.0, EPS, bd, s))) < 1e-8
    fam = chart48
    bdc = bundle_data(fam, SIGMA, 1)
    sc = chart_sections(bdc).values[0]
    pt = Point(fam, SIGMA, 1.0, EPS, bdc, sc)
    base = case_ratio(*operator_pullback_residual(pt))
    for flip in ("gradient", "potential"):
        r = case_ratio(*operator_pullback_residual(pt, flip=flip))
        assert r > max(100.0 * base, 1e-3)


def test_connection_agreement_obstruction_and_repair(torus32):
    s = theta_basis(torus32.grid, 1, TAU)[0]
    pt = Point(torus32, TAU, 1.0, EPS, bundle_data(torus32, TAU, 1), s)
    r_zero = case_ratio(*connection_agreement_residual(pt, "ricci"))
    r_fix = case_ratio(*connection_agreement_residual(pt, "log-imtau"))
    assert abs(r_zero - 1.0 / (4.0 * TAU.imag)) < 1e-10
    assert r_fix < 1e-6


@pytest.mark.parametrize("exact", [True, False])
def test_u_apply_batch_matches_per_section(torus32, exact):
    """A batch of sections gives, bit for bit, the per-section results."""
    tau, k = 0.5 + 0.8j, 3
    basis = theta_basis(torus32.grid, k, tau)
    bd = bundle_data(torus32, tau, k)
    for v in (1.0, 1j):
        if exact:
            G = Point(torus32, tau, v, EPS).G
        else:
            G = variation_tensors(torus32.state(tau), vj_of(torus32, tau, v, EPS))[1]
        H = _H(bd, G)
        batched = u_apply(bd, G, H, basis)
        single = np.stack([u_apply(bd, G, H, s) for s in basis])
        assert batched.shape == basis.shape
        assert np.array_equal(batched, single)


# the out-of-place expressions that the in-place operators replaced: the
# references for their bits


def _deriv_ref(grid, f, axis):
    if isinstance(grid, ChartGrid):
        return grid.deriv(f, axis)
    real = not np.iscomplexobj(f)
    fh = np.fft.rfft(f, axis=axis) if real else np.fft.fft(f, axis=axis)
    fh *= grid._ik[: fh.shape[axis]].reshape((-1,) + (1,) * (fh.ndim - 1 - axis % fh.ndim))
    return np.fft.irfft(fh, grid.n, axis=axis) if real else np.fft.ifft(fh, axis=axis)


def _sec_deriv_ref(bd, f, axis):
    grid = bd.grid
    if axis == -1 and bd.gauge is not None:
        return (_deriv_ref(grid, f * bd.gauge, -1)) / bd.gauge - 2j * np.pi * bd.k * grid.x * f
    return _deriv_ref(grid, f, axis)


def _sec_grad_ref(bd, f):
    df = np.stack([_sec_deriv_ref(bd, f, -2), _sec_deriv_ref(bd, f, -1)])
    return df + _times_potential(bd.A, f)


def _H(bd, G):
    """``H(V)`` of ``G`` and the Ricci potential of the state of ``bd``."""
    st = bd.state
    return H_of(st, G, dF_holo(st, st.F))


def _u_apply_ref(bd, G, f):
    st = bd.state
    t = np.einsum("ba...,a...->b...", G, _sec_grad_ref(bd, f))
    gt = np.einsum("aac...,c...->a...", st.gamma, t)
    dG = sum(_sec_deriv_ref(bd, t[a], a - 2) + gt[a] + bd.A[a] * t[a] for a in range(2))
    return (dG + _H(bd, G) * f) / (4.0 * bd.k)


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _stale(shape, dtype=complex):
    """An ``out`` or scratch array full of NaN, so that a value read from it
    before it is written shows."""
    return np.full(shape, np.nan, dtype=dtype)


@pytest.mark.parametrize("n", [32, 33, 64])
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
def test_torus_deriv_in_place_keeps_the_bits(n, batch):
    """The derivative equals its out-of-place expression bit for bit, and
    written into ``out`` it equals the ``out=None`` call."""
    grid = TorusGrid(n)
    rng = np.random.default_rng(n)
    re = rng.standard_normal(batch + grid.shape)
    for f in (re, re + 1j * rng.standard_normal(batch + grid.shape)):
        for axis in (-2, -1):
            ref = _deriv_ref(grid, f, axis)
            assert _same_bits(grid.deriv(f, axis), ref)
            out = _stale(f.shape, f.dtype)
            assert grid.deriv(f, axis, out=out) is out
            assert _same_bits(out, ref)


@pytest.mark.parametrize("backend", ["torus", "torus-odd", "chart"])
def test_section_operators_in_place_keep_the_bits(torus64, chart48, backend):
    """``sec_deriv``, ``sec_grad`` and ``u_apply`` equal their out-of-place
    expressions bit for bit, on a flat torus member (gauge, zero symbols and
    ``H``) and on a curved chart member, for one section and a batch."""
    fam, p = {
        "torus": (torus64, TAU),
        "torus-odd": (families.TorusFamily(TorusGrid(33)), TAU),
        "chart": (chart48, SIGMA),
    }[backend]
    rng = np.random.default_rng(7)
    shape = (3,) + fam.grid.shape
    batch = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    G = Point(fam, p, 1.0, EPS).G
    for k in (1, 3):
        bd = bundle_data(fam, p, k)
        H = _H(bd, G)
        for f in (batch[0], batch):
            for axis in (-2, -1):
                assert _same_bits(sec_deriv(bd, f, axis), _sec_deriv_ref(bd, f, axis))
            assert _same_bits(sec_grad(bd, f), _sec_grad_ref(bd, f))
            assert _same_bits(u_apply(bd, G, H, f), _u_apply_ref(bd, G, f))


@pytest.mark.parametrize("backend", ["torus", "torus-odd", "chart"])
def test_section_operators_write_into_out_bit_for_bit(torus64, chart48, backend):
    """``sec_deriv``, ``sec_grad``, ``delta_G`` and ``u_apply`` given ``out``
    and scratch arrays equal their ``out=None`` calls bit for bit.  The
    arrays start as NaN and are reused over the levels, one section and a
    batch, so a value read before it is written, or left from an earlier
    call, shows."""
    fam, p = {
        "torus": (torus64, TAU),
        "torus-odd": (families.TorusFamily(TorusGrid(33)), TAU),
        "chart": (chart48, SIGMA),
    }[backend]
    rng = np.random.default_rng(11)
    shape = (3,) + fam.grid.shape
    batch = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    G = Point(fam, p, 1.0, EPS).G
    outs = {f.ndim: (_stale((2,) + f.shape), _stale((4,) + f.shape)) for f in (batch[0], batch)}
    for k in (1, 3):
        bd = bundle_data(fam, p, k)
        H = _H(bd, G)
        for f in (batch[0], batch):
            two, four = outs[f.ndim]
            out, scratch = two
            for axis in (-2, -1):
                got = sec_deriv(bd, f, axis, out=out, scratch=scratch)
                assert got is out and _same_bits(got, sec_deriv(bd, f, axis))
            got = sec_grad(bd, f, out=two, scratch=four[0])
            assert got is two and _same_bits(got, sec_grad(bd, f))
            got = delta_G(bd, G, f, out=out, scratch=four)
            assert got is out and _same_bits(got, delta_G(bd, G, f))
            got = u_apply(bd, G, H, f, out=out, scratch=four)
            assert got is out and _same_bits(got, u_apply(bd, G, H, f))


def test_torus_sections_are_holomorphic(torus64):
    bd = bundle_data(torus64, 1j, 3)
    ts = torus_sections(bd)
    assert ts.values.shape[0] == 3
    assert max(ts.defects) < 1e-10


def test_chart_sections_solve_and_reevaluate(chart48):
    fam = chart48
    bd = bundle_data(fam, SIGMA, 1)
    ts = chart_sections(bd)
    assert max(ts.defects) < 1e-6
    # coefficient re-evaluation reproduces the stored values on the same grid
    for i in range(ts.values.shape[0]):
        re_eval = section_on(fam.grid, ts.coeff[i])
        assert max_norm(re_eval - ts.values[i]) < 1e-12


def _basis_derivatives(bd):
    """The ``(p, q)`` degrees of the tensor-Chebyshev basis of
    :func:`chart_sections` and, one element at a time, its covariant
    derivatives ``(d_x s + A_x s, d_y s + A_y s)`` on the grid."""
    grid = bd.grid
    deg = min(14 + 2 * int(round(bd.k)), 26)
    u1 = (grid.x[:, 0] - grid.center[0]) / grid.half
    v1 = (grid.y[0, :] - grid.center[1]) / grid.half
    Vx, Vy = cheb.chebvander(u1, deg), cheb.chebvander(v1, deg)
    dVx = np.stack([cheb.chebval(u1, cheb.chebder(np.eye(deg + 1)[:, p])) for p in range(deg + 1)], 1) / grid.half
    dVy = np.stack([cheb.chebval(v1, cheb.chebder(np.eye(deg + 1)[:, q])) for q in range(deg + 1)], 1) / grid.half
    pairs = [(p, q) for p in range(deg + 1) for q in range(deg + 1 - p)]
    Ax, Ay = bd.A

    def derivs():
        for p, q in pairs:
            s = np.outer(Vx[:, p], Vy[:, q])
            yield np.outer(dVx[:, p], Vy[:, q]) + Ax * s, np.outer(Vx[:, p], dVy[:, q]) + Ay * s

    return pairs, derivs()


def _two_row_design(bd):
    """The design of :func:`chart_sections` with one row per grid node and
    coordinate component of the (0,1)-form ``(d_a s + A_a s) Q[a, b]``
    (``2 n^2`` rows): the reference for its one-row design.  Returns the
    design and the ``(p, q)`` degrees of its columns."""
    Q = bd.state.Q
    pairs, derivs = _basis_derivatives(bd)
    cols = [np.stack([sx * Q[0, 0] + sy * Q[1, 0], sx * Q[0, 1] + sy * Q[1, 1]]).ravel() for sx, sy in derivs]
    return np.stack(cols, axis=1), pairs


def _per_column_design(bd):
    """The one-row design of :func:`chart_sections`, written column by
    column into a row-major array: the reference loop for
    ``operators._chart_design``."""
    Q = bd.state.Q
    l_norm = np.hypot(np.abs(Q[0, 0]), np.abs(Q[0, 1]))
    wx, wy = np.einsum("ab...,b...->a...", Q, np.conj(Q[0])) / l_norm
    pairs, derivs = _basis_derivatives(bd)
    D = np.empty((bd.grid.n * bd.grid.n, len(pairs)), dtype=complex)
    for j, (sx, sy) in enumerate(derivs):
        D[:, j] = (sx * wx + sy * wy).ravel()
    return D


def _design(bd):
    """The column-major design that :func:`chart_sections` factors."""
    return operators._chart_design(bd, operators._chart_basis(bd.grid, bd.k))


@pytest.mark.parametrize("k", [0, 1, 3])
def test_chart_design_layouts_match_the_per_column_loop(chart48, k):
    """The design, column-major, holds the bits of the per-column loop."""
    bd = bundle_data(chart48, SIGMA, k)
    ref = _per_column_design(bd)
    D = _design(bd)
    assert D.flags["F_CONTIGUOUS"]
    assert D.dtype == ref.dtype and np.array_equal(D, ref)


@pytest.mark.parametrize("grid", [13, 48, 64])
def test_chart_defects_match_the_design_product(chart48, grid):
    """Each defect, taken from the coefficient matrix as the section's own
    (0,1)-derivative, is ``max |D c| comp / scale`` on the per-column
    design, to rounding: the largest gap over grids 13, 48 and 64 and
    ``k = 0, 1, 3`` is 1.72e-15 (grid 48, ``k = 1``, second section; BLAS
    threads pinned, 2.2e-15 at two), and the bound is three times that, rounded up."""
    fam = chart48 if grid == 48 else chart_family(grid)
    for k in (0, 1, 3):
        bd = bundle_data(fam, SIGMA, k)
        ts = chart_sections(bd)
        ps, qs = np.array(_basis_derivatives(bd)[0]).T
        D = _per_column_design(bd)
        Q = bd.state.Q
        comp = np.maximum(np.abs(Q[0, 0]), np.abs(Q[0, 1])) / np.hypot(np.abs(Q[0, 0]), np.abs(Q[0, 1]))
        for defect, C in zip(ts.defects, ts.coeff):
            ref = float(np.max(np.abs(D @ C[ps, qs]) * comp.ravel()))
            assert abs(defect - ref) <= 6e-15, (k, defect, ref)


@pytest.mark.parametrize("grid, k", [(48, 0), (48, 1), (48, 3), (13, 3)])
def test_inplace_qr_keeps_the_bits_of_numpy_qr(chart48, grid, k):
    """The in-place ``zgeqrf`` factor equals ``np.linalg.qr(D, mode="r")``
    bit for bit on the real designs, tall (grid 48) and wide (grid 13 at
    ``k = 3``: 169 rows, 231 columns)."""
    fam = chart48 if grid == 48 else chart_family(grid)
    D = _design(bundle_data(fam, SIGMA, k))
    assert (D.shape[0] < D.shape[1]) == (grid == 13)
    ref = np.linalg.qr(D, mode="r")
    RD = operators._qr_r_inplace(D)
    assert RD.shape == ref.shape == (min(D.shape), D.shape[1])
    assert RD.dtype == ref.dtype and np.array_equal(RD, ref)


def test_inplace_qr_takes_a_column_major_complex_matrix():
    """A row-major or real matrix is refused before LAPACK sees it: a
    row-major buffer would factor the transpose."""
    D = np.ones((4, 3), dtype=complex)
    for bad in (D, D.real.copy(order="F"), np.ones((2, 4, 3), dtype=complex, order="F")):
        with pytest.raises(ValueError, match="column-major complex128"):
            operators._qr_r_inplace(bad)


def test_chart_sections_hold_one_copy_of_the_design():
    """One grid-64, ``k = 3`` solve traces at most 1.25 times the design's
    bytes (14.4 MiB): the design is built once and factored in place, and
    the defects take no design (a solve through ``np.linalg.qr``, which
    copies the design, traces 30.4 MiB).
    tracemalloc sees the arrays NumPy allocates, not the buffers LAPACK
    and the linalg gufuncs allocate themselves, so the process's RSS rises
    by a little more (17.5 MiB)."""
    bd = bundle_data(chart_family(64), SIGMA, 3)
    design_bytes = 64 * 64 * 231 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        chart_sections(bd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * design_bytes, f"traced peak {peak / 2**20:.1f} MiB"


def _recorded_solves(monkeypatch):
    """Record the triangular factor, its design's row count and the anchor
    systems of each :func:`chart_sections` solve."""
    calls = []
    solve = operators._anchored_coeffs

    def recorded(RD, rows, systems):
        calls.append((RD, rows, systems))
        return solve(RD, rows, systems)

    monkeypatch.setattr(operators, "_anchored_coeffs", recorded)
    return calls


@pytest.mark.parametrize("k", [0, 1, 3])
def test_chart_sections_match_the_stacked_solve(chart48, monkeypatch, k):
    """The one-row design, solved with one QR and the stacked system's rank
    cutoff, keeps every numerical rank of ``lstsq`` on the two-row design
    stacked with the anchors and moves the sections only at rounding.  The
    ``k = 0`` defects sit at the rounding floor (about 1e-12), so the
    relative defect check has an absolute floor of 1e-12."""
    fam = chart48
    bd = bundle_data(fam, SIGMA, k)
    lstsq = np.linalg.lstsq
    ranks = []

    def ranked(*args, **kwargs):
        out = lstsq(*args, **kwargs)
        ranks.append(int(out[2]))
        return out

    calls = _recorded_solves(monkeypatch)
    monkeypatch.setattr(np.linalg, "lstsq", ranked)
    ts = chart_sections(bd)
    ((_, _, systems),) = calls
    D, pairs = _two_row_design(bd)
    kappa = float(np.linalg.norm(D, 2))
    ps, qs = np.array(pairs).T
    for i, (R, t) in enumerate(systems):
        stacked = np.vstack([D, kappa * R])
        target = np.concatenate([np.zeros(D.shape[0], dtype=complex), kappa * t])
        c = np.linalg.lstsq(stacked, target, rcond=None)[0]
        C = np.zeros((ps.max() + 1, qs.max() + 1), dtype=complex)
        C[ps, qs] = c
        s = section_on(fam.grid, C)
        scale = max_norm(s)
        assert max_norm(ts.values[i] - s / scale) < 1e-5
        ref_defect = max_norm(D @ c) / scale
        assert abs(ts.defects[i] - ref_defect) <= 1e-3 * ref_defect + 1e-12
    assert ranks[:2] == ranks[2:]


@pytest.mark.parametrize("k", [0, 1, 3])
def test_chart_design_compresses_the_two_row_design(chart48, k):
    """``Q = (I + iJ)/2`` has rank one, so the two coordinate blocks of the
    two-row design are pointwise proportional, ``c * l_0`` and ``c * l_1``
    with ``l = Q[0, :]``, and the one-row design, their component along
    ``conj(l)/|l|``, has the same Gram matrix."""
    fam = chart48
    bd = bundle_data(fam, SIGMA, k)
    D1 = _design(bd)
    D, _ = _two_row_design(bd)
    m = D1.shape[0]
    assert D.shape == (2 * m, D1.shape[1])
    Q = bd.state.Q
    l0, l1 = Q[0, 0].ravel(), Q[0, 1].ravel()
    l_norm = np.hypot(np.abs(l0), np.abs(l1))
    assert l_norm.min() >= 0.5
    cross = D[:m] * l1[:, None] - D[m:] * l0[:, None]
    assert max_norm(cross) <= 1e-14 * max_norm(D) * l_norm.max()
    gram_gap = np.linalg.norm(D1.conj().T @ D1 - D.conj().T @ D, 2)
    assert gram_gap <= 1e-13 * np.linalg.norm(D, 2) ** 2


# Records every lstsq solve of the chart sections at grid 64 and the default
# sigma, k = 0, 1 and 3, with its rank and singular-value margins.
RANK_PROBE = """
import json
import numpy as np
from hitchinlab.bundle import bundle_data
from hitchinlab.catalog import RunConfig, chart_family
from hitchinlab.operators import chart_sections

solves = []
lstsq = np.linalg.lstsq

def recorded(a, b, rcond=None):
    out = lstsq(a, b, rcond=rcond)
    rank, sv = int(out[2]), out[3]
    cutoff = rcond * sv[0]
    solves.append({
        "rank": rank,
        "kept": float(sv[rank - 1] / cutoff),
        "dropped": float(sv[rank] / cutoff) if rank < len(sv) else None,
    })
    return out

np.linalg.lstsq = recorded
fam = chart_family(64)
for k in (0, 1, 3):
    chart_sections(bundle_data(fam, RunConfig().sigma, k))
print(json.dumps(solves))
"""


def test_chart_section_ranks_at_grid_64():
    """The six ranks of the anchored chart-section solves (k = 0, 1, 3;
    one and two anchors) at grid 64 and the default sigma, BLAS threads
    pinned to one.  Singular values within a factor of a few of the rank
    cutoff are kept or dropped, so another factorization, BLAS build or
    thread count can flip a rank and move the sections by far more than
    rounding (0.36 sup at k = 1); this test names the flip, with the
    margins of every solve (docs/identities.md, *Chart test sections*)."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-c", RANK_PROBE], env=env, capture_output=True, text=True, timeout=300, check=True
    )
    solves = json.loads(out.stdout.splitlines()[-1])
    labels = [(k, anchors) for k in (0, 1, 3) for anchors in (1, 2)]
    margins = "\n".join(
        f"k = {k}, {anchors} anchor(s): rank {s['rank']}, smallest kept / cutoff "
        f"{s['kept']:.2f}, largest dropped / cutoff "
        + ("none" if s["dropped"] is None else f"{s['dropped']:.2f}")
        for (k, anchors), s in zip(labels, solves)
    )
    assert [s["rank"] for s in solves] == [111, 112, 150, 151, 230, 231], margins


def test_unknown_potential_family_is_rejected(torus32):
    for which in ("quadratic", "no-such-family"):
        with pytest.raises(ValueError, match="unknown potential family"):
            potential_fn(torus32, which)
