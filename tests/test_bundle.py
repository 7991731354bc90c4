from __future__ import annotations

import numpy as np
import pytest

from hitchinlab.bundle import (
    a_T,
    bundle_data,
    bundle_levels,
    curvature_mm,
    curvature_tm,
    curvature_tt,
    halfform_potential,
    level_potential,
    mm_commutator_residual,
    sec_deriv,
)
from hitchinlab.catalog import case_ratio
from hitchinlab.fields import max_norm
from hitchinlab.operators import param_commutator_curvature
from hitchinlab.theta import theta_basis, theta_basis_dx

EPS = 1e-4
TAU = 1 + 2j


@pytest.mark.parametrize("backend", ["torus", "chart"])
def test_bundle_levels_moved_in_place_equal_fresh_ones(torus32, chart48, backend):
    """Bundle data moved to another member (``out=``) is that member's bundle
    data bit for bit, in the same objects; on the chart the half-form
    potential, and so the total potential, differ between the members."""
    fam, s1, s2 = {"torus": (torus32, 1j, 1 + 1j), "chart": (chart48, 0.1 + 0.05j, -0.07 + 0.2j)}[backend]
    levels = (1, 3)
    held = list(bundle_levels(fam, s1, levels))
    moved = list(bundle_levels(fam, s2, levels, out=held))
    fresh = list(bundle_levels(fam, s2, levels))
    for h, m, f in zip(held, moved, fresh):
        assert m is h and m.state is f.state and m.k == f.k
        for name in ("A_L", "a_delta", "A", "gauge", "gauge_dy"):
            a, b = getattr(m, name), getattr(f, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), name


def test_level_potential_gauges(torus32, chart48):
    st = torus32.state(TAU)
    A = level_potential(st, 3)
    assert max_norm(A[0] - 6j * np.pi * st.grid.y) == 0.0
    assert max_norm(A[1]) == 0.0
    fam = chart48
    stc = fam.state(0.0)
    Ac = level_potential(stc, 2)
    # symmetric gauge: curl is the constant -i k omega0
    curl = stc.grid.deriv(Ac[1], -2) - stc.grid.deriv(Ac[0], -1)
    assert max_norm(curl + 2j * stc.omega0) < 1e-10


def _type_leakage(state) -> float:
    r"""Sup over the interior of :math:`|\beta|` in
    :math:`\nabla dw = \alpha\otimes dw + \beta\otimes d\bar w`, the
    part of the half-form frame's derivative that ``halfform_potential``
    drops (zero for an honest Kaehler member)."""
    grid = state.grid
    ddw = np.stack([grid.deriv(state.dw, -2), grid.deriv(state.dw, -1)])
    ddw = ddw - np.einsum("cab...,c...->ab...", state.gamma, state.dw)
    beta = np.einsum("ab...,b...->a...", ddw, np.conj(state.E))
    return max_norm(beta, grid.interior())


def test_halfform_potential_vanishes_on_torus(torus32):
    st = torus32.state(TAU)
    assert max_norm(halfform_potential(st)) < 1e-12
    assert _type_leakage(st) < 1e-12


def test_chart_type_leakage_small(chart48):
    fam = chart48
    assert _type_leakage(fam.state(0.1 + 0.05j)) < 1e-7


def test_parameter_coefficient_closed_form(torus32):
    for v in (1.0, 1j, 0.6 - 0.8j):
        closed = -1j * v / (4.0 * TAU.imag)
        assert max_norm(a_T(torus32, TAU, v, EPS) - closed) < 1e-8
        assert max_norm(a_T(torus32, TAU, v, EPS, exact=True) - closed) == 0.0


def _frame_step_check(family, sigma: complex, v: complex, eps: float) -> float:
    """Branch-continuity diagnostic: relative drift of A_T under step halving.

    A sign flip of the square-root frame between neighbouring parameters
    would blow the difference quotient up by O(1/eps); consistent
    quotients certify the frame was continued on one branch.
    """
    a1 = a_T(family, sigma, v, eps)
    a2 = a_T(family, sigma, v, 0.5 * eps)
    scale = max(max_norm(a1), 1e-12)
    return max_norm(a1 - a2) / scale


def test_frame_continuation_is_stable(torus32):
    assert _frame_step_check(torus32, TAU, 1.0, EPS) < 1e-6


def test_parameter_curvature_closed_form(torus32):
    target = -1j / (4.0 * TAU.imag**2)
    assert max_norm(curvature_tt(torus32, TAU, EPS) - target) < 1e-8
    assert max_norm(param_commutator_curvature(torus32, TAU, EPS) - target) < 1e-12


def test_mixed_curvature_vanishes_on_torus(torus32):
    assert max_norm(curvature_tm(torus32, TAU, 1.0, EPS)) < 1e-10


def test_surface_curvature_closed_form(torus32, chart48):
    bd = bundle_data(torus32, TAU, 2)
    assert max_norm(curvature_mm(bd) + 4j * np.pi) < 1e-12
    fam = chart48
    bdc = bundle_data(fam, 0.0, 1)
    # undeformed member: flat metric, no half-form contribution
    st = bdc.state
    assert max_norm(curvature_mm(bdc) + 1j * st.omega0, st.grid.interior()) < 1e-8


def test_surface_curvature_commutator_probe(torus64):
    for k in (1, 3):
        bd = bundle_data(torus64, 1j, k)
        s = theta_basis(torus64.grid, k, 1j)[0]
        assert case_ratio(*mm_commutator_residual(bd, s, -2j * np.pi * k)) < 1e-9


def test_gauge_aware_derivative_matches_termwise_sums(torus32):
    # the spectral x-derivative of the basis must agree with the exact
    # termwise derivative of the lattice sum
    k = 2
    b = theta_basis(torus32.grid, k, TAU)
    exact = theta_basis_dx(torus32.grid, k, TAU, 1)
    bd = bundle_data(torus32, TAU, k)
    for j in range(k):
        num = sec_deriv(bd, b[j], -2)
        assert max_norm(num - exact[j]) / max_norm(exact[j]) < 1e-11


def test_y_derivative_periodicity_conjugation(torus32):
    # raw columns are non-periodic; sec_deriv must still differentiate the
    # multiplier-twisted section correctly: check against the termwise sum
    # d_y = tau * d_x on the z-dependence plus the gauge transport term
    k = 1
    tau = 1j
    grid = torus32.grid
    b = theta_basis(grid, k, tau)[0]
    num = sec_deriv(bundle_data(torus32, tau, k), b, -1)
    # termwise: d_y summand = (2 pi i k n~ tau + 2 pi i k tau y) * summand
    d_dx = theta_basis_dx(grid, k, tau, 1)[0]
    exact = tau * d_dx + 2j * np.pi * k * tau * grid.y * b
    assert max_norm(num - exact) / max_norm(exact) < 1e-10
