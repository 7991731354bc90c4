from __future__ import annotations

import numpy as np
import pytest

from hitchinlab import operators
from hitchinlab.bundle import bundle_data
from hitchinlab.families import variation_tensors, vj_of
from hitchinlab.fields import max_norm
from hitchinlab.operators import (
    G_of,
    H_of,
    chart_sections,
    comparison_multiplier,
    connection_agreement_residual,
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
    assert max_norm(H_of(st, G_of(torus32, TAU, 1.0, EPS), st.F)) == 0.0


def test_u_apply_rejects_level_zero(torus32):
    G = G_of(torus32, TAU, 1.0, EPS)
    with pytest.raises(ValueError):
        u_apply(bundle_data(torus32, TAU, 0), G, np.ones(torus32.grid.shape))


def test_defining_identity_torus(torus64):
    for k in (1, 2):
        s = theta_basis(torus64.grid, k, TAU)[0]
        r = eq_defining_residual(torus64, bundle_data(torus64, TAU, k), 1.0, s, EPS)
        assert r < 1e-9


def test_defining_identity_mutations_visible_on_chart(chart48):
    # every term of this identity vanishes individually on the flat torus
    # (the corrected derivative of a theta section is again holomorphic),
    # so sign flips are only observable on a deformed chart member
    fam, _ = chart48
    bd = bundle_data(fam, SIGMA, 1)
    s = chart_sections(bd).values[0]
    base = eq_defining_residual(fam, bd, 1.0, s, EPS)
    for flip in ("vj", "trace"):
        r = eq_defining_residual(fam, bd, 1.0, s, EPS, flip=flip)
        assert r > 1e4 * base


def test_transfer_identity_torus(torus64):
    for k in (1, 3):
        s = theta_basis(torus64.grid, k, TAU)[0]
        bd = bundle_data(torus64, TAU, k)
        assert eq_transfer_residual(torus64, bd, 1.0, s, EPS) < 1e-8


def test_transfer_mutations_visible_on_chart(chart48):
    # the rho-term vanishes identically on the torus, so its flip is only
    # observable on a deformed chart member
    fam, _ = chart48
    bd = bundle_data(fam, SIGMA, 1)
    s = chart_sections(bd).values[0]
    base = eq_transfer_residual(fam, bd, 1.0, s, EPS)
    for flip, factor in (("omega", 1e4), ("trace", 1e4), ("rho", 50.0)):
        r = eq_transfer_residual(fam, bd, 1.0, s, EPS, flip=flip)
        assert r > factor * base


def test_potential_variation_residuals(torus32, chart48):
    assert potential_variation_residual(torus32, TAU, 1.0, EPS) < 1e-8
    fam, _ = chart48
    assert potential_variation_residual(fam, SIGMA, 1.0, EPS) < 1e-5


def test_potential_oneform_mutations_visible(chart48):
    fam, _ = chart48
    base = potential_oneform_residual(fam, SIGMA, 1.0, EPS)
    for flip in ("quad", "div"):
        assert potential_oneform_residual(fam, SIGMA, 1.0, EPS, flip=flip) > 100.0 * base


def test_comparison_multiplier_torus_closed_form(torus32):
    m = comparison_multiplier(torus32, potential_fn(torus32, "zero"), TAU)
    assert max_norm(m - (np.pi / TAU.imag) ** 0.25) < 1e-12


def test_frame_comparison_direction_dependence(torus32):
    r"""With the flat potential the parameter part misses exactly
    :math:`1/(4\operatorname{Im}\tau)` in the first coordinate direction,
    while the second direction cancels -- the sharp signature of the
    non-closed comparison one-form."""
    zero = potential_fn(torus32, "zero")
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
    zero = potential_fn(torus64, "zero")
    bd = bundle_data(torus64, TAU, 1)
    assert operator_pullback_residual(torus64, zero, bd, 1.0, s, EPS) < 1e-8
    fam, _ = chart48
    Ffn = potential_fn(fam, "ricci")
    bdc = bundle_data(fam, SIGMA, 1)
    sc = chart_sections(bdc).values[0]
    base = operator_pullback_residual(fam, Ffn, bdc, 1.0, sc, EPS)
    for flip in ("gradient", "potential"):
        r = operator_pullback_residual(fam, Ffn, bdc, 1.0, sc, EPS, flip=flip)
        assert r > max(100.0 * base, 1e-3)


def test_connection_agreement_obstruction_and_repair(torus32):
    s = theta_basis(torus32.grid, 1, TAU)[0]
    zero = potential_fn(torus32, "zero")
    fixed = potential_fn(torus32, "log-imtau")
    bd = bundle_data(torus32, TAU, 1)
    r_zero = connection_agreement_residual(torus32, zero, bd, 1.0, s, EPS)
    r_fix = connection_agreement_residual(torus32, fixed, bd, 1.0, s, EPS)
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
            G = G_of(torus32, tau, v, EPS)
        else:
            G = variation_tensors(torus32.state(tau), vj_of(torus32, tau, v, EPS))[1]
        batched = u_apply(bd, G, basis)
        single = np.stack([u_apply(bd, G, s) for s in basis])
        assert batched.shape == basis.shape
        assert np.array_equal(batched, single)


def test_torus_sections_are_holomorphic(torus64):
    bd = bundle_data(torus64, 1j, 3)
    ts = torus_sections(bd)
    assert ts.values.shape[0] == 3
    assert max(ts.defects) < 1e-10


def test_chart_sections_solve_and_reevaluate(chart48):
    fam, _ = chart48
    bd = bundle_data(fam, SIGMA, 1)
    ts = chart_sections(bd)
    assert max(ts.defects) < 1e-6
    # coefficient re-evaluation reproduces the stored values on the same grid
    for i in range(ts.values.shape[0]):
        re_eval = section_on(fam.grid, ts.coeff[i])
        assert max_norm(re_eval - ts.values[i]) < 1e-12


def _stacked_coeffs(D, systems):
    """The anchored solve on the full stacked system ``[D; kappa R]`` with
    ``lstsq``'s default cutoff: the reference for the one-QR solve of
    :func:`chart_sections`."""
    kappa = float(np.linalg.norm(D, 2))
    return [
        np.linalg.lstsq(
            np.vstack([D, kappa * R]),
            np.concatenate([np.zeros(D.shape[0], dtype=complex), kappa * t]),
            rcond=None,
        )[0]
        for R, t in systems
    ]


@pytest.mark.parametrize("k", [0, 1, 3])
def test_chart_sections_match_the_stacked_solve(chart48, monkeypatch, k):
    """One QR of the design matrix with the stacked system's rank cutoff
    keeps every numerical rank and moves the sections only at rounding.
    The ``k = 0`` defects sit at the rounding floor (about 1e-12), so the
    relative defect check has an absolute floor of 1e-12."""
    fam, _ = chart48
    bd = bundle_data(fam, SIGMA, k)
    lstsq = np.linalg.lstsq
    ranks = []

    def recorded(*args, **kwargs):
        out = lstsq(*args, **kwargs)
        ranks.append(int(out[2]))
        return out

    monkeypatch.setattr(np.linalg, "lstsq", recorded)
    ts = chart_sections(bd)
    monkeypatch.setattr(operators, "_anchored_coeffs", _stacked_coeffs)
    ref = chart_sections(bd)
    assert ranks[:2] == ranks[2:]
    assert max_norm(ts.values - ref.values) < 1e-5
    for d, r in zip(ts.defects, ref.defects):
        assert abs(d - r) <= 1e-3 * r + 1e-12


def test_unknown_potential_family_is_rejected(torus32):
    for which in ("quadratic", "no-such-family"):
        with pytest.raises(ValueError, match="unknown potential family"):
            potential_fn(torus32, which)
