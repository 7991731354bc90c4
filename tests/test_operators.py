from __future__ import annotations

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb

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
    fam = chart48
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
    fam = chart48
    bd = bundle_data(fam, SIGMA, 1)
    s = chart_sections(bd).values[0]
    base = eq_transfer_residual(fam, bd, 1.0, s, EPS)
    for flip, factor in (("omega", 1e4), ("trace", 1e4), ("rho", 50.0)):
        r = eq_transfer_residual(fam, bd, 1.0, s, EPS, flip=flip)
        assert r > factor * base


def test_potential_variation_residuals(torus32, chart48):
    assert potential_variation_residual(torus32, TAU, 1.0, EPS) < 1e-8
    fam = chart48
    assert potential_variation_residual(fam, SIGMA, 1.0, EPS) < 1e-5


def test_potential_oneform_mutations_visible(chart48):
    fam = chart48
    base = potential_oneform_residual(fam, SIGMA, 1.0, EPS)
    for flip in ("quad", "div"):
        assert potential_oneform_residual(fam, SIGMA, 1.0, EPS, flip=flip) > 100.0 * base


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
    zero = potential_fn(torus64, "ricci")
    bd = bundle_data(torus64, TAU, 1)
    assert operator_pullback_residual(torus64, zero, bd, 1.0, s, EPS) < 1e-8
    fam = chart48
    Ffn = potential_fn(fam, "ricci")
    bdc = bundle_data(fam, SIGMA, 1)
    sc = chart_sections(bdc).values[0]
    base = operator_pullback_residual(fam, Ffn, bdc, 1.0, sc, EPS)
    for flip in ("gradient", "potential"):
        r = operator_pullback_residual(fam, Ffn, bdc, 1.0, sc, EPS, flip=flip)
        assert r > max(100.0 * base, 1e-3)


def test_connection_agreement_obstruction_and_repair(torus32):
    s = theta_basis(torus32.grid, 1, TAU)[0]
    zero = potential_fn(torus32, "ricci")
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
    fam = chart48
    bd = bundle_data(fam, SIGMA, 1)
    ts = chart_sections(bd)
    assert max(ts.defects) < 1e-6
    # coefficient re-evaluation reproduces the stored values on the same grid
    for i in range(ts.values.shape[0]):
        re_eval = section_on(fam.grid, ts.coeff[i])
        assert max_norm(re_eval - ts.values[i]) < 1e-12


def _two_row_design(bd):
    """The design of :func:`chart_sections` with one row per grid node and
    coordinate component of the (0,1)-form ``(d_a s + A_a s) Q[a, b]``
    (``2 n^2`` rows): the reference for its one-row design.  Returns the
    design and the ``(p, q)`` degrees of its columns."""
    grid, Q = bd.grid, bd.state.Q
    deg = min(14 + 2 * int(round(bd.k)), 26)
    u1 = (grid.x[:, 0] - grid.center[0]) / grid.half
    v1 = (grid.y[0, :] - grid.center[1]) / grid.half
    Vx, Vy = cheb.chebvander(u1, deg), cheb.chebvander(v1, deg)
    dVx = np.stack([cheb.chebval(u1, cheb.chebder(np.eye(deg + 1)[:, p])) for p in range(deg + 1)], 1) / grid.half
    dVy = np.stack([cheb.chebval(v1, cheb.chebder(np.eye(deg + 1)[:, q])) for q in range(deg + 1)], 1) / grid.half
    pairs = [(p, q) for p in range(deg + 1) for q in range(deg + 1 - p)]
    Ax, Ay = bd.A
    cols = []
    for p, q in pairs:
        s = np.outer(Vx[:, p], Vy[:, q])
        sx = np.outer(dVx[:, p], Vy[:, q]) + Ax * s
        sy = np.outer(Vx[:, p], dVy[:, q]) + Ay * s
        cols.append(np.stack([sx * Q[0, 0] + sy * Q[1, 0], sx * Q[0, 1] + sy * Q[1, 1]]).ravel())
    return np.stack(cols, axis=1), pairs


def _recorded_solves(monkeypatch):
    """Record the design and the anchor systems of each :func:`chart_sections` solve."""
    calls = []
    solve = operators._anchored_coeffs

    def recorded(D, systems):
        calls.append((D, systems))
        return solve(D, systems)

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
    ((_, systems),) = calls
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
def test_chart_design_compresses_the_two_row_design(chart48, monkeypatch, k):
    """``Q = (I + iJ)/2`` has rank one, so the two coordinate blocks of the
    two-row design are pointwise proportional, ``c * l_0`` and ``c * l_1``
    with ``l = Q[0, :]``, and the one-row design, their component along
    ``conj(l)/|l|``, has the same Gram matrix."""
    fam = chart48
    bd = bundle_data(fam, SIGMA, k)
    calls = _recorded_solves(monkeypatch)
    chart_sections(bd)
    ((D1, _),) = calls
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


def test_unknown_potential_family_is_rejected(torus32):
    for which in ("quadratic", "no-such-family"):
        with pytest.raises(ValueError, match="unknown potential family"):
            potential_fn(torus32, which)
