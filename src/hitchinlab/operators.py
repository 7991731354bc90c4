r"""The family-connection operator stack and its identity residuals.

The family connection studied here acts on coefficient functions of the
level-``k`` half-form-twisted bundle as

.. math::
    \nabla_V = \hat\nabla^r_V + u(V), \qquad
    u(V) = \tfrac{1}{4k}\big(\Delta_{G(V)} + H(V)\big),

where :math:`\hat\nabla^r_V` is the reference derivative (parameter
derivative of the coefficient plus the half-form coefficient
:math:`A_T(V)`), :math:`\Delta_{G(V)}` is the second-order operator

.. math::
    \Delta_{G(V)} = \operatorname{Tr}\big(
        (\tilde\nabla\otimes\mathrm{id} + \mathrm{id}\otimes\nabla)
        \circ (G(V)\otimes\mathrm{id})\circ\nabla\big)

and :math:`H(V)` is the divergence-type potential one computes from the
Ricci potential ``F``:

.. math::
    H(V) = -2n\,V'[F] - \partial F\, G(V)\,\partial F
           - \operatorname{Tr}\tilde\nabla(G(V)\,\partial F),

with ``n = 0`` throughout this lab (torus and planar chart).

Every identity of the catalog is implemented as a *residual*: both sides
are assembled through independent code paths (difference quotients in
the parameter, spectral/finite-difference calculus on the surface) and
the sup-norm of the difference over ``grid.interior()``, normalized by
the section scale, is reported.  ``flip`` arguments implement the
mutation self-test: flipping the sign of any single term must push the
residual above its budget.

Each ingredient of :math:`u(V)` has one derivation, built once per
residual call and passed down: :func:`G_of` (the family's closed form,
or the variation tensors of ``hitchinlab.families``), the bundle data of
``(sigma, k)`` (``bundle.bundle_data``, built by the caller), :func:`H_of`
from the state, ``G(V)`` and a potential field, and :func:`u_apply` from
those.  The residuals take the closed forms of ``G(V)``, ``V[J]`` and
``A_T(V)`` whenever the family has them (``Family.closed_form``).
Section arguments may be one coefficient ``(n, n)`` or a batch
``(..., n, n)``; the residuals then return one value per section.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .bundle import (
    BundleData,
    _times_potential,
    a_T,
    halfform_potential,
    sec_deriv,
    sec_grad,
)
from .families import Family, KahlerState, d_holo, dir_deriv, v_parts, variation_tensors, vj_of
from .fields import Array, ChartGrid, grad, max_norm
from .geometry import cov_deriv

# ---------------------------------------------------------------------------
# the variation tensor and pointwise helpers
# ---------------------------------------------------------------------------


def G_of(family: Family, sigma: complex, v: complex, eps: float) -> Array:
    """(2,0) variation tensor G(V) for the real parameter direction ``v``:
    the family's closed form when it has one, else from the central
    difference of ``J``."""
    if family.closed_form:
        return family.g_exact(sigma, v)
    return variation_tensors(family.state(sigma), vj_of(family, sigma, v, eps))[1]


def form_anti(st: KahlerState, alpha: Array) -> Array:
    """(0,1) part of a one-form: composition with the antiholomorphic projector."""
    return np.einsum("a...,ab...->b...", alpha, st.Q)


def form_holo(st: KahlerState, alpha: Array) -> Array:
    return np.einsum("a...,ab...->b...", alpha, st.P)


def dF_holo(st: KahlerState, F: Array) -> Array:
    """(1,0) part of dF for a potential field ``F`` on the state's surface."""
    return form_holo(st, grad(st.grid, F))


def trace_nabla(st: KahlerState, T: Array) -> Array:
    r"""Divergence :math:`(\operatorname{Tr}\tilde\nabla T)^b = \tilde\nabla_a T^{ab}`."""
    nT = cov_deriv(st.grid, st.gamma, T, "uu")
    return np.einsum("aab...->b...", nT)


def trace_nabla_endo(st: KahlerState, T: Array) -> Array:
    r"""One-form :math:`\tilde\nabla_a T^a{}_b` for an endomorphism-valued field."""
    nT = cov_deriv(st.grid, st.gamma, T, "ud")
    return np.einsum("aab...->b...", nT)


def _section_ratio(err: Array, scale: Array, s: Array, mask: Array) -> Array:
    """Sup of ``err`` over ``mask`` relative to the sup of ``scale``, one value
    per section of ``s`` (``(..., n, n)``); ``err`` and ``scale`` may carry
    tensor axes before the section axes."""

    def sups(x: Array) -> Array:
        a = np.abs(x)[..., mask]
        return a.reshape((-1,) + s.shape[:-2] + a.shape[-1:]).max(axis=(0, -1))

    return sups(err) / np.maximum(sups(scale), 1e-300)


# ---------------------------------------------------------------------------
# the second-order operator and the potential
# ---------------------------------------------------------------------------


def delta_G(bd: BundleData, G: Array, f: Array) -> Array:
    r"""Apply :math:`\Delta_G` to a section coefficient of the bundle of ``bd``
    (``bd.plain`` for the untwisted level-``k`` bundle).  ``f`` may carry
    leading batch axes, ``(..., n, n)``.
    """
    st = bd.state
    t = np.einsum("ba...,a...->b...", G, sec_grad(bd, f))
    gt = np.einsum("aac...,c...->a...", st.gamma, t)
    return sum(sec_deriv(st, bd.k, t[a], a - 2) + gt[a] + bd.A[a] * t[a] for a in range(2))


def grad_along(bd: BundleData, X: Array, f: Array) -> Array:
    """Directional covariant derivative along a vector field ``X``."""
    return np.einsum("a...,a...->...", X, sec_grad(bd, f))


def H_of(st: KahlerState, G: Array, F: Array, flip: str | None = None) -> Array:
    r"""Divergence potential :math:`H(V)` of ``G = G(V)`` and the potential
    field ``F`` from the closed form above (``F = st.F`` in :math:`u(V)`;
    the operator-pullback identity passes the reduction potential);
    ``flip`` in {'quad', 'div'} negates one term.
    """
    pF = dF_holo(st, F)
    quad = np.einsum("a...,ab...,b...->...", pF, G, pF)
    GdF = np.einsum("ab...,b...->a...", G, pF)
    div = np.einsum("aa...->...", cov_deriv(st.grid, st.gamma, GdF, "u"))
    s_quad = -1.0 if flip != "quad" else 1.0
    s_div = -1.0 if flip != "div" else 1.0
    return s_quad * quad + s_div * div


def u_apply(bd: BundleData, G: Array, f: Array) -> Array:
    r""":math:`u(V)f = \tfrac{1}{4k}(\Delta_{G(V)} + H(V))f` on the bundle of
    ``bd`` with ``G = G(V)``; ``H(V)`` is built from ``G`` and the state's
    Ricci potential.  ``f`` may be a batch of sections ``(..., n, n)``.
    """
    if bd.k == 0:
        raise ValueError("the second-order correction needs a positive level")
    H = H_of(bd.state, G, bd.state.F)
    return (delta_G(bd, G, f) + H * f) / (4.0 * bd.k)


# ---------------------------------------------------------------------------
# holomorphic test sections
# ---------------------------------------------------------------------------


@dataclass
class TestSections:
    """Numerically holomorphic section coefficients with their defects."""

    values: Array  # (m, n, n)
    defects: tuple[float, ...]  # relative (0,1)-derivative residuals
    coeff: Array | None = None  # chart Chebyshev coefficients (m, d+1, d+1)


def section_on(grid: ChartGrid, C: Array) -> Array:
    """Evaluate a Chebyshev coefficient matrix on another chart grid.

    Grid-refinement runs use this to compare residuals of the *same*
    section at two resolutions; rebuilt sections would differ by an
    arbitrary holomorphic mixture and hide the convergence order.
    """
    deg = C.shape[0] - 1
    u1 = (grid.x[:, 0] - grid.center[0]) / grid.half
    v1 = (grid.y[0, :] - grid.center[1]) / grid.half
    return _cheb.chebvander(u1, deg) @ C @ _cheb.chebvander(v1, deg).T


def torus_sections(bd: BundleData) -> TestSections:
    """The theta basis at the level of ``bd`` with the relative sup of each
    element's (0,1) covariant derivative."""
    from .theta import theta_basis

    grid = bd.grid
    k = int(bd.k)
    if k >= 1:
        basis = theta_basis(grid, k, bd.state.sigma)
    else:
        # rows without a level axis (divergence_closedness) ask for level 0,
        # where the constant is the holomorphic section
        basis = np.ones((1,) + grid.shape, dtype=complex)
    anti = form_anti(bd.state, sec_grad(bd, basis))
    defects = tuple(
        max_norm(anti[:, j]) / max(max_norm(s), 1e-300) for j, s in enumerate(basis)
    )
    return TestSections(values=basis, defects=defects)


def _anchored_coeffs(D: Array, systems: list[tuple[Array, Array]]) -> list[Array]:
    r"""Minimum-norm least-squares solutions of ``[D; kappa R] c = [0; kappa t]``,
    one per anchor system ``(R, t)``, with ``kappa = ||D||_2``.

    The tall ``D`` (``M`` rows, ``N`` columns) is factored once,
    ``D = Q R_D``, and each system is solved on the small
    ``[R_D; kappa R]``: ``Q`` is an isometry and the target is zero on the
    ``D`` rows, so both systems have the same singular values and the same
    minimum-norm solution.  ``D`` has one row per grid node and stands for
    the design with one row per node and coordinate component of the
    (0,1)-form (the same Gram matrix, see :func:`chart_sections`), so the
    rank cutoff is the one ``lstsq`` takes on that design stacked with the
    anchors, ``eps * max(2M + a, N)`` relative to the largest singular
    value (``a`` anchor rows).  The default cutoff of the small system,
    ``eps * (N + a)``, is 35 to 72 times smaller at ``n = 64``: it keeps
    directions of the numerical kernel that the stacked solve drops (rank
    150 -> 153 at ``k = 1``), and the sections move by 0.36 (sup).
    """
    RD = np.linalg.qr(D, mode="r")
    kappa = float(np.linalg.norm(RD, 2))
    out = []
    for R, t in systems:
        stacked = np.vstack([RD, kappa * R])
        target = np.concatenate([np.zeros(RD.shape[0], dtype=complex), kappa * t])
        rcond = np.finfo(float).eps * max(2 * D.shape[0] + len(t), D.shape[1])
        out.append(np.linalg.lstsq(stacked, target, rcond=rcond)[0])
    return out


def chart_sections(bd: BundleData) -> TestSections:
    r"""Two numerically holomorphic sections by constrained least squares.

    The design operator evaluates the (0,1) covariant derivative of each
    tensor-Chebyshev basis element on every node of the grid, the margin
    included.  Its
    numerical kernel is high-dimensional (any holomorphic factor below
    the basis degree), so the representative is pinned by anchor-value
    constraints (value 1 at one point; additionally a zero for the
    second section), and the minimum-coefficient-norm solution of the
    stacked system ``[D; kappa R] c = [0; kappa t]`` selects the smoothest
    such element.  Determinism and smoothness are what the
    finite-difference budgets of the identity runs rely on; defects are
    the measured (0,1)-derivative residuals of the result over the same
    nodes, not the optimizer's claim.

    The (0,1) projector ``Q = (I + iJ)/2`` has rank one, so at each node
    the (0,1)-form ``(d_a s + A_a s) Q[a, b]`` is ``c * l_b`` with
    ``l = Q[0, :]`` and ``|l| >= |Q[0, 0]| >= 1/2`` (``J`` is real).  The
    design therefore takes one row per node, the component along the unit
    direction ``conj(l)/|l|``: it has the Gram matrix of the design with
    one row per node and coordinate component, so the same singular values
    and the same minimum-norm solution, with half the rows to factor.  The
    defect is the larger coordinate component, ``|c| max_b |l_b|``.  The
    design is factored once per call and both anchored systems are solved
    on its triangular factor (:func:`_anchored_coeffs`), with the rank
    cutoff of the two-component stacked system.
    """
    grid: ChartGrid = bd.grid
    st = bd.state
    # the sections decay like exp(-k w0 |z|^2 / 4); steeper levels
    # need more polynomial headroom before the defect floor is hit
    deg = min(14 + 2 * int(round(bd.k)), 26)
    u1 = (grid.x[:, 0] - grid.center[0]) / grid.half
    v1 = (grid.y[0, :] - grid.center[1]) / grid.half
    Vx = _cheb.chebvander(u1, deg)  # (n, deg+1)
    Vy = _cheb.chebvander(v1, deg)
    pairs = [(p, q) for p in range(deg + 1) for q in range(deg + 1 - p)]
    Ax, Ay = bd.A
    Q = st.Q
    l_norm = np.hypot(np.abs(Q[0, 0]), np.abs(Q[0, 1]))
    wx, wy = np.einsum("ab...,b...->a...", Q, np.conj(Q[0])) / l_norm
    # the larger coordinate component of c * l, relative to |c * l|
    comp = np.maximum(np.abs(Q[0, 0]), np.abs(Q[0, 1])) / l_norm
    rows = []
    dVx = np.stack([_cheb.chebval(u1, _cheb.chebder(np.eye(deg + 1)[:, p])) for p in range(deg + 1)], 1) / grid.half
    dVy = np.stack([_cheb.chebval(v1, _cheb.chebder(np.eye(deg + 1)[:, q])) for q in range(deg + 1)], 1) / grid.half
    for p, q in pairs:
        s = np.outer(Vx[:, p], Vy[:, q])
        sx = np.outer(dVx[:, p], Vy[:, q]) + Ax * s
        sy = np.outer(Vx[:, p], dVy[:, q]) + Ay * s
        rows.append((sx * wx + sy * wy).ravel())
    D = np.stack(rows, axis=1)

    def value_row(a: complex) -> Array:
        tu = _cheb.chebvander(np.array([(a.real - grid.center[0]) / grid.half]), deg)[0]
        tv = _cheb.chebvander(np.array([(a.imag - grid.center[1]) / grid.half]), deg)[0]
        return np.array([tu[p] * tv[q] for p, q in pairs], dtype=complex)

    a0 = complex(grid.center[0] + 0.05 * grid.half, grid.center[1] + 0.02 * grid.half)
    a1 = a0 + grid.half * (0.15 + 0.1j)
    systems = [
        (np.stack([value_row(a) for a, _ in anchors]), np.array([v for _, v in anchors], dtype=complex))
        for anchors in ([(a0, 1.0)], [(a0, 0.0), (a1, 1.0)])
    ]
    values = []
    defects = []
    coeffs = []
    for c in _anchored_coeffs(D, systems):
        C = np.zeros((deg + 1, deg + 1), dtype=complex)
        for (p, q), cc in zip(pairs, c):
            C[p, q] = cc
        s_full = Vx @ C @ Vy.T
        scale = max(float(np.max(np.abs(s_full))), 1e-300)
        values.append(s_full / scale)
        defects.append(float(np.max(np.abs(D @ c) * comp.ravel())) / scale)
        coeffs.append(C / scale)
    return TestSections(values=np.stack(values), defects=tuple(defects), coeff=np.stack(coeffs))


# ---------------------------------------------------------------------------
# residuals of the defining and transfer identities
# ---------------------------------------------------------------------------


def eq_defining_residual(
    family: Family,
    bd: BundleData,
    v: complex,
    s: Array,
    eps: float,
    flip: str | None = None,
) -> Array:
    r"""Defining identity of the second-order correction on holomorphic ``s``
    (sections of the bundle of ``bd``):

    .. math::
        \nabla^{0,1}\big(u(V)s\big) = \tfrac{i}{2} V[J]\,\nabla s
        + \tfrac{i}{4}\operatorname{Tr}\tilde\nabla(G(V))\,\omega\; s .
    """
    st = bd.state
    G = G_of(family, st.sigma, v, eps)
    lhs = form_anti(st, sec_grad(bd, u_apply(bd, G, s)))
    VJ = vj_of(family, st.sigma, v, eps, family.closed_form)
    t1 = 0.5j * np.einsum("ba...,b...->a...", VJ, sec_grad(bd, s))
    t2 = _times_potential(0.25j * np.einsum("b...,ba...->a...", trace_nabla(st, G), st.omega), s)
    if flip == "vj":
        t1 = -t1
    if flip == "trace":
        t2 = -t2
    return _section_ratio(lhs - t1 - t2, s, s, st.grid.interior())


def eq_transfer_residual(
    family: Family,
    bd: BundleData,
    v: complex,
    s: Array,
    eps: float,
    flip: str | None = None,
) -> Array:
    r"""Holomorphy-transfer identity on holomorphic ``s`` at the level ``k``
    of ``bd``:

    .. math::
        \nabla^{0,1}\Delta_{G(V)} s = -2ik\,\omega G(V)\nabla s
        + ik\operatorname{Tr}\tilde\nabla(G(V))\,\omega\,s
        - \tfrac{i}{2}\operatorname{Tr}\tilde\nabla(G(V)\rho)\,s .
    """
    st, k = bd.state, bd.k
    G = G_of(family, st.sigma, v, eps)
    lhs = form_anti(st, sec_grad(bd, delta_G(bd, G, s)))
    t1 = -2j * k * np.einsum("ab...,bc...,c...->a...", st.omega, G, sec_grad(bd, s))
    t2 = _times_potential(1j * k * np.einsum("b...,ba...->a...", trace_nabla(st, G), st.omega), s)
    Grho = np.einsum("ac...,cb...->ab...", G, st.rho)
    t3 = _times_potential(-0.5j * trace_nabla_endo(st, Grho), s)
    if flip == "omega":
        t1 = -t1
    if flip == "trace":
        t2 = -t2
    if flip == "rho":
        t3 = -t3
    return _section_ratio(lhs - t1 - t2 - t3, s, s, st.grid.interior())


def potential_variation_residual(family: Family, sigma: complex, v: complex, eps: float) -> float:
    r"""Variation of the Ricci potential:

    .. math::
        \bar\partial_M V'[F] = -\tfrac{i}{4}\operatorname{Tr}
        \tilde\nabla(G(V))\,\omega - \tfrac{i}{2}\,\partial_M F\,G(V)\,\omega .
    """
    st = family.state(sigma)
    vpf, _ = v_parts(lambda s: family.state(s).F, sigma, v, eps)  # V'[F] over M
    lhs = form_anti(st, grad(st.grid, vpf))
    G = G_of(family, sigma, v, eps)
    t1 = -0.25j * np.einsum("b...,ba...->a...", trace_nabla(st, G), st.omega)
    t2 = -0.5j * np.einsum("b...,bc...,ca...->a...", dF_holo(st, st.F), G, st.omega)
    mask = st.grid.interior()
    return max_norm(lhs - t1 - t2, mask) / max(max_norm(G, mask), 1e-300)


def potential_oneform_residual(
    family: Family,
    sigma: complex,
    v: complex,
    eps: float,
    flip: str | None = None,
) -> float:
    r"""The closed-form potential satisfies
    :math:`\bar\partial_M H(V) = \tfrac{i}{2}\operatorname{Tr}
    \tilde\nabla(G(V)\rho)`."""
    st = family.state(sigma)
    G = G_of(family, sigma, v, eps)
    H = H_of(st, G, st.F, flip)
    lhs = form_anti(st, grad(st.grid, H))
    rhs = 0.5j * trace_nabla_endo(st, np.einsum("ac...,cb...->ab...", G, st.rho))
    mask = st.grid.interior()
    return max_norm(lhs - rhs, mask) / max(max_norm(G, mask), 1e-300)


# ---------------------------------------------------------------------------
# geometry-variation identities
# ---------------------------------------------------------------------------


def metric_variation_residual(family: Family, sigma: complex, v: complex, eps: float) -> float:
    r"""Compatibility of the metric and structure variations:
    :math:`V[g] = \omega\,V[J]` (the symplectic form is parameter-fixed)."""
    st = family.state(sigma)
    vg = dir_deriv(lambda s: family.state(s).g, sigma, v, eps)
    VJ = vj_of(family, sigma, v, eps)
    rhs = np.einsum("ac...,cb...->ab...", st.omega, VJ)
    mask = st.grid.interior()
    return max_norm(vg - rhs, mask) / max(max_norm(rhs, mask), 1e-300)


def levicivita_variation_residual(family: Family, sigma: complex, v: complex, eps: float) -> float:
    r"""Variation of the Levi-Civita connection:

    .. math::
        g(V[\tilde\nabla]_X Y, Z) = \tfrac12\big(
        (\tilde\nabla_X V[g])(Y, Z) + (\tilde\nabla_Y V[g])(X, Z)
        - (\tilde\nabla_Z V[g])(X, Y)\big).
    """
    st = family.state(sigma)
    vgamma = dir_deriv(lambda s: family.state(s).gamma, sigma, v, eps)
    lhs = np.einsum("cd...,dab...->abc...", st.g, vgamma)
    vg = dir_deriv(lambda s: family.state(s).g, sigma, v, eps)
    D = cov_deriv(st.grid, st.gamma, vg, "dd")
    rhs = 0.5 * (
        D
        + np.einsum("bac...->abc...", D)
        - np.einsum("cab...->abc...", D)
    )
    mask = st.grid.interior()
    return max_norm(lhs - rhs, mask) / max(max_norm(rhs, mask), 1e-300)


def projector_commutator_residual(family: Family, sigma: complex, v: complex, eps: float) -> float:
    r"""Variation of the type projection on a parameter-fixed vector field:
    :math:`V[\pi^{0,1}X] = \tfrac{i}{2}V[J]\,X` for rigid families."""
    st = family.state(sigma)
    grid = st.grid
    # deterministic smooth test field; periodic so it works on both backends
    X = np.stack([
        np.cos(2 * np.pi * grid.x) + 0.3 * np.sin(2 * np.pi * grid.y),
        0.7 + 0.2 * np.sin(2 * np.pi * (grid.x + grid.y)),
    ]).astype(complex)

    def QX(s: complex) -> Array:
        return np.einsum("ab...,b...->a...", family.state(s).Q, X)

    lhs = dir_deriv(QX, sigma, v, eps)
    VJ = vj_of(family, sigma, v, eps)
    rhs = 0.5j * np.einsum("ab...,b...->a...", VJ, X)
    mask = st.grid.interior()
    return max_norm(lhs - rhs, mask) / max(max_norm(rhs, mask), 1e-300)


def frame_curvature_data(family: Family, sigma: complex, eps: float) -> tuple[Array, float]:
    r"""Parameter-direction curvature of the type-projected frame connection.

    The connection :math:`\hat\nabla^T_V Y = \pi^{1,0}V[Y]` on (1,0)
    fields has curvature along the two parameter coordinate directions

    .. math::
        R(\partial_1, \partial_2)\,Y
        = -\tfrac14\,[\partial_1 J, \partial_2 J]\; Y ,

    computed here by nested difference quotients (left) and from the
    structure derivatives (right); returns the left endomorphism
    restricted to the (1,0) subspace and the sup-norm mismatch of the two
    sides relative to the right.
    """
    st = family.state(sigma)

    def proj(s: complex) -> Array:
        stt = family.state(s)
        return stt.P

    def covP(s: complex, d: complex) -> Array:
        # endomorphism E(s) with nabla_d (P Y0) = E(s) Y0 for constant Y0
        P = family.state(s).P
        dP = dir_deriv(proj, s, d, eps)
        return np.einsum("ab...,bc...->ac...", P, dP)

    P0 = st.P
    # nabla_1(nabla_2 (P Y0)) = P d1[A_2] Y0 for constant Y0, so
    # R = P (d1[A_2] - d2[A_1]) P with A_d(s) = P(s) d_d P(s)
    dA2 = dir_deriv(lambda s: covP(s, 1j), sigma, 1.0, eps)
    dA1 = dir_deriv(lambda s: covP(s, 1.0), sigma, 1j, eps)
    R = np.einsum("ab...,bc...,cd...->ad...", P0, dA2 - dA1, P0)
    d1J = vj_of(family, sigma, 1.0, eps)
    d2J = vj_of(family, sigma, 1j, eps)
    commJ = np.einsum("ab...,bc...->ac...", d1J, d2J) - np.einsum("ab...,bc...->ac...", d2J, d1J)
    target = -0.25 * np.einsum("ab...,bc...,cd...->ad...", P0, commJ, P0)
    mask = st.grid.interior()
    return R, max_norm(R - target, mask) / max(max_norm(target, mask), 1e-300)


def param_commutator_curvature(family: Family, sigma: complex, eps: float) -> Array:
    r"""Trace form :math:`\tfrac18\operatorname{Tr}\big(\pi^{1,0}
    [\partial_1 J, \partial_2 J]\big)` of the parameter-direction
    curvature on the half-form factor (field over M), from the closed-form
    structure derivatives when the family has them."""
    st = family.state(sigma)
    d1J = vj_of(family, sigma, 1.0, eps, family.closed_form)
    d2J = vj_of(family, sigma, 1j, eps, family.closed_form)
    commJ = np.einsum("ab...,bc...->ac...", d1J, d2J) - np.einsum("ab...,bc...->ac...", d2J, d1J)
    return 0.125 * np.einsum("ab...,ba...->...", st.P, commJ)


# ---------------------------------------------------------------------------
# parameter-space potential calculus
# ---------------------------------------------------------------------------


PotentialFn = Callable[[complex], Array]


def potential_fn(family: Family, which: str) -> PotentialFn:
    """Reduction-potential families by name.

    ``ricci``     -- the state's Ricci potential field (identically zero on
                     the torus, where the state normalizes it);
    ``log-imtau`` -- ``(1/2) log Im sigma`` (constant over M), the
                     non-pluriharmonic repair that absorbs the
                     parameter-direction curvature on the torus.
    """
    if which == "ricci":
        return lambda s: family.state(s).F
    if which == "log-imtau":
        return lambda s: np.full(family.grid.shape, 0.5 * np.log(s.imag), dtype=complex)
    raise ValueError(f"unknown potential family: {which}")


def pot_tt(Ffn: PotentialFn, sigma: complex, eps: float) -> Array:
    r"""Parameter-parameter component
    :math:`\hat\partial\hat{\bar\partial}F(\partial_1, \partial_2)
    = \partial_1[\partial_2''F] - \partial_2[\partial_1''F]` as a field on M."""

    def w2(s: complex) -> Array:
        return v_parts(Ffn, s, 1j, eps)[1]

    def v2(s: complex) -> Array:
        return v_parts(Ffn, s, 1.0, eps)[1]

    return dir_deriv(w2, sigma, 1.0, eps) - dir_deriv(v2, sigma, 1j, eps)


def pot_mixed(
    family: Family, Ffn: PotentialFn, sigma: complex, v: complex, eps: float
) -> Array:
    r"""Mixed component
    :math:`\hat\partial\hat{\bar\partial}F(V, e_a)
    = V[(\bar\partial_M F)_a] - \partial_a(V''[F])`."""

    def dbarF(s: complex) -> Array:
        st = family.state(s)
        return form_anti(st, grad(st.grid, Ffn(s)))

    t1 = dir_deriv(dbarF, sigma, v, eps)
    _, vppF = v_parts(Ffn, sigma, v, eps)
    return t1 - grad(family.grid, vppF)


def pot_mm(family: Family, Ffn: PotentialFn, sigma: complex) -> Array:
    r"""Surface-surface (x, y) component of
    :math:`\hat\partial_M\hat{\bar\partial}_M F` for the member at ``sigma``."""
    st = family.state(sigma)
    grid = st.grid
    dbar = form_anti(st, grad(grid, Ffn(sigma)))
    # d(dbar F) restricted to (x, y)
    return grid.deriv(dbar[1], -2) - grid.deriv(dbar[0], -1)


# ---------------------------------------------------------------------------
# comparison map and reduction identities
# ---------------------------------------------------------------------------


def comparison_multiplier(family: Family, Ffn: PotentialFn, sigma: complex) -> Array:
    r"""Isometry multiplier :math:`m = e^{\tilde F/2} (h_w/2)^{1/4}`.

    Constructed from the Hermitian data alone: the comparison carries the
    plain level bundle with metric weight :math:`e^{\tilde F}` to the
    half-form-corrected bundle, so :math:`|m|^2 h_\delta = e^{\tilde F}`
    with :math:`h_\delta = (2/h_w)^{1/2}`; the phase is fixed to one.
    """
    st = family.state(sigma)
    return np.exp(0.5 * Ffn(sigma)) * (st.h_w / 2.0) ** 0.25


def frame_comparison_residuals(
    family: Family,
    Ffn: PotentialFn,
    sigma: complex,
    v: complex,
    eps: float,
) -> tuple[float, float]:
    r"""Connection-form comparison under the multiplier ``m``:

    .. math::
        m^{-1}\circ\hat\nabla^r\circ m = \hat\nabla^{L} + \hat\partial\tilde F

    split into its M-part (half-form potential against
    :math:`\partial_M\tilde F`) and parameter part
    (:math:`A_T(V) + V[\log m]` against
    :math:`\hat\partial\tilde F(V) = v\,\partial_\sigma\tilde F`);
    returns the two raw sup-norm residuals over ``grid.interior()``, with
    no normalization.  On the torus at ``F~ = 0`` and ``v = 1`` the parameter
    residual is the closed-form red ``1/(4 Im sigma)``, e.g. 0.3125 at
    ``Im sigma = 0.8``.
    """
    st = family.state(sigma)
    grid = st.grid

    def logm(s: complex) -> Array:
        stt = family.state(s)
        return 0.5 * Ffn(s) + 0.25 * np.log(stt.h_w / 2.0)

    dlm = grad(grid, logm(sigma))
    a_d = halfform_potential(st)
    mask = grid.interior()
    res_m = max_norm(a_d + dlm - dF_holo(st, Ffn(sigma)), mask)

    aT = a_T(family, sigma, v, eps, family.closed_form)
    vlm = dir_deriv(logm, sigma, v, eps)
    dsF = v * d_holo(Ffn, sigma, eps)
    res_t = max_norm(aT + vlm - dsF, mask)
    return res_m, res_t


def operator_pullback_residual(
    family: Family,
    Ffn: PotentialFn,
    bd: BundleData,
    v: complex,
    s: Array,
    eps: float,
    flip: str | None = None,
) -> Array:
    r"""Pullback of the second-order operator through the comparison map,
    on sections ``s`` of the bundle of ``bd``:

    .. math::
        m^{-1}\Delta_{G(V)}(m\,s) = \Delta^{L}_{G(V)} s
        + 2\nabla^{L}_{G(V)\partial_M\tilde F}\,s - H(V)\,s
        - 2n\,V'[\tilde F]\,s \qquad (n = 0).
    """
    st = bd.state
    G = G_of(family, st.sigma, v, eps)
    m = comparison_multiplier(family, Ffn, st.sigma)
    lhs = delta_G(bd, G, m * s) / m
    F = Ffn(st.sigma)
    GdF = np.einsum("ab...,b...->a...", G, dF_holo(st, F))
    t1 = delta_G(bd.plain, G, s)
    t2 = 2.0 * grad_along(bd.plain, GdF, s)
    t3 = -H_of(st, G, F) * s
    if flip == "gradient":
        t2 = -t2
    if flip == "potential":
        t3 = -t3
    return _section_ratio(lhs - t1 - t2 - t3, t1, s, st.grid.interior())


def connection_agreement_residual(
    family: Family,
    Ffn: PotentialFn,
    bd: BundleData,
    v: complex,
    s: Array,
    eps: float,
) -> Array:
    r"""Full-connection agreement through the comparison map:

    .. math::
        m^{-1}\nabla_V(m\,s) = V[s] + \tilde u(V)s, \qquad
        \tilde u(V) = \tfrac1{4k}\big(\Delta^{L}_{G(V)}
        + 2\nabla^{L}_{G(V)\partial_M\tilde F}\big) + V'[\tilde F]

    for a parameter-constant coefficient ``s`` of the bundle of ``bd``
    (so ``V[s] = 0``).
    """
    st, sigma, k = bd.state, bd.state.sigma, bd.k
    m = comparison_multiplier(family, Ffn, sigma)
    vm = dir_deriv(lambda t: comparison_multiplier(family, Ffn, t), sigma, v, eps)
    aT = a_T(family, sigma, v, eps, family.closed_form)
    G = G_of(family, sigma, v, eps)
    lhs = (vm * s + aT * m * s + u_apply(bd, G, m * s)) / m
    GdF = np.einsum("ab...,b...->a...", G, dF_holo(st, Ffn(sigma)))
    vpF, _ = v_parts(Ffn, sigma, v, eps)
    rhs = (delta_G(bd.plain, G, s) + 2.0 * grad_along(bd.plain, GdF, s)) / (
        4.0 * k
    ) + vpF * s
    return _section_ratio(lhs - rhs, s, s, st.grid.interior())
