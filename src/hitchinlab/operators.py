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

with ``n = 0`` throughout this lab (torus and planar chart).  Every term
then carries :math:`\partial F`, and :func:`H_of` takes it in place of
``F``.  On the torus the normalized potential is ``F = 0``, so
:func:`dF_holo` and :func:`H_of` return :math:`\partial F = 0` and
:math:`H(V) \equiv 0` there without a derivative: the ``quad`` and ``div``
terms, and the mutation flips of either, act on the chart only.

Every identity of the catalog is implemented as a *residual*: both sides
are assembled through independent code paths (difference quotients in
the parameter, spectral/finite-difference calculus on the surface), and
it returns the sups over ``grid.interior()`` of the difference (the
error) and of a scale; the catalog divides them once (``case_ratio``).
``flip`` arguments implement the mutation self-test: flipping the sign of
any single term must push the residual above its budget.

Each ingredient of :math:`u(V)` has one derivation and is built once per
case point: a :class:`Point` (member, direction, step, and for the
section identities the bundle data of ``(sigma, k)`` and the test
sections) builds ``V[J]``, :func:`G_of` (the family's closed form, or the
variation tensors of ``hitchinlab.families``), :math:`\partial F`,
:func:`H_of`, the divergences :math:`\operatorname{Tr}\tilde\nabla G(V)`
and :math:`\operatorname{Tr}\tilde\nabla(G(V)\rho)` and the comparison
multiplier ``m`` (the member-direction ingredients), and :math:`\nabla s`,
the plain :math:`\Delta_{G(V)} s`, :math:`\Delta_{G(V)} s` and
:math:`\Delta_{G(V)}(m s)` (the section ingredients) on first read, and
every identity evaluated at that point reads the same ones.  A section
point may read the member-direction ingredients from the point without
sections at the same member and direction, so the catalog shares them
across levels and section sets (``catalog.walk``).  The residuals
apply neither :func:`delta_G` nor :func:`u_apply` to the point's sections
themselves: ``u(V)s`` is ``(Delta_{G(V)} s + H(V)s)/4k`` with the point's
``Delta_{G(V)} s``, the bits of :func:`u_apply`.  :func:`u_apply` takes
``G(V)`` and ``H(V)`` from its caller.  The
residuals take the closed forms of ``G(V)``, ``V[J]`` and ``A_T(V)``
whenever the family has them (``Family.closed_form``).  Section arguments
may be one coefficient ``(n, n)`` or a batch ``(..., n, n)``; the
residuals then return one sup pair per section.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.linalg import lapack_lite
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
from .fields import Array, ChartGrid, grad, mat_mul, max_norm
from .geometry import cov_deriv, symbol_contraction

# ---------------------------------------------------------------------------
# the variation tensor and pointwise helpers
# ---------------------------------------------------------------------------


def G_of(pt: Point) -> Array:
    """(2,0) variation tensor G(V) at the point ``pt`` (read it as
    ``pt.G``, built once): the family's closed form when it has one, else
    the (2,0) part of the point's central difference of ``J``."""
    if pt.family.closed_form:
        return pt.family.g_exact(pt.sigma, pt.v)
    return variation_tensors(pt.st, pt.VJ)[1]


def form_anti(st: KahlerState, alpha: Array) -> Array:
    """(0,1) part of a one-form: composition with the antiholomorphic projector."""
    return np.einsum("a...,ab...->b...", alpha, st.Q)


def form_holo(st: KahlerState, alpha: Array) -> Array:
    return np.einsum("a...,ab...->b...", alpha, st.P)


def dF_holo(st: KahlerState, F: Array) -> Array:
    """(1,0) part of dF for a potential field ``F`` on the state's surface.

    A vanishing ``F`` (the normalized torus potential) gives exact zeros
    without a derivative, held at one node; a NaN in ``F`` still takes the
    derivative.
    """
    if not F.any():
        return np.zeros((2, 1, 1), dtype=complex)
    return form_holo(st, grad(st.grid, F))


def trace_nabla(st: KahlerState, T: Array) -> Array:
    r"""Divergence :math:`(\operatorname{Tr}\tilde\nabla T)^b = \tilde\nabla_a T^{ab}`."""
    nT = cov_deriv(st.grid, st.gamma, T, "uu")
    return np.einsum("aab...->b...", nT)


def trace_nabla_endo(st: KahlerState, T: Array) -> Array:
    r"""One-form :math:`\tilde\nabla_a T^a{}_b` for an endomorphism-valued field."""
    nT = cov_deriv(st.grid, st.gamma, T, "ud")
    return np.einsum("aab...->b...", nT)


def _section_sups(err: Array, scale: Array, mask: Array, batch: tuple = ()) -> tuple[Array, Array]:
    """Sups of ``err`` and of ``scale`` over ``mask``, one pair per section of
    a batch of shape ``batch`` (``()``: one section or field); ``err`` and
    ``scale`` may carry tensor axes before the batch axes, and a one-node
    field is broadcast to the grid."""

    def sups(x: Array) -> Array:
        a = np.broadcast_to(np.abs(x), x.shape[:-2] + mask.shape)[..., mask]
        return a.reshape((-1,) + batch + a.shape[-1:]).max(axis=(0, -1))

    return sups(err), sups(scale)


# ---------------------------------------------------------------------------
# the second-order operator and the potential
# ---------------------------------------------------------------------------


def _slot(scratch: Array | None, i: int | slice) -> Array | None:
    """``scratch[i]``, or None, for which the operation allocates its result."""
    return None if scratch is None else scratch[i]


def delta_G(
    bd: BundleData, G: Array, f: Array, out: Array | None = None, scratch: Array | None = None
) -> Array:
    r"""Apply :math:`\Delta_G` to a section coefficient of the bundle of ``bd``
    (``bd.plain`` for the untwisted level-``k`` bundle).  ``f`` may carry
    leading batch axes, ``(..., n, n)``.

    The result is written into ``out`` when given (the shape of ``f``);
    ``scratch``, of shape ``(4,) + f.shape``, is overwritten.  Neither may
    overlap ``f`` or the other.  Without them each step allocates its own
    result.
    """
    st = bd.state
    grad = sec_grad(bd, f, out=_slot(scratch, slice(2)), scratch=_slot(scratch, 2))
    t = np.einsum("ba...,a...->b...", G, grad, out=_slot(scratch, slice(2, None)))
    del grad  # spent: its slots take the y term and the products
    gt = symbol_contraction("aac...,c...->a...", st.gamma, t)
    out = sec_deriv(bd, t[0], -2, out=out)
    out1 = sec_deriv(bd, t[1], -1, out=_slot(scratch, 0), scratch=_slot(scratch, 1))
    if gt is not None:
        out += gt[0]
        out1 += gt[1]
    out += np.multiply(bd.A[0], t[0], out=_slot(scratch, 1))
    out1 += np.multiply(bd.A[1], t[1], out=_slot(scratch, 1))
    out += out1
    return out


def grad_along(bd: BundleData, X: Array, f: Array) -> Array:
    """Directional covariant derivative along a vector field ``X``."""
    return np.einsum("a...,a...->...", X, sec_grad(bd, f))


def H_of(st: KahlerState, G: Array, pF: Array, flip: str | None = None) -> Array:
    r"""Divergence potential :math:`H(V)` of ``G = G(V)`` and
    ``pF = dF_holo(st, F)``, the (1,0) part of the differential of the
    potential ``F`` (the state's ``F`` in :math:`u(V)`), from the closed form
    above; ``flip`` in {'quad', 'div'} negates one term.

    With ``n = 0`` every term carries :math:`\partial F`, so a vanishing
    ``pF`` (that of the normalized torus potential) gives exact zeros
    without a derivative, held at one node; a NaN in ``pF`` still takes the
    full formula.
    """
    if not pF.any():
        return np.zeros((1, 1), dtype=complex)
    quad = np.einsum("a...,ab...,b...->...", pF, G, pF)
    GdF = np.einsum("ab...,b...->a...", G, pF)
    div = np.einsum("aa...->...", cov_deriv(st.grid, st.gamma, GdF, "u"))
    s_quad = -1.0 if flip != "quad" else 1.0
    s_div = -1.0 if flip != "div" else 1.0
    return s_quad * quad + s_div * div


def u_apply(
    bd: BundleData,
    G: Array,
    H: Array,
    f: Array,
    out: Array | None = None,
    scratch: Array | None = None,
) -> Array:
    r""":math:`u(V)f = \tfrac{1}{4k}(\Delta_{G(V)} + H(V))f` on the bundle of
    ``bd`` with ``G = G(V)`` and ``H = H(V)`` (:func:`H_of` of ``G`` and the
    state's Ricci potential; a :class:`Point` holds both).  ``f`` may be a
    batch of sections ``(..., n, n)``; ``out`` and ``scratch`` are as for
    :func:`delta_G`.
    """
    if bd.k == 0:
        raise ValueError("the second-order correction needs a positive level")
    out = delta_G(bd, G, f, out=out, scratch=scratch)
    out += np.multiply(H, f, out=_slot(scratch, 0))
    out /= 4.0 * bd.k
    return out


# ---------------------------------------------------------------------------
# the ingredients of u(V) at one case point
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Point:
    r"""The ingredients of :math:`u(V)` at one case point, each built on
    first read and kept (``functools.cached_property``).

    A point is the member at ``sigma`` of ``family``, the real direction
    ``v`` and the plain step ``eps`` of its difference quotients; the
    section identities add the bundle data ``bd`` at ``(sigma, k)`` and the
    test sections ``s`` (one coefficient or a batch).  The ingredients come
    in two levels:

    * member-direction ingredients, which depend on ``(family, sigma, v,
      eps)`` only: ``V[J]``, ``G(V)``, :math:`\partial F`, ``H(V)``, the
      divergences :math:`\operatorname{Tr}\tilde\nabla G(V)` and
      :math:`\operatorname{Tr}\tilde\nabla(G(V)\rho)` and the comparison
      multiplier ``m``;
    * section ingredients on the bundle of ``bd``: :math:`\nabla s`, the
      plain :math:`\Delta_{G(V)} s`, :math:`\Delta_{G(V)} s` and
      :math:`\Delta_{G(V)}(m s)`.

    A point given ``shared``, the point without sections at the same
    ``(family, sigma, v, eps)``, reads the member-direction ingredients
    there, so every level and section set at one member and direction
    shares them; without it the point builds its own.  Every identity
    evaluated at the point reads the same ingredients, so each is built
    once per point instead of once per identity.  The ingredients belong
    to the state's Ricci potential ``F``; a residual that flips a term or
    ``H(V)`` (the mutation self-test) builds the flipped one on its own and
    never stores it, and no residual writes into an ingredient.

    A point has no key and no bound: it lives as long as its holder, one
    ``(sigma, v)`` of a catalog walk (``catalog.walk``) or one step of a
    sweep (``catalog.sweep_orders``).
    """

    family: Family
    sigma: complex
    v: complex
    eps: float
    bd: BundleData | None = None
    s: Array | None = None
    shared: Point | None = None

    @cached_property
    def st(self) -> KahlerState:
        """The member: that of the bundle data when given."""
        return self.family.state(self.sigma) if self.bd is None else self.bd.state

    @cached_property
    def VJ(self) -> Array:
        """:math:`V[J]`: the closed form when the family has one."""
        if self.shared is not None:
            return self.shared.VJ
        return vj_of(self.family, self.sigma, self.v, self.eps, self.family.closed_form)

    @cached_property
    def G(self) -> Array:
        return G_of(self) if self.shared is None else self.shared.G

    @cached_property
    def dF(self) -> Array:
        r""":math:`\partial F` of the state's Ricci potential."""
        return dF_holo(self.st, self.st.F) if self.shared is None else self.shared.dF

    @cached_property
    def H(self) -> Array:
        return H_of(self.st, self.G, self.dF) if self.shared is None else self.shared.H

    def H_flipped(self, flip: str) -> Array:
        """``H(V)`` with the term ``flip`` negated (see :func:`H_of`), built
        at each call and never stored."""
        return H_of(self.st, self.G, self.dF, flip)

    @cached_property
    def trace_G(self) -> Array:
        r""":math:`\operatorname{Tr}\tilde\nabla G(V)`."""
        return trace_nabla(self.st, self.G) if self.shared is None else self.shared.trace_G

    @cached_property
    def trace_G_rho(self) -> Array:
        r""":math:`\operatorname{Tr}\tilde\nabla(G(V)\rho)`."""
        if self.shared is not None:
            return self.shared.trace_G_rho
        return trace_nabla_endo(self.st, mat_mul(self.G, self.st.rho))

    @cached_property
    def m(self) -> Array:
        """The comparison multiplier of the Ricci potential."""
        if self.shared is not None:
            return self.shared.m
        return comparison_multiplier(self.family, potential_fn(self.family, "ricci"), self.sigma)

    @cached_property
    def grad_s(self) -> Array:
        r""":math:`\nabla s` on the bundle of ``bd``."""
        return sec_grad(self.bd, self.s)

    @cached_property
    def delta_plain(self) -> Array:
        r""":math:`\Delta_{G(V)} s` on the untwisted level-k bundle."""
        return delta_G(self.bd.plain, self.G, self.s)

    @cached_property
    def delta_s(self) -> Array:
        r""":math:`\Delta_{G(V)} s` on the bundle of ``bd``."""
        return delta_G(self.bd, self.G, self.s)

    @cached_property
    def delta_ms(self) -> Array:
        r""":math:`\Delta_{G(V)}(m s)` on the bundle of ``bd``, ``m`` the
        comparison multiplier of the Ricci potential."""
        return delta_G(self.bd, self.G, self.m * self.s)


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


def _chart_basis(grid: ChartGrid, k: float) -> tuple[list[tuple[int, int]], Array, Array, Array, Array]:
    """The tensor-Chebyshev basis of the level-``k`` chart sections: the
    degrees ``(p, q)`` of its elements, the grid coordinates ``u1``, ``v1``
    scaled to ``[-1, 1]`` and the factors ``Vx``, ``Vy`` of the elements'
    values there (``(n, deg + 1)`` each)."""
    # the sections decay like exp(-k w0 |z|^2 / 4); steeper levels
    # need more polynomial headroom before the defect floor is hit
    deg = min(14 + 2 * int(round(k)), 26)
    u1 = (grid.x[:, 0] - grid.center[0]) / grid.half
    v1 = (grid.y[0, :] - grid.center[1]) / grid.half
    pairs = [(p, q) for p in range(deg + 1) for q in range(deg + 1 - p)]
    return pairs, u1, v1, _cheb.chebvander(u1, deg), _cheb.chebvander(v1, deg)


def _chart_design(bd: BundleData, order: str) -> Array:
    """The design of :func:`chart_sections`, ``n^2`` rows by one column per
    basis element of :func:`_chart_basis`: column ``j`` is the (0,1)
    covariant derivative of element ``pairs[j]`` on every node, along
    ``conj(l)/|l|``.  ``order`` is its memory layout: ``"F"``
    (column-major) is the one :func:`_qr_r_inplace` factors, ``"C"``
    (row-major) the one the defects ``D @ c`` take.  The columns are
    written one by one into that layout, so both hold the same bits."""
    grid: ChartGrid = bd.grid
    pairs, u1, v1, Vx, Vy = _chart_basis(grid, bd.k)
    deg = Vx.shape[1] - 1
    Ax, Ay = bd.A
    Q = bd.state.Q
    l_norm = np.hypot(np.abs(Q[0, 0]), np.abs(Q[0, 1]))
    wx, wy = np.einsum("ab...,b...->a...", Q, np.conj(Q[0])) / l_norm
    dVx = np.stack([_cheb.chebval(u1, _cheb.chebder(np.eye(deg + 1)[:, p])) for p in range(deg + 1)], 1) / grid.half
    dVy = np.stack([_cheb.chebval(v1, _cheb.chebder(np.eye(deg + 1)[:, q])) for q in range(deg + 1)], 1) / grid.half
    D = np.empty((grid.n * grid.n, len(pairs)), dtype=complex, order=order)
    for j, (p, q) in enumerate(pairs):
        s = np.outer(Vx[:, p], Vy[:, q])
        sx = np.outer(dVx[:, p], Vy[:, q]) + Ax * s
        sy = np.outer(Vx[:, p], dVy[:, q]) + Ay * s
        D[:, j] = (sx * wx + sy * wy).ravel()
    return D


def _qr_r_inplace(D: Array) -> Array:
    """The triangular factor ``R_D`` of ``D = Q R_D`` (``min(M, N)`` rows),
    factored by LAPACK ``zgeqrf`` in the storage of ``D`` itself, which it
    overwrites: ``D`` is ``(M, N)``, complex and column-major
    (Fortran-contiguous).  ``np.linalg.qr(D, mode="r")`` makes the same
    call on two copies of ``D``; the workspace is queried and sized as
    there, so ``R_D`` has the same bits."""
    if D.ndim != 2 or D.dtype != np.complex128 or not D.flags.f_contiguous:
        raise ValueError(f"expected a column-major complex128 matrix, got {D.dtype} of shape {D.shape}")
    m, n = D.shape
    a = D.T  # row-major (N, M): the column-major D that LAPACK reads
    tau = np.empty(min(m, n), dtype=complex)

    def geqrf(work: Array, lwork: int) -> None:
        info = lapack_lite.zgeqrf(m, n, a, max(1, m), tau, work, lwork, 0)["info"]
        if info != 0:
            raise np.linalg.LinAlgError(f"zgeqrf failed with info = {info}")

    query = np.empty(1, dtype=complex)
    geqrf(query, -1)
    work = np.empty(max(1, n, int(query[0].real)), dtype=complex)
    geqrf(work, len(work))
    return np.triu(D[: min(m, n)])


def _anchored_coeffs(RD: Array, rows: int, systems: list[tuple[Array, Array]]) -> list[Array]:
    r"""Minimum-norm least-squares solutions of ``[D; kappa R] c = [0; kappa t]``,
    one per anchor system ``(R, t)``, with ``kappa = ||D||_2``, from the
    triangular factor ``RD`` of the design ``D`` (:func:`_qr_r_inplace`).

    The tall ``D`` (``M = rows`` rows, ``N`` columns) is factored once,
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
    kappa = float(np.linalg.norm(RD, 2))
    out = []
    for R, t in systems:
        stacked = np.vstack([RD, kappa * R])
        target = np.concatenate([np.zeros(RD.shape[0], dtype=complex), kappa * t])
        rcond = np.finfo(float).eps * max(2 * rows + len(t), RD.shape[1])
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
    design (:func:`_chart_design`) therefore takes one row per node, the
    component along the unit direction ``conj(l)/|l|``: it has the Gram
    matrix of the design with one row per node and coordinate component,
    so the same singular values and the same minimum-norm solution, with
    half the rows to factor.  The defect is the larger coordinate
    component, ``|c| max_b |l_b|``.

    One copy of the design is alive at a time.  It is built column-major
    and factored in place (:func:`_qr_r_inplace`), both anchored systems
    are solved on its triangular factor (:func:`_anchored_coeffs`) with
    the rank cutoff of the two-component stacked system, and it is freed;
    the defects take a row-major rebuild, since ``D @ c`` on the
    column-major layout differs at rounding (up to 5.7e-14).
    """
    grid: ChartGrid = bd.grid
    pairs, _, _, Vx, Vy = _chart_basis(grid, bd.k)
    deg = Vx.shape[1] - 1
    Q = bd.state.Q
    # the larger coordinate component of c * l, relative to |c * l|
    comp = np.maximum(np.abs(Q[0, 0]), np.abs(Q[0, 1])) / np.hypot(np.abs(Q[0, 0]), np.abs(Q[0, 1]))

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
    # the column-major design is factored in place and freed before the row-major one is built
    solutions = _anchored_coeffs(_qr_r_inplace(_chart_design(bd, "F")), grid.n * grid.n, systems)
    D = _chart_design(bd, "C")
    values = []
    defects = []
    coeffs = []
    for c in solutions:
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


def eq_defining_residual(pt: Point, flip: str | None = None) -> tuple[Array, Array]:
    r"""Defining identity of the second-order correction on the holomorphic
    sections ``s`` of the point (sections of the bundle of its ``bd``;
    scale ``s``):

    .. math::
        \nabla^{0,1}\big(u(V)s\big) = \tfrac{i}{2} V[J]\,\nabla s
        + \tfrac{i}{4}\operatorname{Tr}\tilde\nabla(G(V))\,\omega\; s .
    """
    st, bd, s = pt.st, pt.bd, pt.s
    us = (pt.delta_s + pt.H * s) / (4.0 * bd.k)  # u(V)s, the bits of u_apply
    lhs = form_anti(st, sec_grad(bd, us))
    t1 = 0.5j * np.einsum("ba...,b...->a...", pt.VJ, pt.grad_s)
    t2 = _times_potential(0.25j * np.einsum("b...,ba...->a...", pt.trace_G, st.omega), s)
    if flip == "vj":
        t1 = -t1
    if flip == "trace":
        t2 = -t2
    return _section_sups(lhs - t1 - t2, s, st.grid.interior(), s.shape[:-2])


def eq_transfer_residual(pt: Point, flip: str | None = None) -> tuple[Array, Array]:
    r"""Holomorphy-transfer identity on the holomorphic sections ``s`` of the
    point at the level ``k`` of its ``bd`` (scale ``s``):

    .. math::
        \nabla^{0,1}\Delta_{G(V)} s = -2ik\,\omega G(V)\nabla s
        + ik\operatorname{Tr}\tilde\nabla(G(V))\,\omega\,s
        - \tfrac{i}{2}\operatorname{Tr}\tilde\nabla(G(V)\rho)\,s .
    """
    st, bd, s, G = pt.st, pt.bd, pt.s, pt.G
    k = bd.k
    lhs = form_anti(st, sec_grad(bd, pt.delta_s))
    t1 = -2j * k * np.einsum("ab...,bc...,c...->a...", st.omega, G, pt.grad_s)
    t2 = _times_potential(1j * k * np.einsum("b...,ba...->a...", pt.trace_G, st.omega), s)
    t3 = _times_potential(-0.5j * pt.trace_G_rho, s)
    if flip == "omega":
        t1 = -t1
    if flip == "trace":
        t2 = -t2
    if flip == "rho":
        t3 = -t3
    return _section_sups(lhs - t1 - t2 - t3, s, st.grid.interior(), s.shape[:-2])


def potential_variation_residual(pt: Point) -> tuple[float, float]:
    r"""Variation of the Ricci potential at the point (scale ``G(V)``):

    .. math::
        \bar\partial_M V'[F] = -\tfrac{i}{4}\operatorname{Tr}
        \tilde\nabla(G(V))\,\omega - \tfrac{i}{2}\,\partial_M F\,G(V)\,\omega .
    """
    family, st, G = pt.family, pt.st, pt.G
    vpf, _ = v_parts(lambda s: family.state(s).F, pt.sigma, pt.v, pt.eps)  # V'[F] over M
    lhs = form_anti(st, grad(st.grid, vpf))
    t1 = -0.25j * np.einsum("b...,ba...->a...", pt.trace_G, st.omega)
    t2 = -0.5j * np.einsum("b...,bc...,ca...->a...", pt.dF, G, st.omega)
    return _section_sups(lhs - t1 - t2, G, st.grid.interior())


def potential_oneform_residual(pt: Point, flip: str | None = None) -> tuple[float, float]:
    r"""The closed-form potential satisfies
    :math:`\bar\partial_M H(V) = \tfrac{i}{2}\operatorname{Tr}
    \tilde\nabla(G(V)\rho)` at the point; scale ``G(V)``."""
    st, G = pt.st, pt.G
    H = pt.H if flip is None else pt.H_flipped(flip)
    lhs = form_anti(st, grad(st.grid, H))
    rhs = 0.5j * pt.trace_G_rho
    return _section_sups(lhs - rhs, G, st.grid.interior())


# ---------------------------------------------------------------------------
# geometry-variation identities
# ---------------------------------------------------------------------------


def metric_variation_residual(family: Family, sigma: complex, v: complex, eps: float) -> tuple[float, float]:
    r"""Compatibility of the metric and structure variations:
    :math:`V[g] = \omega\,V[J]` (the symplectic form is parameter-fixed;
    scale: the right side)."""
    st = family.state(sigma)
    vg = dir_deriv(lambda s: family.state(s).g, sigma, v, eps)
    VJ = vj_of(family, sigma, v, eps)
    rhs = mat_mul(st.omega, VJ)
    return _section_sups(vg - rhs, rhs, st.grid.interior())


def levicivita_variation_residual(family: Family, sigma: complex, v: complex, eps: float) -> tuple[float, float]:
    r"""Variation of the Levi-Civita connection (scale: the right side):

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
    return _section_sups(lhs - rhs, rhs, st.grid.interior())


def projector_commutator_residual(family: Family, sigma: complex, v: complex, eps: float) -> tuple[float, float]:
    r"""Variation of the type projection on a parameter-fixed vector field:
    :math:`V[\pi^{0,1}X] = \tfrac{i}{2}V[J]\,X` for rigid families (scale:
    the right side)."""
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
    return _section_sups(lhs - rhs, rhs, st.grid.interior())


def frame_curvature_data(family: Family, sigma: complex, eps: float) -> tuple[Array, float, float]:
    r"""Parameter-direction curvature of the type-projected frame connection.

    The connection :math:`\hat\nabla^T_V Y = \pi^{1,0}V[Y]` on (1,0)
    fields has curvature along the two parameter coordinate directions

    .. math::
        R(\partial_1, \partial_2)\,Y
        = -\tfrac14\,[\partial_1 J, \partial_2 J]\; Y ,

    computed here by nested difference quotients (left) and from the
    structure derivatives (right); returns the left endomorphism
    restricted to the (1,0) subspace, the sup of the mismatch of the two
    sides and the sup of the right side.
    """
    st = family.state(sigma)

    def proj(s: complex) -> Array:
        stt = family.state(s)
        return stt.P

    def covP(s: complex, d: complex) -> Array:
        # endomorphism E(s) with nabla_d (P Y0) = E(s) Y0 for constant Y0
        P = family.state(s).P
        dP = dir_deriv(proj, s, d, eps)
        return mat_mul(P, dP)

    P0 = st.P
    # nabla_1(nabla_2 (P Y0)) = P d1[A_2] Y0 for constant Y0, so
    # R = P (d1[A_2] - d2[A_1]) P with A_d(s) = P(s) d_d P(s)
    dA2 = dir_deriv(lambda s: covP(s, 1j), sigma, 1.0, eps)
    dA1 = dir_deriv(lambda s: covP(s, 1.0), sigma, 1j, eps)
    R = np.einsum("ab...,bc...,cd...->ad...", P0, dA2 - dA1, P0)

    d1J, d2J = vj_of(family, sigma, 1.0, eps), vj_of(family, sigma, 1j, eps)
    commJ = mat_mul(d1J, d2J) - mat_mul(d2J, d1J)
    target = -0.25 * np.einsum("ab...,bc...,cd...->ad...", P0, commJ, P0)
    return (R, *_section_sups(R - target, target, st.grid.interior()))


def param_commutator_curvature(family: Family, sigma: complex, eps: float) -> Array:
    r"""Trace form :math:`\tfrac18\operatorname{Tr}\big(\pi^{1,0}
    [\partial_1 J, \partial_2 J]\big)` of the parameter-direction
    curvature on the half-form factor (field over M), from the closed-form
    structure derivatives when the family has them."""

    d1J = vj_of(family, sigma, 1.0, eps, family.closed_form)
    d2J = vj_of(family, sigma, 1j, eps, family.closed_form)
    commJ = mat_mul(d1J, d2J) - mat_mul(d2J, d1J)
    return 0.125 * np.einsum("ab...,ba...->...", family.state(sigma).P, commJ)


# ---------------------------------------------------------------------------
# parameter-space potential calculus
# ---------------------------------------------------------------------------


PotentialFn = Callable[[complex], Array]


def potential_fn(family: Family, which: str) -> PotentialFn:
    """Reduction-potential families by name.

    ``ricci``     -- the state's Ricci potential field (identically zero on
                     the torus, where the state normalizes it);
    ``log-imtau`` -- ``(1/2) log Im sigma`` (constant over M, so held at one
                     node, grid axes ``(1, 1)``), the non-pluriharmonic
                     repair that absorbs the parameter-direction curvature
                     on the torus.
    """
    if which == "ricci":
        return lambda s: family.state(s).F
    if which == "log-imtau":
        return lambda s: np.full((1, 1), 0.5 * np.log(s.imag), dtype=complex)
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


def operator_pullback_residual(pt: Point, flip: str | None = None) -> tuple[Array, Array]:
    r"""Pullback of the second-order operator through the comparison map of
    the Ricci potential :math:`\tilde F = F`, on the sections ``s`` of the
    point (of the bundle of its ``bd``; scale :math:`\Delta^L_{G(V)} s`):

    .. math::
        m^{-1}\Delta_{G(V)}(m\,s) = \Delta^{L}_{G(V)} s
        + 2\nabla^{L}_{G(V)\partial_M\tilde F}\,s - H(V)\,s
        - 2n\,V'[\tilde F]\,s \qquad (n = 0).
    """
    st, bd, s = pt.st, pt.bd, pt.s
    lhs = pt.delta_ms / pt.m
    GdF = np.einsum("ab...,b...->a...", pt.G, pt.dF)
    t1 = pt.delta_plain
    t2 = 2.0 * grad_along(bd.plain, GdF, s)
    t3 = -pt.H * s
    if flip == "gradient":
        t2 = -t2
    if flip == "potential":
        t3 = -t3
    return _section_sups(lhs - t1 - t2 - t3, t1, st.grid.interior(), s.shape[:-2])


def connection_agreement_residual(pt: Point, which: str = "ricci") -> tuple[Array, Array]:
    r"""Full-connection agreement through the comparison map of the
    reduction potential :math:`\tilde F` named ``which`` (see
    :func:`potential_fn`):

    .. math::
        m^{-1}\nabla_V(m\,s) = V[s] + \tilde u(V)s, \qquad
        \tilde u(V) = \tfrac1{4k}\big(\Delta^{L}_{G(V)}
        + 2\nabla^{L}_{G(V)\partial_M\tilde F}\big) + V'[\tilde F]

    for the parameter-constant coefficients ``s`` of the point (of the
    bundle of its ``bd``, so ``V[s] = 0``); scale ``s``.  The multiplier,
    :math:`\partial\tilde F` and :math:`\Delta_{G(V)}(m s)` of the Ricci
    potential are the point's; any other potential has its own multiplier,
    so it applies :math:`u(V)` to its own ``m s``.
    """
    family, st, bd, s, G = pt.family, pt.st, pt.bd, pt.s, pt.G
    sigma, v, eps, k = pt.sigma, pt.v, pt.eps, bd.k
    Ffn = potential_fn(family, which)
    if which == "ricci":
        m, dF = pt.m, pt.dF
        ums = (pt.delta_ms + pt.H * (m * s)) / (4.0 * k)  # the bits of u_apply
    else:
        m, dF = comparison_multiplier(family, Ffn, sigma), dF_holo(st, Ffn(sigma))
        ums = u_apply(bd, G, pt.H, m * s)
    vm = dir_deriv(lambda t: comparison_multiplier(family, Ffn, t), sigma, v, eps)
    aT = a_T(family, sigma, v, eps, family.closed_form)
    lhs = (vm * s + aT * m * s + ums) / m
    GdF = np.einsum("ab...,b...->a...", G, dF)
    vpF, _ = v_parts(Ffn, sigma, v, eps)
    rhs = (pt.delta_plain + 2.0 * grad_along(bd.plain, GdF, s)) / (4.0 * k) + vpF * s
    return _section_sups(lhs - rhs, s, st.grid.interior(), s.shape[:-2])
