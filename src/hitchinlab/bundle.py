r"""Connection data for the prequantum and half-form bundles.

Sections of the level-``k`` bundle (tensored with the half-form twist)
are represented by coefficient functions with respect to a fixed frame:

* torus: unitary frame with potential :math:`\theta_L = 2\pi i\,y\,dx`
  (so :math:`d\theta_L = -i\omega`), translation multipliers
  ``s(x+1, y) = s(x, y)`` and ``s(x, y+1) = exp(-2 pi i k x) s(x, y)``;
  the half-form frame :math:`(dw_\tau)^{1/2}` is constant over the
  torus, so the multipliers are pure level-``k``.
* chart: symmetric gauge :math:`\theta_L = -\tfrac{i\omega_0}{2}
  (x\,dy - y\,dx)`, half-form frame :math:`(dw_\sigma)^{1/2}`.

The half-form parts of the connection are *computed, not assumed*:

* M-directions: the Levi-Civita connection induced on the canonical
  bundle in the frame :math:`dw`, halved for the square root;
* parameter directions: :math:`A_T(V) = -\tfrac12\,c(V)` where
  :math:`\pi^{1,0} V[\partial_w] = c(V)\,\partial_w` -- the coefficient
  ``c`` is extracted by pairing the projected frame variation with
  :math:`dw`.

Curvature probes form difference-quotient curls of these coefficients in
MM, TT and mixed direction pairs; the catalog compares them against the
closed-form targets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .fields import Array, TorusGrid, grad, max_norm
from .families import Family, KahlerState, dir_deriv
from .geometry import symbol_contraction

# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------


def level_potential(state: KahlerState, k: float) -> Array:
    """Potential of the level-``k`` bundle in the fixed gauge, ``(2, n, n)``."""
    grid = state.grid
    A = np.zeros((2,) + grid.shape, dtype=complex)
    if isinstance(grid, TorusGrid):
        A[0] = 2j * np.pi * k * grid.y
    else:
        A[0] = 0.5j * state.omega0 * k * grid.y
        A[1] = -0.5j * state.omega0 * k * grid.x
    return A


def halfform_potential(state: KahlerState) -> Array:
    r"""M-direction potential of the half-form frame :math:`(dw)^{1/2}`.

    Computes :math:`\nabla dw = \alpha\otimes dw + \beta\otimes d\bar w`
    with the Levi-Civita connection and returns :math:`\tfrac12\alpha`
    (the type leakage :math:`\beta` vanishes on an honest Kaehler member).
    A frame held at one node (every torus member) is constant, so its
    structure is too and the frame is parallel: the potential is exact
    complex zeros, taken without a derivative and held at the node like the
    fields of a flat state.
    """
    if state.dw.shape[-2:] == (1, 1):
        return np.zeros(state.dw.shape, dtype=complex)
    conn = symbol_contraction("cab...,c...->ab...", state.gamma, state.dw)
    ddw = grad(state.grid, state.dw)
    if conn is not None:
        ddw -= conn
    return 0.5 * np.einsum("ab...,b...->a...", ddw, state.E)


@dataclass
class BundleData:
    """Frozen M-direction connection data at one family member."""

    state: KahlerState
    k: float
    A_L: Array  # level-k potential alone
    a_delta: Array  # half-form potential
    A: Array  # total: level + half-form
    gauge: Array | None  # exp(2 pi i k x y) for sec_deriv; None on the chart and at k = 0
    gauge_dy: Array | None  # 2 pi i k x, the y-derivative of log(gauge); None with gauge

    @property
    def grid(self):
        return self.state.grid

    @property
    def plain(self) -> "BundleData":
        """The same data on the untwisted level-k bundle: ``A`` is ``A_L``."""
        return replace(self, A=self.A_L)


def bundle_levels(
    family: Family,
    sigma: complex,
    levels: Iterable[float],
    out: list[BundleData] | None = None,
) -> Iterator[BundleData]:
    """The bundle data of every level in ``levels`` at ``sigma``, one at a time.

    The state and the half-form potential do not depend on the level: they
    are built once, on the first level, and shared by the rest.  ``out``,
    when given, is the bundle data of ``levels`` at another member of
    ``family`` (an earlier call's), and each is moved to ``sigma`` in place:
    the level potential and the gauge depend only on the grid and the level
    and are kept, and the total potential is written into its ``A``.
    """
    st = family.state(sigma)
    a_d = halfform_potential(st)
    if out is not None:
        for bd in out:
            bd.state, bd.a_delta = st, a_d
            np.add(bd.A_L, a_d, out=bd.A)
            yield bd
        return
    grid = st.grid
    for k in levels:
        A_L = level_potential(st, k)
        gauge = gauge_dy = None
        if isinstance(grid, TorusGrid) and k != 0:
            gauge = np.exp(2j * np.pi * k * grid.x * grid.y)
            gauge_dy = 2j * np.pi * k * grid.x
        yield BundleData(
            state=st, k=k, A_L=A_L, a_delta=a_d, A=A_L + a_d, gauge=gauge, gauge_dy=gauge_dy
        )


def bundle_data(family: Family, sigma: complex, k: float) -> BundleData:
    return next(bundle_levels(family, sigma, (k,)))


# ---------------------------------------------------------------------------
# section derivatives (gauge-aware)
# ---------------------------------------------------------------------------


def sec_deriv(
    bd: BundleData, f: Array, axis: int, out: Array | None = None, scratch: Array | None = None
) -> Array:
    """Partial derivative of a section coefficient of the bundle of ``bd``.

    On the torus the y-multiplier ``exp(-2 pi i k x)`` makes raw columns
    non-periodic; conjugating by the gauge factor ``exp(2 pi i k x y)``
    (``bd.gauge``) restores periodicity, so the spectral derivative applies:
    ``d_y f = exp(-2 pi i k x y) d_y(exp(2 pi i k x y) f) - 2 pi i k x f``.

    The result is written into ``out`` when given; ``scratch`` is a work
    array for the gauge products, overwritten.  Both have the shape of
    ``f``, must not overlap it or each other, and are allocated when None.
    """
    if axis == -1 and bd.gauge is not None:
        df = bd.grid.deriv(np.multiply(f, bd.gauge, out=scratch), -1, out=out)
        df /= bd.gauge
        df -= np.multiply(bd.gauge_dy, f, out=scratch)
        return df
    return bd.grid.deriv(f, axis, out=out)


def _times_potential(A: Array, f: Array) -> Array:
    """``A[a] * f`` stacked over ``a``; ``f`` may carry leading batch axes."""
    return A.reshape(A.shape[:1] + (1,) * (f.ndim - 2) + A.shape[1:]) * f


def sec_grad(bd: BundleData, f: Array, out: Array | None = None, scratch: Array | None = None) -> Array:
    """Full covariant derivative ``(nabla_a f)`` on the level-k half-form bundle.

    ``f`` is one coefficient ``(n, n)`` or a batch ``(..., n, n)``; the
    result is ``(2, ..., n, n)``, written into ``out`` when given.
    ``scratch`` is as for :func:`sec_deriv`.
    """
    df = np.empty((2,) + f.shape, dtype=np.result_type(f, bd.A)) if out is None else out
    for a in range(2):
        sec_deriv(bd, f, a - 2, out=df[a], scratch=scratch)
        df[a] += np.multiply(bd.A[a], f, out=scratch)
    return df


# ---------------------------------------------------------------------------
# parameter-direction coefficient and curvature probes
# ---------------------------------------------------------------------------


def a_T(
    family: Family,
    sigma: complex,
    v: complex,
    eps: float,
    exact: bool = False,
) -> Array:
    r"""Half-form parameter coefficient :math:`A_T(V) = -\tfrac12 c(V)`.

    ``c`` is the frame coefficient of :math:`\pi^{1,0}V[\partial_w]`
    on :math:`\partial_w`; on the torus with direction ``v`` it equals
    :math:`v\,\tfrac{i}{2\operatorname{Im}\tau}` so
    :math:`A_T = -v\,\tfrac{i}{4\operatorname{Im}\tau}`, which ``exact``
    takes (torus only).  Torus rows use both: ``curvature_tm`` differentiates
    the frame.
    """
    if exact:
        return family.a_t_exact(sigma, v)
    st = family.state(sigma)
    VE = dir_deriv(lambda s: family.state(s).E, sigma, v, eps)
    c = np.einsum("a...,ab...,b...->...", st.dw, st.P, VE)
    return -0.5 * c


def curvature_mm(bd: BundleData) -> Array:
    """(x, y) component of the MM curvature: curl of the total potential.

    The level part of the gauge potential is linear in the coordinates,
    so its curl is evaluated in closed form (on the torus the potential
    is not a periodic field and may not be differentiated spectrally);
    the half-form part is a smooth field and is curled numerically.
    """
    st = bd.state
    return -1j * bd.k * st.omega0 + sec_plain_curl(st, bd.a_delta)


def sec_plain_curl(state: KahlerState, A: Array) -> Array:
    grid = state.grid
    return grid.deriv(A[1], -2) - grid.deriv(A[0], -1)


def mm_commutator_residual(bd: BundleData, s: Array, target: Array) -> tuple[float, float]:
    r"""Section-level MM curvature probe.

    Applies :math:`[\nabla_x, \nabla_y]` to a genuine section through the
    gauge-aware derivatives; the sups of its mismatch with ``target * s``
    and of ``s`` check the closed-form curl of :func:`curvature_mm`.
    """
    g1 = sec_grad(bd, s)
    ddx = sec_deriv(bd, g1[1], -2) + bd.A[0] * g1[1]
    ddy = sec_deriv(bd, g1[0], -1) + bd.A[1] * g1[0]
    comm = ddx - ddy
    mask = bd.grid.interior()
    return max_norm(comm - target * s, mask), max_norm(s, mask)


def curvature_tt(family: Family, sigma: complex, eps: float) -> Array:
    r"""Parameter-parameter curvature scalar :math:`R(\partial_1, \partial_2)`.

    The level part of the connection has no parameter dependence in this
    gauge, so the TT curvature is the parameter curl of ``A_T``.
    """
    exact = family.closed_form
    d1 = dir_deriv(lambda s: a_T(family, s, 1j, eps, exact), sigma, 1.0, eps)
    d2 = dir_deriv(lambda s: a_T(family, s, 1.0, eps, exact), sigma, 1j, eps)
    return d1 - d2


def curvature_tm(family: Family, sigma: complex, v: complex, eps: float) -> Array:
    r"""Mixed curvature one-form :math:`R(V, e_a) = V[A_{M,a}] - \partial_a A_T(V)`."""

    def A_M(s: complex) -> Array:
        return halfform_potential(family.state(s))  # the level part is parameter-independent

    VA = dir_deriv(A_M, sigma, v, eps)
    return VA - grad(family.grid, a_T(family, sigma, v, eps))
