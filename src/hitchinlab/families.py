r"""Families of complex structures compatible with a fixed symplectic surface.

A *family* assigns to each parameter :math:`\sigma` in a neighbourhood of
a base point a complex structure :math:`J_\sigma` on the fixed
symplectic surface :math:`(M, \omega_0\,dx\wedge dy)`, together with a
tracked :math:`J_\sigma`-holomorphic coordinate :math:`w_\sigma` whose
frame trivializes the canonical bundle.  Two constructions are provided:

* :class:`TorusFamily` -- the unit torus with
  :math:`w_\tau = x + \tau y`, parameter :math:`\tau` in the upper half
  plane, constant-coefficient :math:`J_\tau`; everything has a closed
  form, which the tests use as oracles.  Its structure and frame are
  constant and handed back at one node, with grid axes ``(1, 1)``; that
  representation alone makes each member flat, every field held at the
  node, its symbols, Ricci form and half-form potential being exact zeros
  taken without a derivative (:class:`KahlerState`, :func:`make_state`).
* :class:`ChartFamily` -- a planar chart where
  :math:`J_\sigma` is encoded by a Beltrami coefficient
  :math:`\mu(\sigma)` through :math:`\eta = dz + \mu\,d\bar z`,
  :math:`E = (\partial_z - \bar\mu\partial_{\bar z})/(1-|\mu|^2)`,
  :math:`J = iE\otimes\eta - i\bar E\otimes\bar\eta`.
  :func:`rigid_family` builds :math:`\mu(\sigma), w(\sigma)` as exact
  polynomials in :math:`\sigma` so that the parameter variation
  :math:`G(V) = f(w)\,\partial_w\otimes\partial_w` is holomorphic in
  :math:`w` up to a controlled truncation order (the *rigidity* gate
  measures the defect rather than assuming it).  The family holds the
  :math:`\sigma^j` coefficient fields of :math:`\mu`, :math:`\partial_z w`
  and :math:`\partial_{\bar z} w`, evaluated once on its grid; its
  callables take :math:`\sigma` only and sum :math:`\sigma^j` times them.

Variations are taken per the difference-quotient contract: a real
parameter direction is encoded as a unit complex number ``v`` and the
derivative of any :math:`\sigma`-dependent field is the central
difference with step ``eps * (1 + |sigma|)``.  Only the torus family
has closed forms (``closed_form``) of :math:`V[J]`, :math:`G(V)` and
:math:`A_T(V)`; the identity residuals take them wherever they exist.

The variation :math:`V[J]` and its tensors :math:`\tilde G(V)` and
:math:`G(V)` are derived once here (:func:`vj_of`,
:func:`variation_tensors`); the gates of :func:`variation` and the
operators of ``hitchinlab.operators`` both use them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .fields import (
    Array,
    ChartGrid,
    Grid,
    TorusGrid,
    mat_mul,
    max_norm,
    proj_anti,
    proj_holo,
)
from .geometry import (
    christoffel,
    compatible_metric,
    cov_deriv,
    inv2,
    make_omega,
    ricci_form,
)

DEFAULT_OMEGA0 = 2.0 * np.pi


# ---------------------------------------------------------------------------
# polynomial helpers for the chart generator (coefficients of z^a zbar^b)
# ---------------------------------------------------------------------------


def _padd(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0.0) + c
    return out


def _pscale(p: dict, c: complex) -> dict:
    return {k: c * v for k, v in p.items()}


def _pmul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a, b), c in p.items():
        for (a2, b2), c2 in q.items():
            k = (a + a2, b + b2)
            out[k] = out.get(k, 0.0) + c * c2
    return out


def _pdz(p: dict) -> dict:
    return {(a - 1, b): a * c for (a, b), c in p.items() if a > 0}


def _pdzbar(p: dict) -> dict:
    return {(a, b - 1): b * c for (a, b), c in p.items() if b > 0}


def _pint_zbar(p: dict) -> dict:
    """A d/dzbar antiderivative (the primitive with no zbar-free part)."""
    return {(a, b + 1): c / (b + 1) for (a, b), c in p.items()}


def _peval(p: dict, z: Array) -> Array:
    zb = np.conj(z)
    out = np.zeros_like(z, dtype=complex)
    for (a, b), c in p.items():
        out = out + c * z**a * zb**b
    return out


def _series_mul(s: list[dict], t: list[dict], order: int) -> list[dict]:
    out = [dict() for _ in range(order + 1)]
    for i, p in enumerate(s):
        if i > order:
            break
        for j, q in enumerate(t):
            if i + j > order:
                break
            out[i + j] = _padd(out[i + j], _pmul(p, q))
    return out


def _series_inv(s: list[dict], order: int) -> list[dict]:
    """Reciprocal of a series with unit leading term."""
    out = [dict(s[0])] + [dict() for _ in range(order)]
    for j in range(1, order + 1):
        acc: dict = {}
        for i in range(1, j + 1):
            if i < len(s):
                acc = _padd(acc, _pmul(s[i], out[j - i]))
        out[j] = _pscale(acc, -1.0)
    return out


# ---------------------------------------------------------------------------
# pointwise complex-structure algebra
# ---------------------------------------------------------------------------

# real components of d/dz, d/dzbar and rows of dz, dzbar
_DZ_VEC = np.array([0.5, -0.5j])
_DZB_VEC = np.array([0.5, 0.5j])
_DZ_FORM = np.array([1.0, 1.0j])
_DZB_FORM = np.array([1.0, -1.0j])


def j_from_mu(mu: Array) -> Array:
    r"""Complex structure of the Beltrami coefficient, real frame components."""
    E, eta = frame_from_mu(mu)
    return -2.0 * np.imag(np.einsum("a...,b...->ab...", E, eta))


def frame_from_mu(mu: Array) -> tuple[Array, Array]:
    r"""(1,0) frame vector ``E`` and coframe ``eta`` of ``mu`` (real components)."""
    den = 1.0 - np.abs(mu) ** 2
    E = (
        _DZ_VEC[:, None, None] / den - np.conj(mu) * _DZB_VEC[:, None, None] / den
    )
    eta = _DZ_FORM[:, None, None] + mu * _DZB_FORM[:, None, None]
    return E, eta


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


@dataclass
class KahlerState:
    """All pointwise geometric data of one family member.

    The Levi-Civita symbols ``gamma`` and the Ricci form ``rho`` are built
    on first read, once per state, from ``g`` and ``J``: the parameter
    difference quotients read only ``J``, ``E``, ``h_w`` and ``F`` of the
    neighbouring members, so most states never build them.  A full-grid
    member takes ``christoffel`` and ``ricci_form``; a flat member, whose
    fields are held at one node with grid axes ``(1, 1)``
    (:func:`make_state`), gets exact zeros without a derivative, held at
    the node too, as are its projectors ``P`` and ``Q``.
    """

    grid: Grid
    sigma: complex
    omega0: float
    J: Array
    omega: Array
    g: Array
    dw: Array  # coframe components of the tracked holomorphic coordinate
    E: Array  # frame vector dual to dw within (1,0) vectors
    h_w: Array  # 2 g(d/dw, conj d/dw): metric coefficient in the w frame
    F: Array  # Ricci potential candidate -1/2 log h_w (normalized on the torus)

    @cached_property
    def gamma(self) -> Array:
        if self.g.shape[-2:] == (1, 1):
            return np.zeros((2,) + self.g.shape)
        return christoffel(self.grid, self.g)

    @cached_property
    def rho(self) -> Array:
        if self.g.shape[-2:] == (1, 1):
            return np.zeros(self.g.shape)
        return ricci_form(self.grid, self.gamma, self.J)

    @property
    def P(self) -> Array:
        return proj_holo(self.J)

    @property
    def Q(self) -> Array:
        return proj_anti(self.J)


def _holo_vector(dw: Array) -> Array:
    """(1,0) vector E with dw(E) = 1, conj(dw)(E) = 0, solved pointwise."""
    a, b = dw[0], dw[1]
    ab, bb = np.conj(a), np.conj(b)
    det = a * bb - b * ab
    return np.stack([bb / det, -ab / det])


def make_state(family: "Family", sigma: complex) -> KahlerState:
    """The Kaehler data of the member at ``sigma``.

    The family's representation decides: a structure ``J`` and frame ``dw``
    handed back at one node, with grid axes ``(1, 1)`` (every torus member,
    and the chart family of constant ``mu``), make a flat member, and each
    field is computed and held at that node, with the values of the full
    formulas bit for bit.  Fields on the full grid stay there.  Either way
    the symbols and the Ricci form are left to their first read
    (:class:`KahlerState`).
    """
    J = family.J_at(sigma)
    omega = make_omega(J.shape[2:], family.omega0)
    g = compatible_metric(omega, J)
    dw = family.dw_at(sigma)
    E = _holo_vector(dw)
    h_w = 2.0 * np.einsum("ab...,a...,b...->...", g, E, np.conj(E))
    if family.normalized_potential:
        F = np.zeros(h_w.shape, dtype=complex)
    else:
        F = -0.5 * np.log(h_w)
    return KahlerState(
        grid=family.grid, sigma=sigma, omega0=family.omega0, J=J, omega=omega, g=g, dw=dw, E=E, h_w=h_w, F=F
    )


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


class Family:
    """Base class: subclasses provide ``J_at`` and ``dw_at`` on the grid or,
    for a structure and frame constant over it, at one node with grid axes
    ``(1, 1)``, which makes the member flat (:func:`make_state`)."""

    grid: Grid
    omega0: float = DEFAULT_OMEGA0
    label: str = "family"
    normalized_potential: bool = False
    closed_form: bool = False  # has vj_exact, g_exact and a_t_exact

    def J_at(self, sigma: complex) -> Array:
        raise NotImplementedError

    def dw_at(self, sigma: complex) -> Array:
        raise NotImplementedError

    def state(self, sigma: complex) -> KahlerState:
        """The member at ``sigma``, found or built under the family's lock, so
        each is built once even when threads race.  The 48 latest-inserted
        states are kept (a lookup does not refresh one): a build first
        forgets the oldest while 48 are held.  A build that raises keeps
        nothing, and the next lookup builds again.  `drop_states` forgets
        them sooner (a sweep does after each parameter step, keeping only
        its centre member)."""
        sigma = complex(sigma)
        with self.__dict__.setdefault("_state_lock", threading.Lock()):
            cache = self.__dict__.setdefault("_states", OrderedDict())
            st = cache.get(sigma)
            if st is None:
                while len(cache) >= 48:
                    cache.popitem(last=False)
                st = cache[sigma] = make_state(self, sigma)
            return st

    def drop_states(self, keep: complex) -> None:
        """Forget every kept state but the member at ``keep``, which stays
        with the symbols it has built."""
        keep = complex(keep)
        with self.__dict__.setdefault("_state_lock", threading.Lock()):
            cache = self.__dict__.get("_states", {})
            for sigma in [s for s in cache if s != keep]:
                del cache[sigma]

    # closed-form variations: only the torus has them
    def vj_exact(self, sigma: complex, v: complex) -> Array:
        raise ValueError(f"{self.label} has no closed-form variation")

    def g_exact(self, sigma: complex, v: complex) -> Array:
        raise ValueError(f"{self.label} has no closed-form variation")

    def a_t_exact(self, sigma: complex, v: complex) -> Array:
        raise ValueError(f"{self.label} has no closed-form variation")


class TorusFamily(Family):
    r"""Unit torus, :math:`\omega = 2\pi\,dx\wedge dy`, :math:`w = x + \tau y`."""

    closed_form = True

    def __init__(self, grid: TorusGrid):
        self.grid = grid
        self.label = "torus"
        self.normalized_potential = True

    def J_at(self, sigma: complex) -> Array:
        t1, t2 = sigma.real, sigma.imag
        J = np.array([[-t1 / t2, -(t1 * t1 + t2 * t2) / t2], [1.0 / t2, t1 / t2]])
        return J[:, :, None, None]

    def dw_at(self, sigma: complex) -> Array:
        return np.array([1.0, sigma], dtype=complex)[:, None, None]

    def vj_exact(self, sigma: complex, v: complex) -> Array:
        # directional derivative of J(tau) along the real direction v
        t1, t2 = sigma.real, sigma.imag
        d1 = np.zeros((2, 2))
        d1[0, 0] = -1.0 / t2
        d1[0, 1] = -2.0 * t1 / t2
        d1[1, 1] = 1.0 / t2
        d2 = -self.J_at(sigma)[:, :, 0, 0] / t2
        d2[0, 1] += -2.0
        dj = v.real * d1 + v.imag * d2
        return dj[:, :, None, None]

    def g_exact(self, sigma: complex, v: complex) -> Array:
        r""":math:`G(V) = v\,\frac{i}{\pi}\,\partial_z\otimes\partial_z` for all
        :math:`\tau` (with :math:`V = v\partial_\tau + \bar v\partial_{\bar\tau}`)."""
        t2 = sigma.imag
        dz = np.array([-np.conj(sigma), 1.0]) / (2j * t2)
        G = (1j / np.pi) * v * np.einsum("a,b->ab", dz, dz)
        return G[:, :, None, None]

    def a_t_exact(self, sigma: complex, v: complex) -> Array:
        r""":math:`A_T(V) = -v\,\tfrac{i}{4\operatorname{Im}\tau}`, constant over M
        (held at one node, like ``vj_exact`` and ``g_exact``)."""
        return np.full((1, 1), -1j * v / (4.0 * sigma.imag), dtype=complex)


class ChartFamily(Family):
    r"""Beltrami family on a planar chart, built from callables of ``sigma``.

    ``mu_at(sigma)`` gives the Beltrami coefficient and ``w_at(sigma)`` the
    pair :math:`(\partial_z w, \partial_{\bar z} w)` on ``grid``; the
    constructors close over the grid's points, and the polynomial family of
    :func:`rigid_family` over its :math:`\sigma^j` coefficient fields,
    evaluated once on the grid.
    """

    def __init__(
        self,
        grid: ChartGrid,
        mu_at: Callable[[complex], Array],
        w_at: Callable[[complex], tuple[Array, Array]],
        label: str,
    ):
        self.grid = grid
        self._mu_at = mu_at
        self._w_at = w_at
        self.label = label
        self.normalized_potential = False

    def mu(self, sigma: complex) -> Array:
        return self._mu_at(complex(sigma))

    def J_at(self, sigma: complex) -> Array:
        return j_from_mu(self.mu(sigma))

    def dw_at(self, sigma: complex) -> Array:
        wz, wzb = self._w_at(complex(sigma))
        return np.stack([wz + wzb, 1j * (wz - wzb)])


# ---------------------------------------------------------------------------
# chart family constructors
# ---------------------------------------------------------------------------

RIGID_ORDER = 8  # the sigma order at which rigid_family truncates its series


def _poly_series_family(grid: ChartGrid, mu_series: list[dict], w_series: list[dict]) -> ChartFamily:
    r"""The family :math:`\mu(\sigma) = \sum_j \sigma^j\mu_j`,
    :math:`w(\sigma) = \sum_j \sigma^j w_j` of polynomial coefficients
    ``mu_series[j]``, ``w_series[j]``; each nonzero coefficient of
    :math:`\mu`, :math:`\partial_z w` and :math:`\partial_{\bar z} w` is
    evaluated on the grid once, here."""
    z = grid.x + 1j * grid.y

    def fields(series: list[dict]) -> list[tuple[int, Array]]:
        return [(j, _peval(p, z)) for j, p in enumerate(series) if p]

    mus = fields(mu_series)
    wzs = fields([_pdz(p) for p in w_series])
    wzbs = fields([_pdzbar(p) for p in w_series])

    def series_at(sigma: complex, terms: list[tuple[int, Array]]) -> Array:
        out = np.zeros_like(z, dtype=complex)
        for j, f in terms:
            # a copy keeps the rounding of a direct evaluation: NumPy computes
            # s * temporary in place as multiply(temporary, s) from 256 KiB
            # on, and that rounds differently from multiply(s, f)
            out = out + sigma**j * f.copy()
        return out

    def mu_at(sigma: complex) -> Array:
        return series_at(sigma, mus)

    def w_at(sigma: complex) -> tuple[Array, Array]:
        return series_at(sigma, wzs), series_at(sigma, wzbs)

    return ChartFamily(grid, mu_at, w_at, label="chart-rigid")


def rigid_family(grid: ChartGrid, f_coeffs: dict[int, complex]) -> ChartFamily:
    r"""Generate a family whose variation is :math:`f(w)\partial_w^{\otimes 2}`.

    Solves order by order in :math:`\sigma` the coupled system

    .. math::
        \partial_\sigma \mu = \tfrac{\omega_0}{4} f(w)\, w_z^{-2},
        \qquad
        \partial_{\bar z} w = \mu\, \partial_z w ,

    with :math:`\mu(0) = 0`, :math:`w(0) = z`; both unknowns are exact
    polynomials in :math:`(z, \bar z, \sigma)`.  The truncation at
    ``RIGID_ORDER`` leaves a rigidity defect :math:`O(|\sigma|^8)` which the
    rigidity gate measures a posteriori (nothing here is assumed).
    """
    mu_series: list[dict] = [dict() for _ in range(RIGID_ORDER + 1)]
    w_series: list[dict] = [dict() for _ in range(RIGID_ORDER + 1)]
    w_series[0] = {(1, 0): 1.0}
    for j in range(1, RIGID_ORDER + 1):
        # w_series[0] = z, so wz has unit leading term; truncate at order j-1
        wz = [_pdz(w_series[i]) for i in range(j)]
        wpow: list[list[dict]] = [[{(0, 0): 1.0}] + [dict() for _ in range(j - 1)]]
        for _ in range(max(f_coeffs) if f_coeffs else 0):
            wpow.append(_series_mul(wpow[-1], w_series[:j], j - 1))
        rhs = [dict() for _ in range(j)]
        for c, fc in f_coeffs.items():
            for i in range(j):
                rhs[i] = _padd(rhs[i], _pscale(wpow[c][i], fc))
        wzinv = _series_inv(wz, j - 1)
        wzinv2 = _series_mul(wzinv, wzinv, j - 1)
        rhs = _series_mul(rhs, wzinv2, j - 1)
        mu_series[j] = _pscale(rhs[j - 1], DEFAULT_OMEGA0 / (4.0 * j))
        beltrami = dict(mu_series[j])
        for i in range(1, j):
            beltrami = _padd(beltrami, _pmul(mu_series[i], _pdz(w_series[j - i])))
        w_series[j] = _pint_zbar(beltrami)
    return _poly_series_family(grid, mu_series, w_series)


def nonrigid_family(grid: ChartGrid) -> ChartFamily:
    r"""Adversarial family with :math:`G(V) = \bar z\,\partial_z\otimes\partial_z`
    at the base point: the variation is antiholomorphic, so the rigidity
    gate must reject it."""
    z = grid.x + 1j * grid.y

    def mu_at(sigma: complex) -> Array:
        return sigma * (DEFAULT_OMEGA0 / 4.0) * np.conj(z)

    def w_at(sigma: complex) -> tuple[Array, Array]:
        # w = z + sigma (omega0/4) zbar^2/2 solves the Beltrami equation exactly
        return np.ones_like(z), sigma * (DEFAULT_OMEGA0 / 4.0) * np.conj(z)

    return ChartFamily(grid, mu_at, w_at, label="chart-nonrigid")


def nonholo_family(grid: ChartGrid) -> ChartFamily:
    """Adversarial family depending on Re(sigma) only: not holomorphic.  Its
    ``mu`` is constant over the grid, so it is handed back at one node, with
    grid axes ``(1, 1)``, and every member is flat."""

    def constant(c: float) -> Array:
        return c * np.ones((1, 1), dtype=complex)

    def mu_at(sigma: complex) -> Array:
        return constant(sigma.real * (DEFAULT_OMEGA0 / 4.0))

    def w_at(sigma: complex) -> tuple[Array, Array]:
        return constant(1.0), constant(sigma.real * (DEFAULT_OMEGA0 / 4.0))

    return ChartFamily(grid, mu_at, w_at, label="chart-nonholo")


# ---------------------------------------------------------------------------
# difference-quotient variations and gates
# ---------------------------------------------------------------------------


def step_for(sigma: complex, eps: float) -> float:
    return eps * (1.0 + abs(sigma))


def dir_deriv(fieldfn: Callable[[complex], Array], sigma: complex, v: complex, eps: float) -> Array:
    """Central difference along the real parameter direction ``v``; of two
    one-node fields (those of flat members) it is one node too."""
    e = step_for(sigma, eps)
    return (fieldfn(sigma + e * v) - fieldfn(sigma - e * v)) / (2.0 * e)


def v_parts(
    fieldfn: Callable[[complex], Array], sigma: complex, v: complex, eps: float
) -> tuple[Array, Array]:
    r"""``(V'[f], V''[f])``: the parts :math:`\tfrac12(V[f] \mp i\,(iV)[f])`
    of the real direction ``v``, by central differences."""
    dv = dir_deriv(fieldfn, sigma, v, eps)
    div = dir_deriv(fieldfn, sigma, 1j * v, eps)
    return 0.5 * (dv - 1j * div), 0.5 * (dv + 1j * div)


def d_holo(fieldfn: Callable[[complex], Array], sigma: complex, eps: float) -> Array:
    r""":math:`\partial_\sigma f = \tfrac12(\partial_1 - i\partial_2)f`."""
    return v_parts(fieldfn, sigma, 1.0, eps)[0]


def vj_of(family: Family, sigma: complex, v: complex, eps: float, exact: bool = False) -> Array:
    """Variation :math:`V[J]` along the real direction ``v``: the closed form
    (``exact``; torus only) or the central difference.  Torus rows use both:
    ``metric_variation``, ``projector_commutator``, ``frame_curvature`` and
    ``curvature_mixed_trace`` take the difference quotient."""
    if exact:
        return family.vj_exact(sigma, v)
    return dir_deriv(family.J_at, sigma, v, eps)


def variation_tensors(st: KahlerState, VJ: Array) -> tuple[Array, Array]:
    r"""``(Gt, G)``: ``Gt = VJ . omega^{-1}`` solves
    :math:`V[J] = \tilde G(V)\omega`, and ``G`` is its (2,0) part."""
    Gt = np.einsum("ac...,cb...->ab...", VJ, inv2(st.omega))
    P = st.P
    return Gt, np.einsum("ac...,cd...,bd...->ab...", P, Gt, P)


@dataclass
class Variation:
    r"""Family gates at one (sigma, direction) pair.

    Each residual is a sup over ``grid.interior()`` of a property of the
    variation :math:`V[J]` along the real direction ``v`` and of its
    tensors :math:`\tilde G(V)`, :math:`G(V)` (:func:`variation_tensors`):
    :math:`V[J]` anticommutes with :math:`J`, :math:`\tilde G(V)` is
    symmetric, the :math:`(1,0)` parameter part of :math:`V[J]` maps
    :math:`(0,1)` to :math:`(1,0)` vectors, and :math:`G(V)` is rigid
    (its :math:`(0,1)` covariant derivative vanishes).  The gates are
    *measured*, and identity runs report them rather than assuming them.
    """

    anticommute_residual: float
    symmetry_residual: float
    holomorphy_residual: float
    rigidity_residual: float


def variation(
    family: Family,
    sigma: complex,
    v: complex,
    eps: float,
    exact: bool = False,
) -> Variation:
    """The gates at ``(sigma, v)`` from :func:`vj_of` (``exact`` as there);
    the torus ``family_gates`` row takes the difference quotient."""
    st = family.state(sigma)
    VJ = vj_of(family, sigma, v, eps, exact)
    Gt, G = variation_tensors(st, VJ)
    mask = st.grid.interior()

    anti = max_norm(mat_mul(VJ, st.J) + mat_mul(st.J, VJ), mask)
    sym = max_norm(Gt - np.einsum("ab...->ba...", Gt), mask)

    # holomorphy gate: the (1,0) parameter part of V[J] must map (0,1) to (1,0)
    VJ_i = vj_of(family, sigma, 1j * v, eps, exact)
    VJ_holo = 0.5 * (VJ - 1j * VJ_i)
    VJ_anti = 0.5 * (VJ + 1j * VJ_i)
    P, Q = st.P, st.Q
    holo = max(
        max_norm(mat_mul(Q, mat_mul(VJ_holo, P)), mask),
        max_norm(mat_mul(P, mat_mul(VJ_anti, Q)), mask),
    )

    # rigidity gate: (0,1) covariant derivative of G, pi^{0,1} on the new slot
    nablaG = cov_deriv(st.grid, st.gamma, G, "uu")
    rig = max_norm(np.einsum("az...,abc...->zbc...", Q, nablaG), mask)

    return Variation(
        anticommute_residual=anti,
        symmetry_residual=sym,
        holomorphy_residual=holo,
        rigidity_residual=rig,
    )
