r"""Metric calculus on a fixed symplectic surface.

Throughout the lab the symplectic form is the fixed background
:math:`\omega = \omega_0\,dx\wedge dy` and the complex structure
:math:`J` varies; the Riemannian data is always derived as
:math:`g(X, Y) = \omega(X, JY)`.  This module provides the pointwise
and differential constructions downstream code needs:

* compatible metric, inverse, Levi-Civita symbols, and the Ricci form
  :math:`\rho(X, Y) = r(JX, Y)`, all real (float64) for a real structure
  :math:`J`, with the Ricci tensor contracted from the
  symbols and their first derivatives
  (:math:`r_{ab} = \partial_c\Gamma^c{}_{ab} - \partial_a\Gamma^c{}_{cb}
  + \Gamma^c{}_{ce}\Gamma^e{}_{ab} - \Gamma^c{}_{ae}\Gamma^e{}_{cb}`);
* covariant derivatives of tensor fields, given as a component array
  and a variance string (used for the divergence-type traces in the
  operator identities).

A ``families.KahlerState`` calls :func:`christoffel` and :func:`ricci_form`
when its ``gamma`` or ``rho`` is first read, and only for a structure held
on the full grid: the family's representation decides, and a structure
handed back at one node, of grid axes ``(1, 1)`` (every flat-torus member),
gets exact zeros without a derivative, so no torus row exercises the
symbols or the curvature here.

Curvature conventions: :math:`R(X,Y)Z = \nabla_X\nabla_Y Z
- \nabla_Y\nabla_X Z - \nabla_{[X,Y]}Z` and
:math:`r(X, Y) = \operatorname{tr}(Z \mapsto R(Z, X)Y)`, which on a
surface give :math:`\rho = K\,\omega_g` with the round sphere positive.
"""

from __future__ import annotations

import numpy as np

from .fields import Array, Grid, grad

# ---------------------------------------------------------------------------
# pointwise algebra
# ---------------------------------------------------------------------------


def make_omega(shape: tuple[int, ...], omega0: float) -> Array:
    r"""Components of :math:`\omega_0\,dx\wedge dy` over the grid axes
    ``shape``: ``w[a,b]`` antisymmetric."""
    w = np.zeros((2, 2) + shape)
    w[0, 1] = omega0
    w[1, 0] = -omega0
    return w


def compatible_metric(omega: Array, J: Array) -> Array:
    r"""Metric :math:`g_{ab} = \omega_{ac} J^c{}_b` of a compatible pair."""
    return np.einsum("ac...,cb...->ab...", omega, J)


def inv2(m: Array) -> Array:
    """Pointwise inverse of a field of 2x2 matrices ``m[a,b,...]``."""
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    out = np.empty_like(m)
    out[0, 0] = m[1, 1] / det
    out[1, 1] = m[0, 0] / det
    out[0, 1] = -m[0, 1] / det
    out[1, 0] = -m[1, 0] / det
    return out


# ---------------------------------------------------------------------------
# Levi-Civita and curvature
# ---------------------------------------------------------------------------


def christoffel(grid: Grid, g: Array) -> Array:
    r"""Levi-Civita symbols :math:`\Gamma^a{}_{bc}`, shape ``(2,2,2,n,n)``.

    :math:`\Gamma^a{}_{bc} = \tfrac12 g^{ad}(\partial_b g_{dc}
    + \partial_c g_{db} - \partial_d g_{bc})`.
    """
    ginv = inv2(g)
    dg = grad(grid, g)  # dg[p,a,b] = d_p g_ab
    term = np.einsum("bdc...->dbc...", dg) + np.einsum("cdb...->dbc...", dg) - dg
    return 0.5 * np.einsum("ad...,dbc...->abc...", ginv, term)


def ricci_form(grid: Grid, gamma: Array, J: Array) -> Array:
    r"""Ricci form :math:`\rho_{ab} = r(J e_a, e_b)` from the Levi-Civita symbols
    ``gamma`` of the metric (see :func:`christoffel`).

    The Ricci tensor is contracted from the symbols directly,

    .. math::
        r_{ab} = \partial_c\Gamma^c{}_{ab} - \partial_a\Gamma^c{}_{cb}
            + \Gamma^c{}_{ce}\Gamma^e{}_{ab} - \Gamma^c{}_{ae}\Gamma^e{}_{cb},

    that is :math:`\partial_x\Gamma^0 + \partial_y\Gamma^1 - d(\mathrm{tr})
    + \mathrm{tr}\cdot\Gamma - \Gamma\cdot\Gamma` with
    :math:`\mathrm{tr}_b = \Gamma^c{}_{cb}`: twelve field derivatives.
    """
    tr = np.einsum("ccb...->b...", gamma)
    ric = grid.deriv(gamma[0], -2) + grid.deriv(gamma[1], -1)
    ric -= grad(grid, tr)
    ric += np.einsum("e...,eab...->ab...", tr, gamma)
    ric -= np.einsum("cae...,ecb...->ab...", gamma, gamma)
    return np.einsum("ca...,cb...->ab...", J, ric)


# ---------------------------------------------------------------------------
# covariant derivative of tensor fields
# ---------------------------------------------------------------------------


def cov_deriv(grid: Grid, gamma: Array, comps: Array, variance: str) -> Array:
    r"""Levi-Civita covariant derivative; the new covector slot comes first.

    ``comps`` has shape ``(2,)*rank + grid.shape`` and ``variance`` holds
    one character per slot, ``'u'`` (vector) or ``'d'`` (covector).  For
    each up slot ``(\nabla t)`` gains :math:`+\Gamma^b{}_{ae}t^{e}`, for
    each down slot :math:`-\Gamma^e{}_{ab}t_{e}`.  The result has variance
    ``"d" + variance``.  Symbols of exact zeros add nothing
    (:func:`symbol_contraction`).
    """
    out = grad(grid, comps)
    letters = "bcdefgh"[: len(variance)]
    for i, v in enumerate(variance):
        s = list(letters)
        s[i] = "z"
        src = "".join(s)
        if v == "u":
            corr = symbol_contraction(f"{letters[i]}az...,{src}...->a{letters}...", gamma, comps)
            if corr is not None:
                out = out + corr
        else:
            corr = symbol_contraction(f"za{letters[i]}...,{src}...->a{letters}...", gamma, comps)
            if corr is not None:
                out = out - corr
    return out


def symbol_contraction(subscripts: str, gamma: Array, comps: Array) -> Array | None:
    """``np.einsum(subscripts, gamma, comps)``, or None for symbols of exact
    zeros (every flat member's, held at one node), whose contraction would
    add exact zeros; a NaN in ``gamma`` still takes it."""
    return np.einsum(subscripts, gamma, comps) if gamma.any() else None
