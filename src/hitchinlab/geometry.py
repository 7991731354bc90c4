r"""Metric calculus on a fixed symplectic surface.

Throughout the lab the symplectic form is the fixed background
:math:`\omega = \omega_0\,dx\wedge dy` and the complex structure
:math:`J` varies; the Riemannian data is always derived as
:math:`g(X, Y) = \omega(X, JY)`.  This module provides the pointwise
and differential constructions downstream code needs:

* compatible metric, inverse, Levi-Civita symbols, curvature,
  Ricci form :math:`\rho(X, Y) = r(JX, Y)`;
* covariant derivatives of tensor fields, given as a component array
  and a variance string (used for the divergence-type traces in the
  operator identities).

Curvature conventions: :math:`R(X,Y)Z = \nabla_X\nabla_Y Z
- \nabla_Y\nabla_X Z - \nabla_{[X,Y]}Z` and
:math:`r(X, Y) = \operatorname{tr}(Z \mapsto R(Z, X)Y)`, which on a
surface give :math:`\rho = K\,\omega_g` with the round sphere positive.
"""

from __future__ import annotations

import numpy as np

from .fields import Array, Grid

# ---------------------------------------------------------------------------
# pointwise algebra
# ---------------------------------------------------------------------------


def make_omega(grid: Grid, omega0: float) -> Array:
    r"""Components of :math:`\omega_0\,dx\wedge dy`: ``w[a,b]`` antisymmetric."""
    w = np.zeros((2, 2) + grid.shape)
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
    dg = np.stack([grid.deriv(g, -2), grid.deriv(g, -1)])  # dg[p,a,b] = d_p g_ab
    term = np.einsum("bdc...->dbc...", dg) + np.einsum("cdb...->dbc...", dg) - dg
    return 0.5 * np.einsum("ad...,dbc...->abc...", ginv, term)


def riemann(grid: Grid, gamma: Array) -> Array:
    r"""Curvature of the symbols: ``R[a,b,c,d]`` = :math:`R^a{}_{bcd}` with
    :math:`R(e_c, e_d)e_b = R^a{}_{bcd}\, e_a`.
    """
    dgam = np.stack([grid.deriv(gamma, -2), grid.deriv(gamma, -1)])  # [p,a,b,c]
    r = np.einsum("cadb...->abcd...", dgam) - np.einsum("dacb...->abcd...", dgam)
    r += np.einsum("ace...,edb...->abcd...", gamma, gamma)
    r -= np.einsum("ade...,ecb...->abcd...", gamma, gamma)
    return r


def ricci_form(grid: Grid, gamma: Array, J: Array) -> Array:
    r"""Ricci form :math:`\rho_{ab} = r(J e_a, e_b)` from the Levi-Civita symbols
    ``gamma`` of the metric (see :func:`christoffel`)."""
    riem = riemann(grid, gamma)
    # r(X, Y) = tr(Z -> R(Z, X)Y):  r_{ab} = R^c{}_{bca}
    ric = np.einsum("cbca...->ab...", riem)
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
    ``"d" + variance``.
    """
    out = np.stack([grid.deriv(comps, -2), grid.deriv(comps, -1)])
    letters = "bcdefgh"[: len(variance)]
    for i, v in enumerate(variance):
        s = list(letters)
        s[i] = "z"
        src = "".join(s)
        if v == "u":
            corr = np.einsum(f"{letters[i]}az...,{src}...->a{letters}...", gamma, comps)
        else:
            corr = -np.einsum(f"za{letters[i]}...,{src}...->a{letters}...", gamma, comps)
        out = out + corr
    return out
