"""Grids, derivative operators, and pointwise algebra of real-indexed tensors.

Two backends share one calculus interface:

* :class:`TorusGrid` -- uniform periodic grid on the unit square with
  spectral (FFT) differentiation; derivatives are exact to machine
  precision for smooth periodic data, but a real field, which takes
  ``rfft``, loses the derivative of its Nyquist mode.
* :class:`ChartGrid` -- uniform closed box with 4th-order finite
  differences (central stencils in the interior, one-sided at the
  boundary); residual norms are evaluated on an interior mask.

Both return a derivative of the dtype of their input: real fields stay
float64, complex fields complex128.

Tensor fields are plain component arrays with *real* frame indices, of
shape ``(2,)*rank + (n, n)`` over the coordinate frame ``(d/dx, d/dy)`` or
its dual.  Which slots are vectors and which are covectors is not stored:
the one routine that needs it, ``geometry.cov_deriv``, takes it as an
argument.  Complex structures, projectors, metrics and two-forms are
rank-2 fields of this kind; all contractions are plain ``einsum`` calls
over the leading index axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

Array = np.ndarray


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic ``n x n`` grid on ``[0,1)^2`` with FFT calculus."""

    n: int

    @cached_property
    def x(self) -> Array:
        x = np.arange(self.n) / self.n
        return np.broadcast_to(x[:, None], (self.n, self.n)).copy()

    @cached_property
    def y(self) -> Array:
        y = np.arange(self.n) / self.n
        return np.broadcast_to(y[None, :], (self.n, self.n)).copy()

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @cached_property
    def _ik(self) -> Array:
        # 2*pi*i * integer wavenumbers, for unit period.
        return 2j * np.pi * np.fft.fftfreq(self.n, d=1.0 / self.n)

    def deriv(self, f: Array, axis: int) -> Array:
        """Spectral partial derivative along grid ``axis`` (-2 for x, -1 for y),
        of the dtype of ``f``.  A real ``f`` takes ``rfft``/``irfft``, which
        drops the derivative of the real Nyquist mode (even ``n``): it is 0."""
        real = not np.iscomplexobj(f)
        fh = np.fft.rfft(f, axis=axis) if real else np.fft.fft(f, axis=axis)
        fh *= self._ik[: fh.shape[axis]].reshape((-1,) + (1,) * (fh.ndim - 1 - axis % fh.ndim))
        return np.fft.irfft(fh, self.n, axis=axis) if real else np.fft.ifft(fh, axis=axis)

    def interior(self) -> Array:
        return np.ones(self.shape, dtype=bool)


# 4th-order one-sided first-derivative stencils (rows: boundary point,
# next-to-boundary point), offsets 0..4 and -1..3 respectively.
_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


@dataclass(frozen=True)
class ChartGrid:
    """Uniform ``n x n`` grid on a closed box with 4th-order differences.

    The box is ``[cx-half, cx+half] x [cy-half, cy+half]`` with the fixed
    ``center = (cx, cy)`` and ``half``, endpoints included;
    ``h = 2*half/(n-1)``.  Boundary derivatives use one-sided
    4th-order stencils so that composed operators remain well defined
    everywhere, but accuracy claims are made only on :meth:`interior`,
    the nodes at least ``margin`` points away from the boundary.
    """

    n: int
    half: ClassVar[float] = 0.5
    center: ClassVar[tuple[float, float]] = (0.0, 0.0)
    margin: ClassVar[int] = 6

    @property
    def h(self) -> float:
        return 2.0 * self.half / (self.n - 1)

    @cached_property
    def x(self) -> Array:
        x = self.center[0] + np.linspace(-self.half, self.half, self.n)
        return np.broadcast_to(x[:, None], (self.n, self.n)).copy()

    @cached_property
    def y(self) -> Array:
        y = self.center[1] + np.linspace(-self.half, self.half, self.n)
        return np.broadcast_to(y[None, :], (self.n, self.n)).copy()

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def deriv(self, f: Array, axis: int) -> Array:
        """4th-order finite-difference partial derivative along ``axis``, of
        the dtype of ``f``.  Both dtypes scale by ``1/12`` and ``1/h`` as
        multiplications, so a real ``f`` gives the real part of the complex
        stencil of ``f`` bit for bit."""

        def at(s) -> tuple:  # index ``s`` along ``axis``
            return (slice(None),) * (axis % f.ndim) + (s,)

        out = np.empty_like(f, dtype=np.result_type(f, 1.0))
        mid = out[at(slice(2, -2))]
        np.negative(f[at(slice(4, None))], out=mid)
        mid += 8.0 * f[at(slice(3, -1))]
        mid -= 8.0 * f[at(slice(1, -3))]
        mid += f[at(slice(None, -4))]
        mid *= 1.0 / 12.0
        for i, st in ((0, _EDGE0), (1, _EDGE1)):
            # one-sided stencil over the first five nodes, mirrored at the far edge
            out[at(i)] = sum(c * f[at(j)] for j, c in enumerate(st))
            out[at(-1 - i)] = -sum(c * f[at(-1 - j)] for j, c in enumerate(st))
        out *= 1.0 / self.h
        return out

    def interior(self) -> Array:
        m = self.margin
        mask = np.zeros(self.shape, dtype=bool)
        mask[m : self.n - m, m : self.n - m] = True
        return mask


Grid = TorusGrid | ChartGrid


def grad(grid: Grid, f: Array) -> Array:
    """Gradient of ``f``: its x and y derivatives stacked on a new leading axis."""
    return np.stack([grid.deriv(f, -2), grid.deriv(f, -1)])


# ---------------------------------------------------------------------------
# pointwise algebra
# ---------------------------------------------------------------------------


def mat_mul(a: Array, b: Array) -> Array:
    """Pointwise product of endomorphism fields ``(2,2,n,n)``."""
    return np.einsum("ab...,bc...->ac...", a, b)


def identity_like(g: Array) -> Array:
    eye = np.zeros_like(g)
    eye[0, 0] = 1.0
    eye[1, 1] = 1.0
    return eye


def proj_holo(J: Array) -> Array:
    r"""Type projector :math:`\pi^{1,0} = \tfrac12(\mathrm{Id} - iJ)` on vectors."""
    return 0.5 * (identity_like(J) - 1j * J)


def proj_anti(J: Array) -> Array:
    r"""Type projector :math:`\pi^{0,1} = \tfrac12(\mathrm{Id} + iJ)` on vectors."""
    return 0.5 * (identity_like(J) + 1j * J)


def max_norm(f: Array, mask: Array | None = None) -> float:
    """Max absolute value, optionally restricted to a boolean grid mask."""
    a = np.abs(np.asarray(f))
    if mask is not None:
        # collapse leading tensor axes, mask the grid axes
        a = a.reshape((-1,) + a.shape[-2:])
        return float(np.max(a[:, mask])) if a.size else 0.0
    return float(np.max(a))
