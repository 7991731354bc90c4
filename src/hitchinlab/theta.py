r"""Torus holomorphic sections, Gram data, parallel transport, holonomy.

At level ``k`` on the unit torus with the fixed unitary gauge, the
coefficient functions of holomorphic sections are the lattice sums

.. math::
    s_j(x, y; \tau) = \sum_{n\in\mathbb Z}
        \exp\!\big(i\pi k\tau\,\tilde n^2 + 2\pi i k\tilde n\,(x+\tau y)
                   + i\pi k\tau\,y^2\big),
    \qquad \tilde n = n + j/k,\ j = 0,\dots,k-1,

which satisfy the translation multipliers ``s(x+1,y) = s(x,y)``,
``s(x,y+1) = exp(-2 pi i k x) s(x,y)`` and are annihilated by the (0,1)
part of the connection.  The half-form frame is constant over the torus
and contributes no shift of the characteristics ``j/k``; this convention
is frozen by a golden test.

Each summand is separable in the grid coordinates: it is the product of
an x-factor :math:`e^{i\pi k\tau\tilde n^2 + 2\pi ik\tilde n x}` and a
y-factor :math:`e^{2\pi ik\tilde n\tau y + i\pi k\tau y^2}`.  Both factors
are built once per ``(k, tau)`` over the truncated modes of
:func:`mode_range`, and every sum on the grid (the basis, its termwise
``tau``- and ``x``-derivatives, the off-grid multiplier check) is one
product over the mode axis instead of a full-grid exponential per mode.

Each summand separately satisfies the mode identity

.. math::
    i\pi k\tilde n^2 \;=\; \frac{(2\pi i k\tilde n)^2}{4\pi i k},

equivalently the coefficient sums solve
:math:`\partial_\tau \theta = \tfrac{1}{4\pi i k}\partial_z^2\theta`;
the transported basis is therefore its own flow, which is the oracle the
transport runs are compared against.

Transport integrates the coefficient ODE :math:`\dot c = -M(t)c` with a
fixed-step 4th-order Runge-Kutta scheme, where ``M`` is the connection
matrix of the full family connection (reference part plus the
second-order correction) in the moving basis, assembled by Gram
projection.  The projection defect measures how well the connection
preserves the holomorphic subspace.  One pass along a path integrates
every requested level (:func:`transport_levels`): the level enters only
through the bundle data and the basis of the connection matrix, so the
levels share the family state at each point.  Each walk holds one work set
per level (:class:`Work`), in which every point's connection matrix is
assembled, and frees it when the walk ends: past its first point a walk
allocates no grid-sized array of its own (the FFTs keep NumPy's internal
buffers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bundle import BundleData, bundle_levels
from .families import TorusFamily
from .fields import Array, TorusGrid, max_norm
from .operators import H_of, dF_holo, u_apply

# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------


def mode_range(k: int, t2: float) -> range:
    """Lattice range keeping truncated summands below double-precision floor."""
    if k < 1:
        raise ValueError(f"the lattice sums need a positive level, got k = {k}")
    if not t2 > 0:
        raise ValueError(f"the lattice sums need Im tau > 0, got Im tau = {t2}")
    reach = int(np.ceil(np.sqrt(38.0 / (np.pi * k * t2)))) + 2
    return range(-reach, reach + 1)


def _lattice_factors(x: Array, y: Array, k: int, tau: complex) -> tuple[Array, Array, Array]:
    r"""Separable factors of the lattice summands on the axes ``x``, ``y``.

    Returns ``nt`` (shape ``(k, m, 1)``, the shifted modes :math:`\tilde n`),
    ``X[j, m, x] = exp(i pi k tau n~^2 + 2 pi i k n~ x)`` and
    ``Y[j, m, y] = exp(2 pi i k n~ tau y + i pi k tau y^2)``; the summand at
    ``(x, y)`` is ``X[j, m, x] * Y[j, m, y]``.
    """
    modes = np.array(mode_range(k, tau.imag), dtype=float)
    nt = (modes[None, :] + np.arange(k)[:, None] / k)[..., None]
    X = np.exp(1j * np.pi * k * tau * nt * nt + 2j * np.pi * k * nt * x)
    Y = np.exp(2j * np.pi * k * nt * tau * y + 1j * np.pi * k * tau * y * y)
    return nt, X, Y


def _lattice_sum(X: Array, Y: Array, out: Array | None = None) -> Array:
    """Sum over modes of ``X[j, m, x] * Y[j, m, y]``, shape ``(k, len(x), len(y))``,
    written into ``out`` when given.

    One batched ``(x, m) @ (m, y)`` product per characteristic ``j``.
    """
    return np.matmul(np.swapaxes(X, -1, -2), Y, out=out)


def _axes(grid: TorusGrid) -> tuple[Array, Array]:
    return grid.x[:, 0], grid.y[0, :]


def theta_basis(grid: TorusGrid, k: int, tau: complex) -> Array:
    """Holomorphic coefficient functions, shape ``(k, n, n)``."""
    _, X, Y = _lattice_factors(*_axes(grid), k, tau)
    return _lattice_sum(X, Y)


def theta_basis_dtau(grid: TorusGrid, k: int, tau: complex) -> Array:
    r"""Exact parameter derivative :math:`\partial_\tau s_j`, termwise
    :math:`i\pi k(\tilde n + y)^2` times the summand.  The sums are
    holomorphic in ``tau``, so the derivative along a real tangent
    direction ``v`` is ``v`` times this array."""
    x, y = _axes(grid)
    nt, X, Y = _lattice_factors(x, y, k, tau)
    return _lattice_sum(X, 1j * np.pi * k * (nt + y) ** 2 * Y)


def theta_basis_dx(grid: TorusGrid, k: int, tau: complex, order: int) -> Array:
    """Exact x-derivative of the basis, termwise ``(2 pi i k n~)**order``."""
    nt, X, Y = _lattice_factors(*_axes(grid), k, tau)
    return _lattice_sum((2j * np.pi * k * nt) ** order * X, Y)


def heat_grid_residual(grid: TorusGrid, k: int, tau: complex) -> float:
    r"""Worst per-mode defect of the heat identity on the grid.

    In this gauge the coefficient functions carry the extra factor
    :math:`e^{i\pi k\tau y^2}` relative to the bare lattice sums, so the
    heat equation picks up transport terms:

    .. math::
        \partial_\tau s_j = \frac{1}{4\pi i k}\,\partial_x^2 s_j
            + y\,\partial_x s_j + i\pi k\,y^2 s_j .

    Both sides are assembled from independent termwise-exact sums, so the
    residual probes only the normalization conventions, not a
    finite-difference error.
    """
    y = grid.y
    s = theta_basis(grid, k, tau)
    lhs = theta_basis_dtau(grid, k, tau)
    d1 = theta_basis_dx(grid, k, tau, 1)
    d2 = theta_basis_dx(grid, k, tau, 2)
    rhs = d2 / (4j * np.pi * k) + y * d1 + 1j * np.pi * k * y * y * s
    worst = 0.0
    for j in range(k):
        worst = max(worst, max_norm(lhs[j] - rhs[j]) / max_norm(s[j]))
    return worst


def multiplier_residual(grid: TorusGrid, k: int, tau: complex, j: int) -> float:
    """Defect of the y-translation multiplier of the basis row ``j``,
    evaluated off-grid."""
    x, y = _axes(grid)

    def val(yy: Array) -> Array:
        _, X, Y = _lattice_factors(x, yy, k, tau)
        return _lattice_sum(X[j : j + 1], Y[j : j + 1])[0]

    lhs = val(y + 1.0)
    rhs = np.exp(-2j * np.pi * k * grid.x) * val(y)
    return float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))


def gram(grid: TorusGrid, tau: complex, basis: Array, conj: Array | None = None) -> Array:
    r"""Inner products :math:`\langle s_i, s_j\rangle
    = 2\pi\sqrt{\operatorname{Im}\tau/\pi}\;\overline{\text{mean}}(s_i\bar s_j)`;
    ``conj``, the second factor of the mean, is ``np.conj(basis)`` when
    None; any other stack ``t_j`` gives the weight times mean(s_i t_j)."""
    weight = 2.0 * np.pi * np.sqrt(tau.imag / np.pi)
    if conj is None:
        conj = np.conj(basis)
    return weight * np.einsum("iab,jab->ij", basis, conj) / grid.n**2


def gram_rank(G: Array) -> int:
    ev = np.linalg.eigvalsh(G)
    return int(np.sum(ev > 1e-10 * ev.max()))


def heat_mode_residual(k: int, tau: complex) -> float:
    r"""Largest defect of :math:`i\pi k\tilde n^2 = (2\pi i k\tilde n)^2/(4\pi i k)`
    over the truncated mode set (freezes the normalization conventions)."""
    worst = 0.0
    for j in range(k):
        for n in mode_range(k, tau.imag):
            nt = n + j / k
            lhs = 1j * np.pi * k * nt * nt
            rhs = (2j * np.pi * k * nt) ** 2 / (4j * np.pi * k)
            scale = max(abs(lhs), 1.0)
            worst = max(worst, abs(lhs - rhs) / scale)
    return worst


# ---------------------------------------------------------------------------
# connection matrix and transport
# ---------------------------------------------------------------------------


@dataclass
class ProjectionData:
    """Connection matrix in the moving basis plus its projection defect."""

    M: Array  # (k, k)
    defect: float  # sup-norm residual of nabla_V s_j off the span, relative


@dataclass
class Work:
    """The work arrays of :func:`connection_matrix` at level ``k`` on a grid.

    A transport walk holds one set per level and reuses it at every RK4
    point.
    """

    basis: Array  # (k, n, n) the basis
    nab: Array  # (k, n, n) nabla_V of the basis
    u: Array  # (k, n, n) u(V) of the basis
    scratch: Array  # (4, k, n, n) work array of u_apply, then of the pairings
    mag: Array  # (k, n, n) float magnitudes for the sup norms

    @classmethod
    def empty(cls, grid: TorusGrid, k: int) -> "Work":
        shape = (k,) + grid.shape
        return cls(
            basis=np.empty(shape, dtype=complex),
            nab=np.empty(shape, dtype=complex),
            u=np.empty(shape, dtype=complex),
            scratch=np.empty((4,) + shape, dtype=complex),
            mag=np.empty(shape),
        )


def connection_matrix(
    fam: TorusFamily, bd: BundleData, v: complex, out: Work | None = None
) -> ProjectionData:
    r""":math:`\nabla_V` of the basis at the level and parameter of the bundle
    data ``bd`` in that basis, from the torus closed forms of ``V[s]``,
    ``A_T(V)`` and ``G(V)``.  The grid-sized arrays are built in the work
    set ``out``, of the level of ``bd``; a new one when None."""
    grid = fam.grid
    tau, k = bd.state.sigma, int(bd.k)
    w = Work.empty(grid, k) if out is None else out
    tmp = w.scratch[0]
    # theta_basis and theta_basis_dtau from one set of lattice factors
    x, y = _axes(grid)
    nt, X, Y = _lattice_factors(x, y, k, tau)
    basis = _lattice_sum(X, Y, out=w.basis)
    nab = _lattice_sum(X, 1j * np.pi * k * (nt + y) ** 2 * Y, out=w.nab)
    np.multiply(v, nab, out=nab)  # V[s]
    st, GV = bd.state, fam.g_exact(tau, v)
    u = u_apply(bd, GV, H_of(st, GV, dF_holo(st, st.F)), basis, out=w.u, scratch=w.scratch)
    nab += np.multiply(fam.a_t_exact(tau, v), basis, out=tmp)
    nab += u
    cb = np.conjugate(basis, out=tmp)
    G = gram(grid, tau, basis, cb)
    # pairing P[l, j] = weight * mean(conj(s_l) * nabla s_j); with
    # nabla s_j = sum_i M[i, j] s_i this gives P = G^T M, so M solves
    # conj(G) M = P (G is Hermitian).
    P = gram(grid, tau, cb, nab)
    M = np.linalg.solve(np.conj(G), P)
    proj = np.einsum("ij,iab->jab", M, basis, out=tmp)
    scale = max(max_norm(basis, out=w.mag), 1e-300)
    defect = max_norm(np.subtract(nab, proj, out=proj), out=w.mag) / scale
    return ProjectionData(M=M, defect=defect)


@dataclass
class TransportResult:
    start: Array  # coefficients at the start
    end: Array  # coefficients at the end
    max_defect: float  # worst projection defect along the path
    norm_drift: float  # relative drift of the Gram norm of the section


def as_path(path) -> Callable[[float], complex]:
    """Normalize a waypoint sequence to a piecewise-linear path callable.

    Every waypoint must be finite and lie in the upper half plane; the
    straight segments between them then do too.
    """
    if callable(path):
        return path
    pts = [complex(p) for p in path]
    if len(pts) < 2:
        raise ValueError("a path needs at least two waypoints")
    for p in pts:
        if not (np.isfinite(p) and p.imag > 0):
            raise ValueError(f"a path needs a finite tau with Im tau > 0 at every waypoint, got {p}")
    segs = len(pts) - 1

    def fn(t: float) -> complex:
        u = min(max(t, 0.0), 1.0) * segs
        i = min(int(u), segs - 1)
        return pts[i] + (u - i) * (pts[i + 1] - pts[i])

    return fn


def transport_levels(
    fam: TorusFamily,
    starts: dict[int, Array],
    path,
    steps: int,
) -> dict[int, TransportResult]:
    r"""Fixed-step RK4 integration of :math:`\dot c = -M_k(t)\,c` for every
    level ``k`` of ``starts`` (level -> start coefficients) along one path.

    ``path`` maps ``t in [0, 1]`` to parameters (a callable, or a
    sequence of waypoints joined by straight segments); directions are
    the path velocity.  The endpoint coefficients express the
    transported section in the holomorphic basis at the endpoint.
    Coefficients may be a vector or a matrix of stacked columns.  The
    connection matrices take the closed-form torus variations.

    The path is walked once: at each RK4 point the parameter, the
    velocity, the state and the half-form potential are computed once
    (``bundle.bundle_levels``) and the levels' connection matrices are
    built back to back.  Each level's result is bit for bit the one of a
    pass with that level alone.  The walk holds, per level, the bundle
    data of its first point, whose level potential and gauge the later
    points keep, and one :class:`Work` set, in which every point's
    connection matrix is assembled; both are freed when the walk ends.
    """
    if steps < 1:
        raise ValueError(f"transport needs at least one step, got steps = {steps}")
    if not starts:
        raise ValueError("transport needs at least one level")
    path = as_path(path)
    grid = fam.grid
    h = 1.0 / steps
    dt = 1e-6

    # RK4 needs M at every step start, midpoint and end; a step's end is the
    # next step's start, so entry 2*i is the start of step i
    ts = [0.0] + [t for i in range(steps) for t in (i * h + 0.5 * h, i * h + h)]
    data: dict[int, list[ProjectionData]] = {k: [] for k in starts}
    works = [Work.empty(grid, k) for k in starts]
    held = None
    for t in ts:
        t_hi, t_lo = min(t + dt, 1.0), max(t - dt, 0.0)
        tau, vel = path(t), (path(t_hi) - path(t_lo)) / (t_hi - t_lo)
        held = list(bundle_levels(fam, tau, starts, out=held))
        for k, bd, w in zip(starts, held, works):
            data[k].append(connection_matrix(fam, bd, vel, out=w))

    tau0, tau1 = path(0.0), path(1.0)
    out = {}
    for k, start in starts.items():
        c0 = np.asarray(start, dtype=complex)
        c = c0.copy()
        for i in range(steps):
            M1, M2, M4 = (pd.M for pd in data[k][2 * i : 2 * i + 3])
            k1 = -M1 @ c
            k2 = -M2 @ (c + 0.5 * h * k1)
            k3 = -M2 @ (c + 0.5 * h * k2)
            k4 = -M4 @ (c + h * k3)
            c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        G0 = gram(grid, tau0, theta_basis(grid, k, tau0))
        G1 = gram(grid, tau1, theta_basis(grid, k, tau1))
        c0m, cm = c0.reshape(c0.shape[0], -1), c.reshape(c.shape[0], -1)
        n0 = float(np.einsum("im,ij,jm->", np.conj(c0m), G0, c0m).real)
        n1 = float(np.einsum("im,ij,jm->", np.conj(cm), G1, cm).real)
        out[k] = TransportResult(
            start=c0,
            end=c,
            max_defect=max([0.0] + [pd.defect for pd in data[k]]),
            norm_drift=abs(n1 - n0) / max(n0, 1e-300),
        )
    return out


def transport(
    fam: TorusFamily,
    k: int,
    path,
    c0: Array,
    steps: int,
) -> TransportResult:
    """Transport of the level-``k`` coefficients ``c0`` along ``path``: the
    one-level pass of :func:`transport_levels`."""
    return transport_levels(fam, {k: c0}, path, steps)[k]


def loop_offscalar_levels(
    fam: TorusFamily,
    levels: tuple[int, ...],
    center: complex,
    radius: float,
    steps: int,
) -> dict[int, tuple[float, Array]]:
    """Transport the full basis of every level around one parameter circle.

    Returns, per level, the distance of the holonomy matrix from scalar
    multiples of the identity (relative operator norm) together with the
    matrix.  The circle is walked once for all levels
    (:func:`transport_levels`); it must lie in the upper half plane,
    ``Im center > radius``.
    """
    if not complex(center).imag > radius:
        raise ValueError(
            f"a loop needs Im tau > 0 on its circle: Im center = {complex(center).imag}"
            f" must exceed the radius {radius}"
        )

    def path(t: float) -> complex:
        return center + radius * np.exp(2j * np.pi * t)

    starts = {k: np.eye(k, dtype=complex) for k in levels}
    out = {}
    for k, res in transport_levels(fam, starts, path, steps).items():
        L = res.end
        lam = np.trace(L) / k
        off = np.linalg.norm(L - lam * np.eye(k), 2) / max(abs(lam), 1e-300)
        out[k] = (float(off), L)
    return out


def loop_offscalar(
    fam: TorusFamily,
    k: int,
    center: complex,
    radius: float,
    steps: int,
) -> tuple[float, Array]:
    """Holonomy off-scalar distance and matrix of the level-``k`` basis
    around a parameter circle: the one-level pass of
    :func:`loop_offscalar_levels`."""
    return loop_offscalar_levels(fam, (k,), center, radius, steps)[k]
