from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from hitchinlab import bundle, families, fields, theta
from hitchinlab.bundle import a_T, bundle_data
from hitchinlab.families import TorusFamily
from hitchinlab.fields import TorusGrid, max_norm
from hitchinlab.operators import H_of, dF_holo, torus_sections, u_apply
from hitchinlab.theta import (
    as_path,
    connection_matrix,
    gram,
    gram_rank,
    heat_grid_residual,
    heat_mode_residual,
    loop_offscalar,
    loop_offscalar_levels,
    mode_range,
    multiplier_residual,
    theta_basis,
    theta_basis_dtau,
    theta_basis_dx,
    transport,
    transport_levels,
)

TAUS = (1j, 2j, 1 + 1j, 0.5 + 0.8j)


def test_basis_golden_values(torus64):
    """Freezes the normalization and the characteristic convention."""
    grid = torus64.grid
    b1 = theta_basis(grid, 1, 1j)
    assert abs(b1[0, 0, 0] - 1.0864348112133082) < 1e-12
    b2 = theta_basis(grid, 2, 1j)
    assert abs(b2[0, 0, 0] - 1.0037348854877393) < 1e-12
    assert abs(b2[1, 0, 0] - 0.4157606025960271) < 1e-12  # characteristic 1/2


def test_translation_multipliers(torus64):
    grid = torus64.grid
    for tau in (1j, 0.5 + 0.8j):
        for k in (1, 2, 3):
            for j in range(k):
                assert multiplier_residual(grid, k, tau, j) < 1e-10


def test_basis_annihilated_by_antiholomorphic_derivative(torus64):
    for tau in (1j, 1 + 1j):
        for k in (1, 3):
            assert max(torus_sections(bundle_data(torus64, tau, k)).defects) < 1e-10


def test_gram_is_golden_multiple_of_identity(torus64):
    grid = torus64.grid
    for tau in TAUS:
        for k in range(1, 6):
            G = gram(grid, tau, theta_basis(grid, k, tau))
            golden = np.sqrt(2.0 * np.pi / k)
            assert max_norm(G - golden * np.eye(k)) / golden < 1e-10
            assert gram_rank(G) == k


def test_gram_rank_detects_degeneracy():
    G = np.array([[2.0, 2.0], [2.0, 2.0]])  # rank one
    assert gram_rank(G) == 1


def test_exact_parameter_derivative_consistency(torus32):
    # FD in tau of the lattice sums against the termwise derivative
    grid = torus32.grid
    k, tau, h = 2, 1 + 1j, 1e-5
    fd = (theta_basis(grid, k, tau + h) - theta_basis(grid, k, tau - h)) / (2 * h)
    exact = theta_basis_dtau(grid, k, tau)
    assert max_norm(fd - exact) / max_norm(exact) < 1e-7


def test_heat_identities(torus64):
    for tau in TAUS:
        for k in range(1, 6):
            assert heat_mode_residual(k, tau) < 1e-12
            assert heat_grid_residual(torus64.grid, k, tau) < 1e-12


def test_termwise_x_derivative_orders(torus32):
    grid = torus32.grid
    b = theta_basis(grid, 1, 1j)
    d2 = theta_basis_dx(grid, 1, 1j, 2)
    # second derivative via two spectral passes agrees with the termwise sum
    twice = grid.deriv(grid.deriv(b[0], -2), -2)
    assert max_norm(twice - d2[0]) / max_norm(d2[0]) < 1e-9


def test_connection_matrix_basis_is_parallel(torus32):
    """The lattice basis is its own parameter flow: the connection matrix in
    the moving basis vanishes and the projection leaves no defect."""
    for tau in (1j, 1 + 1j):
        pd = connection_matrix(torus32, bundle_data(torus32, tau, 2), 1.0)
        assert max_norm(pd.M) < 1e-10
        assert pd.defect < 1e-10


def _connection_matrix_fd(fam, tau, k, v):
    """The connection matrix from central differences (``eps = 1e-4``) of
    ``V[s]``, ``A_T(V)`` and ``G(V)`` in place of the torus closed forms:
    the reference for :func:`connection_matrix`."""
    eps = 1e-4
    grid = fam.grid
    bd = bundle_data(fam, tau, k)
    basis = theta_basis(grid, k, tau)
    Vs = families.dir_deriv(lambda s: theta_basis(grid, k, s), tau, v, eps)
    GV = families.variation_tensors(bd.state, families.vj_of(fam, tau, v, eps))[1]
    H = H_of(bd.state, GV, dF_holo(bd.state, bd.state.F))
    nab = Vs + a_T(fam, tau, v, eps) * basis + u_apply(bd, GV, H, basis)
    weight = 2.0 * np.pi * np.sqrt(tau.imag / np.pi)
    P = weight * np.einsum("lab,jab->lj", np.conj(basis), nab) / grid.n**2
    return np.linalg.solve(np.conj(gram(grid, tau, basis)), P)


def test_connection_matrix_difference_quotient_agrees(torus32):
    pd_exact = connection_matrix(torus32, bundle_data(torus32, 1j, 1), 1.0)
    M_fd = _connection_matrix_fd(torus32, 1j, 1, 1.0)
    assert max_norm(pd_exact.M - M_fd) < 1e-6


def _connection_matrix_two_sums(fam, tau, k, v):
    """The connection matrix with the basis and its tau-derivative from
    :func:`theta_basis` and :func:`theta_basis_dtau`, each building its own
    lattice factors: the reference for :func:`connection_matrix`."""
    grid = fam.grid
    bd = bundle_data(fam, tau, k)
    basis = theta_basis(grid, k, tau)
    Vs = v * theta_basis_dtau(grid, k, tau)
    GV = fam.g_exact(tau, v)
    H = H_of(bd.state, GV, dF_holo(bd.state, bd.state.F))
    nab = Vs + fam.a_t_exact(tau, v) * basis + u_apply(bd, GV, H, basis)
    weight = 2.0 * np.pi * np.sqrt(tau.imag / np.pi)
    P = weight * np.einsum("lab,jab->lj", np.conj(basis), nab) / grid.n**2
    M = np.linalg.solve(np.conj(gram(grid, tau, basis)), P)
    defect = max_norm(nab - np.einsum("ij,iab->jab", M, basis)) / max(max_norm(basis), 1e-300)
    return M, defect


@pytest.mark.parametrize("tau,k,v", [(1j, 1, 1.0), (1 + 1j, 3, 1j), (0.5 + 0.8j, 2, 0.6 - 0.8j)])
def test_connection_matrix_matches_the_two_sums_bit_for_bit(torus32, tau, k, v):
    pd = connection_matrix(torus32, bundle_data(torus32, tau, k), v)
    M, defect = _connection_matrix_two_sums(torus32, tau, k, v)
    assert np.array_equal(pd.M, M)
    assert pd.defect == defect


@pytest.mark.parametrize("k", [1, 2, 3])
def test_connection_matrix_in_one_work_set_keeps_the_bits(torus32, k):
    """One work set and one level's bundle data, moved from point to point as
    a transport walk moves them (``bundle_levels(..., out=)``), give at each
    consecutive ``(tau, v)`` the matrix and defect of a fresh call and of
    the two-sum reference bit for bit, so no value is read stale."""
    w = theta.Work.empty(torus32.grid, k)
    for a in vars(w).values():
        a.fill(np.nan)
    held = None
    for tau, v in ((1j, 1.0), (1 + 1j, 1j), (0.5 + 0.8j, 0.6 - 0.8j), (1j, -0.3 + 0.2j)):
        held = list(bundle.bundle_levels(torus32, tau, (k,), out=held))
        fresh = bundle_data(torus32, tau, k)
        assert np.array_equal(held[0].A, fresh.A)
        pd = connection_matrix(torus32, held[0], v, out=w)
        ref = connection_matrix(torus32, fresh, v)
        M, defect = _connection_matrix_two_sums(torus32, tau, k, v)
        assert np.array_equal(pd.M, ref.M) and np.array_equal(pd.M, M)
        assert pd.defect == ref.defect == defect


def test_connection_matrix_in_its_work_set_allocates_no_grid_array():
    """A warm level-3 connection matrix on a 64x64 torus, built in its work
    set, peaks below 512 KiB of traced allocations; one ``(3, 64, 64)``
    complex array is 192 KiB, and with a temporary per operation the call
    peaks at about 1.8 MiB."""
    fam = TorusFamily(TorusGrid(64))
    bd = bundle_data(fam, 1 + 1j, 3)
    w = theta.Work.empty(fam.grid, 3)
    connection_matrix(fam, bd, 0.5 + 0.2j, out=w)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        connection_matrix(fam, bd, 0.5 + 0.2j, out=w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 2**10


def test_path_normalization():
    path = as_path((1j, 1 + 1j))
    assert path(0.0) == 1j
    assert path(1.0) == 1 + 1j
    assert path(0.5) == 0.5 + 1j
    assert path(-0.3) == 1j  # clamped
    fn = as_path(lambda t: 1j + t)
    assert fn(0.25) == 0.25 + 1j
    with pytest.raises(ValueError):
        as_path((1j,))


def test_path_off_the_half_plane_fails_before_any_step(torus32, monkeypatch):
    """A waypoint, or a loop circle, with ``Im tau <= 0`` is rejected before
    any connection matrix is built."""

    def no_work(*args, **kwargs):
        raise AssertionError("a connection matrix was built")

    monkeypatch.setattr(theta, "connection_matrix", no_work)
    for path in ((1j, -1j), (1j, 1.0), (-0.5j, 1j), (1j, 1 + 1j, 2 + 0j)):
        with pytest.raises(ValueError, match="Im tau > 0 at every waypoint"):
            transport(torus32, 1, path, np.eye(1), steps=4)
    for center, radius in ((0.005j, 0.01), (0.01j, 0.01), (1 - 1j, 0.01)):
        with pytest.raises(ValueError, match="Im tau > 0 on its circle"):
            loop_offscalar_levels(torus32, (1,), center, radius, steps=4)


def test_transport_matches_oracle(torus32):
    res = transport(torus32, 1, (1j, 1 + 1j), np.eye(1, dtype=complex), steps=80)
    assert float(np.max(np.abs(res.end - np.eye(1)))) < 1e-9
    assert res.max_defect < 1e-9
    assert res.norm_drift < 1e-9


def test_transport_vector_and_matrix_coefficients(torus32):
    c0 = np.array([1.0 + 0.5j, -0.25j])
    res = transport(torus32, 2, (1j, 0.8 + 1.2j), c0, steps=60)
    assert res.end.shape == c0.shape
    assert float(np.max(np.abs(res.end - c0))) < 1e-9


def test_transport_builds_each_connection_matrix_once(torus32, monkeypatch):
    # RK4 reads M at each step start, midpoint and end, and a step's end is
    # the next step's start: 2 * steps + 1 matrices
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].state.sigma)
        return connection_matrix(*args, **kwargs)

    monkeypatch.setattr(theta, "connection_matrix", counted)
    transport(torus32, 1, (1j, 1 + 1j), np.eye(1), steps=4)
    assert len(calls) == len(set(calls)) == 9


def test_levels_in_one_pass_match_one_level_passes(torus32):
    """Levels 1 and 3 walked together give bit for bit the per-level results."""
    path = (1j, 1 + 1j)
    both = transport_levels(torus32, {1: np.eye(1), 3: np.eye(3)}, path, steps=4)
    loops = loop_offscalar_levels(torus32, (1, 3), 1j, 0.05, steps=4)
    for k in (1, 3):
        one = transport(torus32, k, path, np.eye(k), steps=4)
        assert np.array_equal(both[k].end, one.end)
        assert both[k].norm_drift == one.norm_drift
        assert both[k].max_defect == one.max_defect
        off, L = loop_offscalar(torus32, k, 1j, 0.05, steps=4)
        assert loops[k][0] == off
        assert np.array_equal(loops[k][1], L)


def test_levels_in_one_pass_build_one_state_per_point(monkeypatch):
    # 2 * steps + 1 = 49 points, more than Family.state keeps (48): a level
    # that walked the path on its own would rebuild every state
    steps = 24
    built = []
    make_state = families.make_state

    def counted(family, sigma):
        built.append(sigma)
        return make_state(family, sigma)

    monkeypatch.setattr(families, "make_state", counted)
    fam = TorusFamily(TorusGrid(32))
    transport_levels(fam, {1: np.eye(1), 3: np.eye(3)}, (1j, 1 + 1j), steps=steps)
    assert len(built) == len(set(built)) == 2 * steps + 1


def test_transport_holds_no_full_grid_state():
    """A 25-step level-3 transport on a 64x64 torus peaks below 8 MiB of
    traced allocations: the flat states that ``Family.state`` keeps (48 of
    the 51 points) hold one node each.  With full-grid fields the cached
    states alone hold about 54 MiB."""
    fam = TorusFamily(TorusGrid(64))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        transport(fam, 3, (1j, 1 + 1j), np.eye(3, dtype=complex), steps=25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_levels_in_one_pass_build_one_halfform_potential_per_point(torus32, monkeypatch):
    # the half-form potential does not depend on the level: levels 1 and 3
    # share it at each of the 2 * steps + 1 points
    steps = 4
    built = []
    halfform_potential = bundle.halfform_potential

    def counted(state):
        built.append(state.sigma)
        return halfform_potential(state)

    monkeypatch.setattr(bundle, "halfform_potential", counted)
    transport_levels(torus32, {1: np.eye(1), 3: np.eye(3)}, (1j, 1 + 1j), steps=steps)
    assert len(built) == len(set(built)) == 2 * steps + 1


def test_connection_matrix_derivative_count(monkeypatch):
    """Field derivatives of one connection matrix on a fresh torus state: the
    4 of ``Delta_G(V)`` (the section gradient and the divergence), and no
    other.  The state's symbols and Ricci form and the half-form potential
    are closed-form zeros (constant metric and frame), and ``H(V)`` is zero
    for the normalized torus potential ``F = 0``.  A change that again
    differentiates a field known to vanish raises the count."""
    calls = []
    deriv = fields.TorusGrid.deriv

    def counted(self, f, axis, out=None):
        calls.append(axis)
        return deriv(self, f, axis, out)

    monkeypatch.setattr(fields.TorusGrid, "deriv", counted)
    fam = TorusFamily(TorusGrid(32))
    connection_matrix(fam, bundle_data(fam, 1 + 1j, 2), 1.0)
    assert len(calls) == 4


def test_transport_levels_rejects_no_level(torus32):
    with pytest.raises(ValueError, match="at least one level"):
        transport_levels(torus32, {}, (1j, 1 + 1j), steps=4)


def test_loop_holonomy_is_scalar(torus32):
    off, L = loop_offscalar(torus32, 2, 1j, 0.05, steps=60)
    assert off < 1e-8
    assert L.shape == (2, 2)


def _direct_sum(grid, k, tau, weight):
    """Full-grid lattice sum over a wider mode set than ``mode_range``."""
    x, y = grid.x, grid.y
    out = np.zeros((k,) + grid.shape, dtype=complex)
    for j in range(k):
        for n in range(-15, 16):
            nt = n + j / k
            out[j] += weight(nt, y) * np.exp(
                1j * np.pi * k * tau * nt * nt
                + 2j * np.pi * k * nt * (x + tau * y)
                + 1j * np.pi * k * tau * y * y
            )
    return out


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("tau", [1j, 0.5 + 0.8j, 1 + 1j])
def test_separable_sums_match_direct_lattice_sum(torus32, k, tau):
    grid = torus32.grid
    cases = [
        (theta_basis(grid, k, tau), lambda nt, y: 1.0),
        (theta_basis_dtau(grid, k, tau), lambda nt, y: 1j * np.pi * k * (nt + y) ** 2),
        (theta_basis_dx(grid, k, tau, 1), lambda nt, y: 2j * np.pi * k * nt),
        (theta_basis_dx(grid, k, tau, 2), lambda nt, y: (2j * np.pi * k * nt) ** 2),
    ]
    for fast, weight in cases:
        direct = _direct_sum(grid, k, tau, weight)
        assert max_norm(fast - direct) / max_norm(direct) <= 1e-13


@pytest.mark.parametrize("k, t2", [(0, 1.0), (-1, 1.0), (1, 0.0), (2, -0.5), (1, float("nan"))])
def test_mode_range_rejects_bad_level_and_parameter(k, t2):
    with pytest.raises(ValueError):
        mode_range(k, t2)


def test_transport_rejects_zero_steps(torus32):
    with pytest.raises(ValueError, match="step"):
        transport(torus32, 1, (1j, 1 + 1j), np.eye(1), steps=0)


def test_mode_range_covers_mass():
    # truncation keeps the dropped summands below double precision
    from hitchinlab.theta import mode_range

    r = mode_range(1, 1.0)
    n_max = max(abs(n) for n in r)
    assert np.exp(-np.pi * n_max**2) < 1e-16
