"""Finite-size engine: operators, Chebyshev propagation, and initial states."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from rotdicke import (
    ModelParams,
    PropagationError,
    ProtocolSpec,
    QuantumState,
    build_operators,
    chebyshev_coefficients,
    chebyshev_order,
    chebyshev_step,
    coherent_state,
    evolve,
    ground_state,
    initial_state_params,
    integrate,
    point_from_coherent,
    spectral_bounds,
    stationary_photon_scaled,
)
from rotdicke.quantum import Hamiltonian, _bessel_j, _lowest_eigenvalue, _ritz_pair, _Stencil

from dense_reference import kron_hamiltonian


def factor_matrices(ops):
    """Full-space J_+ + J_- and a + a^dag from the Hamiltonian's stored factors."""
    h = ops.h_rot
    jp = np.diag(h.spin_offdiag, k=-1)
    a = np.diag(h.field_offdiag, k=1)
    jpm = np.kron(jp + jp.T, np.eye(h.grid[1]))
    x = np.kron(np.eye(h.grid[0]), a + a.T)
    return jpm, x


def jz_diagonal(j, n_max):
    """The diagonal of J_z over the m-major, n-minor product basis."""
    return np.repeat(np.arange(int(round(2 * j)) + 1) - j, n_max + 1)


def applied_matrix(h):
    """The matrix of the library's operator ``h``, column by column from h.apply."""
    return np.column_stack([h.apply(e) for e in np.eye(h.diagonal.size)])

def operators_or_bare(j, n_max, lam, delta_phi):
    """(h_dicke, h_rot) from build_operators, or, for n_max = 0 (which
    ModelParams rejects), bare Hamiltonians with an empty field factor."""
    if n_max >= 1:
        ops = build_operators(ModelParams(lam=lam, j=j, delta_phi=delta_phi, n_max=n_max))
        return ops.h_dicke, ops.h_rot
    two_j = int(round(2 * j))
    m = np.arange(two_j + 1) - j
    spin = np.sqrt((j - m[:-1]) * (j + m[:-1] + 1))
    field = np.zeros(0)
    coupling = lam / math.sqrt(2 * j)
    return (
        Hamiltonian(1.0 * m, spin, field, coupling),
        Hamiltonian((1.0 + delta_phi) * m, spin, field, coupling),
    )


class TestBuildOperators:
    def test_smallest_algebra(self):
        params = ModelParams(lam=0.7, j=0.5, delta_phi=0.0, n_max=1)
        ops = build_operators(params)
        jz = jz_diagonal(0.5, 1)
        # m-major blocks: diag(-1/2, -1/2, +1/2, +1/2)
        assert np.allclose(jz, [-0.5, -0.5, 0.5, 0.5])
        assert np.array_equal(ops.h_dicke.diagonal, jz + ops.adag_a)
        jpm, _ = factor_matrices(ops)
        jp = np.triu(jpm).T  # J_+ is the lower triangle in the m-major basis
        jm = jp.T
        comm = jp @ jm - jm @ jp
        assert np.allclose(comm, 2 * np.diag(jz))

    def test_su2_commutators_larger_spin(self):
        params = ModelParams(lam=0.3, j=2.0, n_max=2)
        ops = build_operators(params)
        jpm, _ = factor_matrices(ops)
        jz = np.diag(jz_diagonal(2.0, 2))
        # [J_z, J_+ + J_-] = J_+ - J_-, hence [[J_z, J_pm], J_z] = -J_pm.
        inner = jz @ jpm - jpm @ jz
        assert np.allclose(inner @ jz - jz @ inner, -jpm)

    def test_boson_commutator_truncation_artifact(self):
        n_max = 5
        params = ModelParams(lam=0.5, j=0.5, n_max=n_max)
        ops = build_operators(params)
        _, x = factor_matrices(ops)
        # reconstruct a from x = a + a^dag on one spin block
        block = x[: n_max + 1, : n_max + 1]
        a = np.triu(block)
        comm = a @ a.T - a.T @ a
        expected = np.eye(n_max + 1)
        expected[-1, -1] = -(n_max + 1) + 1  # = -n_max: the truncated row
        # [a, a^dag] = 1 holds strictly below the last Fock row
        assert np.allclose(comm[:n_max, :n_max], expected[:n_max, :n_max])
        assert comm[n_max, n_max] == pytest.approx(-n_max)

    def test_parity_entries(self):
        params = ModelParams(lam=0.5, j=1.0, n_max=3)
        ops = build_operators(params)
        assert set(np.unique(ops.parity)) == {-1.0, 1.0}
        # one field excitation on the lowest-weight spin state, at index
        # (m+j)(n_max+1) + n = 1, is odd
        assert ops.parity[1] == -1.0
        ntot = ops.adag_a + jz_diagonal(1.0, 3) + 1.0
        assert np.allclose(ops.parity, (-1.0) ** np.round(ntot))

    def test_hamiltonians_hermitian_and_commute_with_parity(self):
        params = ModelParams(lam=1.0, j=1.5, delta_phi=0.7, n_max=6)
        ops = build_operators(params)
        for h in (applied_matrix(ops.h_dicke), applied_matrix(ops.h_rot)):
            assert np.max(np.abs(h - h.T)) < 1e-14
            comm = h * ops.parity[None, :] - ops.parity[:, None] * h
            assert np.max(np.abs(comm)) < 1e-13

    def test_h_rot_shifts_only_jz(self):
        base = ModelParams(lam=0.9, j=1.0, delta_phi=0.0, n_max=4)
        driven = ModelParams(lam=0.9, j=1.0, delta_phi=2.0, n_max=4)
        ops0 = build_operators(base)
        ops2 = build_operators(driven)
        assert np.allclose(applied_matrix(ops0.h_dicke), applied_matrix(ops2.h_dicke))
        diff = applied_matrix(ops2.h_rot) - applied_matrix(ops2.h_dicke)
        assert np.allclose(diff, 2.0 * np.diag(jz_diagonal(1.0, 4)))

    def test_requires_n_max(self):
        with pytest.raises(ValueError, match="n_max must be set"):
            build_operators(ModelParams(lam=1.0, j=1.0, delta_phi=1.0))

    def test_dimension_cap(self):
        # dim 21 * 10001 = 210021 > 200000: refused before anything is allocated.
        params = ModelParams(lam=1.0, j=10.0, n_max=10_000)
        with pytest.raises(ValueError, match="210021 exceeds the cap 200000"):
            build_operators(params)

    def test_matrix_free_apply_matches_kron_reference(self):
        # The smallest grids (a single Fock column at n_max = 0, two at
        # n_max = 1) are all ghost boundary on the padded grid.  Real input
        # stays real.
        rng = np.random.default_rng(16)
        for j in (0.5, 1.0, 2.5, 6.0):
            for n_max in (0, 1, 8, 100):
                h_dicke, h_rot = operators_or_bare(j, n_max, 1.3, 2.0)
                for h, omega0_eff in ((h_dicke, 1.0), (h_rot, 3.0)):
                    ref = kron_hamiltonian(j, n_max, 1.3, omega0_eff)
                    real = rng.normal(size=ref.shape[0])
                    for v in (real, real + 1j * rng.normal(size=ref.shape[0])):
                        v /= np.linalg.norm(v)
                        got = h.apply(v)
                        assert got.dtype == v.dtype, (j, n_max, omega0_eff)
                        assert np.max(np.abs(got - ref @ v)) < 1e-13, (j, n_max, omega0_eff)
                    assert np.max(np.abs(applied_matrix(h) - ref)) < 1e-13, (j, n_max, omega0_eff)

    @pytest.mark.parametrize("j, n_max", [(0.5, 0), (0.5, 3), (1.0, 0), (1.5, 4), (2.0, 7), (3.5, 1)])
    def test_slots_are_where_pad_writes(self, j, n_max):
        # Every basis index goes to the padded position pad writes it to,
        # and every other position is a ghost that pad leaves at zero.
        stencil = _Stencil(operators_or_bare(j, n_max, 1.0, 1.0)[1], float)
        dim = int(2 * j + 1) * (n_max + 1)
        values = np.arange(1.0, dim + 1.0)
        padded = stencil.pad(values)
        slots = stencil.slots(np.arange(dim))
        assert np.array_equal(padded[slots], values)
        ghosts = np.ones(stencil.size, bool)
        ghosts[slots] = False
        assert np.count_nonzero(ghosts) == stencil.size - dim
        assert not padded[ghosts].any()

    def test_large_basis_is_matrix_free(self):
        # dim 5250: the operator is stored in O(dim) numbers, and the ground
        # state comes from Lanczos on it, never from a dense matrix.
        params = ModelParams(lam=1.0, j=10.0, delta_phi=1.0, n_max=249)
        ops = build_operators(params)
        assert ops.dim == 5250
        stored = sum(
            value.nbytes for value in vars(ops).values() if hasattr(value, "nbytes")
        )
        assert stored <= 8 * 8 * ops.dim  # a few float64 diagonals, not dim^2
        gs = ground_state(params, ops=ops)
        again = ground_state(params, ops=ops)
        assert np.array_equal(gs.amplitudes, again.amplitudes)
        energy = gs.expectation(ops.h_dicke)
        residual = ops.h_dicke.apply(gs.amplitudes) - energy * gs.amplitudes
        assert np.linalg.norm(residual) < 1e-6
        out = chebyshev_step(ops, gs, 0.1)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)


class TestSpectralBounds:
    def test_diagonal_example(self):
        # Three spin states, one Fock state, no coupling: H = diag(-1, 0, 2).
        h = Hamiltonian(np.array([-1.0, 0.0, 2.0]), np.ones(2), np.zeros(0), 0.0)
        assert spectral_bounds(h) == (-1.0, 2.0)

    def test_uncoupled_closed_form(self):
        params = ModelParams(lam=0.0, j=1.0, delta_phi=0.5, n_max=7)
        ops = build_operators(params)
        e_min, e_max = spectral_bounds(ops.h_rot)
        # spectrum is omega*n + (omega0+delta_phi)*m
        assert e_min == pytest.approx(-1.5, rel=1e-12)
        assert e_max == pytest.approx(7.0 + 1.5, rel=1e-12)

    def test_widened_bounds_contain_spectrum(self):
        # A random diagonal under the model's coupling factors (dim 2121).
        rng = np.random.default_rng(11)
        ops = build_operators(ModelParams(lam=1.3, j=10.0, n_max=100))
        h = Hamiltonian(
            rng.normal(scale=20.0, size=ops.dim),
            ops.h_rot.spin_offdiag,
            ops.h_rot.field_offdiag,
            ops.h_rot.coupling,
        )
        e_min, e_max = spectral_bounds(h)
        # The coupling part alone (omega0_eff = omega = 0) plus the diagonal.
        true_vals = np.linalg.eigvalsh(kron_hamiltonian(10.0, 100, 1.3, 0.0, omega=0.0) + np.diag(h.diagonal))
        assert e_min <= true_vals[0]
        assert e_max >= true_vals[-1]

    def test_gershgorin_encloses_kron_reference_spectrum(self):
        for j in (0.5, 1.0, 2.5, 6.0):
            for n_max in (0, 1, 8, 100):
                for lam in (0.0, 1.3):
                    h_dicke, h_rot = operators_or_bare(j, n_max, lam, 2.0)
                    for h, omega0_eff in ((h_dicke, 1.0), (h_rot, 3.0)):
                        vals = np.linalg.eigvalsh(kron_hamiltonian(j, n_max, lam, omega0_eff))
                        e_min, e_max = spectral_bounds(h)
                        if lam == 0.0:
                            assert (e_min, e_max) == (vals[0], vals[-1])
                        else:
                            assert e_min <= vals[0] and e_max >= vals[-1]


class TestChebyshevCoefficients:
    def test_zero_time(self):
        a = chebyshev_coefficients(0.0, -1.0, 1.0, 10)
        assert a[0] == pytest.approx(1.0)
        assert np.max(np.abs(a[1:])) == 0.0

    def test_symmetric_bounds_real_a0(self):
        from scipy.special import jv

        a = chebyshev_coefficients(0.7, -3.0, 3.0, 12)
        assert a[0].imag == pytest.approx(0.0, abs=1e-16)
        assert a[0].real == pytest.approx(jv(0, 0.7 * 3.0))

    def test_tail_at_order_rule(self):
        # Computed tails |a_M| at M = ceil(e*dt*dE/4) + 20 (frozen from a
        # direct Bessel evaluation): superexponential decay holds, but the
        # absolute tail grows slowly with dt*dE - about 1.4e-14 at
        # dt*dE = 25 and 8.1e-14 at dt*dE = 50.
        expected = {
            1.0: 8.9e-33,
            5.0: 6.5e-22,
            10.0: 8.2e-18,
            25.0: 1.5e-14,
            50.0: 8.1e-14,
        }
        for prod, bound in expected.items():
            order = chebyshev_order(1.0, 0.0, prod)
            a = chebyshev_coefficients(1.0, 0.0, prod, order)
            assert abs(a[-1]) < bound

    def test_order_rule_value(self):
        assert chebyshev_order(1.0, 0.0, 4.0) == math.ceil(math.e) + 20

    def test_order_cap(self):
        # A span of ~1e202 (omega = 1e200) once asked numpy for a ~1e200-term
        # coefficient array.  The cap is 10^7 terms; at and past it the
        # order stays an integer or the error names dt and the span.
        top = 4.0 * (10**7 - 20) / math.e
        assert chebyshev_order(1.0, 0.0, top) <= 10**7
        with pytest.raises(ValueError, match=r"dt = -3\.14159 over the spectral span E_max - E_min = 1e\+202 "):
            chebyshev_order(-math.pi, -0.5e202, 0.5e202)
        for e_max in (2.0 * top, math.inf, math.nan):
            with pytest.raises(ValueError, match="exceeds the cap of 10000000 terms per step"):
                chebyshev_order(1.0, 0.0, e_max)

    def test_order_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="E_max must be >= E_min"):
            chebyshev_order(1.0, 1.0, 0.0)

    def test_coefficients_reject_an_empty_span(self):
        with pytest.raises(ValueError, match="requires E_max > E_min"):
            chebyshev_coefficients(1.0, 1.0, 1.0, 3)

    def test_rejects_non_integer_order(self):
        # A float order once reached np.zeros in _bessel_j as a TypeError.
        with pytest.raises(ValueError, match="order must be an integer"):
            chebyshev_coefficients(0.1, -1.0, 1.0, 2.5)


class TestBessel:
    """The in-house J_0(x)..J_M(x) behind the Chebyshev coefficients."""

    @pytest.mark.parametrize("x", [1e-8, 1e-3, 0.5, 2.1, 12.4, 50.0, 150.0])
    def test_matches_scipy_jv(self, x):
        from scipy.special import jv

        # Orders past the propagator's own cut-off for argument x = dt*dE/2.
        order = chebyshev_order(1.0, 0.0, 2.0 * x) + 20
        k = np.arange(order + 1)
        ours, ref = _bessel_j(x, order), jv(k, x)
        assert np.max(np.abs(ours - ref)) <= 1e-14
        # Past k = x, J_k decays without zeros and must match in relative
        # terms down to the smallest normal numbers.
        tail = (k > x) & (np.abs(ref) > 1e-290)
        assert np.all(np.abs(ours[tail] - ref[tail]) <= 1e-12 * np.abs(ref[tail]))

    @pytest.mark.parametrize(
        "x, k", [(1e-8, 5), (0.5, 3), (2.1, 30), (12.4, 7), (150.0, 149), (150.0, 200)]
    )
    def test_matches_mpmath(self, x, k):
        import mpmath

        with mpmath.workdps(30):
            ref = float(mpmath.besselj(k, x))
        assert _bessel_j(x, k + 5)[k] == pytest.approx(ref, rel=1e-14, abs=1e-300)

    def test_zero_argument_is_exact(self):
        values = _bessel_j(0.0, 12)
        assert values[0] == 1.0 and np.all(values[1:] == 0.0)

    @pytest.mark.parametrize("x", [1e-3, 2.1, 50.0])
    def test_negative_argument_flips_odd_orders(self, x):
        from scipy.special import jv

        k = np.arange(31)
        neg = _bessel_j(-x, 30)
        assert np.array_equal(neg, (-1.0) ** k * _bessel_j(x, 30))
        assert np.max(np.abs(neg - jv(k, -x))) <= 1e-14


def random_state(rng, j, n_max):
    dim = (n_max + 1) * int(round(2 * j + 1))
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QuantumState(v / np.linalg.norm(v), j, n_max)


class TestChebyshevStep:
    def test_eigenstate_phase(self):
        params = ModelParams(lam=0.0, j=1.0, delta_phi=0.5, n_max=5)
        ops = build_operators(params)
        dt = 0.37
        for n, m in ((0, -1.0), (2, 0.0), (5, 1.0)):
            # |n>|j,m> at the m-major, n-minor index (m+j)(n_max+1) + n
            idx = int(m + params.j) * (params.n_max + 1) + n
            amplitudes = np.zeros(ops.dim, dtype=complex)
            amplitudes[idx] = 1.0
            out = chebyshev_step(ops, QuantumState(amplitudes, params.j, params.n_max), dt)
            phase = np.exp(-1j * (params.omega * n + (params.omega0 + params.delta_phi) * m) * dt)
            assert out.amplitudes[idx] == pytest.approx(phase * 1.0, abs=1e-12)
            assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_exponential(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for j in (0.5, 1.0, 2.0):
            params = ModelParams(lam=1.0, j=j, delta_phi=1.0, n_max=8)
            ops = build_operators(params)
            bounds = spectral_bounds(ops.h_rot)
            for dt in (0.01, 0.1, 1.0):
                u = scipy.linalg.expm(-1j * kron_hamiltonian(j, 8, 1.0, 2.0) * dt)
                for _ in range(3):
                    psi = random_state(rng, j, 8)
                    out = chebyshev_step(ops, psi, dt, bounds=bounds)
                    worst = max(worst, float(np.max(np.abs(out.amplitudes - u @ psi.amplitudes))))
        assert worst < 1e-10

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("j, n_max", [(0.5, 1), (2.5, 1), (1.0, 8)])
    def test_low_orders_match_dense_chebyshev_sum(self, j, n_max, order):
        # sum_k a_k T_k(h) psi with h = (H - center)/half_span, from the dense
        # kron reference.  The coefficients are arbitrary, scaled so that the
        # sum keeps the norm and passes the drift check.
        rng = np.random.default_rng(18 + order)
        params = ModelParams(lam=1.3, j=j, delta_phi=2.0, n_max=n_max)
        ops = build_operators(params)
        bounds = spectral_bounds(ops.h_rot)
        center, half_span = 0.5 * (bounds[1] + bounds[0]), 0.5 * (bounds[1] - bounds[0])
        eye = np.eye(ops.dim)
        h = (kron_hamiltonian(j, n_max, 1.3, 3.0) - center * eye) / half_span
        terms = [eye, h, 2.0 * h @ h - eye][: order + 1]
        psi = random_state(rng, j, n_max)
        coefficients = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
        dense = sum(a * (t @ psi.amplitudes) for a, t in zip(coefficients, terms))
        coefficients /= np.linalg.norm(dense)
        out = chebyshev_step(
            ops, psi, 0.1, bounds=bounds, order=order, coefficients=coefficients
        )
        assert np.max(np.abs(out.amplitudes - dense / np.linalg.norm(dense))) < 1e-13

    def test_semigroup_property(self):
        rng = np.random.default_rng(13)
        params = ModelParams(lam=1.0, j=1.0, delta_phi=1.0, n_max=8)
        ops = build_operators(params)
        psi = random_state(rng, 1.0, 8)
        full = chebyshev_step(ops, psi, 0.8)
        half = chebyshev_step(ops, chebyshev_step(ops, psi, 0.4), 0.4)
        assert np.max(np.abs(full.amplitudes - half.amplitudes)) < 1e-9

    def test_norm_drift_raises(self):
        rng = np.random.default_rng(14)
        params = ModelParams(lam=1.0, j=1.0, delta_phi=1.0, n_max=8)
        ops = build_operators(params)
        psi = random_state(rng, 1.0, 8)
        bad_bounds = spectral_bounds(ops.h_rot)
        # Bounds that do not enclose the spectrum push the Chebyshev
        # argument outside [-1, 1] where the expansion diverges.
        with pytest.raises(PropagationError, match="norm drift"):
            chebyshev_step(ops, psi, 2.0, bounds=(bad_bounds[0] * 0.3, bad_bounds[1] * 0.3))

    def test_overflowing_step_raises(self):
        # Bounds a thousand times too narrow make the terms overflow to NaN;
        # a NaN drift failed "drift > tol", and the step returned an all-NaN
        # state with no error.
        params = ModelParams(lam=1.3, j=2.0, delta_phi=1.0, n_max=30)
        ops = build_operators(params)
        psi = coherent_state(1.0, 0.3, 2.0, 30)
        e_min, e_max = spectral_bounds(ops.h_rot)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PropagationError, match="norm drift nan"):
                chebyshev_step(ops, psi, 2000.0, bounds=(e_min * 0.001, e_max * 0.001))

    @pytest.mark.parametrize("order", [0, 1, 2, 30])
    def test_bits_match_the_whole_vector_recurrence(self, order):
        # The recurrence runs each term's subtract, scale and accumulate on
        # the interior rows alone, through views bound once per step.  It
        # must keep the bits of the same recurrence over whole padded
        # vectors, ghost rows included, copied here as it first ran.  The
        # coefficients are arbitrary, scaled so that the sum keeps the norm.
        rng = np.random.default_rng(31 + order)
        j, n_max = 2.0, 9
        ops = build_operators(ModelParams(lam=1.3, j=j, delta_phi=1.0, n_max=n_max))
        psi = random_state(rng, j, n_max)
        grid = psi.amplitudes.reshape(int(2 * j) + 1, n_max + 1)
        edges = np.concatenate([grid[0], grid[-1], grid[:, 0], grid[:, -1]])
        assert np.all(edges.real != 0.0) and np.all(edges.imag != 0.0)
        bounds = spectral_bounds(ops.h_rot)
        coefficients = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
        coefficients /= np.linalg.norm(whole_vector_recurrence(ops.h_rot, psi, bounds, coefficients))
        expected = whole_vector_recurrence(ops.h_rot, psi, bounds, coefficients)
        out = chebyshev_step(ops, psi, 0.1, bounds=bounds, order=order, coefficients=coefficients)
        assert np.array_equal(out.amplitudes.view(np.int64), expected.view(np.int64))


def whole_vector_recurrence(h, psi, bounds, coefficients):
    """sum_k c_k T_k(h_rescaled) psi over whole padded vectors: psi padded once,
    each term's subtract, scale and accumulate run over the ghost rows too."""
    center, half_span = 0.5 * (bounds[1] + bounds[0]), 0.5 * (bounds[1] - bounds[0])
    doubled = _Stencil(h, complex, center, 2.0 / half_span)

    def apply(v, out):
        doubled.product(*doubled.views(v), doubled.views(out)[0])
        return out

    t_prev = doubled.pad(psi.amplitudes)
    out = coefficients[0] * t_prev
    if coefficients.size > 1:
        t_cur = apply(t_prev, doubled.zeros())
        t_cur *= 0.5
        out += coefficients[1] * t_cur
        scratch = doubled.zeros()
        for k in range(2, coefficients.size):
            apply(t_cur, scratch)
            np.subtract(scratch, t_prev, out=t_prev)
            t_prev, t_cur = t_cur, t_prev
            np.multiply(t_cur, coefficients[k], out=scratch)
            out += scratch
    return doubled.unpad(doubled.views(out)[0])


class TestEvolve:
    def test_stationary_state_constant_observables(self):
        params = ModelParams(lam=0.8, j=1.0, delta_phi=0.0, n_max=30)
        psi0 = ground_state(params)
        traj = evolve(psi0, params, 5.0, 40)
        for name in ("mean_photon_scaled", "parity"):
            col = traj.data[name]
            assert np.max(np.abs(col - col[0])) < 1e-9

    def test_parity_conserved_from_fock(self):
        params = ModelParams(lam=1.0, j=2.0, delta_phi=1.0, n_max=40)
        psi0 = coherent_state(0, 0, params.j, params.n_max)
        traj = evolve(psi0, params, 2 * math.pi, 100)
        assert np.max(np.abs(traj.data["parity"] - 1.0)) < 1e-10

    def test_norm_conserved_over_many_steps(self):
        params = ModelParams(lam=1.0, j=1.0, delta_phi=1.0, n_max=20)
        ops = build_operators(params)
        psi = coherent_state(0, 0, params.j, params.n_max)
        bounds = spectral_bounds(ops.h_rot)
        for _ in range(1000):
            psi = chebyshev_step(ops, psi, 0.05, bounds=bounds)
        assert abs(psi.norm() - 1.0) < 1e-10

    def test_grid_validation(self):
        params = ModelParams(lam=1.0, j=0.5, n_max=4, delta_phi=1.0)
        psi0 = coherent_state(0, 0, 0.5, 4)
        for names in (("scaled_parity",), ("parity", "bogus")):
            with pytest.raises(ValueError, match="unsupported quantum observables"):
                evolve(psi0, params, 1.0, 2, observables=names)
        with pytest.raises(ValueError, match=r"repeated observables: \['parity'\]"):
            evolve(psi0, params, 1.0, 2, observables=("parity", "mean_photon_scaled", "parity"))

    def test_same_name_rule_as_protocol_spec(self):
        # ProtocolSpec and both engines read one rule on observable names, so
        # they reject the same names with the same message.  No names is
        # integrate's run of the coordinates alone, so only evolve rejects it.
        params = ModelParams(lam=1.0, j=0.5, n_max=4, delta_phi=1.0)
        psi0 = coherent_state(0, 0, 0.5, 4)
        start = point_from_coherent(0, 0, 0.5)
        for engine, run in (
            ("quantum", lambda names: evolve(psi0, params, 1.0, 2, observables=names)),
            ("meanfield", lambda names: integrate(start, params, 1.0, 2, observables=names)),
        ):
            cases = [("parity", "bogus"), ("parity", "parity"), ("bogus", "bogus")]
            if engine == "quantum":
                cases += [(), ("scaled_parity",)]
            for names in cases:
                with pytest.raises(ValueError) as spec_error:
                    ProtocolSpec(params=params, engine=engine, initial="fock", observables=names)
                with pytest.raises(ValueError) as run_error:
                    run(names)
                assert str(spec_error.value) == str(run_error.value), (engine, names)

    @pytest.mark.parametrize("driven", [False, True], ids=["undriven", "driven"])
    def test_energy_conserved_over_many_steps(self, driven):
        # exp(-i H t) commutes with H: <H_rot> (driven) or <H_rot> at
        # delta_phi = 0, the undriven H_dicke, is a constant of the motion on
        # the truncated basis.
        rng = np.random.default_rng(21 + driven)
        for _ in range(4):
            j = float(rng.integers(1, 7)) / 2
            n_max = int(rng.integers(20, 41))
            params = ModelParams(
                lam=float(rng.uniform(0.2, 1.5)), j=j,
                delta_phi=float(rng.uniform(0.5, 2.0)), n_max=n_max,
            )
            if not driven:
                params = replace(params, delta_phi=0.0)
            ops = build_operators(params)
            h = ops.h_rot
            alpha = complex(*rng.uniform(-1.5, 1.5, size=2))
            zeta = complex(*rng.uniform(-1.0, 1.0, size=2))
            psi = coherent_state(alpha, zeta, j, n_max)
            bounds = spectral_bounds(h)
            first = psi.expectation(h)
            for _ in range(200):
                psi = chebyshev_step(ops, psi, 0.05, bounds=bounds)
            assert abs(psi.expectation(h) - first) < 1e-10 * abs(first), params

    def test_rejects_a_state_of_another_basis(self):
        psi0 = coherent_state(0, 0, 1.0, 5)
        params = ModelParams(lam=1.0, j=1.0, delta_phi=1.0, n_max=6)
        with pytest.raises(ValueError, match="descriptors disagree"):
            evolve(psi0, params, 1.0, 3)

    def test_truncation_monotonicity(self):
        results = {}
        for n_max in (100, 125):
            params = ModelParams(lam=1.0, j=2.0, delta_phi=1.0, n_max=n_max)
            alpha, zeta = initial_state_params("stationary_dicke", params)
            psi0 = coherent_state(alpha, zeta, params.j, params.n_max)
            traj = evolve(psi0, params, 2 * math.pi, 120, observables=("mean_photon_scaled",))
            results[n_max] = traj.data["mean_photon_scaled"][-1]
        assert abs(results[100] - results[125]) < 1e-8


class TestCoherentState:
    def test_vacuum_lowest_weight(self):
        state = coherent_state(0.0, 0.0, 2.0, 10)
        # |0>|j,-j> sits at index 0
        assert state.amplitudes[0] == pytest.approx(1.0)
        assert state.norm() == pytest.approx(1.0, abs=1e-14)

    def test_tiny_label_overlap_with_fock(self):
        state = coherent_state(1e-3, 1e-3, 10.0, 100)
        # <0, -j|alpha, zeta> is the amplitude at index 0
        assert abs(state.amplitudes[0]) == pytest.approx(0.99999, abs=1e-5)

    def test_spin_jz_expectation_closed_form(self):
        zeta, j = 0.5, 4.0
        state = coherent_state(0.0, zeta, j, 2)
        expected = -j * (1 - zeta**2) / (1 + zeta**2)
        assert state.expectation(jz_diagonal(j, 2)) == pytest.approx(expected, rel=1e-12)

    def test_field_photon_expectation(self):
        alpha, j = 1.2 + 0.5j, 1.0
        params = ModelParams(lam=0.1, j=j, n_max=40)
        ops = build_operators(params)
        state = coherent_state(alpha, 0.0, j, 40)
        assert state.expectation(ops.adag_a) == pytest.approx(
            abs(alpha) ** 2, rel=1e-12
        )

    def test_truncation_loss_raises(self):
        with pytest.raises(ValueError, match="increase n_max"):
            coherent_state(4.0, 0.0, 1.0, 20)

    @pytest.mark.parametrize(
        "alpha, zeta",
        [(complex(math.nan, 0.0), 0.0), (math.inf, 0.0), (0.0, complex(0.0, math.nan)), (0.5, math.inf)],
    )
    def test_rejects_non_finite_labels(self, alpha, zeta):
        # A NaN total made the truncation loss NaN, which passed the check.
        with pytest.raises(ValueError, match="must be finite"):
            coherent_state(alpha, zeta, 1.0, 20)

    @pytest.mark.parametrize(
        "alpha, zeta, name", [(1e200, 0.0, "alpha"), (0.0, complex(1e100, 1e160), "zeta")]
    )
    def test_rejects_labels_whose_square_overflows(self, alpha, zeta, name):
        # abs(alpha) ** 2 at |alpha| = 1e200 once raised OverflowError
        # "(34, 'Numerical result out of range')", which named no label.
        with pytest.raises(ValueError, match=rf"^\|{name}\|\^2 overflows the float range at {name} = "):
            coherent_state(alpha, zeta, 1.0, 20)

    def test_complex_labels_normalized(self):
        state = coherent_state(0.8 - 0.3j, 0.2 + 0.6j, 1.5, 60)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "alpha, zeta, j, n_max",
        [(2.0 + 1.0j, -0.5 + 0.2j, 6.0, 100), (5.0, 0.9, 12.0, 170), (0.3j, 2.0, 2.5, 20),
         (9.0, -3.0, 40.0, 300)],
    )
    def test_matches_gammaln_reference(self, alpha, zeta, j, n_max):
        from scipy.special import gammaln

        n = np.arange(n_max + 1.0)
        field = np.exp(
            -0.5 * abs(alpha) ** 2 + n * math.log(abs(alpha)) - 0.5 * gammaln(n + 1.0)
            + 1j * n * np.angle(alpha)
        )
        k = np.arange(2 * j + 1.0)
        log_binom = gammaln(2 * j + 1.0) - gammaln(k + 1.0) - gammaln(2 * j - k + 1.0)
        spin = np.exp(
            k * math.log(abs(zeta)) + 0.5 * log_binom - j * math.log1p(abs(zeta) ** 2)
            + 1j * k * np.angle(zeta)
        )
        ref = np.kron(spin, field)
        ref /= np.linalg.norm(ref)
        state = coherent_state(alpha, zeta, j, n_max)
        assert np.max(np.abs(state.amplitudes - ref)) <= 1e-14


class TestGroundState:
    @pytest.mark.parametrize(
        "j, lam, n_max", [(6.0, 1.3, 100), (12.0, 1.3, 170), (10.0, 1.0, 249)],
        ids=["dim1313", "dim4275", "dim5250"],
    )
    def test_lanczos_matches_scipy_and_is_even(self, j, lam, n_max):
        # Above lambda_c = 0.5 the lowest even and odd levels are split by an
        # exponentially small gap; the ground state is the even one.
        params = ModelParams(lam=lam, j=j, n_max=n_max)
        ops = build_operators(params)
        h = ops.h_dicke
        if ops.dim <= 2000:
            ref = scipy.linalg.eigh(
                kron_hamiltonian(j, n_max, lam, 1.0), eigvals_only=True, subset_by_index=(0, 0)
            )[0]
        else:
            op = scipy.sparse.linalg.LinearOperator((ops.dim, ops.dim), matvec=h.apply, dtype=float)
            ref = scipy.sparse.linalg.eigsh(
                op, k=1, which="SA", v0=np.ones(ops.dim), return_eigenvectors=False
            )[0]
        gs = ground_state(params, ops=ops)
        assert gs.norm() == pytest.approx(1.0, abs=1e-14)
        assert abs(gs.expectation(h) - ref) <= 1e-12 * abs(ref)
        assert abs(gs.expectation(ops.parity) - 1.0) <= 1e-12

    @pytest.mark.parametrize("j, lam, n_max", [(0.5, 1.3, 1), (1.0, 1.3, 3), (2.5, 0.7, 8)])
    def test_small_sector_spanned_before_first_check(self, j, lam, n_max):
        # Even sectors of 2, 6 and 27 states: Lanczos stops on breakdown or
        # on spanning the sector, before or between its Ritz checks.
        params = ModelParams(lam=lam, j=j, n_max=n_max)
        ops = build_operators(params)
        even = np.flatnonzero(ops.parity > 0)
        ref = np.linalg.eigvalsh(kron_hamiltonian(j, n_max, lam, 1.0)[np.ix_(even, even)])[0]
        gs = ground_state(params, ops=ops)
        assert abs(gs.expectation(ops.h_dicke) - ref) <= 1e-12 * abs(ref)
        assert np.all(gs.amplitudes[ops.parity < 0] == 0.0)

    @pytest.mark.parametrize("lam", [0.3, 1.3])
    def test_perron_sign_pattern(self, lam):
        # With c = lam/sqrt(2j) >= 0, diag((-1)^k) h_dicke diag((-1)^k) has no
        # positive off-diagonal entry (k = m + j), so the ground state has the
        # sign (-1)^k wherever it is nonzero, and the Lanczos start (-1)^k can
        # never be orthogonal to it.
        params = ModelParams(lam=lam, j=4.0, n_max=60)
        amplitudes = ground_state(params).amplitudes
        assert np.all(amplitudes.imag == 0.0)
        k = np.arange(amplitudes.size) // (params.n_max + 1)
        large = np.abs(amplitudes) > 1e-12 * np.max(np.abs(amplitudes))
        assert set(k[large] % 2) == {0, 1}
        signed = amplitudes.real[large] * (-1.0) ** k[large]
        assert np.all(signed > 0.0) or np.all(signed < 0.0)

    def test_unconverged_lanczos_raises(self, monkeypatch):
        monkeypatch.setattr("rotdicke.quantum._LANCZOS_MAX_ITER", 20)
        with pytest.raises(RuntimeError, match="ground-state eigensolve failed"):
            ground_state(ModelParams(lam=1.3, j=6.0, n_max=100))

    def test_uncoupled_ground_state_exact(self):
        params = ModelParams(lam=0.0, j=1.5, n_max=6)
        state = ground_state(params)
        # |0>|j,-j> sits at index 0
        assert abs(state.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)
        assert state.amplitudes[0].real > 0  # deterministic phase

    def test_parity_pure_below_critical(self):
        params = ModelParams(lam=0.3, j=2.0, n_max=30)
        state = ground_state(params)
        ops = build_operators(params)
        assert abs(abs(state.expectation(ops.parity)) - 1.0) < 1e-8

    def test_photon_number_approaches_meanfield(self):
        params = ModelParams(lam=1.3, j=6.0, n_max=100)
        state = ground_state(params)
        ops = build_operators(params)
        photon = state.expectation(ops.adag_a) / params.j
        closed = stationary_photon_scaled(1.0, 1.0, 1.3, 0.0)
        assert photon == pytest.approx(closed, abs=0.25)

    def test_energy_below_coherent_state(self):
        params = ModelParams(lam=0.9, j=3.0, n_max=60)
        ops = build_operators(params)
        gs = ground_state(params)
        alpha, zeta = initial_state_params("stationary_dicke", params)
        cs = coherent_state(alpha, zeta, params.j, params.n_max)
        assert gs.expectation(ops.h_dicke) <= cs.expectation(ops.h_dicke) + 1e-12


def tridiagonal(alphas, betas):
    """The symmetric tridiagonal matrix with diagonal ``alphas`` and off-diagonal ``betas``."""
    return np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)


def random_tridiagonal(size, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=size), rng.normal(size=size - 1)


def wilkinson_plus(size):
    """Wilkinson's W+: diagonal |i - (size-1)/2|, unit off-diagonal.

    At size 21 its top eigenvalues come in pairs that agree to ~1e-13.
    """
    return np.abs(np.arange(size) - (size - 1) // 2).astype(float), np.ones(size - 1)


def split_tridiagonal():
    """Two blocks joined by a zero beta, the lowest eigenvalue in the second."""
    alphas, betas = random_tridiagonal(40, 7)
    alphas[25:] -= 3.0
    betas[24] = 0.0
    return alphas, betas


RITZ_CASES = {
    "size1": (np.array([0.7]), np.array([])),
    "size2": random_tridiagonal(2, 2),
    "size3": random_tridiagonal(3, 3),
    "size50": random_tridiagonal(50, 50),
    "size300": random_tridiagonal(300, 300),
    "wilkinson21": wilkinson_plus(21),
    # Negated, the clustered pairs sit at the bottom of the spectrum.
    "wilkinson21-negated": (-wilkinson_plus(21)[0], wilkinson_plus(21)[1]),
    "split": split_tridiagonal(),
    # The lowest eigenvector is antisymmetric: orthogonal to the all-ones vector.
    "uniform4": (np.ones(4), np.ones(3)),
}


def bisected_lowest(alphas, betas, bits=160):
    """The lowest eigenvalue by Sturm bisection in ``bits``-bit arithmetic."""
    with mpmath.workprec(bits):
        diagonal = [mpmath.mpf(float(a)) for a in alphas]
        squares = [mpmath.mpf(float(b)) ** 2 for b in betas]
        radius = float(np.max(np.abs(alphas)) + 2.0 * np.max(np.abs(betas), initial=0.0))
        lo, hi = mpmath.mpf(-radius), mpmath.mpf(radius)
        for _ in range(bits):
            mid = (lo + hi) / 2
            pivot = diagonal[0] - mid
            for alpha, square in zip(diagonal[1:], squares):
                if pivot <= 0:
                    break
                pivot = alpha - mid - square / pivot
            lo, hi = (mid, hi) if pivot > 0 else (lo, mid)
        return float(lo)


class TestRitzPair:
    @pytest.mark.parametrize("case", list(RITZ_CASES))
    def test_matches_eigh(self, case):
        alphas, betas = RITZ_CASES[case]
        t = tridiagonal(alphas, betas)
        ref = np.linalg.eigvalsh(t)
        norm = np.max(np.abs(ref))
        ulp = np.finfo(float).eps * norm
        theta, vec = _ritz_pair(alphas, betas)
        assert abs(theta - ref[0]) <= 8 * ulp
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(t @ vec - theta * vec) <= 1e-13 * norm
        # eigh's own top eigenvalue of "size50" is 11.5 ulp off a 160-bit
        # bisection; this routine's is 0.3 ulp off.
        top = -_lowest_eigenvalue(-alphas, betas)[0]
        assert abs(top - ref[-1]) <= 16 * ulp

    @pytest.mark.parametrize("case", ["size50", "size300", "split"])
    def test_within_an_ulp_of_extended_precision(self, case):
        alphas, betas = RITZ_CASES[case]
        norm = np.max(np.abs(np.linalg.eigvalsh(tridiagonal(alphas, betas))))
        theta, _ = _ritz_pair(alphas, betas)
        assert abs(theta - bisected_lowest(alphas, betas)) <= np.finfo(float).eps * norm

    @pytest.mark.parametrize("case", ["size50", "size300", "wilkinson21-negated", "split"])
    def test_warm_start(self, case):
        # By Cauchy interlacing the lowest eigenvalue of a leading block is an
        # upper bound; warm-started from it, or from the answer itself, the
        # solve lands where a cold one does.
        alphas, betas = RITZ_CASES[case]
        t = tridiagonal(alphas, betas)
        norm = np.max(np.abs(np.linalg.eigvalsh(t)))
        cold, _ = _ritz_pair(alphas, betas)
        size = alphas.size - 10
        block, _ = _ritz_pair(alphas[:size], betas[: size - 1])
        for upper in (block, cold):
            theta, vec = _ritz_pair(alphas, betas, upper)
            assert abs(theta - cold) <= 2 * np.finfo(float).eps * norm
            assert np.linalg.norm(t @ vec - theta * vec) <= 1e-13 * norm


class TestInitialStateParams:
    def test_normal_phase_branch(self):
        params = ModelParams(lam=0.3, j=1.0, delta_phi=0.0)
        assert initial_state_params("stationary_dicke", params) == (0.0, 0.0)

    def test_stationary_dicke_values(self):
        params = ModelParams(lam=1.0, j=1.0, delta_phi=0.0)
        alpha, zeta = initial_state_params("stationary_dicke", params)
        assert alpha == pytest.approx(2 * math.sqrt(0.5 * (1 - 1 / 16)), rel=1e-12)
        assert zeta == pytest.approx(-math.sqrt(3.0 / 5.0), rel=1e-12)

    def test_stationary_circle_uses_rotated_threshold(self):
        params = ModelParams(lam=0.6, j=1.0, delta_phi=1.0)
        # 0.6 is above the undriven threshold 0.5 but below sqrt(2)/2
        assert initial_state_params("stationary_dicke", params) != (0.0, 0.0)
        assert initial_state_params("stationary_circle", params) == (0.0, 0.0)

    def test_nearly_fock(self):
        params = ModelParams(lam=1.0, j=1.0, delta_phi=1.0)
        assert initial_state_params("nearly_fock", params, epsilon=3.0) == (1e-3, 1e-3)
        with pytest.raises(ValueError, match="epsilon"):
            initial_state_params("nearly_fock", params)

    def test_fock(self):
        params = ModelParams(lam=2.0, j=1.0, delta_phi=1.0)
        assert initial_state_params("fock", params) == (0.0, 0.0)

    def test_circle_labels_match_fixed_point(self):
        from rotdicke import fixed_points, point_from_coherent

        for params in (
            ModelParams(lam=1.0, j=2.0, delta_phi=1.0),
            # A copy of the label map with zeta*zeta for |zeta|^2 put c2's q1
            # one ulp off the start's here.
            ModelParams(lam=3.2828400297399525, omega0=0.9559841879615302, omega=0.16033585237229403,
                        j=6, delta_phi=3.691011070871964),
        ):
            alpha, zeta = initial_state_params("stationary_circle", params)
            pt = point_from_coherent(alpha, zeta, params.j)
            c2 = fixed_points(params, 0.0)[1].point
            assert (pt.q1, pt.q2) == (c2.q1, c2.q2)

    def test_unknown_kind(self):
        params = ModelParams(lam=1.0, j=1.0)
        with pytest.raises(ValueError, match="unknown"):
            initial_state_params("bogus", params)


class TestFrameInvariance:
    def test_corotating_matches_time_ordered_lab_frame(self):
        # Direct small-step time-ordered product of exp(-i H_RD(t) dt) with
        # midpoint sampling versus the co-rotating Chebyshev evolution.
        params = ModelParams(lam=1.0, j=1.0, delta_phi=1.0, n_max=6)
        ops = build_operators(params)
        rng = np.random.default_rng(42)
        psi0 = random_state(rng, params.j, params.n_max)
        traj = evolve(psi0, params, 2 * math.pi, 41, observables=("mean_photon_scaled",))
        grid = traj.times

        jp = np.zeros((params.two_j + 1, params.two_j + 1))
        m_vals = np.arange(params.two_j + 1) - params.j
        for k in range(params.two_j):
            jp[k + 1, k] = math.sqrt((params.j - m_vals[k]) * (params.j + m_vals[k] + 1))
        a_small = np.diag(np.sqrt(np.arange(1, params.n_max + 1)), k=1)
        x_small = a_small + a_small.T
        diag = np.diag(params.omega0 * jz_diagonal(params.j, params.n_max) + params.omega * ops.adag_a)

        def h_lab(t):
            phase = np.exp(1j * params.delta_phi * t)
            coupling = np.kron(phase * jp + np.conj(phase) * jp.T, x_small)
            return diag + (params.lam / math.sqrt(2 * params.j)) * coupling

        psi = psi0.amplitudes.copy()
        direct = [float(np.real(np.vdot(psi, ops.adag_a * psi))) / params.j]
        n_sub = round((grid[1] - grid[0]) / 1e-3)
        dt = (grid[1] - grid[0]) / n_sub
        for k in range(len(grid) - 1):
            for s in range(n_sub):
                t_mid = grid[k] + (s + 0.5) * dt
                psi = scipy.linalg.expm(-1j * h_lab(t_mid) * dt) @ psi
            direct.append(float(np.real(np.vdot(psi, ops.adag_a * psi))) / params.j)
        err = np.max(np.abs(np.array(direct) - traj.data["mean_photon_scaled"]))
        assert err < 1e-6


class TestStateBasics:
    def test_non_half_integer_j_rejected(self):
        # j = 1.3 passed the shape check, whose 2j + 1 = 3.6 rounds to 4.
        with pytest.raises(ValueError, match="half-integer"):
            QuantumState(np.zeros(8, dtype=complex), 1.3, 1)

    def test_state_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            QuantumState(np.zeros(7, dtype=complex), 1.0, 4)

    def test_non_integer_n_max_rejected(self):
        # n_max = 4.0 passed the shape check: (10,) == (10.0,).
        with pytest.raises(ValueError, match="n_max must be an integer"):
            QuantumState(np.zeros(10, dtype=complex), 0.5, 4.0)

    def test_negative_n_max_rejected(self):
        # j = 0.5, n_max = -1 passed the shape check as an empty state of norm 0.
        with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
            QuantumState(np.zeros(0, dtype=complex), 0.5, -1)
