"""Column-stacking conventions, eigen-analysis, and the fixed-step integrator.

The reference results come from scipy (expm, eigvals) and from direct
identities: vec(A @ X @ B) = kron(B.T, A) @ vec(X), trace = sum of
eigenvalues, det = product of eigenvalues.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qswalk as q
from oracles import expm_propagate, leading_eigenvalue_scipy


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# -- vec / unvec -----------------------------------------------------------


def test_vec_is_column_stacking():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert_allclose(q.vec(a), [1.0, 3.0, 2.0, 4.0])


def test_unvec_inverts_vec(rng):
    a = _random_complex(rng, (5, 5))
    assert_allclose(q.unvec(q.vec(a)), a)


def test_unvec_rejects_non_square_length():
    with pytest.raises(ValueError):
        q.unvec(np.arange(6.0))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_vec_kron_identity(n, seed):
    # the workhorse identity behind every superoperator in the package
    rng = np.random.default_rng(seed)
    a = _random_complex(rng, (n, n))
    x = _random_complex(rng, (n, n))
    b = _random_complex(rng, (n, n))
    assert_allclose(
        np.kron(b.T, a) @ q.vec(x), q.vec(a @ x @ b), atol=1e-10 * n * n
    )


# -- eig_general -----------------------------------------------------------


def test_eig_hand_example():
    res = q.eig_general(np.array([[2.0, 1.0], [0.0, -1.0]]))
    assert_allclose(res.leading_eigenvalue, 2.0, atol=1e-12)
    v = res.leading_right_eigenvector
    assert_allclose(v / v[0], [1.0, 0.0], atol=1e-12)


def test_eig_residual_and_spectrum(rng):
    for _ in range(10):
        m = _random_complex(rng, (6, 6))
        res = q.eig_general(m)
        v = res.leading_right_eigenvector
        resid = np.linalg.norm(m @ v - res.leading_eigenvalue * v)
        assert resid <= 1e-8 * np.linalg.norm(m, "fro")
        assert_allclose(v @ v.conj(), 1.0, atol=1e-12)
        # trace and determinant identities against the full spectrum
        assert res.full_spectrum is not None
        assert_allclose(res.full_spectrum.sum(), np.trace(m), atol=1e-10)
        assert_allclose(
            np.prod(res.full_spectrum), np.linalg.det(m), rtol=1e-8
        )


def test_eig_matches_scipy_leading(rng):
    for _ in range(10):
        m = _random_complex(rng, (7, 7))
        assert_allclose(
            q.eig_general(m).leading_eigenvalue,
            leading_eigenvalue_scipy(m),
            atol=1e-10,
        )


def test_eig_tie_break_prefers_positive_imaginary():
    # eigenvalues are exactly -+1j: equal real part, equal magnitude
    res = q.eig_general(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert_allclose(res.leading_eigenvalue, 1j, atol=1e-12)


def test_eig_tie_break_prefers_smaller_imaginary_magnitude():
    # 1 -+ 2j from the rotation block, and a real eigenvalue 1 that ties
    # in real part but has smaller |Im|
    m = np.array(
        [
            [1.0, 2.0, 0.0],
            [-2.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    assert_allclose(q.eig_general(m).leading_eigenvalue, 1.0, atol=1e-12)


def test_eig_real_input_matches_complex_input(rng, monkeypatch):
    solved = []
    real_eigvals = np.linalg.eigvals

    def spy(m):
        solved.append(m.dtype)
        return real_eigvals(m)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    for size in (2, 5, 9):
        m = rng.normal(size=(size, size))
        real = q.eig_general(m)
        cplx = q.eig_general(m.astype(complex))
        assert solved[-2:] == [np.dtype(float), np.dtype(complex)]
        assert_allclose(real.leading_eigenvalue, cplx.leading_eigenvalue, atol=1e-12)
        gaps = np.abs(real.full_spectrum[:, None] - cplx.full_spectrum[None, :])
        assert gaps.min(axis=0).max() <= 1e-12 and gaps.min(axis=1).max() <= 1e-12
        # same eigenvector up to a unit phase
        v, w = real.leading_right_eigenvector, cplx.leading_right_eigenvector
        assert_allclose(abs(np.vdot(v, w)), 1.0, atol=1e-10)
    assert q.eig_general(np.diag([1, 3, 2])).leading_eigenvalue == 3.0  # ints go real


def test_eig_inverse_iteration_is_real_for_a_real_leading_pair(six_node_model, monkeypatch):
    solved = []
    real_solve = np.linalg.solve

    def spy(a, b):
        solved.append(a.dtype)
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    # 0.5 -+ 2j from the rotation block, and the leading eigenvalue 1, real
    m = np.array([[0.5, 2.0, 0.0], [-2.0, 0.5, 0.0], [0.0, 0.0, 1.0]])
    res = q.eig_general(m)
    assert solved == [np.dtype(float)]
    assert res.leading_eigenvalue == 1.0
    assert_allclose(abs(res.leading_right_eigenvector[2]), 1.0, atol=1e-12)
    # the leading theta of a tilted generator, whose spectrum is complex
    q.free_energy(six_node_model, np.linspace(-1.0, 1.0, 6))
    assert solved[-1] == np.dtype(float)
    # a complex leading eigenvalue, or complex input, keeps the complex solve
    q.eig_general(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    q.eig_general(m.astype(complex))
    assert solved[-2:] == [np.dtype(complex), np.dtype(complex)]


def test_eig_vector_on_awkward_exact_spectra():
    cases = [
        # left eigenvector (1, -2) of lambda = 1 is orthogonal to (1, 1/2)
        (np.array([[-1.0, 0.0], [-1.0, 1.0]]), 1.0, [0.0, 1.0]),
        # defective -1: the shifted matrix is singular in floating point
        (np.array([[0.0, 1.0], [-1.0, -2.0]]), -1.0, [1.0, -1.0]),
        (np.diag([1.0, 3.0, 2.0]), 3.0, [0.0, 1.0, 0.0]),
    ]
    for m, lam, vec in cases:
        res = q.eig_general(m)
        assert_allclose(res.leading_eigenvalue, lam, atol=1e-12)
        v = res.leading_right_eigenvector
        vec = np.array(vec) / np.linalg.norm(vec)
        assert_allclose(abs(np.vdot(v, vec)), 1.0, atol=1e-12)
        assert np.linalg.norm(m @ v - lam * v) <= 1e-8 * np.linalg.norm(m)


# -- null_vector -----------------------------------------------------------


def test_null_vector_known_kernel():
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    v = q.null_vector(m)
    assert_allclose(np.abs(v), np.full(2, 1 / np.sqrt(2)), atol=1e-12)
    assert_allclose(np.linalg.norm(m @ v), 0.0, atol=1e-12)


def test_null_vector_rejects_nonsingular():
    with pytest.raises(q.DegeneracyError):
        q.null_vector(np.eye(3))


def test_null_vector_rejects_multiple_kernels():
    with pytest.raises(q.DegeneracyError):
        q.null_vector(np.zeros((2, 2)))


def test_null_vector_scale_invariant_threshold(rng):
    # the relative threshold must find the kernel regardless of scale
    u = rng.standard_normal(4)
    m = np.outer(rng.standard_normal(4), u)  # rank-1, 3-dim kernel: too many
    with pytest.raises(q.DegeneracyError):
        q.null_vector(m)
    proj = np.eye(4) - np.outer(u, u) / (u @ u)
    big = 1e8 * proj  # kernel spanned by u alone
    v = q.null_vector(big)
    assert_allclose(np.linalg.norm(big @ v), 0.0, atol=1e-4)  # 1e-12 relative


# -- rk4_step_matrix / integrate_linear --------------------------------------


def test_rk4_step_is_degree_four_taylor(rng):
    m = _random_complex(rng, (4, 4))
    dt = 0.07
    expected = np.eye(4, dtype=complex)
    term = np.eye(4, dtype=complex)
    for k in range(1, 5):
        term = term @ (m * dt) / k
        expected = expected + term
    assert_allclose(q.rk4_step_matrix(m, dt), expected, atol=1e-14)


def test_rk4_step_error_scales_as_dt5(rng):
    m = _random_complex(rng, (3, 3))
    m = m / np.linalg.norm(m, 2)

    def step_err(dt):
        return np.linalg.norm(
            q.rk4_step_matrix(m, dt) - expm_propagate(m, np.eye(3), dt)
        )

    # halving dt must shrink the one-step defect by about 2^5
    ratio = step_err(0.2) / step_err(0.1)
    assert 24.0 < ratio < 40.0


def test_integrate_linear_matches_expm(rng):
    m = _random_complex(rng, (5, 5))
    m = m - 1.5 * np.eye(5)  # keep things decaying
    v0 = _random_complex(rng, (5,))
    out = q.integrate_linear(m, v0, t=2.0, dt=1e-3)
    assert_allclose(out, expm_propagate(m, v0, 2.0), atol=1e-9)


def test_integrate_linear_partial_final_step(rng):
    m = _random_complex(rng, (3, 3)) - 1.0 * np.eye(3)
    v0 = _random_complex(rng, (3,))
    out = q.integrate_linear(m, v0, t=0.055, dt=0.01)  # 6 equal steps of 0.0091666...
    assert_allclose(out, expm_propagate(m, v0, 0.055), atol=1e-8)


@pytest.mark.parametrize(
    "t, dt, count", [(100.0, 1e-3, 100_000), (10.05, 0.01, 1005), (1.05, 0.1, 11), (0.055, 0.01, 6)]
)
def test_rk4_steps_are_ceil_t_over_dt_equal_steps(monkeypatch, t, dt, count):
    # one propagator, built once, for ceil(t/dt) steps of t/k <= dt; the
    # times rise strictly and the last is t itself, never a sliver after it
    built = []

    def spy(m, step):
        built.append(step)
        return object()

    monkeypatch.setattr("qswalk.linalg.rk4_step_matrix", spy)
    steps = list(q.linalg._rk4_steps(np.eye(2), t, dt))
    times = np.array([time for _, time in steps])
    assert len(steps) == count
    assert len(built) == 1 and built[0] <= dt
    assert all(p is steps[0][0] for p, _ in steps)
    assert np.all(np.diff(times) > 0) and times[0] > 0
    assert times[-1] == t


def test_integrate_linear_zero_time_is_identity(rng):
    v0 = _random_complex(rng, (3,))
    assert_allclose(q.integrate_linear(np.eye(3), v0, t=0.0, dt=0.1), v0)


def test_integrate_linear_requires_vector():
    with pytest.raises(ValueError):
        q.integrate_linear(np.eye(2), np.eye(2), t=1.0, dt=0.1)


def test_integrate_linear_detects_overflow():
    with pytest.raises(q.DivergenceError):
        q.integrate_linear(np.array([[50.0]]), np.ones(1), t=30.0, dt=0.1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: q.vec(np.ones((2, 3))), "square matrix"),
        (lambda: q.unvec(np.ones((2, 2))), "1-d"),
        (lambda: q.eig_general(np.ones((2, 3))), "square matrix"),
        (lambda: q.null_vector(np.ones((2, 3))), "square matrix"),
        (lambda: q.eig_general(np.array([[1.0, np.nan], [0.0, 1.0]])), "non-finite"),
        (lambda: q.integrate_linear(np.eye(3), np.ones(2), 1.0, 0.1), "dimension mismatch"),
        (lambda: q.integrate_linear(np.eye(2), np.ones(2), 1.0, 0.0), "dt must be positive"),
        (lambda: q.integrate_linear(np.eye(2), np.ones(2), 1.0, -0.1), "dt must be positive"),
        (lambda: q.integrate_linear(np.eye(2), np.ones(2), -1.0, 0.1), "t must be non-negative"),
    ],
)
def test_malformed_input_raises(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_spectral_result_is_frozen():
    res = q.eig_general(np.eye(2))
    with pytest.raises(Exception):
        res.leading_eigenvalue = 0.0
