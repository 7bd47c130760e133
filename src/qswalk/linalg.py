"""Dense linear algebra kernel.

Conventions used project-wide:

* Vectorization is column-stacking: ``vec(rho)[i + n*j] = rho[i, j]``,
  i.e. ``numpy`` order ``"F"``.  The normative identity is
  ``vec(A @ rho @ B) = kron(B.T, A) @ vec(rho)``.
* A superoperator that maps Hermitian matrices to Hermitian matrices is
  a real matrix in an orthonormal basis of Hermitian matrices
  (:func:`to_hermitian_basis`).  That basis keeps ``rho_ii`` on index
  ``i*(n+1)`` and puts ``(rho_kl + rho_lk)/sqrt(2)`` on ``k + n*l`` and
  ``i(rho_kl - rho_lk)/sqrt(2)`` on ``l + n*k`` for ``k < l``.  It is a
  unitary change of basis, so the spectrum is unchanged.
* "Leading eigenvalue" means the one of maximum real part; near-ties in
  the real part (within 1e-10) are broken toward the smallest
  ``|imag|``, because the physically meaningful branch of a cumulant
  generating function is real.
* :func:`eig_general` keeps real input real: a real matrix goes to
  LAPACK's real driver (``dgeev``), a complex one to ``zgeev``.

Everything here is dense and targets superoperators up to 4096 x 4096
(64 graph nodes, the size guard ``lindblad.DENSE_NODE_LIMIT``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, DegeneracyError, DivergenceError

# A ComplexMatrix is just a 2-d complex ndarray; the alias documents intent
# in signatures without wrapping numpy.
ComplexMatrix = np.ndarray

_REAL_PART_TIE = 1e-10  # eigenvalues closer than this in Re are tied
_RESIDUAL_FACTOR = 1e-8  # eigenpair residual bound, relative to ||M||_F
_SHIFT_FACTOR = 8.0 * np.finfo(float).eps  # inverse-iteration shift, relative to ||M||_F
_KERNEL_TOL = 1e-9  # null_vector: |eigenvalue| counted as zero, relative to max(1, ||M||_F)


@dataclass(frozen=True)
class SpectralResult:
    """Full spectrum of a general matrix plus the selected leading pair."""

    leading_eigenvalue: complex
    leading_right_eigenvector: np.ndarray  # unit 2-norm
    full_spectrum: Optional[np.ndarray] = None


def vec(rho: ComplexMatrix) -> np.ndarray:
    """Column-stack a square matrix: vec(rho)[i + n*j] = rho[i, j]."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"vec expects a square matrix, got shape {rho.shape}")
    return rho.ravel(order="F")


def unvec(v: np.ndarray) -> ComplexMatrix:
    """Inverse of :func:`vec`; the length must be a perfect square."""
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError("unvec expects a 1-d array")
    n = math.isqrt(v.size)
    if n * n != v.size:
        raise ValueError(f"length {v.size} is not a perfect square")
    return v.reshape((n, n), order="F")


def _square(m) -> np.ndarray:
    """Square matrix ``m`` as float64 if it is real, else as complex128."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m.astype(complex if np.iscomplexobj(m) else float, copy=False)


def eig_general(m: ComplexMatrix) -> SpectralResult:
    """Eigendecompose a general (non-Hermitian) square matrix.

    Returns the full spectrum together with the leading eigenpair,
    selected by maximum real part.  Among eigenvalues whose real parts
    agree within 1e-10 the one with smallest ``|imag|`` wins (then
    non-negative imaginary part, for determinism across conjugate
    pairs).  The returned eigenvector has unit 2-norm and residual
    ``||Mv - lambda v||_2 <= 1e-8 * ||M||_F``.

    The spectrum comes from LAPACK's Hessenberg + shifted-QR driver
    without eigenvectors (``numpy.linalg.eigvals``).  Real input stays
    real and goes to the real driver (``dgeev``), whose complex
    eigenvalues come in exact conjugate pairs; only complex input is
    solved in complex arithmetic.  The leading eigenvector alone is then
    taken by inverse iteration (:func:`_eigenvector`), in real arithmetic
    when the input and the leading eigenvalue are both real.
    """
    m = _square(m)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")

    scale = np.linalg.norm(m)  # Frobenius
    try:
        values = np.linalg.eigvals(m)
        lead = _select_leading(values)
        lam = values[lead]
        if not np.iscomplexobj(m) and lam.imag == 0:  # a real pair: solve in float64
            lam = lam.real
        v = _eigenvector(m, lam, scale)
    except np.linalg.LinAlgError as exc:  # QR failed to converge
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc

    residual = np.linalg.norm(m @ v - lam * v)
    if scale > 0 and residual > _RESIDUAL_FACTOR * scale:
        raise ConvergenceError(
            f"eigenpair residual {residual:.3e} exceeds {_RESIDUAL_FACTOR:g}*||M||_F"
        )
    return SpectralResult(
        leading_eigenvalue=complex(values[lead]),
        leading_right_eigenvector=v,
        full_spectrum=values,
    )


def _eigenvector(m: np.ndarray, lam, scale: float) -> np.ndarray:
    """Unit eigenvector of ``m`` (Frobenius norm ``scale``) for its
    computed eigenvalue ``lam``.

    One step of inverse iteration from a fixed generic start: a solve
    with ``m - (lam + d) I``, where the shift d of a few units in the
    last place of ``||M||_F`` keeps the factorization regular (even for
    an exact eigenvalue) and makes ``lam``'s eigenvector dominate the
    others by a factor of about gap / d.  Should the shifted matrix still
    be exactly singular, its null vector is the eigenvector.
    """
    size = m.shape[0]
    shifted = m - (lam + _SHIFT_FACTOR * (scale or 1.0)) * np.eye(size)
    try:
        # cos(1..size): no rational vector, e.g. a left eigenvector of an
        # integer matrix, is orthogonal to it
        v = np.linalg.solve(shifted, np.cos(np.arange(1.0, size + 1.0)))
    except np.linalg.LinAlgError:  # singular to working precision (defective lam)
        v = np.linalg.svd(shifted)[2][-1].conj()
    return v / np.linalg.norm(v)


def _select_leading(values: np.ndarray) -> int:
    """Index of the leading eigenvalue under the project tie-break rule."""
    re = values.real
    tied = np.flatnonzero(re >= re.max() - _REAL_PART_TIE)
    im = np.abs(values[tied].imag)
    best = tied[im <= im.min() + _REAL_PART_TIE]
    # prefer the +imag member of a conjugate pair, then the lowest index
    pos = best[values[best].imag >= 0]
    return int(pos[0]) if pos.size else int(best[0])


def _hermitian_pairs(size: int):
    """Index pairs (k + n*l, l + n*k), k < l, mixed by the Hermitian basis."""
    n = math.isqrt(size)
    if n * n != size:
        raise ValueError(f"dimension {size} is not a perfect square")
    k, l = np.triu_indices(n, 1)
    return k + n * l, l + n * k


def to_hermitian_basis(m: ComplexMatrix) -> np.ndarray:
    """Real matrix ``U M U^dag`` of a Hermiticity-preserving superoperator.

    ``U`` takes column-stacked states to the orthonormal Hermitian basis
    of the module conventions.  It mixes only the index pairs
    (k + n*l, l + n*k), k < l, so it is applied as two row and two column
    combinations; populations are left where they are.  Raises
    ``ValueError`` if ``M`` does not map Hermitian matrices to Hermitian
    ones (the result would not be real).
    """
    x = np.array(_square(m), dtype=complex)
    p, q = _hermitian_pairs(x.shape[0])
    r = math.sqrt(0.5)
    a, b = x[p], x[q]
    x[p], x[q] = (a + b) * r, (a - b) * (1j * r)
    a, b = x[:, p], x[:, q]
    x[:, p], x[:, q] = (a + b) * r, (a - b) * (-1j * r)
    if np.abs(x.imag).max(initial=0.0) > 1e-12 * max(1.0, np.abs(x.real).max()):
        raise ValueError("superoperator does not preserve Hermiticity")
    return np.ascontiguousarray(x.real)


def null_vector(m: ComplexMatrix) -> np.ndarray:
    """Unit vector spanning the (simple) kernel of ``m``.

    The eigenvalue nearest zero must be the only one within
    ``1e-9 * max(1, ||M||_F)``; otherwise a :class:`DegeneracyError` is
    raised, which downstream signals non-relaxing dynamics.  As in
    :func:`eig_general`, real input stays real.
    """
    m = _square(m)

    try:
        values, vectors = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc

    scale = max(1.0, float(np.linalg.norm(m)))
    near_zero = np.flatnonzero(np.abs(values) <= _KERNEL_TOL * scale)
    if near_zero.size != 1:
        raise DegeneracyError(
            f"kernel dimension {near_zero.size} within tol*scale="
            f"{_KERNEL_TOL * scale:.3e}; expected a simple zero eigenvalue"
        )
    v = vectors[:, near_zero[0]]
    return v / np.linalg.norm(v)


def rk4_step_matrix(m: ComplexMatrix, dt: float) -> ComplexMatrix:
    """One-step propagator of the classical RK4 scheme for v' = M v.

    For a constant coefficient matrix the RK4 update is exactly the
    degree-4 Taylor polynomial of exp(M*dt); precomputing it turns each
    step into a single matrix-vector product.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    p = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    # callers check finiteness downstream; don't warn on overflow here
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, 5):
            term = term @ m * (dt / k)
            p = p + term
    return p


def _rk4_steps(m: ComplexMatrix, t: float, dt: float):
    """(propagator, time) of each of k = ceil(t/dt) equal RK4 steps of
    t/k <= dt from 0 to t > 0: one propagator, times t*(j/k) ending on t."""
    k = math.ceil(t / dt)
    p = rk4_step_matrix(m, t / k)
    for j in range(1, k + 1):
        yield p, t * (j / k)


def integrate_linear(
    m: ComplexMatrix, v0: np.ndarray, t: float, dt: float
) -> np.ndarray:
    """Integrate v' = M v from 0 to t with fixed-step RK4; returns v(t).

    Takes ceil(t/dt) equal steps, so the endpoint is hit exactly.  Global
    error is O(dt^4).  Raises :class:`DivergenceError` if the state leaves
    the finite range.
    """
    m = np.asarray(m, dtype=complex)
    v = np.asarray(v0, dtype=complex).copy()
    if v.ndim != 1:
        raise ValueError("v0 must be 1-d")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != v.size:
        raise ValueError("dimension mismatch between matrix and state")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return v

    # overflow is caught by the finiteness guard, not worth a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (p, time) in enumerate(_rk4_steps(m, t, dt)):
            v = p @ v
            if k % 256 == 0 and not np.all(np.isfinite(v)):
                raise DivergenceError(f"non-finite state at t={time:g}")
    if not np.all(np.isfinite(v)):
        raise DivergenceError("non-finite state at the end of integration")
    return v
