"""Dissipative quantum walk models and their Liouvillian superoperators.

A model couples a coherent hop Hamiltonian (the de-directed adjacency,
scaled by ``coherent_weight``) with incoherent hops between nodes at the
Google-matrix rates: the jump operator for the move j -> i is
L_ij = A_ij |i><j| with A_ij = sqrt(G_ij), so all jumps of a model are
one n x n amplitude matrix A (``QswModel.amplitudes``; a zero entry is
no jump).  The generator acts on density matrices as

    d(rho)/dt = -i[H, rho] + sum_k L_k rho L_k^dag - 1/2 {L_k^dag L_k, rho}

and is materialized as an n^2 x n^2 matrix over column-stacked states,

    -i(I (x) H - H^T (x) I) + sum_k (conj(L_k) (x) L_k)
        - 1/2 (I (x) L_k^dag L_k + (L_k^dag L_k)^T (x) I).

Because every jump operator here has a single nonzero entry, the sums
collapse to array expressions: the recycling part adds the rate matrix
R = A * A (elementwise) to the population block, the rows and columns
i*(n+1), and sum_k L_k^dag L_k is the diagonal matrix of column sums of
R (the identity whenever R is column-stochastic).

Each model also carries the same generator as a real matrix in the
orthonormal Hermitian basis (``QswModel.hermitian_generator``), built at
first use and cached; the populations keep their indices i*(n+1) there,
so :func:`tilt_recycling` reweights jumps in either form.  Models above
``DENSE_NODE_LIMIT`` nodes are refused before any superoperator is built.

The steady state needs no superoperator.  Since sum_k L_k^dag L_k = I,
between jumps a state decays at rate 1 under -i[H, .], and every jump
lands on a population.  So a stationary rho is fixed by the jump rates
a = G diag(rho) alone, and a is the Perron vector of the n x n
column-stochastic matrix G M(1).  The spreading kernel
M(1)[j, d] = int_0^inf e^{-t} |<j|e^{-iHt}|d>|^2 dt is doubly stochastic,
so G M(1) is a classical pagerank chain composed with coherent spreading
(:func:`steady_state`: O(n^4) time, O(n^2) memory, no size limit).
The eigenbasis of H and T = G M(1) are built once per model and cached
(``QswModel.eigenbasis``, ``QswModel.renewal``) for every reader.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DegeneracyError, SizeBudgetError
from .graph import DEFAULT_DAMPING, DirectedGraph, google_matrix, symmetrized_adjacency
from .linalg import _to_hermitian_basis_inplace, integrate_linear, null_vector, unvec, vec

# Aliases in the spirit of linalg.ComplexMatrix: a DensityMatrix is an
# n x n complex ndarray (Hermitian, unit trace), a Superoperator an
# n^2 x n^2 complex ndarray over column-stacked density matrices.
DensityMatrix = np.ndarray
Superoperator = np.ndarray

DEFAULT_COHERENT_WEIGHT = 1.0
_STEADY_RESIDUAL_TOL = 1e-8

# Largest model whose dense n^2 x n^2 superoperators are assembled.  At 64
# nodes the complex Liouvillian takes 256 MiB and the cached real generator
# 128 MiB; building the latter peaks at 388 MB traced (424 MB RSS), and one
# free_energy on it (which holds three generator-sized arrays) at 446 MB
# RSS (tools/bench_dense.py).
DENSE_NODE_LIMIT = 64


@dataclass(frozen=True, eq=False)
class QswModel:
    """Quantum stochastic walk: Hamiltonian plus single-entry jumps.

    ``amplitudes[i, j]`` = sqrt(rate of j -> i) is the one nonzero entry
    of the jump operator for j -> i; a zero entry means no jump.  Both
    fields are n x n float arrays, copied on construction and read-only.
    The squared amplitudes (``rates``) must sum to 1 per source node.
    Models compare and hash by identity.
    """

    hamiltonian: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        for name in ("hamiltonian", "amplitudes"):
            a = np.array(getattr(self, name), dtype=float, order="C")
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        h, amp = self.hamiltonian, self.amplitudes
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"hamiltonian must be square, got shape {h.shape}")
        if not np.array_equal(h, h.T):
            raise ValueError("hamiltonian must be exactly symmetric")
        if amp.shape != h.shape:
            raise ValueError(f"amplitudes shape {amp.shape} does not match hamiltonian {h.shape}")
        if not (np.isfinite(amp).all() and (amp >= 0).all()):
            raise ValueError("jump amplitudes must be finite and non-negative")
        worst = np.abs(self.rates.sum(axis=0) - 1.0).max()
        if worst > 1e-12:
            raise ValueError(
                "squared jump amplitudes must sum to 1 per source node "
                f"(worst deviation {worst:.3e})"
            )

    @property
    def n(self) -> int:
        return self.hamiltonian.shape[0]

    @cached_property
    def rates(self) -> np.ndarray:
        """Read-only rate matrix R = amplitudes**2, R[i, j] the rate of
        j -> i (column-stochastic)."""
        r = self.amplitudes * self.amplitudes
        r.flags.writeable = False
        return r

    @property
    def jumps(self) -> tuple:
        """(destination i, source j, amplitude) of every jump, in
        destination-major order."""
        dest, src = np.nonzero(self.amplitudes)
        return tuple(zip(dest.tolist(), src.tolist(), self.amplitudes[dest, src].tolist()))

    @cached_property
    def hermitian_generator(self) -> np.ndarray:
        """The Liouvillian in the orthonormal Hermitian basis: a real,
        read-only n^2 x n^2 matrix, built once at first use."""
        w = _to_hermitian_basis_inplace(liouvillian(self))  # no other reference to it
        w.flags.writeable = False
        return w

    @cached_property
    def eigenbasis(self) -> tuple:
        """``(lam, V)`` with H = V diag(lam) V^T, from one ``eigh`` at
        first use; both arrays read-only."""
        lam, v = np.linalg.eigh(self.hamiltonian)
        lam.flags.writeable = v.flags.writeable = False
        return lam, v

    @cached_property
    def renewal(self) -> np.ndarray:
        """The column-stochastic renewal chain T = G M(1) of the module
        docstring: a read-only n x n matrix, built once at first use."""
        lam, v = self.eigenbasis
        t = self.rates @ _spreading_kernel(v, 1.0 / (1.0 + np.subtract.outer(lam, lam) ** 2))
        t.flags.writeable = False
        return t

    def __reduce__(self):
        # rebuilt through the constructor: read-only again, and the cached
        # properties are rebuilt on demand, not shipped to workers
        return QswModel, (self.hamiltonian, self.amplitudes)


def build_qsw(
    g: DirectedGraph,
    damping: float = DEFAULT_DAMPING,
    coherent_weight: float = DEFAULT_COHERENT_WEIGHT,
) -> QswModel:
    """Assemble the walk model for a directed graph.

    H is ``coherent_weight`` times the de-directed 0/1 adjacency (zero
    diagonal); jump amplitudes are the square roots of the Google-matrix
    entries, so every strictly positive entry is a jump.
    coherent_weight = 0 yields the purely classical dissipative walk.
    """
    if not 0 <= coherent_weight < np.inf:
        raise ValueError(f"coherent_weight must be finite and >= 0, got {coherent_weight}")
    h = coherent_weight * symmetrized_adjacency(g)
    return QswModel(h, np.sqrt(google_matrix(g, damping)))


def _start_state(n: int, psi0=None) -> np.ndarray:
    """Complex unit start state of an n-node walk: the uniform superposition
    by default, else a copy of ``psi0`` once its shape and norm are checked."""
    if psi0 is None:
        return np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    psi = np.asarray(psi0, dtype=complex).copy()
    if psi.shape != (n,):
        raise ValueError(f"psi0 must have shape ({n},)")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("psi0 must be normalized")
    return psi


def check_dense_budget(n: int) -> None:
    """Raise :class:`SizeBudgetError` for models above ``DENSE_NODE_LIMIT``
    nodes, before any n^2 x n^2 matrix is allocated."""
    if n > DENSE_NODE_LIMIT:
        raise SizeBudgetError(
            f"a {n}-node model needs a dense {n * n} x {n * n} generator "
            f"({16 * n**4 / 2**30:.1f} GiB); dense superoperators are limited "
            f"to {DENSE_NODE_LIMIT} nodes"
        )


def tilt_recycling(w: np.ndarray, model: QswModel, factors) -> np.ndarray:
    """Reweight the recycling terms of generator ``w`` in place; returns ``w``.

    ``factors`` broadcasts to n x n: the jump j -> i has its term at
    (i*(n+1), j*(n+1)) scaled by ``factors[i, j]``, i.e. that entry gains
    (factors[i, j] - 1) * amplitudes[i, j]**2.  Per-node counting passes
    ``exp(-s)[:, None]``.  The populations sit on those indices both over
    column-stacked states and in the Hermitian basis, so ``w`` may be
    either form.
    """
    a = model.amplitudes
    w[:: model.n + 1, :: model.n + 1] += (factors - 1.0) * a * a  # the population block
    return w


def liouvillian(model: QswModel) -> Superoperator:
    """Dense matrix of the Lindblad generator over column-stacked states.

    Trace preservation holds structurally: vec(I)^dag annihilates the
    result from the left to rounding, because the anticommutator uses the
    model's own column sums of the rates, not the I they approximate
    (finite-difference second derivatives magnify a residual by 1/h^2).
    """
    n = model.n
    check_dense_budget(n)
    h = model.hamiltonian
    eye = np.eye(n)
    lmat = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    rates = model.rates
    lmat[:: n + 1, :: n + 1] += rates  # the population block
    d = rates.sum(axis=0)  # the diagonal of sum_k L_k^dag L_k
    lmat.flat[:: n * n + 1] -= 0.5 * np.add.outer(d, d).ravel()  # the anticommutator
    return lmat


def _spreading_kernel(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The n x n matrix K[j, d] = sum_ab V_ja V_da V_jb V_db w[a, b] for the
    eigenvectors V of H = V diag(lam) V^T and a symmetric weight w over
    eigenvalue pairs.

    With w = 1 / (1 + (lam_a - lam_b)^2) it is M(1) =
    int_0^inf e^{-t} |<j|e^{-iHt}|d>|^2 dt: the probability that a walker
    put on node d by a jump is on node j when its next jump fires.  M(1)
    is doubly stochastic and does not depend on the choice of
    eigenbasis.  Built one row at a time in O(n^2) workspace.
    """
    m = np.empty(w.shape)
    for j in range(len(w)):
        p = v[j] * v  # p[d, a] = V_ja V_da
        m[j] = ((p @ w) * p).sum(axis=1)
    return m


def steady_state(model: QswModel) -> DensityMatrix:
    """Unique stationary density matrix of the walk, from n x n problems.

    The stationary jump rates a = G diag(rho) are the Perron vector of
    the model's renewal chain T = G M(1) (``QswModel.renewal``), scaled
    to unit sum, which is rho's trace.  Then rho solves
    rho + i[H, rho] = diag(a): in the model's eigenbasis
    H = V diag(lam) V^T it is V^T diag(a) V divided elementwise by
    1 + i(lam_a - lam_b).  The result is made exactly Hermitian, and its
    Lindblad residual is checked without assembling the generator.  A
    kernel of T - I that is not simple (G with several closed classes,
    only possible without damping) surfaces as :class:`DegeneracyError`.
    """
    h = model.hamiltonian
    g = model.rates
    lam, v = model.eigenbasis
    a = null_vector(model.renewal - np.eye(model.n)).real
    tr = a.sum()
    if abs(tr) < 1e-6:
        raise DegeneracyError(
            "kernel vector is nearly traceless; no normalizable steady state"
        )
    a = a / tr
    rho = v @ (((v.T * a) @ v) / (1.0 + 1j * np.subtract.outer(lam, lam))) @ v.T
    rho = 0.5 * (rho + rho.conj().T)
    d = g.sum(axis=0)  # the diagonal of sum_k L_k^dag L_k
    generated = (
        -1j * (h @ rho - rho @ h)
        + np.diag(g @ rho.diagonal())
        - 0.5 * (d[:, None] * rho + rho * d)
    )
    residual = np.linalg.norm(generated)  # equals ||L vec(rho)||
    if residual > _STEADY_RESIDUAL_TOL:
        raise ConvergenceError(
            f"steady-state residual {residual:.3e} exceeds {_STEADY_RESIDUAL_TOL:g}"
        )
    return rho


def evolve(model: QswModel, rho0: DensityMatrix, t: float, dt: float = 1e-3) -> DensityMatrix:
    """Propagate a density matrix for time ``t`` under the Liouvillian.

    Fixed-step 4th-order integration of the vectorized state; trace and
    Hermiticity are preserved up to the integration tolerance.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (model.n, model.n):
        raise ValueError(f"rho0 shape {rho0.shape} does not match n={model.n}")
    if np.abs(rho0 - rho0.conj().T).max() > 1e-8:
        raise ValueError("rho0 must be Hermitian")
    if abs(np.trace(rho0) - 1.0) > 1e-8:
        raise ValueError("rho0 must have unit trace")
    return unvec(integrate_linear(liouvillian(model), vec(rho0), t, dt))
