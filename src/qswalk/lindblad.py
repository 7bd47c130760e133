"""Dissipative quantum walk models and their Liouvillian superoperators.

A model couples a coherent hop Hamiltonian (the de-directed adjacency,
scaled by ``coherent_weight``) with incoherent hops between nodes at the
Google-matrix rates: the jump operator for the move j -> i is
``sqrt(G_ij) |i><j|``.  The generator acts on density matrices as

    d(rho)/dt = -i[H, rho] + sum_k L_k rho L_k^dag - 1/2 {L_k^dag L_k, rho}

and is materialized as an n^2 x n^2 matrix over column-stacked states,

    -i(I (x) H - H^T (x) I) + sum_k (conj(L_k) (x) L_k)
        - 1/2 (I (x) L_k^dag L_k + (L_k^dag L_k)^T (x) I).

Because every jump operator here has a single nonzero entry, the sums
collapse: the recycling part scatters the rate matrix onto the
population block, and sum_k L_k^dag L_k is the diagonal matrix of
column sums of the rates (the identity whenever the rate matrix is
column-stochastic).

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DegeneracyError, SizeBudgetError
from .graph import DEFAULT_DAMPING, DirectedGraph, google_matrix, symmetrized_adjacency
from .linalg import integrate_linear, null_vector, to_hermitian_basis, unvec, vec

# Aliases in the spirit of linalg.ComplexMatrix: a DensityMatrix is an
# n x n complex ndarray (Hermitian, unit trace), a Superoperator an
# n^2 x n^2 complex ndarray over column-stacked density matrices.
DensityMatrix = np.ndarray
Superoperator = np.ndarray

_STEADY_RESIDUAL_TOL = 1e-8

# Largest model whose dense n^2 x n^2 superoperators are assembled: at 64
# nodes one complex generator takes 256 MiB.
DENSE_NODE_LIMIT = 64


@dataclass(frozen=True)
class QswModel:
    """Quantum stochastic walk: Hamiltonian plus single-entry jumps.

    ``jumps`` is a tuple of (destination i, source j, amplitude) with
    amplitude = sqrt(rate of j -> i); every strictly positive rate of
    the generating stochastic matrix appears (no amplitude cutoff), in
    destination-major order.
    """

    n: int
    hamiltonian: np.ndarray
    jumps: tuple

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=float)
        if h.shape != (self.n, self.n):
            raise ValueError(f"hamiltonian shape {h.shape} does not match n={self.n}")
        if not np.array_equal(h, h.T):
            raise ValueError("hamiltonian must be exactly symmetric")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jumps", tuple(self.jumps))
        col_sums = np.zeros(self.n)
        for (i, j, amp) in self.jumps:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"jump ({i}, {j}) out of range for n={self.n}")
            if not amp > 0:
                raise ValueError(f"jump amplitude must be positive, got {amp}")
            col_sums[j] += amp * amp
        if np.abs(col_sums - 1.0).max() > 1e-12:
            raise ValueError(
                "squared jump amplitudes must sum to 1 per source node "
                f"(worst deviation {np.abs(col_sums - 1.0).max():.3e})"
            )

    @property
    def n_jumps(self) -> int:
        return len(self.jumps)

    @cached_property
    def jump_table(self) -> tuple:
        """``jumps`` as arrays: (destinations, sources, amplitudes)."""
        dest, src, amp = zip(*self.jumps)
        return np.array(dest), np.array(src), np.array(amp, dtype=float)

    @cached_property
    def hermitian_generator(self) -> np.ndarray:
        """The Liouvillian in the orthonormal Hermitian basis: a real,
        read-only n^2 x n^2 matrix, built once at first use."""
        w = to_hermitian_basis(liouvillian(self))
        w.flags.writeable = False
        return w

    def __getstate__(self):
        # the cached generator is rebuilt on demand, not shipped to workers
        return {k: v for k, v in self.__dict__.items() if k != "hermitian_generator"}

    def jump_rate_matrix(self) -> np.ndarray:
        """Rate matrix R with R[i, j] = amplitude(i, j)^2 (column-stochastic)."""
        r = np.zeros((self.n, self.n))
        for (i, j, amp) in self.jumps:
            r[i, j] = amp * amp
        return r


def build_qsw(
    g: DirectedGraph,
    damping: float = DEFAULT_DAMPING,
    coherent_weight: float = 1.0,
) -> QswModel:
    """Assemble the walk model for a directed graph.

    H is ``coherent_weight`` times the de-directed 0/1 adjacency (zero
    diagonal); jump amplitudes are square roots of the Google-matrix
    entries, one jump per strictly positive entry.  coherent_weight = 0
    yields the purely classical dissipative walk.
    """
    if coherent_weight < 0:
        raise ValueError(f"coherent_weight must be >= 0, got {coherent_weight}")
    h = coherent_weight * symmetrized_adjacency(g)
    rates = google_matrix(g, damping)
    jumps = tuple(
        (i, j, math.sqrt(rates[i, j]))
        for i in range(g.n)
        for j in range(g.n)
        if rates[i, j] > 0.0
    )
    return QswModel(n=g.n, hamiltonian=h, jumps=jumps)


def check_dense_budget(n: int) -> None:
    """Raise :class:`SizeBudgetError` for models above ``DENSE_NODE_LIMIT``
    nodes, before any n^2 x n^2 matrix is allocated."""
    if n > DENSE_NODE_LIMIT:
        raise SizeBudgetError(
            f"a {n}-node model needs a dense {n * n} x {n * n} generator "
            f"({16 * n**4 / 2**30:.1f} GiB); dense superoperators are limited "
            f"to {DENSE_NODE_LIMIT} nodes"
        )


def tilt_recycling(w: np.ndarray, model: QswModel, factors: np.ndarray) -> np.ndarray:
    """Reweight the recycling terms of generator ``w`` in place; returns ``w``.

    Jump k (the k-th entry of ``model.jumps``, j -> i) has its term at
    (i*(n+1), j*(n+1)) scaled by ``factors[k]``, i.e. that entry gains
    (factors[k] - 1) * R_ij.  The populations sit on those indices both
    over column-stacked states and in the Hermitian basis, so ``w`` may be
    either form.  Entries whose factor is exactly 1 are left untouched.
    """
    dest, src, amp = model.jump_table
    keep = factors != 1.0
    pop = np.arange(model.n) * (model.n + 1)
    gain = (factors[keep] - 1.0) * amp[keep] * amp[keep]
    np.add.at(w, (pop[dest[keep]], pop[src[keep]]), gain)
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
    dest, src, amp = model.jump_table
    rates = amp * amp
    pop = np.arange(n) * (n + 1)
    np.add.at(lmat, (pop[dest], pop[src]), rates)
    d = np.diag(np.bincount(src, weights=rates, minlength=n))
    lmat -= 0.5 * (np.kron(eye, d) + np.kron(d.T, eye))
    return lmat


def _spreading_kernel(lam: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The n x n matrix M(1) = int_0^inf e^{-t} |<j|e^{-iHt}|d>|^2 dt for
    H = V diag(lam) V^T.

    M[j, d] is the probability that a walker put on node d by a jump is
    on node j when its next jump fires:
    M[j, d] = sum_ab V_ja V_da V_jb V_db / (1 + (lam_a - lam_b)^2).  It is
    doubly stochastic and does not depend on the choice of eigenbasis.
    Built one row at a time in O(n^2) workspace.
    """
    w = 1.0 / (1.0 + np.subtract.outer(lam, lam) ** 2)
    m = np.empty((lam.size, lam.size))
    for j in range(lam.size):
        p = v[j] * v  # p[d, a] = V_ja V_da
        m[j] = ((p @ w) * p).sum(axis=1)
    return m


def steady_state(model: QswModel, tol: float = 1e-9) -> DensityMatrix:
    """Unique stationary density matrix of the walk, from n x n problems.

    The stationary jump rates a = G diag(rho) are the Perron vector of
    G M(1) (the spreading kernel of the module docstring), scaled to
    unit sum, which is rho's trace.  Then rho solves
    rho + i[H, rho] = diag(a): in the eigenbasis H = V diag(lam) V^T it
    is V^T diag(a) V divided elementwise by 1 + i(lam_a - lam_b).  The
    result is made exactly Hermitian, and its Lindblad residual is
    checked without assembling the generator.  A kernel of G M(1) - I
    that is not simple (G with several closed classes, only possible
    without damping) surfaces as :class:`DegeneracyError`.
    """
    h = model.hamiltonian
    g = model.jump_rate_matrix()
    lam, v = np.linalg.eigh(h)
    a = null_vector(g @ _spreading_kernel(lam, v) - np.eye(model.n), tol=tol).real
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
