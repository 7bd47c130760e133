"""Tilted generators and large-deviation thermodynamics of jump counts.

Jump events are counted per *destination node*: the counting group of
node i consists of every jump operator landing on i.  Biasing the count
of node i by a conjugate field s_i reweights its recycling terms by
exp(-s_i), giving the tilted generator

    W_s = L + sum_i (exp(-s_i) - 1) sum_j conj(L_ij) (x) L_ij.

The largest real part of its spectrum is the dynamical free energy
(scaled cumulant generating function) of the count vector.  W_s maps
Hermitian matrices to Hermitian matrices, so :func:`free_energy` solves
it as a real matrix in the orthonormal Hermitian basis: it copies the
model's cached real Liouvillian, reweights the population-block
recycling entries, and makes one real eigensolve (LAPACK ``dgeev``).
:func:`tilted_superoperator` still returns the complex generator over
column-stacked states.  First and second partial derivatives in s
yield the per-node activity and index of dispersion; both are taken by
central finite differences with a step-halving self-check, since the
generator has no closed-form derivative here.

Extreme tilts have closed forms, since sum_k L_k^dag L_k = I: with no
jumps left (all s_i -> +infinity) the norm decays at rate 1, theta = -1;
rescaled by exp(s) as s -> -infinity the generator is the bare recycling
map, with theta = 1 and the Perron vector of the jump-rate matrix G as
its jump profile (:func:`active_limit_normalized_activity`, n x n).
The activity at s = 0 also has a derivative-free form, the stationary
jump rates (:func:`activity_from_steady_state`), and so have the index of
dispersion and the start-up offset of the counts (:func:`stationary_references`,
n x n); the finite-difference path stays as the independent route.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceError, DegeneracyError, QswError, ZeroActivityError
from .lindblad import (
    QswModel,
    Superoperator,
    _spreading_kernel,
    _start_state,
    check_dense_budget,
    liouvillian,
    steady_state,
    tilt_recycling,
)
from .linalg import eig_general, null_vector

# Conjugate fields, one per node; plain 1-d float ndarray.
TiltVector = np.ndarray

DEFAULT_FD_STEP = 1e-4
_EXP_ARG_LIMIT = 700.0  # exp overflow threshold for float64
_ACTIVITY_FLOOR = 1e-12  # |d(theta)/d(s_i)| below this: dispersion undefined
_SELF_CHECK_TOL = 1e-6
_DEGENERACY_TOL = 1e-10  # relative gap below which the leading eigenvalue is not simple


@dataclass(frozen=True)
class ThermoPoint:
    """Thermodynamic observables at one tilt vector.

    ``theta`` is the dynamical free energy (units 1/time), ``alpha`` the
    per-node activity (jumps per unit time), ``alpha_norm`` the activity
    normalized to unit total, ``delta`` the per-node index of dispersion
    (None entries where the activity vanishes), ``delta_global`` the sum
    of the per-node indices (None if any entry is undefined).  A failed
    evaluation leaves the observables None and stores ``error``.
    """

    s: np.ndarray
    theta: Optional[float] = None
    alpha: Optional[np.ndarray] = None
    alpha_norm: Optional[np.ndarray] = None
    delta: Optional[tuple] = None
    delta_global: Optional[float] = None
    error: Optional[str] = None


def _as_tilt(model: QswModel, s) -> np.ndarray:
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.shape != (model.n,):
        raise ValueError(f"tilt vector must have length n={model.n}, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("tilt vector must be finite; s = +/-inf are the --limit-mode rows")
    if np.any(-s > _EXP_ARG_LIMIT):
        raise ValueError(
            "tilt too negative for exp evaluation; use active_limit_normalized_activity"
        )
    return s


def uniform_tilt(model: QswModel, value: float) -> TiltVector:
    """Tilt vector with every entry equal to ``value``."""
    return np.full(model.n, float(value))


def tilted_superoperator(model: QswModel, s) -> Superoperator:
    """Counting-biased generator W_s over column-stacked states.

    Node i's factor exp(-s_i) multiplies all jumps landing on i.  At
    s = 0 the result equals the Liouvillian bitwise.
    """
    s = _as_tilt(model, s)
    return tilt_recycling(liouvillian(model), model, np.exp(-s)[:, None])


def free_energy(model: QswModel, s) -> float:
    """Dynamical free energy: largest real part of the spectrum of W_s.

    Zero at s = 0 (stationarity), non-increasing and convex in each
    coordinate.  Solved as the real Hermitian-basis form of W_s, whose
    spectrum is that of :func:`tilted_superoperator`.  A leading
    eigenvalue that is not simple (G with several closed classes, or the
    crowd at theta = -1 for large s) raises :class:`DegeneracyError`:
    theta has a kink there that finite differences read as curvature.
    """
    s = _as_tilt(model, s)
    w = tilt_recycling(model.hermitian_generator.copy(), model, np.exp(-s)[:, None])
    res = eig_general(w, overwrite=True)  # w is this call's own copy
    theta = res.leading_eigenvalue.real
    gap = np.abs(res.full_spectrum - res.leading_eigenvalue)
    fold = np.count_nonzero(gap <= _DEGENERACY_TOL * max(1.0, abs(theta)))
    if fold > 1:
        raise DegeneracyError(
            f"leading eigenvalue {theta:.6g} of the tilted generator is "
            f"{fold}-fold; theta is not differentiable there"
        )
    return theta


def active_limit_normalized_activity(model: QswModel) -> np.ndarray:
    """Normalized activity in the s -> -infinity limit.

    The rescaled generator is the bare recycling map: the jump-rate
    matrix G on the populations, zero on coherences.  Jumps then land on
    node i at a rate proportional to (G|v|)_i for the Perron vector v of
    G, the kernel of G - I, solved directly, so periodic damping-1 graphs
    need no iteration.  A G with several closed classes has no unique
    profile and raises :class:`DegeneracyError`.
    """
    rates = model.rates
    return normalized_activity(rates @ np.abs(null_vector(rates - np.eye(model.n))))


def _stencil(model: QswModel, s: np.ndarray, h: float):
    """theta at s +/- h along every coordinate axis, as rows (plus, minus)."""
    steps = h * np.eye(model.n)
    return np.array([(free_energy(model, s + e), free_energy(model, s - e)) for e in steps]).T


def activity(
    model: QswModel, s, h: float = DEFAULT_FD_STEP, self_check: bool = True
) -> np.ndarray:
    """Per-node activity alpha_i = -d(theta)/d(s_i) by central differences.

    ``self_check=True`` repeats the stencil at h/2 and raises
    :class:`ConvergenceError` if any component moves by more than 1e-6
    — the Richardson guard against an ill-chosen step.
    """
    return _observables(model, s, h, self_check).alpha


def activity_from_steady_state(model: QswModel) -> np.ndarray:
    """Derivative-free activity at s = 0: rate matrix applied to the
    steady-state populations.

    Cross-checks the finite-difference path; with zero coherent weight
    it reduces to the classical pagerank.
    """
    rho = steady_state(model)
    return model.rates @ np.real(np.diag(rho))


def stationary_references(model: QswModel, alpha, psi0=None) -> tuple:
    """Exact s = 0 references from n x n problems: the index of dispersion
    delta and the start-up offset b of the counts from the unit state
    ``psi0`` (default: the uniform superposition that trajectories start
    from), E[K(t)] = alpha t + b + O(exp(-gap t)).

    ``alpha`` is the stationary jump rate vector, the Perron vector pi of
    T = G M(1) (``QswModel.renewal``).  With the group inverse
    Z = (I - T + pi 1^T)^{-1} - pi 1^T of T (Meyer, SIAM Rev. 17, 443
    (1975)) and y = G M'(1) pi, M'(1) the spreading kernel with weights
    ((lam_a - lam_b)^2 - 1) / (1 + (lam_a - lam_b)^2)^2, the renewal
    expansion gives delta_i = 1 + 2 pi_i + 2 (T Z)_ii + 2 [(I + T Z) y]_i
    and b = Z (G m0 + y), where G m0 is the law of the first jump:
    m0_j = Re sum_ab V_ja c_a V_jb conj(c_b) / (1 + i (lam_a - lam_b)) for
    c = V^T psi0.  Entries of delta where the activity is below 1e-12 are
    None, as in :func:`dispersion`.  Returns ``(delta, b)``.  A ``psi0``
    that ``simulate`` refuses (wrong shape, not normalized) raises
    the same ``ValueError`` here.
    """
    pi = np.asarray(alpha, dtype=float)
    n = model.n
    psi = _start_state(n, psi0)
    g = model.rates
    lam, v = model.eigenbasis
    om = np.subtract.outer(lam, lam)
    t = model.renewal
    p = np.outer(pi, np.ones(n))
    z = np.linalg.inv(np.eye(n) - t + p) - p
    ts = t @ z
    y = g @ (_spreading_kernel(v, (om ** 2 - 1.0) / (1.0 + om ** 2) ** 2) @ pi)
    delta = 1.0 + 2.0 * pi + 2.0 * ts.diagonal() + 2.0 * (y + ts @ y)
    c = v.T @ psi
    m0 = ((v @ (np.outer(c, c.conj()) / (1.0 + 1j * om))) * v).sum(axis=1).real
    delta = tuple(float(d) if abs(a) > _ACTIVITY_FLOOR else None for d, a in zip(delta, pi))
    return delta, z @ (g @ m0 + y)


def dispersion(model: QswModel, s, h: float = DEFAULT_FD_STEP):
    """Per-node index of dispersion and its global sum.

    delta_i = -d2(theta)/d(s_i)2 / (d(theta)/d(s_i)): the variance-to-
    mean ratio of the node's jump count.  Components where the first
    derivative magnitude falls below 1e-12 are returned as None (the
    ratio is undefined there), and delta_global is None whenever any
    component is.  The step-halving self-check of :func:`activity`
    always runs.  Returns ``(delta, delta_global)``.
    """
    point = _observables(model, s, h, self_check=True)
    return point.delta, point.delta_global


def normalized_activity(alpha) -> np.ndarray:
    """Activity rescaled to unit total; the dynamical node ranking."""
    alpha = np.asarray(alpha, dtype=float)
    total = alpha.sum()
    if total <= _ACTIVITY_FLOOR:
        raise ZeroActivityError(
            f"total activity {total:.3e} too small to normalize"
        )
    return alpha / total


def _observables(model: QswModel, s, h: float, self_check: bool = False) -> ThermoPoint:
    """All observables at one tilt from a shared derivative stencil."""
    if not 0 < h < np.inf:
        raise ValueError("finite-difference step must be positive and finite")
    s = _as_tilt(model, s)
    t0 = free_energy(model, s)
    tp, tm = _stencil(model, s, h)
    alpha = -(tp - tm) / (2.0 * h)
    if self_check:
        tp2, tm2 = _stencil(model, s, 0.5 * h)
        alpha_half = -(tp2 - tm2) / h
        drift = np.abs(alpha - alpha_half).max()
        if drift > _SELF_CHECK_TOL:
            raise ConvergenceError(
                f"step-halving drift {drift:.3e} exceeds {_SELF_CHECK_TOL:g} at s={s}"
            )
        alpha = alpha_half
    second = (tp - 2.0 * t0 + tm) / (h * h)
    delta = tuple(
        (second[i] / alpha[i]) if abs(alpha[i]) > _ACTIVITY_FLOOR else None
        for i in range(model.n)
    )
    delta_global = None if any(d is None for d in delta) else float(sum(delta))
    total = alpha.sum()
    alpha_norm = alpha / total if total > _ACTIVITY_FLOOR else None
    return ThermoPoint(
        s=s.copy(),
        theta=t0,
        alpha=alpha,
        alpha_norm=alpha_norm,
        delta=delta,
        delta_global=delta_global,
    )


def _fan_out(fn, jobs: list, workers: int) -> list:
    """``[fn(job) for job in jobs]``, in input order, on a process pool
    of ``workers`` processes when that is more than one."""
    if workers <= 1:
        return [fn(job) for job in jobs]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=max(1, len(jobs) // (4 * workers))))


def _scan_worker(args) -> ThermoPoint:
    model, s, h = args
    try:  # numerical failures are recorded per point, never abort the scan
        return _observables(model, s, h)
    except (QswError, ValueError, np.linalg.LinAlgError) as exc:
        return ThermoPoint(
            s=np.atleast_1d(np.asarray(s, dtype=float)).copy(), error=str(exc)
        )


def scan(
    model: QswModel,
    s_grid: Sequence,
    h: float = DEFAULT_FD_STEP,
    n_workers: Optional[int] = None,
) -> list[ThermoPoint]:
    """Evaluate :class:`ThermoPoint` on every tilt of ``s_grid``.

    Points are independent; with ``n_workers`` > 1 they are distributed
    over a process pool and gathered back in input order.  A failing
    point records its error instead of aborting the scan; a model too
    large for the dense generator raises :class:`SizeBudgetError` first.
    """
    if len(s_grid) == 0:
        raise ValueError("s_grid must be non-empty")
    if not 0 < h < np.inf:
        raise ValueError("finite-difference step must be positive and finite")
    check_dense_budget(model.n)
    jobs = [(model, s, h) for s in s_grid]
    return _fan_out(_scan_worker, jobs, min(n_workers or 1, len(jobs)))
