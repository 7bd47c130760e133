"""Quantum-jump Monte Carlo unraveling and the tilted-integration oracle.

A trajectory is a pure state that evolves coherently between jumps and
is projected onto a node at each jump.  Waiting times are sampled
exactly (tau = -ln r, since the no-jump norm of a QSW model is exp(-t))
by the batched engine in :mod:`qswalk.jumps`, so no time step enters.
Jumps into node i increment the count K_i.  Ensembles run equal blocks
of at most ``_BLOCK`` trajectories as lanes of that engine; :func:`simulate`
is the one-lane case.
Randomness comes from counter-based Philox streams keyed by the seed, so
trajectory idx of an ensemble (seed0 + idx) is bitwise reproducible on
its own, whatever the blocking or the number of worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DivergenceError
from .jumps import run_lanes
from .lindblad import QswModel, _start_state
from .linalg import _rk4_steps, eig_general
from .tilt import _fan_out, tilted_superoperator

DEFAULT_T_MAX = 100.0
DEFAULT_DT = 1e-3  # integration step; the jump sampler takes no step
DEFAULT_N_TRAJ = 1000
DEFAULT_SEED = 0
_BLOCK = 1024  # lanes per run_lanes call, a memory bound: 90 MiB at 1,024 nodes
_POOL_WORK = 50_000_000  # (n_traj x t_max - 2n) x n^2 per worker below which a fork does not pay


@dataclass(frozen=True)
class TrajectoryRecord:
    """One unraveled trajectory: ordered jump events and per-node counts."""

    seed: int
    t_final: float
    jump_events: tuple  # ((time, destination, source), ...)
    counts: np.ndarray  # K_i, jumps into node i


@dataclass(frozen=True)
class EnsembleStats:
    """Count statistics across an ensemble of independent trajectories.

    Rates are per unit time: mean_rate = [K_i]_ave / t, var_rate the
    sample variance of K_i/t, standard_errors the standard error of
    mean_rate.  dispersion_hat = Var(K_i)/Mean(K_i) estimates the index
    of dispersion; dispersion_se is its delta-method standard error.
    """

    n_traj: int
    mean_rate: np.ndarray
    var_rate: np.ndarray
    dispersion_hat: np.ndarray
    standard_errors: np.ndarray
    dispersion_se: np.ndarray


def _initial_state(model: QswModel, psi0, t_max: float, dt: float, seeds: range) -> np.ndarray:
    """Unit start state of a run of ``seeds`` (the uniform superposition by
    default), once t_max, dt and the seed range have passed their checks."""
    if not (0 < t_max < math.inf and dt > 0):  # an infinite horizon never ends a lane
        raise ValueError("t_max must be positive and finite, dt positive")
    if not 0 <= seeds[0] <= seeds[-1] < 1 << 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return _start_state(model.n, psi0)


def simulate(
    model: QswModel,
    psi0: Optional[np.ndarray] = None,
    t_max: float = DEFAULT_T_MAX,
    dt: float = DEFAULT_DT,
    seed: int = DEFAULT_SEED,
) -> TrajectoryRecord:
    """Sample one quantum-jump trajectory up to ``t_max``.

    ``psi0`` must be a unit vector (default: the uniform superposition).
    Waiting times are exact (tau = -ln r) and the state at a jump comes
    from the eigenbasis of H, so ``dt`` is ignored; it is still checked
    to be positive.  A fixed seed reproduces the record bitwise, and the
    record equals that seed's lane in any ensemble.
    """
    psi = _initial_state(model, psi0, t_max, dt, range(seed, seed + 1))
    counts, events = run_lanes(model, psi, t_max, [seed], record=True)
    return TrajectoryRecord(
        seed=seed, t_final=t_max, jump_events=tuple(events[0]), counts=counts[0]
    )


def _counts_block(args) -> np.ndarray:
    """Counts (len(seeds), n) of one trajectory per seed, as one block of lanes."""
    model, psi0, t_max, seeds = args
    return run_lanes(model, psi0, t_max, seeds)[0]


def ensemble_stats(
    model: QswModel,
    psi0: Optional[np.ndarray] = None,
    t_max: float = DEFAULT_T_MAX,
    dt: float = DEFAULT_DT,
    n_traj: int = DEFAULT_N_TRAJ,
    seed0: int = DEFAULT_SEED,
    n_workers: Optional[int] = None,
) -> EnsembleStats:
    """Count statistics over ``n_traj`` independent trajectories.

    Trajectory idx uses the stream keyed by seed0 + idx, so the ensemble
    is reproducible and insensitive to how work is distributed.  With
    ``n_workers`` > 1 the ensemble runs on at most that many processes and
    at most one per trajectory and per ``_POOL_WORK`` of (n_traj x t_max - 2n)
    x n^2 (n^2 products a jump, less 2n jumps for a worker's O(n^3) set-up),
    so that an ensemble too small to pay for a fork runs here.  The seed
    range is cut once, into equal contiguous blocks of at most ``_BLOCK``
    lanes, the same number for every worker.
    ``dt`` is checked to be positive and otherwise ignored, as in
    :func:`simulate`.
    """
    if n_traj < 2:
        raise ValueError("ensemble statistics need n_traj >= 2")
    seeds = range(seed0, seed0 + n_traj)
    psi = _initial_state(model, psi0, t_max, dt, seeds)
    work = (n_traj * t_max - 2 * model.n) * model.n ** 2
    k = max(1, min(n_workers or 1, n_traj, int(work // _POOL_WORK)))
    b = k * -(-n_traj // (k * _BLOCK))  # blocks: a multiple of k, each of <= _BLOCK lanes
    blocks = [(model, psi, t_max, seeds[n_traj * i // b:n_traj * (i + 1) // b]) for i in range(b)]
    counts = np.concatenate(_fan_out(_counts_block, blocks, k), axis=0)

    k = counts.astype(float)
    mean_k = k.mean(axis=0)
    var_k = k.var(axis=0, ddof=1)
    centered = k - mean_k
    m2 = (centered ** 2).mean(axis=0)
    m3 = (centered ** 3).mean(axis=0)
    m4 = (centered ** 4).mean(axis=0)

    with np.errstate(divide="ignore", invalid="ignore"):
        disp = np.where(mean_k > 0, var_k / np.where(mean_k > 0, mean_k, 1.0), 0.0)
        # delta-method variance of Var/Mean from empirical central moments
        var_var = (m4 - m2 ** 2) / n_traj
        var_mean = m2 / n_traj
        cov_vm = m3 / n_traj
        var_disp = np.where(
            mean_k > 0,
            var_var / mean_k ** 2
            + (var_k ** 2 / mean_k ** 4) * var_mean
            - 2.0 * (var_k / mean_k ** 3) * cov_vm,
            0.0,
        )
    return EnsembleStats(
        n_traj=n_traj,
        mean_rate=mean_k / t_max,
        var_rate=var_k / t_max ** 2,
        dispersion_hat=disp,
        standard_errors=np.sqrt(var_k / n_traj) / t_max,
        dispersion_se=np.sqrt(np.clip(var_disp, 0.0, None)),
    )


@dataclass(frozen=True)
class TiltedIntegration:
    """Diagnostics of the integration route to the free energy."""

    theta: float
    spectral_gap: float
    window: tuple
    n_samples: int


def free_energy_by_integration(
    model: QswModel,
    s,
    t_max: float = DEFAULT_T_MAX,
    dt: float = DEFAULT_DT,
    full_output: bool = False,
):
    """Free energy as the growth rate of the tilted trace.

    Integrates the maximally mixed state under the tilted generator with
    the fixed-step 4th-order scheme and fits the slope of log-trace over
    the final 20% of the time window (least squares).  Overflow is
    guarded by renormalizing after every step and folding the factor
    into an accumulated logarithm.

    Independent of the eigenvalue route: the slope never touches the
    spectrum.  The spectral gap of the tilted generator (a measure of
    how quickly the slope becomes reliable) is computed separately and
    reported when ``full_output`` is set.
    """
    w = tilted_superoperator(model, s)
    n = model.n
    diag = np.arange(n) * (n + 1)
    y = np.zeros(n * n, dtype=complex)
    y[diag] = 1.0 / n  # vec of the maximally mixed state

    window_start = 0.8 * t_max
    window = []  # (t, log-trace) of the steps that land in the fit window
    logz = 0.0
    for step, t in _rk4_steps(w, t_max, dt):
        y = step @ y
        tr = complex(y[diag].sum()).real
        if not (math.isfinite(tr) and tr > 0):
            raise DivergenceError(f"tilted trace became {tr!r} at t={t:g}")
        logz += math.log(tr)
        if t >= window_start:
            window.append((t, logz))
        y = y / tr

    if len(window) < 2:
        raise ValueError("fewer than 2 samples in the fit window; lower dt or raise t_max")
    slope = float(np.polyfit(*np.transpose(window), 1)[0])
    if not full_output:
        return slope
    spectrum = eig_general(w).full_spectrum
    re = np.sort(spectrum.real)[::-1]
    gap = float(re[0] - re[1]) if re.size > 1 else math.inf
    return TiltedIntegration(
        theta=slope,
        spectral_gap=gap,
        window=(window_start, t_max),
        n_samples=len(window),
    )

