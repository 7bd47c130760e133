"""Batched quantum-jump engine: trajectories as lanes of one array.

Between jumps a pure state evolves under the non-Hermitian effective
Hamiltonian H_eff = H - (i/2) sum_k L_k^dag L_k, so its squared norm
decays; a jump fires when the norm crosses a uniform random threshold r
(norm-decay waiting-time method), the jump operator is drawn with
probability ||L_k psi||^2 / sum ||L_k' psi||^2 using a second uniform u,
and the state is projected and renormalized.

A block of trajectories ("lanes") advances in lock-step rounds of one
waiting period per lane, and every per-lane step is an array operation
across the lanes.  Implementation notes, all exact consequences of
linearity:

* One RK4 step of size dt for psi' = A psi (A = -i H_eff) equals the
  degree-4 Taylor polynomial of exp(A dt) applied to psi, so stepping is
  a matrix-vector product with a precomputed propagator.  Repeated
  squaring yields propagators for 2^m steps, letting the waiting-time
  search advance in blocks and binary-descend to the single bracketing
  step when the threshold is crossed (norm decay is monotone, so a
  crossing inside a block is visible at its end).
* Within the bracketing step the squared norm of the degree-4 Taylor
  state is a degree-8 polynomial in the substep time, assembled once
  from the antidiagonal sums of the Gram matrix of the Taylor vectors;
  the bisection to 1e-10 then runs elementwise, one entry per lane.
* States are held as real vectors (Re psi, Im psi), and every product
  is a sequence of elementwise float64 operations in a fixed order, never
  a BLAS call across lanes, so the arithmetic of a lane does not depend
  on the block size or on the lane's position in the block.
* Each lane reads its own counter-based Philox stream keyed by its seed,
  in the order r, then u for each jump.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergenceError, NonDissipativeError
from .lindblad import QswModel, effective_hamiltonian
from .linalg import rk4_step_matrix

_BISECT_TOL = 1e-10  # waiting-time refinement, in time units
_NORM_GROWTH_TOL = 1e-10  # relative tolerance on monotone norm decay
_DRAWS = 64  # uniforms taken from a lane's stream at a time (multiple of 4)

# flat Gram index k*5 + (m - k) of each term of the degree-m coefficient of
# the norm polynomial, padded with the index 25 of a zero row
_ANTIDIAG = np.array(
    [[5 * k + m - k if 0 <= m - k <= 4 else 25 for k in range(5)] for m in range(9)]
)


def _real_form(m: np.ndarray) -> np.ndarray:
    """The real 2n x 2n matrix acting on (Re psi, Im psi) as m acts on psi."""
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


def _matvec(cols: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-lane products sum_j cols[j] * x[j], summed in column order.

    ``x`` holds one state per lane (last axis); ``cols[j]`` is column j of
    the matrix, per lane or shared through a last axis of length 1.
    """
    y = cols[0] * x[0]
    for j in range(1, len(x)):
        y += cols[j] * x[j]
    return y


def _horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The polynomial sum_m c[m] x^m of every lane (``x`` one entry per lane)."""
    p = c[-1] * x
    for cm in c[-2:0:-1]:
        p += cm
        p *= x
    p += c[0]
    return p


def check_decay(q_new, q_old):
    """Raise unless every squared norm stayed at or below its last value."""
    ok = np.asarray(q_new <= q_old * (1.0 + _NORM_GROWTH_TOL))
    if not ok.all():
        q_new, q_old = np.broadcast_arrays(q_new, q_old)
        k = np.flatnonzero(~ok.ravel())[0]
        if not np.isfinite(q_new.flat[k]):
            raise DivergenceError("trajectory state left the finite range")
        raise NonDissipativeError(
            f"norm grew from {q_old.flat[k]:.6e} to {q_new.flat[k]:.6e} between jumps"
        )


class JumpEngine:
    """Propagators and jump tables for one (model, dt) pair, in real form."""

    def __init__(self, model: QswModel, dt: float, t_max: float):
        n = model.n
        self.n = n
        self.dt = dt
        a = -1j * effective_hamiltonian(model)
        # block propagators for 1, 2, 4, ... RK4 steps
        p = rk4_step_matrix(a, dt)
        powers = [p]
        while (1 << len(powers)) * dt <= min(0.5, t_max) and len(powers) < 15:
            p = p @ p
            powers.append(p)
        self.steps = dt * 2.0 ** np.arange(len(powers))  # block lengths
        # ladder[m, j] is column j of block propagator m
        self.ladder = np.stack([_real_form(p).T[:, :, None] for p in powers])
        # rows k of the stack are A^k/k!; applied to psi they give the
        # coefficients of the in-step Taylor polynomial
        t = np.eye(n, dtype=complex)
        rows = [t]
        for k in range(1, 5):
            t = rows[-1] @ (a / k)
            rows.append(t)
        self.taylor = np.concatenate([_real_form(t) for t in rows]).T[:, :, None]
        self.rates = model.jump_rate_matrix().reshape(-1, 1)  # row i*n + j: j -> i

    def norm_poly(self, x: np.ndarray):
        """Taylor vectors (5, 2n, lanes) and squared-norm polynomials (9, lanes)."""
        v = _matvec(self.taylor, x).reshape(5, len(x), -1)
        gram = v[:, None, 0] * v[None, :, 0]
        for comp in range(1, len(x)):
            gram += v[:, None, comp] * v[None, :, comp]
        # antidiagonal sums: entry (m, k) picks gram[k, m - k], or the zero row
        padded = np.concatenate([gram.reshape(25, -1), np.zeros((1, gram.shape[2]))])
        c = padded[_ANTIDIAG[:, 0]]
        for k in range(1, 5):
            c += padded[_ANTIDIAG[:, k]]
        return v, c

    def wait(self, x: np.ndarray, r: np.ndarray, horizon: np.ndarray):
        """Evolve every lane until its squared norm crosses its threshold.

        ``x`` (2n, lanes) holds unit states, ``r`` the thresholds and
        ``horizon`` the time each lane has left.  Returns the mask of lanes
        that cross before their horizon and, for those, the elapsed time
        and the unnormalized state at the crossing.  The final partial
        step (shorter than dt) is one RK4 step of the remaining size.
        """
        dt, steps = self.dt, self.steps
        cur = x.copy()
        q_cur = np.ones(len(r))
        t_off = np.zeros(len(r))
        level = np.zeros(len(r), dtype=np.intp)  # block that holds the crossing
        span = np.full(len(r), dt)  # length of the bracketing step
        beyond = np.zeros(len(r), dtype=bool)  # horizon reached first

        def advance(lanes, lvl):
            """Step ``lanes`` by blocks ``lvl`` where the norm stays >= r."""
            trial = np.empty((len(cur), len(lanes)))
            for m in np.flatnonzero(np.bincount(lvl)):  # one product per block size
                at = lvl == m
                trial[:, at] = _matvec(self.ladder[m], cur[:, lanes[at]])
            q_t = _matvec(trial, trial)
            check_decay(q_t, q_cur[lanes])
            up = q_t >= r[lanes]
            moved = lanes[up]
            cur[:, moved] = trial[:, up]
            q_cur[moved] = q_t[up]
            t_off[moved] += steps[lvl[up]]
            return up

        lanes = np.arange(len(r))
        while lanes.size:  # climb in the largest blocks that fit
            rem = horizon[lanes] - t_off[lanes]
            if (rem < dt).any():
                beyond[lanes[rem <= 0]] = True
                short = (rem > 0) & (rem < dt)
                span[lanes[short]] = rem[short]
                lanes, rem = lanes[rem >= dt], rem[rem >= dt]
                if not lanes.size:
                    break
            lvl = np.searchsorted(steps, rem, side="right") - 1
            up = advance(lanes, lvl)
            level[lanes[~up]] = lvl[~up]
            lanes = lanes[up]
        lanes = np.flatnonzero(level)
        while lanes.size:  # crossing inside a block: descend to one dt step
            level[lanes] -= 1
            advance(lanes, level[lanes])
            lanes = lanes[level[lanes] > 0]

        lanes = np.flatnonzero(~beyond)
        v, c = self.norm_poly(cur[:, lanes])
        r, span = r[lanes], span[lanes]
        short = span < dt
        if short.any():  # partial step: no crossing if the horizon comes first
            q_end = _horner(c[:, short], span[short])
            check_decay(q_end, q_cur[lanes[short]])
            go = np.ones(len(lanes), dtype=bool)
            go[short] = q_end < r[short]
            lanes, v, c, r, span = lanes[go], v[:, :, go], c[:, go], r[go], span[go]
        lo, hi = np.zeros(len(lanes)), span
        while True:
            open_ = hi - lo > _BISECT_TOL
            if not open_.any():
                break
            mid = 0.5 * (lo + hi)
            above = _horner(c, mid) >= r
            lo = np.where(open_ & above, mid, lo)
            hi = np.where(open_ & ~above, mid, hi)
        tau = 0.5 * (lo + hi)
        hit = np.zeros(len(t_off), dtype=bool)
        hit[lanes] = True
        return hit, t_off[lanes] + tau, _horner(v, tau)

    def jump(self, psi: np.ndarray, u: np.ndarray):
        """Pick each lane's jump with uniforms ``u`` and project onto it.

        Returns destinations, sources and the new unit states.
        """
        n = self.n
        q = psi[:n] * psi[:n] + psi[n:] * psi[n:]
        w = self.rates * np.tile(q, (n, 1))  # w[i*n + j]: rate of jump j -> i now
        csum = np.add.accumulate(w, axis=0)
        idx = np.minimum((csum <= u * csum[-1]).sum(axis=0), n * n - 1)
        lanes = np.arange(len(u))
        empty = w[idx, lanes] == 0.0  # threshold landed on an empty bin edge
        idx[empty] = np.argmax(w[:, empty], axis=0)
        dst, src = np.divmod(idx, n)
        re, im = psi[src, lanes], psi[n + src, lanes]
        mag = np.hypot(re, im)
        new = np.zeros_like(psi)
        new[dst, lanes] = re / mag  # projection keeps the phase
        new[n + dst, lanes] = im / mag
        return dst, src, new


def uniforms(gen: np.random.Generator, seed: int, chunk: int) -> np.ndarray:
    """Uniforms chunk*_DRAWS ... (chunk+1)*_DRAWS - 1 of the Philox stream
    keyed by ``seed``, drawn with ``gen`` after moving it there.

    Philox makes four 64-bit words, one uniform each, per counter step, so
    the chunk starts where the counter has taken chunk*_DRAWS/4 steps.
    One generator serves every lane, so memory does not grow with lanes.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([chunk * _DRAWS // 4, 0, 0, 0], dtype=np.uint64),
            "key": np.array([seed, 0], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen.random(_DRAWS)


def run_lanes(engine: JumpEngine, psi0: np.ndarray, t_max: float, seeds, record=False):
    """Run one trajectory per seed from ``psi0`` up to ``t_max``.

    Lanes advance in lock-step rounds of one waiting period; a lane
    leaves when its horizon comes before its next jump.  Returns the
    counts (lanes, n) and, with ``record``, every lane's list of
    (time, destination, source) events (otherwise None).
    """
    n_lanes = len(seeds)
    x = np.tile(np.concatenate([psi0.real, psi0.imag])[:, None], (1, n_lanes))
    t_abs = np.zeros(n_lanes)
    counts = np.zeros((n_lanes, engine.n), dtype=np.int64)
    events = [[] for _ in seeds] if record else None
    gen = np.random.Generator(np.random.Philox(key=0))
    draws = np.empty((n_lanes, _DRAWS))
    used = 0
    lanes = np.arange(n_lanes)
    while lanes.size:
        # a live lane has drawn r, u once per earlier round, so every live
        # lane sits at the same place in its own stream
        col = used % _DRAWS
        if col == 0:
            for k in lanes:
                draws[k] = uniforms(gen, seeds[k], used // _DRAWS)
        r, u = draws[lanes, col], draws[lanes, col + 1]
        used += 2
        hit, t_wait, psi = engine.wait(x[:, lanes], r, t_max - t_abs[lanes])
        lanes = lanes[hit]
        dst, src, x[:, lanes] = engine.jump(psi, u[hit])
        t_abs[lanes] += t_wait
        counts[lanes, dst] += 1
        if record:
            for k, t, i, j in zip(lanes, t_abs[lanes], dst, src):
                events[k].append((float(t), int(i), int(j)))
    return counts, events
