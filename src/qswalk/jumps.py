"""Batched quantum-jump engine: trajectories as lanes of one array.

Between jumps a pure state evolves under the non-Hermitian effective
Hamiltonian H_eff = H - (i/2) sum_k L_k^dag L_k.  A QSW model's squared
jump amplitudes sum to 1 per source node, so sum_k L_k^dag L_k = I and
psi(tau) = exp(-tau/2) exp(-iH tau) psi: the squared norm is exactly
exp(-tau).  The waiting time for a uniform threshold r (norm-decay
waiting-time method) is therefore exactly tau = -ln r, with no time
step.  A second uniform u picks the jump src -> dst with probability
proportional to G[dst, src] |psi_src(tau)|^2, and the state becomes |dst>
(its phase is global and never observed).

With H = V diag(lam) V^T (one ``eigh`` per engine) a lane holds the
coefficients c = V^T psi, and psi(tau) = V exp(-i lam tau) c; after a
jump to dst, c is row dst of V.

A block of trajectories ("lanes") advances in lock-step rounds of one
jump each, and every per-lane step is an array operation across the
lanes.  A lane's result does not depend on the block size or on its
position in the block:

* States are held as real vectors (Re, Im), and every product is a
  sequence of elementwise float64 operations in a fixed order, never a
  BLAS call across lanes.
* Each lane reads its own counter-based Philox stream keyed by its seed,
  in the order r, then u for each jump.  Its logarithms and phases
  lam * tau are evaluated one lane at a time, on arrays of one fixed
  shape, so the elementary functions see the same input whatever the
  block.
"""

from __future__ import annotations

import numpy as np

from .lindblad import QswModel

_DRAWS = 64  # uniforms taken from a lane's stream at a time (multiple of 4)
_ROUNDS = _DRAWS // 2  # jumps per chunk of draws: r, then u


def _matvec(cols: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-lane products sum_j cols[j] * x[j], summed in column order.

    ``x`` holds one vector per lane (last axis); ``cols[j]`` is column j
    of the matrix, shared through a last axis of length 1.
    """
    y = cols[0] * x[0]
    for j in range(1, len(x)):
        y += cols[j] * x[j]
    return y


class JumpEngine:
    """Eigenbasis of H and the rate matrix of one model."""

    def __init__(self, model: QswModel):
        self.n = model.n
        self.lam, self.v = np.linalg.eigh(model.hamiltonian)
        self.cols = self.v.T[:, :, None]  # cols[a]: eigenvector a, for every lane
        self.rates = model.rates.reshape(-1, 1)  # row i*n + j: j -> i

    def draws(self, gen: np.random.Generator, seed: int, chunk: int):
        """One lane's next ``_ROUNDS`` waiting times, jump uniforms and
        phases cos(lam tau), sin(lam tau) (rounds x n), from chunk
        ``chunk`` of the stream keyed by ``seed``."""
        r, u = uniforms(gen, seed, chunk).reshape(_ROUNDS, 2).T
        tau = -np.log(r)
        phase = np.multiply.outer(tau, self.lam)
        return tau, u, np.cos(phase), np.sin(phase)

    def jump(self, q: np.ndarray, u: np.ndarray):
        """Pick each lane's jump from source weights ``q`` (n, lanes), the
        squared amplitudes at the jump, with uniforms ``u``.

        Returns destinations and sources.
        """
        n = self.n
        w = self.rates * np.tile(q, (n, 1))  # w[i*n + j]: rate of jump j -> i now
        csum = np.add.accumulate(w, axis=0)
        idx = np.minimum((csum <= u * csum[-1]).sum(axis=0), n * n - 1)
        lanes = np.arange(len(u))
        empty = w[idx, lanes] == 0.0  # threshold landed on an empty bin edge
        idx[empty] = np.argmax(w[:, empty], axis=0)
        return np.divmod(idx, n)


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

    Lanes advance in lock-step rounds of one jump; a lane leaves when its
    next jump would come at or after ``t_max``.  Returns the counts
    (lanes, n) and, with ``record``, every lane's list of (time,
    destination, source) events (otherwise None).
    """
    n, n_lanes = engine.n, len(seeds)
    c0 = engine.v.T @ psi0
    x = np.tile(np.concatenate([c0.real, c0.imag])[:, None], (1, n_lanes))
    t_abs = np.zeros(n_lanes)
    counts = np.zeros((n_lanes, n), dtype=np.int64)
    events = [[] for _ in seeds] if record else None
    gen = np.random.Generator(np.random.Philox(key=0))
    tau, u = np.empty((n_lanes, _ROUNDS)), np.empty((n_lanes, _ROUNDS))
    cos, sin = np.empty((n_lanes, _ROUNDS, n)), np.empty((n_lanes, _ROUNDS, n))
    lanes = np.arange(n_lanes)
    rnd = 0
    while lanes.size:
        # every live lane has jumped once per earlier round, so every live
        # lane sits at the same place in its own stream
        col = rnd % _ROUNDS
        if col == 0:
            for k in lanes:
                tau[k], u[k], cos[k], sin[k] = engine.draws(gen, seeds[k], rnd // _ROUNDS)
        rnd += 1
        t_next = t_abs[lanes] + tau[lanes, col]
        keep = t_next < t_max
        lanes = lanes[keep]
        c, s = cos[lanes, col].T, sin[lanes, col].T
        re, im = x[:n, lanes], x[n:, lanes]
        psi_re = _matvec(engine.cols, c * re + s * im)  # V exp(-i lam tau) c
        psi_im = _matvec(engine.cols, c * im - s * re)
        dst, src = engine.jump(psi_re * psi_re + psi_im * psi_im, u[lanes, col])
        x[:n, lanes] = engine.v[dst].T
        x[n:, lanes] = 0.0
        t_abs[lanes] = t_next[keep]
        counts[lanes, dst] += 1
        if record:
            for k, t, i, j in zip(lanes, t_abs[lanes], dst, src):
                events[k].append((float(t), int(i), int(j)))
    return counts, events
