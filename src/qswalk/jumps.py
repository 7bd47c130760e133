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
lanes.  Lanes keep fixed columns of lane-major arrays; a lane whose next
jump would come at or after the horizon is masked off and its later
rounds are discarded.  A lane's result does not depend on the block size
or on its position in the block:

* States are held as real vectors (Re, Im), and every product is a
  sequence of elementwise float64 operations in a fixed order, never a
  BLAS call across lanes.
* Each lane reads its own Philox4x64-10 stream keyed by its seed, in the
  order r, then u for each jump; :func:`uniforms` computes the stream of
  every lane at once, in integer arithmetic, bitwise equal to
  ``numpy.random.Philox(key=seed)``.
* ``log``, ``cos`` and ``sin`` are applied elementwise to whole arrays;
  numpy's vector kernels take the same path for every element of a
  contiguous or strided float64 array, whatever its length.
"""

from __future__ import annotations

import numpy as np

from .lindblad import QswModel

_ROUNDS = 32  # jumps per chunk of draws
_DRAWS = 2 * _ROUNDS  # uniforms per lane and chunk: r, then u, per jump

# Philox4x64-10 (Salmon, Moraes, Dror & Shaw, SC'11): the two multipliers,
# each with its 32-bit halves, and the Weyl increments of the key
_M0, _M1 = ((np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32))
            for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_LO32 = np.uint64(0xFFFFFFFF)
_32, _11 = np.uint64(32), np.uint64(11)


def _mulhilo(a: np.ndarray, mult: tuple):
    """High and low 64-bit words of the 128-bit products a * m for the
    multiplier ``mult`` = (m, low 32 bits, high 32 bits), from 32-bit
    halves (Warren, Hacker's Delight, mulhu)."""
    m, m_lo, m_hi = mult
    a_lo, a_hi = a & _LO32, a >> _32
    t = a_hi * m_lo + (a_lo * m_lo >> _32)
    v = a_lo * m_hi + (t & _LO32)
    return a_hi * m_hi + (t >> _32) + (v >> _32), a * m


def uniforms(keys: np.ndarray, chunk: int) -> np.ndarray:
    """Uniforms chunk*_DRAWS ... (chunk+1)*_DRAWS - 1 of the Philox
    stream keyed by each of ``keys`` (uint64): an array (lanes, _DRAWS).

    As ``numpy.random.Philox(key=k).random_raw`` does, block b of the
    stream is the 10-round Philox4x64 bijection of the counter (b+1, 0, 0,
    0) under the key (k, 0), and its four words are used in order; a word
    w gives the uniform (w >> 11) * 2**-53, as ``Generator.random`` does.
    """
    blocks = _DRAWS // 4
    k0 = keys[:, None]
    c0 = np.arange(chunk * blocks + 1, (chunk + 1) * blocks + 1, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(10):
        hi0, lo0 = _mulhilo(c0, _M0)
        hi1, lo1 = _mulhilo(c2, _M1)
        bump0, bump1 = np.uint64(r * _W0 % 2**64), np.uint64(r * _W1 % 2**64)
        c0, c1, c2, c3 = hi1 ^ c1 ^ (k0 + bump0), lo1, hi0 ^ c3 ^ bump1, lo0
    words = np.stack((c0, c1, c2, c3), axis=-1)  # every word depends on the key by now
    return (words.reshape(len(keys), _DRAWS) >> _11) * 2.0**-53


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
        self.rates = model.rates[:, :, None]  # rates[i, j]: j -> i, for every lane

    def jump(self, q: np.ndarray, u: np.ndarray):
        """Pick each lane's jump from source weights ``q`` (n, lanes), the
        squared amplitudes at the jump, with uniforms ``u``.

        Returns destinations and sources.
        """
        n = self.n
        w = (self.rates * q).reshape(n * n, -1)  # w[i*n + j]: rate of jump j -> i now
        csum = np.add.accumulate(w, axis=0)
        idx = np.minimum((csum <= u * csum[-1]).sum(axis=0), n * n - 1)
        empty = w[idx, np.arange(len(u))] == 0.0  # threshold on an empty bin edge
        if empty.any():
            idx[empty] = np.argmax(w[:, empty], axis=0)
        return np.divmod(idx, n)


def run_lanes(engine: JumpEngine, psi0: np.ndarray, t_max: float, seeds, record=False):
    """Run one trajectory per seed from ``psi0`` up to ``t_max``.

    Lanes advance in lock-step rounds of one jump; a lane leaves when its
    next jump would come at or after ``t_max``.  Returns the counts
    (lanes, n) and, with ``record``, every lane's list of (time,
    destination, source) events (otherwise None).
    """
    n, n_lanes = engine.n, len(seeds)
    keys = np.fromiter(seeds, dtype=np.uint64, count=n_lanes)
    c0 = engine.v.T @ psi0
    re = np.tile(c0.real[:, None], (1, n_lanes))
    im = np.tile(c0.imag[:, None], (1, n_lanes))  # None once every lane has jumped
    t_abs = np.zeros(n_lanes)
    live = np.ones(n_lanes, dtype=bool)
    lanes = np.arange(n_lanes)
    counts = np.zeros((n_lanes, n), dtype=np.int64)
    events = [[] for _ in seeds] if record else None
    rnd = 0
    while True:
        # every lane has jumped once per earlier round, so every lane sits
        # at the same place in its own stream
        col = rnd % _ROUNDS
        if col == 0:
            draws = uniforms(keys, rnd // _ROUNDS).T  # (_DRAWS, lanes)
            tau, u = -np.log(draws[0::2]), draws[1::2]
        rnd += 1
        t_abs += tau[col]
        live &= t_abs < t_max
        if not live.any():
            return counts, events
        phase = engine.lam[:, None] * tau[col]
        c, s = np.cos(phase), np.sin(phase)
        # V exp(-i lam tau) c, but for the sign of Im, which the weights square
        x_re, x_im = c * re, s * re
        if im is not None:
            x_re += s * im
            x_im -= c * im
        psi_re, psi_im = _matvec(engine.cols, x_re), _matvec(engine.cols, x_im)
        dst, src = engine.jump(psi_re * psi_re + psi_im * psi_im, u[col])
        re, im = engine.v.T[:, dst], None
        counts[lanes, dst] += live
        if record:
            for k in np.flatnonzero(live):
                events[k].append((float(t_abs[k]), int(dst[k]), int(src[k])))
