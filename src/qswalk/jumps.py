"""Batched quantum-jump engine: trajectories as lanes of one array.

Between jumps a pure state evolves under the non-Hermitian effective
Hamiltonian H_eff = H - (i/2) sum_k L_k^dag L_k.  A QSW model's squared
jump amplitudes sum to 1 per source node, so sum_k L_k^dag L_k = I and
psi(tau) = exp(-tau/2) exp(-iH tau) psi: the squared norm is exactly
exp(-tau).  The waiting time for a uniform threshold r (norm-decay
waiting-time method) is therefore exactly tau = -ln r, with no time
step.  A second uniform u picks the jump src -> dst with probability
proportional to G[dst, src] |psi_src(tau)|^2: src first, with weight
|psi_src(tau)|^2 times column src's sum of rates, then dst from that
column's cumulative rates.  The state becomes |dst> (its phase is global
and never observed).

With H = V diag(lam) V^T (the model's cached ``eigenbasis``: one
``eigh`` per model and process) a lane holds the coefficients
c = V^T psi, and psi(tau) = V exp(-i lam tau) c; after a jump to dst,
c is row dst of V.

A block of trajectories ("lanes") advances in lock-step rounds of one
jump each, and every per-lane step is an array operation across the
lanes.  States and source weights are (n, lanes) arrays, so that a
prefix sum over the sources is a sequence of row additions across the
lanes.  Each chunk of 32 rounds of draws gives the chunk's jump times up
front: lanes that have left (their next jump would come at or after the
horizon) are dropped, and the rest are put in order of falling jump
count, so that each round steps a prefix of the columns.  A lane's
result does not depend on the block size or on its position in the
block:

* States are held as real vectors (Re, Im).  A round's state step is one
  ``einsum`` with no BLAS, whose sum over eigenvectors runs in index
  order for each lane (:func:`node_amplitudes`); all else is elementwise.
* Each lane reads its own Philox4x64-10 stream keyed by its seed, in the
  order r, then u for each jump; :func:`uniforms` computes the stream of
  every lane at once, in integer arithmetic, bitwise equal to
  ``numpy.random.Philox(key=seed)``.
* ``log``, ``cos`` and ``sin`` are applied elementwise to whole arrays;
  numpy's vector kernels take the same path for every element of a
  contiguous or strided float64 array, whatever its length.  numpy picks
  its kernels per CPU, so another machine may differ in the last bit of a
  weight: a jump changes only if a uniform falls within 1e-15 of a bin edge.
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


def jump_table(rates: np.ndarray, lanes: int) -> tuple:
    """The column sums c of ``rates`` (G[dst, src]) as a column, each
    column's cumulative rates over c (they end at exactly 1.0), its last
    destination with a nonzero rate, and ``lanes`` lane indices."""
    cum = np.add.accumulate(rates, axis=0)
    last = len(rates) - 1 - (rates[::-1] > 0).argmax(axis=0)
    return cum[-1:].T.copy(), cum / cum[-1], last, np.arange(lanes)


def choose_jump(table: tuple, q: np.ndarray, u: np.ndarray):
    """(dst, src) of each lane's jump, from the squared amplitudes ``q``
    (n, lanes) at the jump, uniforms ``u`` and :func:`jump_table`.

    Lane l sums w[j, l] = c[j] q[j, l] in order of j.  With t = u times the
    total, src is the first j whose prefix sum exceeds t (else the last
    with w > 0); with v = (t - the sum before src) / w[src], dst is the
    first whose entry of column src's cumulative rates over c exceeds v
    (else the column's last nonzero rate)."""
    c, cdf, last, lanes = table
    n, m = q.shape
    w = q * c
    csum = np.zeros((n + 1, m))  # csum[j]: the sum of w before source j
    np.add.accumulate(w, axis=0, out=csum[1:])  # row by row, across the lanes
    t = u * csum[-1]
    src = (csum[1:] <= t).sum(axis=0)  # weights are >= 0: sums never fall
    if src.max() == n:  # t at or above the total
        out = np.flatnonzero(src == n)
        src[out] = n - 1 - (w[::-1, out] > 0).argmax(axis=0)
    at = src * m + lanes[:m]
    v = (t - csum.ravel()[at]) / w.ravel()[at]
    # the entries <= v are a prefix, and the first entry past it has a
    # nonzero rate; every entry is <= v only when v >= 1, as they end at 1.0
    return np.minimum((np.take(cdf, src, axis=1) <= v).sum(axis=0), last[src]), src


def node_amplitudes(vt: np.ndarray, lone: np.ndarray, x: np.ndarray) -> np.ndarray:
    """V x for each lane of x (2, n, lanes), from vt = V^T and ``lone``, vt with
    contiguous rows.  einsum, with no BLAS, loops innermost along the lanes
    (one lane: the destinations), so each sum over a runs in index order."""
    return np.einsum("ad,cal->cdl", vt if x.shape[2] > 1 else lone, x)


def run_lanes(model: QswModel, psi0: np.ndarray, t_max: float, seeds, record=False):
    """Run one trajectory per seed from ``psi0`` up to ``t_max``.

    Lanes advance in lock-step rounds of one jump; a lane leaves when its
    next jump would come at or after ``t_max``.  Returns the counts
    (lanes, n) and, with ``record``, every lane's list of (time,
    destination, source) events (otherwise None).
    """
    n, n_lanes = model.n, len(seeds)
    lam, v = model.eigenbasis
    vt = v.T  # vt[:, d]: the coefficients of |d>; vt[a]: eigenvector a
    lone = np.ascontiguousarray(vt)  # for rounds of one lane
    c0 = vt @ psi0
    re = np.tile(c0.real[:, None], (1, n_lanes))
    im = c0.imag[:, None]  # the same for every lane; None once every lane has jumped
    ids = np.arange(n_lanes)  # the lane in each column
    keys = np.fromiter(seeds, dtype=np.uint64, count=n_lanes)
    t_abs = np.zeros(n_lanes)
    table = jump_table(model.rates, n_lanes)
    counts = np.zeros(n_lanes * n, dtype=np.int64)  # counts[lane * n + destination]
    events = [[] for _ in seeds] if record else None
    chunk = 0
    while len(ids):
        draws = uniforms(keys, chunk)
        chunk += 1
        tau = -np.log(draws[:, 0::2])
        # jump times, added one round at a time as t_abs += tau would
        times = np.empty((len(ids), _ROUNDS + 1))
        times[:, 0], times[:, 1:] = t_abs, tau
        times = np.add.accumulate(times, axis=1)[:, 1:]
        jumps = (times < t_max).sum(axis=1, dtype=np.uint8)
        # columns by falling jump count, so that round r steps a prefix
        order = np.argsort(_ROUNDS - jumps)  # ties in any order: lanes are independent
        ids, keys, tau, u, times, jumps = (
            a[order] for a in (ids, keys, tau, draws[:, 1::2], times, jumps))
        re = re[:, order]
        dst, src = np.zeros((2, _ROUNDS, len(ids)), dtype=np.intp)
        live = (jumps > np.arange(_ROUNDS)[:, None]).sum(axis=1)  # lanes in each round
        for r, m in enumerate(live[live > 0].tolist()):
            phase = lam[:, None] * tau[:m, r]
            cs = np.empty((2, n, m))
            np.cos(phase, out=cs[0])
            np.sin(phase, out=cs[1])
            # V exp(-i lam tau) c, but for the sign of Im, which the weights square
            x = cs * re[:, :m]
            if im is not None:
                x[0] += cs[1] * im
                x[1] -= cs[0] * im
                im = None
            y = node_amplitudes(vt, lone, x)
            y *= y
            dst[r, :m], src[r, :m] = choose_jump(table, y[0] + y[1], u[:m, r])
            re = vt[:, dst[r, :m]]
        counts += np.bincount((ids * n + dst)[np.arange(_ROUNDS)[:, None] < jumps],
                              minlength=len(counts))
        if record:
            for k, (lane, j) in enumerate(zip(ids.tolist(), jumps.tolist())):
                events[lane] += zip(times[k, :j].tolist(), dst[:j, k].tolist(), src[:j, k].tolist())
        keep = live[-1]  # lanes that jumped in every round: all at one place in their streams
        ids, keys, t_abs, re = ids[:keep], keys[:keep], times[:keep, -1].copy(), re[:, :keep]
        del draws, tau, u, times, dst, src  # free the chunk before the next draws
    return counts.reshape(n_lanes, n), events
