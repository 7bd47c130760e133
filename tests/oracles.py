"""Independent reference implementations used to cross-check the package.

Everything in here is deliberately written the slow, obvious way (explicit
outer products, dense kron sums, scipy.linalg.expm) so that agreement with
the production code is evidence rather than tautology.
"""

import math

import numpy as np
import scipy.linalg

import qswalk as q


def generic_liouvillian(model):
    """Assemble the generator term by term from the Lindblad form.

    Uses vec(A @ rho @ B) = kron(B.T, A) @ vec(rho) with one explicit
    kron per jump operator.  No shortcuts: this is the textbook sum.
    """
    n = model.n
    eye = np.eye(n)
    h = model.hamiltonian.astype(complex)
    out = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for i, j, amp in model.jumps:
        op = np.zeros((n, n), dtype=complex)
        op[i, j] = amp
        ld = op.conj().T @ op
        out += np.kron(op.conj(), op)
        out -= 0.5 * (np.kron(eye, ld) + np.kron(ld.T, eye))
    return out


def generic_recycling(model):
    """The jump part sum_k conj(L_k) (x) L_k, one explicit kron per jump."""
    n = model.n
    out = np.zeros((n * n, n * n), dtype=complex)
    for i, j, amp in model.jumps:
        op = np.zeros((n, n), dtype=complex)
        op[i, j] = amp
        out += np.kron(op.conj(), op)
    return out


def _jump_arrays(model):
    dest, src, amp = zip(*model.jumps)
    return np.array(dest), np.array(src), np.array(amp, dtype=float)


def jump_list_tilt_recycling(w, model, factors):
    """The per-jump scatter: jump k of ``model.jumps`` (j -> i) gains
    (factors[k] - 1) * amp_k**2 at (i*(n+1), j*(n+1)), added with
    ``np.add.at`` and only where the factor is not exactly 1."""
    dest, src, amp = _jump_arrays(model)
    keep = factors != 1.0
    pop = np.arange(model.n) * (model.n + 1)
    gain = (factors[keep] - 1.0) * amp[keep] * amp[keep]
    np.add.at(w, (pop[dest[keep]], pop[src[keep]]), gain)
    return w


def jump_list_liouvillian(model):
    """The generator assembled from the jump list: rates scattered with
    ``np.add.at``, their column sums taken with ``np.bincount`` in jump
    order.  The array-native :func:`qswalk.liouvillian` must equal it
    entry for entry, not just to rounding."""
    n = model.n
    eye = np.eye(n)
    h = model.hamiltonian
    lmat = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    dest, src, amp = _jump_arrays(model)
    rates = amp * amp
    pop = np.arange(n) * (n + 1)
    np.add.at(lmat, (pop[dest], pop[src]), rates)
    d = np.diag(np.bincount(src, weights=rates, minlength=n))
    lmat -= 0.5 * (np.kron(eye, d) + np.kron(d.T, eye))
    return lmat


def jump_list_tilted(model, s):
    """Node-tilted generator from the jump list: jump k's factor is
    exp(-s) of its destination."""
    factors = np.exp(-np.asarray(s, dtype=float))[_jump_arrays(model)[0]]
    return jump_list_tilt_recycling(jump_list_liouvillian(model), model, factors)


def jump_list_tilted_per_jump(model, s_matrix):
    """Edge-tilted generator from the jump list."""
    dest, src, _amp = _jump_arrays(model)
    factors = np.exp(-np.asarray(s_matrix, dtype=float)[dest, src])
    return jump_list_tilt_recycling(jump_list_liouvillian(model), model, factors)


def loop_google_matrix(g, damping=0.85):
    """Google matrix built edge by edge and column by column."""
    n = g.n
    a = np.zeros((n, n))
    for (src, dst) in g.edges:
        a[src, dst] = 1.0
    out_deg = a.sum(axis=1)
    s = np.empty((n, n))
    for j in range(n):
        if out_deg[j] > 0:
            s[:, j] = a[j, :] / out_deg[j]
        else:
            s[:, j] = 1.0 / n
    return damping * s + (1.0 - damping) / n


def limit_generator(model, mode):
    """Dense generator of an extreme-tilt limit, the oracle for the
    closed-form limit rows of ``scan --limit-mode``.

    ``"inactive"``: the generator with every recycling term removed
    (s -> +infinity); its leading eigenvalue must be -1.  ``"active"``:
    the bare recycling map, i.e. the tilted generator rescaled by exp(s)
    as s -> -infinity; its leading eigenvalue must be 1, and the
    populations of its leading eigenvector give the jump profile.
    """
    if mode == "inactive":
        return generic_liouvillian(model) - generic_recycling(model)
    if mode == "active":
        return generic_recycling(model)
    raise ValueError(f"mode must be 'inactive' or 'active', got {mode!r}")


def dense_active_limit_profile(model):
    """Normalized active-limit jump rates from the dense recycling map:
    the rate matrix applied to the populations of its leading eigenvector."""
    n = model.n
    vals, vecs = scipy.linalg.eig(limit_generator(model, "active"))
    v = vecs[:, int(np.argmax(vals.real))]
    pops = np.abs(np.diag(v.reshape((n, n), order="F")))
    rate = model.rates @ pops
    return rate / rate.sum()


def effective_hamiltonian(model):
    """Non-Hermitian H_eff = H - (i/2) sum_k L_k^dag L_k, summed jump by
    jump; it drives the deterministic stretches of jump trajectories."""
    h = model.hamiltonian.astype(complex)
    for _i, j, amp in model.jumps:
        h[j, j] -= 0.5j * amp * amp
    return h


def generic_tilted(model, s):
    """Tilted generator assembled jump by jump with explicit exponentials."""
    n = model.n
    s = np.asarray(s, dtype=float)
    out = generic_liouvillian(model)
    for i, j, amp in model.jumps:
        op = np.zeros((n, n), dtype=complex)
        op[i, j] = amp
        out += (np.exp(-s[i]) - 1.0) * np.kron(op.conj(), op)
    return out


def hermitian_basis_unitary(n):
    """Dense unitary U whose row b is vec(E_b)^dag for the orthonormal
    Hermitian basis E_b, so that U @ vec(rho) lists <E_b, rho>.

    Row i*(n+1) holds E = |i><i|; for k < l, row k + n*l holds
    (|k><l| + |l><k|)/sqrt(2) and row l + n*k holds
    (-i|k><l| + i|l><k|)/sqrt(2).
    """
    u = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        u[i * (n + 1)] = q.vec(e).conj()
    for k in range(n):
        for l in range(k + 1, n):
            sym = np.zeros((n, n), dtype=complex)
            sym[k, l] = sym[l, k] = 1.0 / math.sqrt(2.0)
            anti = np.zeros((n, n), dtype=complex)
            anti[k, l] = -1j / math.sqrt(2.0)
            anti[l, k] = 1j / math.sqrt(2.0)
            u[k + n * l] = q.vec(sym).conj()
            u[l + n * k] = q.vec(anti).conj()
    return u


def from_hermitian_basis(x):
    """``vec(rho)`` of the matrix whose Hermitian-basis coordinates are
    ``x`` (``U^dag x`` for the ``U`` of :func:`hermitian_basis_unitary`,
    applied pairwise); real ``x`` gives a Hermitian ``rho``."""
    v = np.array(x, dtype=complex)
    n = math.isqrt(v.size)
    k, l = np.triu_indices(n, 1)
    upper, lower = k + n * l, l + n * k
    r = math.sqrt(0.5)
    a, b = v[upper], v[lower]
    v[upper], v[lower] = (a - 1j * b) * r, (a + 1j * b) * r
    return v


def dense_steady_state(model):
    """Stationary density matrix as the kernel of the dense n^2 x n^2
    generator: the null vector of the real Hermitian-basis Liouvillian,
    trace-normalized by its population coordinates i*(n+1) and mapped
    back to a complex matrix."""
    x = q.null_vector(model.hermitian_generator).real
    x = x / x[:: model.n + 1].sum()
    return q.unvec(from_hermitian_basis(x))


def classical_tilted_matrix(g, s, damping=0.85):
    """n x n tilted rate matrix diag(exp(-s)) @ G - I for the classical chain.

    For coherent_weight = 0 the population sector of the quantum generator
    decouples and must reproduce the spectrum of this matrix exactly.
    """
    rates = q.google_matrix(g, damping=damping)
    return np.diag(np.exp(-np.asarray(s, dtype=float))) @ rates - np.eye(g.n)


def expm_propagate(matrix, v0, t):
    """Exact dense propagator via scipy, the reference for integrate_linear."""
    return scipy.linalg.expm(np.asarray(matrix, dtype=complex) * t) @ np.asarray(
        v0, dtype=complex
    )


def leading_eigenvalue_scipy(matrix):
    """Largest-real-part eigenvalue via scipy's eig, independent of linalg.py."""
    vals = scipy.linalg.eigvals(np.asarray(matrix, dtype=complex))
    return vals[int(np.argmax(vals.real))]


def pagerank_dense(g, damping=0.85):
    """Pagerank as the explicitly normalized Perron vector of the dense matrix."""
    m = q.google_matrix(g, damping=damping)
    vals, vecs = scipy.linalg.eig(m)
    v = vecs[:, int(np.argmax(vals.real))]
    v = np.real_if_close(v / v.sum())
    return np.real(v)


def reconstruct_state(model, record, t, dt=0.01):
    """Rebuild the normalized trajectory state at time t from its jump record.

    Deterministic stretches are integrated with integrate_linear on
    -i H_eff, a different code path from the engine's eigenbasis of H,
    so agreement of ensemble averages with evolve() checks both the
    sampler and the propagator at once.
    """
    a = -1j * effective_hamiltonian(model)
    psi = np.full(model.n, 1.0 / np.sqrt(model.n), dtype=complex)
    t_prev = 0.0
    for time, dst, src in record.jump_events:
        if time > t:
            break
        if time > t_prev:
            psi = q.integrate_linear(a, psi, time - t_prev, dt)
        phase = psi[src] / abs(psi[src]) if abs(psi[src]) > 0 else 1.0
        psi = np.zeros(model.n, dtype=complex)
        psi[dst] = phase
        t_prev = time
    if t > t_prev:
        psi = q.integrate_linear(a, psi, t - t_prev, dt)
    return psi / np.linalg.norm(psi)


def richardson_activity_dispersion(model, h=1e-3):
    """Activity and index of dispersion at s = 0 from central differences
    of the dense free energy at steps h and 2h, Richardson-extrapolated."""
    n = model.n
    theta0 = q.free_energy(model, np.zeros(n))

    def stencil(step):
        first, second = np.empty(n), np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            tp, tm = q.free_energy(model, e), q.free_energy(model, -e)
            first[i] = -(tp - tm) / (2.0 * step)
            second[i] = (tp - 2.0 * theta0 + tm) / step**2
        return first, second

    (a1, d1), (a2, d2) = stencil(h), stencil(2.0 * h)
    alpha = (4.0 * a1 - a2) / 3.0
    return alpha, (4.0 * d1 - d2) / 3.0 / alpha


def random_digraph(rng, n_max=8, ensure_edge=True):
    """Random directed graph for property tests, self-loops allowed."""
    n = int(rng.integers(1, n_max + 1))
    density = rng.uniform(0.15, 0.7)
    mask = rng.random((n, n)) < density
    edges = {(int(u), int(v)) for u in range(n) for v in range(n) if mask[u, v]}
    if ensure_edge and not edges and n > 1:
        edges.add((0, int(rng.integers(0, n))))
    return q.DirectedGraph(n=n, edges=frozenset(edges))


def _choose_jump(rates, psi_at, u):
    """(dst, src) of the jump picked by ``u`` at state ``psi_at``, with the
    engine's source-first rule: the source by searchsorted on the
    cumulative weights |psi_j|^2 c_j (c the column sums of ``rates``), the
    destination by searchsorted of the remainder, as a fraction of the
    source's weight, on the source's normalized cumulative rates; the
    last source or destination with weight when the search runs off the
    end."""
    n = len(psi_at)
    cum = np.cumsum(rates, axis=0)
    w = np.abs(psi_at) ** 2 * cum[-1]
    csum = np.cumsum(w)
    t = u * csum[-1]
    src = int(np.searchsorted(csum, t, side="right"))
    if src == n:
        src = int(np.flatnonzero(w > 0)[-1])
    v = (t - (csum[src - 1] if src > 0 else 0.0)) / w[src]
    dst = int(np.searchsorted(cum[:, src] / cum[-1, src], v, side="right"))
    if dst == n:
        dst = int(np.flatnonzero(rates[:, src] > 0)[-1])
    return dst, src


def choose_jump_dst_major(rates, psi_at, u):
    """(dst, src) by the engine's former destination-major rule, the
    reference for the law of the source-first rule: searchsorted on the
    cumulative weights G[dst, src] |psi_src|^2 in row-major order, and the
    largest weight when the threshold lands on an empty bin."""
    n = len(psi_at)
    w = (rates * np.abs(psi_at) ** 2).ravel()
    csum = np.cumsum(w)
    idx = min(int(np.searchsorted(csum, u * csum[-1], side="right")), n * n - 1)
    if w[idx] == 0.0:
        idx = int(np.argmax(w))
    return divmod(idx, n)


def exact_trajectory(model, t_max, seed, psi0=None):
    """Counts and events of one jump trajectory with exact waiting times.

    The no-jump norm of a QSW model is exp(-t), so a threshold r fires
    after tau = -ln r; the state at the jump is scipy's expm(-iH tau)
    applied to the state after the last jump, not the engine's
    eigenbasis.  Draws come from the same keyed stream in the same order
    (r, then u) as :mod:`qswalk.jumps`, so the batched engine must
    reproduce the events seed by seed.  ``psi0`` defaults to the uniform
    superposition.
    """
    n = model.n
    rates = model.rates
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    psi = np.full(n, 1.0 / np.sqrt(n), dtype=complex) if psi0 is None else psi0
    counts = np.zeros(n, dtype=np.int64)
    events = []
    t_abs = 0.0
    while True:
        tau = -math.log(rng.random())
        if t_abs + tau >= t_max:
            return counts, events
        psi_at = scipy.linalg.expm(-1j * model.hamiltonian * tau) @ psi
        dst, src = _choose_jump(rates, psi_at, rng.random())
        t_abs += tau
        counts[dst] += 1
        events.append((t_abs, dst, src))
        psi = np.zeros(n, dtype=complex)
        psi[dst] = 1.0


def scalar_trajectory(model, t_max, dt, seed):
    """Counts and events of one jump trajectory, one waiting period at a time.

    A time-stepping sampler: complex states, dense matrix-vector products,
    an RK4 propagator built for the partial step at the horizon, a
    Gram-matrix norm polynomial and a bisection on Python floats.  It
    finds the waiting time by integrating the norm, so its event times
    carry the RK4 error of ``dt``; it draws from the same keyed stream in
    the same order as :mod:`qswalk.jumps`.
    """
    n = model.n
    a = -1j * effective_hamiltonian(model)
    powers = [q.rk4_step_matrix(a, dt)]
    while (1 << len(powers)) * dt <= min(0.5, t_max) and len(powers) < 15:
        powers.append(powers[-1] @ powers[-1])
    taylor = [np.eye(n, dtype=complex)]
    for k in range(1, 5):
        taylor.append(taylor[-1] @ (a / k))
    taylor = np.concatenate(taylor)
    rates = model.rates

    def norm2(v):
        return float(np.vdot(v, v).real)

    def bisect(cur, r, step, t_off):
        v = (taylor @ cur).reshape(5, n)
        gram = (v.conj() @ v.T).real
        c = [
            float(sum(gram[k, m - k] for k in range(max(0, m - 4), min(4, m) + 1)))
            for m in range(9)
        ]
        lo, hi = 0.0, step
        while hi - lo > 1e-10:
            x = 0.5 * (lo + hi)
            p = c[8]
            for cm in c[7::-1]:
                p = p * x + cm
            if p >= r:
                lo = x
            else:
                hi = x
        tau = 0.5 * (lo + hi)
        return t_off + tau, np.array([1.0, tau, tau * tau, tau ** 3, tau ** 4]) @ v

    def advance(psi, r, horizon):
        cur, t_off = psi, 0.0
        while True:
            rem = horizon - t_off
            if rem <= 0:
                return None
            if rem < dt:
                if norm2(q.rk4_step_matrix(a, rem) @ cur) >= r:
                    return None
                return bisect(cur, r, rem, t_off)
            m = min(len(powers) - 1, int(math.log2(rem / dt)))
            while (1 << m) * dt > rem:
                m -= 1
            trial = powers[m] @ cur
            if norm2(trial) >= r:
                cur, t_off = trial, t_off + (1 << m) * dt
                continue
            while m > 0:
                m -= 1
                half = powers[m] @ cur
                if norm2(half) >= r:
                    cur, t_off = half, t_off + (1 << m) * dt
            return bisect(cur, r, dt, t_off)

    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    psi = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    counts = np.zeros(n, dtype=np.int64)
    events = []
    t_abs = 0.0
    while True:
        hit = advance(psi, rng.random(), t_max - t_abs)
        if hit is None:
            return counts, events
        t_wait, psi_at = hit
        dst, src = _choose_jump(rates, psi_at, rng.random())
        t_abs += t_wait
        counts[dst] += 1
        events.append((t_abs, dst, src))
        psi = np.zeros(n, dtype=complex)
        psi[dst] = psi_at[src] / abs(psi_at[src])


def dense_mean_counts(model, psi0, t):
    """E[K(t)] from psi0 as a dense integral: the jump rates G diag(rho(u))
    integrated over [0, t] by scipy's expm of the Lindblad generator
    augmented with that integral, [[L, 0], [P, 0]], where P vec(rho) =
    G diag(rho)."""
    n = model.n
    dim = n * n
    aug = np.zeros((dim + n, dim + n), dtype=complex)
    aug[:dim, :dim] = generic_liouvillian(model)
    aug[dim:, np.arange(n) * (n + 1)] = model.rates
    x0 = np.zeros(dim + n, dtype=complex)
    x0[:dim] = q.vec(np.outer(psi0, np.conj(psi0)))
    return (scipy.linalg.expm(aug * t) @ x0)[dim:].real
