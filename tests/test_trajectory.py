"""Quantum-jump unraveling and the integration route to the free energy.

The sampler is validated against closed-form statistics (exact
waiting times -ln r, a unit-rate Poisson process for the total jump
count), against the deterministic master equation (ensemble average of
pure-state projectors vs evolve), against the one-trajectory-at-a-time
samplers in ``oracles`` (an exact one with scipy's expm, event by event,
and a time-stepping RK4 one), and for bitwise reproducibility under its
counter-based generator, whatever block of lanes a trajectory runs in.
"""

import itertools

import numpy as np
import pytest
import scipy.stats
from numpy.testing import assert_allclose

import qswalk as q
from qswalk import jumps, trajectory
from qswalk.jumps import choose_jump, jump_table, run_lanes, uniforms
from qswalk.trajectory import _counts_block
from oracles import (
    _choose_jump,
    choose_jump_dst_major,
    exact_trajectory,
    reconstruct_state,
    scalar_trajectory,
)


# -- simulate: record contract and determinism --------------------------------


def test_simulate_is_deterministic(two_node_model):
    a = q.simulate(two_node_model, t_max=20.0, dt=0.05, seed=42)
    b = q.simulate(two_node_model, t_max=20.0, dt=0.05, seed=42)
    assert a.jump_events == b.jump_events
    assert np.array_equal(a.counts, b.counts)
    assert a.seed == 42 and a.t_final == 20.0


def test_simulate_seeds_give_distinct_streams(two_node_model):
    a = q.simulate(two_node_model, t_max=20.0, dt=0.05, seed=0)
    b = q.simulate(two_node_model, t_max=20.0, dt=0.05, seed=1)
    assert a.jump_events != b.jump_events


def test_simulate_record_contract(six_node_model):
    rec = q.simulate(six_node_model, t_max=30.0, dt=0.05, seed=3)
    times = [e[0] for e in rec.jump_events]
    assert times == sorted(times)
    assert all(0.0 < t <= 30.0 for t in times)
    assert all(0 <= dst < 6 and 0 <= src < 6 for _, dst, src in rec.jump_events)
    expected_counts = np.bincount(
        [dst for _, dst, _ in rec.jump_events], minlength=6
    )
    assert np.array_equal(rec.counts, expected_counts)
    assert rec.counts.sum() == len(rec.jump_events)


def test_simulate_validation(two_node_model):
    with pytest.raises(ValueError):
        q.simulate(two_node_model, t_max=0.0)
    with pytest.raises(ValueError):
        q.simulate(two_node_model, dt=0.0)
    # an infinite horizon would keep every lane running forever
    for t_max in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            q.simulate(two_node_model, t_max=t_max)
        with pytest.raises(ValueError, match="finite"):
            q.ensemble_stats(two_node_model, t_max=t_max, n_traj=2)
    with pytest.raises(ValueError):
        q.ensemble_stats(two_node_model, dt=-1.0, n_traj=2)
    with pytest.raises(ValueError):
        q.simulate(two_node_model, seed=-1)
    with pytest.raises(ValueError):
        q.simulate(two_node_model, seed=1 << 64)
    with pytest.raises(ValueError):
        q.simulate(two_node_model, psi0=np.ones(3, dtype=complex))
    with pytest.raises(ValueError):
        q.simulate(two_node_model, psi0=np.array([1.0, 1.0], dtype=complex))


def test_single_node_waiting_times_are_unit_exponential(single_node_model):
    # survival amplitude decays at rate 1/2, so |psi|^2 crosses a
    # uniform threshold after Exp(1) time: a unit-rate Poisson process
    rec = q.simulate(single_node_model, t_max=400.0, dt=0.05, seed=11)
    times = np.array([e[0] for e in rec.jump_events])
    waits = np.diff(np.concatenate([[0.0], times]))
    n = len(waits)
    assert n > 300
    # mean 1 and variance 1 within 4 standard errors
    assert abs(waits.mean() - 1.0) < 4.0 / np.sqrt(n)
    assert abs(waits.var() - 1.0) < 4.0 * np.sqrt(8.0 / n)


def test_jump_rates_approach_activity(two_node_model):
    # one long trajectory: empirical rates near the tilt-zero activity
    rec = q.simulate(two_node_model, t_max=400.0, dt=0.05, seed=5)
    rates = rec.counts / 400.0
    assert_allclose(rates, [66.0 / 217.0, 151.0 / 217.0], atol=0.12)


def test_unraveling_average_matches_master_equation(two_node_model):
    # mean of |psi><psi| over trajectories vs deterministic evolve,
    # with trajectory states rebuilt through integrate_linear (a
    # different propagation path from the sampler's eigenbasis)
    t_obs, n_traj = 1.5, 1200
    acc = np.zeros((2, 2, n_traj), dtype=complex)
    for k in range(n_traj):
        rec = q.simulate(two_node_model, t_max=t_obs, dt=0.01, seed=1000 + k)
        psi = reconstruct_state(two_node_model, rec, t_obs, dt=0.005)
        acc[:, :, k] = np.outer(psi, psi.conj())
    mean = acc.mean(axis=2)
    se = acc.std(axis=2, ddof=1) / np.sqrt(n_traj)
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    target = q.evolve(two_node_model, rho0, t=t_obs, dt=1e-3)
    assert np.all(np.abs(mean - target) <= 5.0 * np.abs(se) + 1e-4)


def test_waiting_times_are_minus_log_r(six_node_model):
    # the no-jump norm is exactly exp(-t), so the k-th event comes at the
    # sum of -ln r over the first k thresholds r of the seed's stream,
    # which are the uniforms 0, 2, 4, ... (each jump draws r, then u)
    for seed in (0, 9, 2024):
        rec = q.simulate(six_node_model, t_max=50.0, dt=0.05, seed=seed)
        stream = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        r = stream.random(2 * len(rec.jump_events) + 2)[::2]
        times = np.cumsum(-np.log(r))
        assert_allclose([e[0] for e in rec.jump_events], times[:-1], rtol=0, atol=1e-12)
        assert times[-1] >= 50.0 > times[-2]


def test_total_jump_count_is_poisson(six_node_model):
    # waiting times are Exp(1) whatever the jump, so the total count over
    # all nodes is Poisson(t): mean t and variance t
    t, n_traj = 50.0, 2000
    psi = np.full(6, 6 ** -0.5, dtype=complex)
    total = _counts_block((six_node_model, psi, t, range(n_traj))).sum(axis=1)
    assert abs(total.mean() - t) < 4.0 * np.sqrt(t / n_traj)
    # the sample variance of Poisson(t) has variance about (t + 2 t^2) / n
    assert abs(total.var(ddof=1) - t) < 4.0 * np.sqrt((t + 2.0 * t * t) / n_traj)


# -- batched engine: lane independence and the scalar oracle -------------------


def _lanes(model, seeds, t_max):
    psi = np.full(model.n, 1.0 / np.sqrt(model.n), dtype=complex)
    return run_lanes(model, psi, t_max, seeds, record=True)


@pytest.mark.parametrize("seed", [0, 77, (1 << 64) - 1])
def test_uniform_chunks_continue_one_stream(seed):
    # chunk k of a lane is uniforms k*_DRAWS ... of numpy's own Philox
    # stream for its key, whether the lane runs alone or in a block
    draws = jumps._DRAWS
    stream = np.random.Generator(np.random.Philox(key=np.uint64(seed))).random(1001 * draws)
    block = np.array([3, seed, (1 << 63) + 5, seed, 0], dtype=np.uint64)
    for chunk in (0, 1, 7, 1000):
        expected = stream[chunk * draws:(chunk + 1) * draws]
        assert np.array_equal(uniforms(np.array([seed], dtype=np.uint64), chunk)[0], expected)
        lanes = uniforms(block, chunk)
        assert np.array_equal(lanes[1], expected) and np.array_equal(lanes[3], expected)
        for k in range(len(block)):
            assert np.array_equal(lanes[k], uniforms(block[k:k + 1], chunk)[0])


@pytest.mark.parametrize("graph", ["two_node_model", "six_node_model", "random64_model"])
def test_lane_matches_simulate_whatever_the_block(graph, request):
    model = request.getfixturevalue(graph)
    t_max = 15.0 if model.n < 64 else 5.0
    seeds = list(range(300, 364))
    one_block = _lanes(model, seeds, t_max)
    # the same seeds reversed, in blocks of 5: other neighbours and positions
    rev = seeds[::-1]
    split = [_lanes(model, rev[k:k + 5], t_max) for k in range(0, len(rev), 5)]
    split_counts = np.concatenate([c for c, _ in split])[::-1]
    split_events = [e for _, ev in split for e in ev][::-1]
    for k, seed in enumerate(seeds):
        rec = q.simulate(model, t_max=t_max, dt=0.05, seed=seed)
        assert rec.jump_events == tuple(one_block[1][k]) == tuple(split_events[k])
        assert np.array_equal(rec.counts, one_block[0][k])
        assert np.array_equal(rec.counts, split_counts[k])


@pytest.mark.parametrize("n", [2, 6, 64, 256])
def test_state_step_sums_each_lane_in_eigenvector_order(n):
    # node_amplitudes gives each lane the sum over a in index order, as a
    # loop over eigenvectors would, alone or among other lanes
    rng = np.random.default_rng(n)
    h = rng.standard_normal((n, n))
    vt = np.linalg.eigh(h + h.T)[1].T
    lone = np.ascontiguousarray(vt)
    x = rng.standard_normal((2, n, 17))
    loop = vt[0, :, None] * x[:, :1]
    for a in range(1, n):
        loop = loop + vt[a, :, None] * x[:, a:a + 1]
    assert np.array_equal(jumps.node_amplitudes(vt, lone, x), loop)
    for lanes in (1, 2, 3):
        for k in range(0, 17, lanes):
            part = x[:, :, k:k + lanes].copy()
            assert np.array_equal(jumps.node_amplitudes(vt, lone, part), loop[:, :, k:k + lanes])


@pytest.mark.parametrize("graph", ["two_node_model", "six_node_model"])
def test_lanes_leaving_in_different_chunks_match_oracles(graph, request):
    # lanes leave in the second, third or fourth chunk of 32 rounds at
    # t = 70, and in the first or second at t = t33, the time of seed
    # 300's 33rd jump: that lane makes exactly 32 jumps and leaves at the
    # first round of its second chunk
    model = request.getfixturevalue(graph)
    seeds = list(range(300, 364))
    draws = np.concatenate([uniforms(np.array([300], dtype=np.uint64), c)[0] for c in (0, 1, 2)])
    times = list(itertools.accumulate(-np.log(draws[0::2])))  # one jump at a time
    t33 = times[32]
    for t_max in (70.0, t33):
        counts, events = _lanes(model, seeds, t_max)
        rev = seeds[::-1]
        split = [_lanes(model, rev[k:k + 5], t_max) for k in range(0, len(rev), 5)]
        split_counts = np.concatenate([c for c, _ in split])[::-1]
        split_events = [e for _, ev in split for e in ev][::-1]
        leaves = counts.sum(axis=1) // jumps._ROUNDS  # the chunk each lane leaves in
        assert len(set(leaves.tolist())) >= 2
        for k, seed in enumerate(seeds):
            rec = q.simulate(model, t_max=t_max, seed=seed)
            assert rec.jump_events == tuple(events[k]) == tuple(split_events[k])
            assert np.array_equal(rec.counts, counts[k])
            assert np.array_equal(rec.counts, split_counts[k])
            ref_counts, ref_events = exact_trajectory(model, t_max, seed)
            assert np.array_equal(counts[k], ref_counts), seed
            assert [e[1:] for e in events[k]] == [e[1:] for e in ref_events], seed
        assert [e[0] for e in events[0]] == times[:len(events[0])]  # bitwise, across chunks
    assert len(events[0]) == jumps._ROUNDS  # at t_max = t33


def test_ensemble_is_independent_of_block_size(two_node_model, monkeypatch):
    args = (two_node_model, np.full(2, 2 ** -0.5, dtype=complex), 10.0, range(40, 70))
    whole = _counts_block(args)
    monkeypatch.setattr(trajectory, "_BLOCK", 7)
    assert np.array_equal(_counts_block(args), whole)


@pytest.mark.parametrize("graph", ["two_node_model", "six_node_model"])
def test_counts_match_scalar_oracle(graph, request):
    model = request.getfixturevalue(graph)
    seeds = range(1000, 1200)
    counts, events = _lanes(model, seeds, 200.0)
    for row, ev, seed in zip(counts, events, seeds):
        ref_counts, ref_events = exact_trajectory(model, 200.0, seed)
        assert np.array_equal(row, ref_counts), seed
        assert [e[1:] for e in ev] == [e[1:] for e in ref_events], seed
        assert_allclose([e[0] for e in ev], [e[0] for e in ref_events], rtol=0, atol=1e-12)


def test_complex_start_state_matches_exact_oracle(six_node_model):
    # a complex psi0 is the only state with an imaginary part in the
    # eigenbasis; after the first jump every state is a real |dst>
    rng = np.random.default_rng(5)
    psi0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    psi0 /= np.linalg.norm(psi0)
    for seed in range(40):
        rec = q.simulate(six_node_model, psi0=psi0, t_max=3.0, seed=seed)
        _, ref_events = exact_trajectory(six_node_model, 3.0, seed, psi0=psi0)
        assert [e[1:] for e in rec.jump_events] == [e[1:] for e in ref_events], seed


@pytest.mark.parametrize("graph", ["two_node_model", "six_node_model"])
def test_events_match_time_stepping_oracle(graph, request):
    # the RK4 sampler integrates the norm that the engine samples exactly;
    # at dt = 0.005 its event times carry an RK4 error well under 1e-6
    model = request.getfixturevalue(graph)
    seeds = range(1000, 1050)
    _, events = _lanes(model, seeds, 50.0)
    for ev, seed in zip(events, seeds):
        _, ref_events = scalar_trajectory(model, 50.0, 0.005, seed)
        assert [e[1:] for e in ev] == [e[1:] for e in ref_events], seed
        assert_allclose([e[0] for e in ev], [e[0] for e in ref_events], rtol=0, atol=1e-6)


def test_lane_past_the_horizon_records_no_event(two_node_model):
    # a lane leaves at its first round when tau = -ln r reaches t_max
    seeds = range(64)
    first_tau = -np.log(uniforms(np.arange(64, dtype=np.uint64), 0)[:, 0])
    counts, events = _lanes(two_node_model, seeds, 0.3)
    late = first_tau >= 0.3
    assert late.any() and (~late).any()
    for ev, tau, is_late in zip(events, first_tau, late):
        if is_late:
            assert ev == []
        else:
            assert ev[0][0] == pytest.approx(tau, rel=0, abs=1e-15)
    assert np.all(counts[late] == 0)


def test_jump_choice_falls_back_from_an_empty_bin():
    # column sums are exactly 1 and the weights dyadic, so u = 1 puts t on
    # the total: no prefix sum exceeds it, and the remainder v is exactly 1,
    # past every entry of the column's cumulative rates
    rates = np.array([[0.5, 1.0, 0.5], [0.5, 0.0, 0.5], [0.0, 0.0, 0.0]])
    q = np.array([[0.25, 0.5, 0.25], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])  # a lane a row
    u = np.array([1.0, 1.0, 0.5])
    dst, src = choose_jump(jump_table(rates, 3), q.T, u)
    # lane 0: source 2 is the last with weight, and its column's last
    # nonzero rate is into node 1; lane 1: source 2 is empty, so source 1,
    # whose only rate is into node 0; lane 2 takes no fallback
    assert list(zip(dst.tolist(), src.tolist())) == [(1, 2), (0, 1), (1, 0)]
    assert [_choose_jump(rates, np.sqrt(a), x) for a, x in zip(q, u)] == [(1, 2), (0, 1), (1, 0)]


def test_jump_choice_is_independent_of_the_sub_block(six_node_model):
    # lanes grouped in any way pick what the one-lane oracle picks; lanes 3
    # and 17 have u = 1 and no weight on source 5, so no prefix sum exceeds
    # t and they take the last source with weight
    rng = np.random.default_rng(11)
    amp = rng.random((37, 6)) ** 2
    u = rng.random(37)
    amp[[3, 17], 5], u[[3, 17]] = 0.0, 1.0
    rates = six_node_model.rates
    expected = [_choose_jump(rates, a, x) for a, x in zip(amp, u)]
    assert expected[3][1] == expected[17][1] == 4
    table = jump_table(rates, 37)
    for lanes in (1, 4, 36, 37, 100):
        picks = [choose_jump(table, amp[k:k + lanes].T ** 2, u[k:k + lanes])
                 for k in range(0, 37, lanes)]
        dst, src = (np.concatenate(a).tolist() for a in zip(*picks))
        assert list(zip(dst, src)) == expected, lanes


def test_source_first_rule_has_the_law_of_the_destination_major_rule(six_node_model):
    # 8,000 six_node states at a jump, psi(tau) from the uniform
    # superposition after tau ~ Exp(1); (dst, src) counts under the
    # engine's rule and under the former destination-major rule, with
    # independent uniforms, are two samples of one law, and each matches
    # the exact probabilities G[dst, src] |psi_src|^2
    lanes, n = 8000, 6
    rng = np.random.default_rng(2024)
    lam, v = six_node_model.eigenbasis
    c0 = v.T @ np.full(n, n ** -0.5)
    tau = rng.exponential(size=lanes)
    psi = (v @ (np.exp(-1j * np.outer(lam, tau)) * c0[:, None])).T
    rates = six_node_model.rates
    dst, src = choose_jump(jump_table(rates, lanes), np.abs(psi.T) ** 2, rng.random(lanes))
    new = np.bincount(dst * n + src, minlength=n * n)
    old = np.bincount([d * n + s for d, s in (choose_jump_dst_major(rates, p, x)
                                              for p, x in zip(psi, rng.random(lanes)))],
                      minlength=n * n)
    w = rates[None] * (np.abs(psi) ** 2)[:, None, :]  # (lane, dst, src)
    expected = (w / w.sum(axis=(1, 2), keepdims=True)).sum(axis=0).ravel()
    assert expected.min() > 5  # every bin is fed: damping leaves no rate 0
    assert scipy.stats.chi2_contingency(np.array([new, old]))[1] > 1e-3
    for counts in (new, old):
        assert scipy.stats.chisquare(counts, expected).pvalue > 1e-3


# -- ensemble_stats --------------------------------------------------------------


def test_mean_rates_are_centred_on_the_finite_horizon_activity(six_node_model):
    # from the uniform superposition, E[K_i(t)] / t = alpha_i + b_i / t; at
    # t = 200 the offset alone puts the stationary alpha about 5.7 standard
    # errors of a 40,000-trajectory mean off on node 1.  Seeds 0-39,999 are
    # not used: their jump uniforms u average 2.3 standard errors low, which
    # moves this rule and the former destination-major one alike toward
    # low-index nodes (|z| 3.9 and 3.6 on node 3)
    t = 200.0
    alpha = q.activity_from_steady_state(six_node_model)
    _, b = q.stationary_references(six_node_model, alpha)
    stats = q.ensemble_stats(six_node_model, t_max=t, n_traj=40_000, seed0=40_000)
    z = (stats.mean_rate - (alpha + b / t)) / stats.standard_errors
    assert np.abs(z).max() <= 3.0, z
    assert abs(b[1] / t / stats.standard_errors[1]) > 5.0


def test_ensemble_matches_manual_loop(two_node_model):
    stats = q.ensemble_stats(two_node_model, t_max=10.0, dt=0.05, n_traj=6, seed0=50)
    counts = np.array(
        [
            q.simulate(two_node_model, t_max=10.0, dt=0.05, seed=50 + k).counts
            for k in range(6)
        ],
        dtype=float,
    )
    rates = counts / 10.0
    assert_allclose(stats.mean_rate, rates.mean(axis=0), atol=1e-14)
    assert_allclose(stats.var_rate, rates.var(axis=0, ddof=1), atol=1e-14)
    assert_allclose(
        stats.standard_errors, np.sqrt(rates.var(axis=0, ddof=1) / 6.0), atol=1e-14
    )
    disp = counts.var(axis=0, ddof=1) / counts.mean(axis=0)
    assert_allclose(stats.dispersion_hat, disp, atol=1e-12)
    assert stats.n_traj == 6


def test_ensemble_parallel_matches_serial(two_node_model, monkeypatch):
    serial = q.ensemble_stats(two_node_model, t_max=5.0, dt=0.05, n_traj=8, seed0=7)
    monkeypatch.setattr(trajectory, "_POOL_WORK", 1)  # fork two real workers for a small ensemble
    parallel = q.ensemble_stats(
        two_node_model, t_max=5.0, dt=0.05, n_traj=8, seed0=7, n_workers=2
    )
    assert np.array_equal(serial.mean_rate, parallel.mean_rate)
    assert np.array_equal(serial.var_rate, parallel.var_rate)
    assert np.array_equal(serial.dispersion_hat, parallel.dispersion_hat)


@pytest.mark.parametrize("n, workers", [(6, 1), (24, 2), (64, 2), (512, 1), (1024, 2)])
def test_pool_forks_only_for_ensembles_that_pay(n, workers, monkeypatch):
    # (n_traj, t_max) under n_workers=2, from the measured crossover: six
    # nodes at 200 x 200 (the pooled benchmark's size) and 512 nodes at
    # 64 x 20 lose time in a pool and run in this process, although the
    # latter has 3.4e8 of n_traj x t_max x n^2; the others split
    n_traj, t_max = {6: (200, 200.0), 24: (1000, 200.0), 64: (1000, 100.0),
                     512: (64, 20.0), 1024: (128, 20.0)}[n]
    ring = q.DirectedGraph(n=n, edges=frozenset((i, (i + 1) % n) for i in range(n)))
    jobs = []

    def fan_out(fn, chunks, n_workers):  # counts of no jumps: the split is all that is checked
        jobs.append(len(chunks))
        return [np.zeros((len(c[-1]), n), dtype=np.int64) for c in chunks]

    monkeypatch.setattr(trajectory, "_fan_out", fan_out)
    q.ensemble_stats(q.build_qsw(ring), t_max=t_max, n_traj=n_traj, n_workers=2)
    assert jobs == [workers]


def test_pool_has_no_more_workers_than_trajectories(two_node_model, monkeypatch):
    # with one worker's worth of work in every unit of work, 2
    # trajectories under n_workers=4 still make 2 jobs, none of them empty
    serial = q.ensemble_stats(two_node_model, t_max=5.0, n_traj=2, seed0=3)
    jobs = []

    def fan_out(fn, chunks, n_workers):
        jobs.append([len(c[-1]) for c in chunks])
        return [fn(c) for c in chunks]

    monkeypatch.setattr(trajectory, "_POOL_WORK", 1)
    monkeypatch.setattr(trajectory, "_fan_out", fan_out)
    pooled = q.ensemble_stats(two_node_model, t_max=5.0, n_traj=2, seed0=3, n_workers=4)
    assert jobs == [[1, 1]]
    assert np.array_equal(serial.mean_rate, pooled.mean_rate)
    assert np.array_equal(serial.dispersion_hat, pooled.dispersion_hat)


def test_ensemble_rejects_seed_range_past_64_bits(two_node_model):
    last = (1 << 64) - 1
    for workers in (None, 2):
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            q.ensemble_stats(
                two_node_model, t_max=1.0, dt=0.05, n_traj=2, seed0=last, n_workers=workers
            )
    # the top seed itself is valid
    stats = q.ensemble_stats(two_node_model, t_max=1.0, dt=0.05, n_traj=2, seed0=last - 1)
    assert stats.n_traj == 2


def test_ensemble_requires_two_trajectories(two_node_model):
    with pytest.raises(ValueError):
        q.ensemble_stats(two_node_model, n_traj=1)


def test_ensemble_dispersion_se_is_positive(two_node_model):
    stats = q.ensemble_stats(two_node_model, t_max=20.0, dt=0.05, n_traj=40, seed0=0)
    assert np.all(stats.dispersion_se > 0)
    assert np.all(np.isfinite(stats.dispersion_se))


# -- integration route to the free energy ------------------------------------------


def test_integration_route_matches_eigenvalue_route(two_node_model, six_node_model):
    for model, s in (
        (two_node_model, q.uniform_tilt(two_node_model, 0.5)),
        (two_node_model, np.array([0.8, -0.3])),
        (six_node_model, q.uniform_tilt(six_node_model, -0.4)),
    ):
        slope = q.free_energy_by_integration(model, s, t_max=60.0, dt=0.01)
        assert_allclose(slope, q.free_energy(model, s), atol=1e-8)


def test_integration_full_output(two_node_model):
    out = q.free_energy_by_integration(
        two_node_model, q.uniform_tilt(two_node_model, 0.4), t_max=50.0, dt=0.01,
        full_output=True,
    )
    assert isinstance(out, q.TiltedIntegration)
    assert_allclose(out.theta, np.expm1(-0.4), atol=1e-8)
    # uniform tilt shifts only the stationary mode: gap is exp(-sigma)
    assert_allclose(out.spectral_gap, np.exp(-0.4), atol=1e-9)
    assert out.window == (0.8 * 50.0, 50.0)
    assert out.n_samples >= 2


def test_integration_remainder_step_lands_on_t_max(two_node_model, single_node_model):
    # t_max is no multiple of dt: eleven equal steps of 1.05/11
    out = q.free_energy_by_integration(
        two_node_model, q.uniform_tilt(two_node_model, 0.3), t_max=1.05, dt=0.1,
        full_output=True,
    )
    assert out.window == (0.8 * 1.05, 1.05)
    assert out.n_samples == 3  # t = 9/11, 10/11 and 11/11 of 1.05
    for sv in (-1.0, 0.5):
        slope = q.free_energy_by_integration(single_node_model, [sv], t_max=10.05, dt=0.01)
        assert_allclose(slope, np.expm1(-sv), rtol=0, atol=1e-8)
    # 1,005 steps land on 10.05 with no sliver step that repeats the last time
    out = q.free_energy_by_integration(
        single_node_model, [0.5], t_max=10.05, dt=0.01, full_output=True
    )
    assert out.n_samples == 202


def test_integration_validation(two_node_model):
    s = np.zeros(2)
    with pytest.raises(ValueError):
        q.free_energy_by_integration(two_node_model, s, t_max=0.0)
    with pytest.raises(ValueError):
        # only one sample lands in the final-20% window
        q.free_energy_by_integration(two_node_model, s, t_max=1.0, dt=1.0)


def test_integration_detects_divergence(two_node_model):
    # a strongly negative tilt grows the trace as exp(e^{|s|}); with a
    # huge step the scheme overflows and must say so
    with pytest.raises((q.DivergenceError, OverflowError)):
        q.free_energy_by_integration(
            two_node_model, q.uniform_tilt(two_node_model, -600.0), t_max=100.0, dt=1.0
        )
