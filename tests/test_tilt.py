"""Tilted generators, dynamical free energy, and derived observables.

Exact anchors used throughout: because the jump rates are column
stochastic, sum_k Ldag_k L_k = I, so vec(I) is a left eigenvector of the
uniformly tilted generator with eigenvalue exp(-sigma) - 1.  The free
energy at uniform tilt is therefore exp(-sigma) - 1 for every graph and
coherent weight, total activity is exp(-sigma), and both limit
generators have closed-form leading behavior.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from numpy.testing import assert_allclose

import qswalk as q
from qswalk.cli import _limit_point
from qswalk.lindblad import tilt_recycling
from oracles import (
    classical_tilted_matrix,
    dense_active_limit_profile,
    generic_tilted,
    leading_eigenvalue_scipy,
    limit_generator,
    random_digraph,
    richardson_activity_dispersion,
)


# -- tilted generator assembly ----------------------------------------------


def test_zero_tilt_is_liouvillian_bitwise(two_node_model, six_node_model):
    for model in (two_node_model, six_node_model):
        w = q.tilted_superoperator(model, np.zeros(model.n))
        assert np.array_equal(w, q.liouvillian(model))


def test_tilted_matches_generic_assembly(two_node_model, six_node_model):
    s2 = np.array([0.4, -1.1])
    assert_allclose(
        q.tilted_superoperator(two_node_model, s2),
        generic_tilted(two_node_model, s2),
        atol=1e-12,
    )
    s6 = np.linspace(-0.5, 0.5, 6)
    assert_allclose(
        q.tilted_superoperator(six_node_model, s6),
        generic_tilted(six_node_model, s6),
        atol=1e-12,
    )


def test_tilted_matches_generic_on_random_graphs(rng):
    for _ in range(5):
        g = random_digraph(rng, n_max=5)
        model = q.build_qsw(g, coherent_weight=float(rng.uniform(0, 2)))
        s = rng.uniform(-1.5, 1.5, g.n)
        assert_allclose(
            q.tilted_superoperator(model, s), generic_tilted(model, s), atol=1e-12
        )


def test_uniform_tilt_helper(two_node_model):
    assert_allclose(q.uniform_tilt(two_node_model, -0.7), [-0.7, -0.7])


def test_tilt_validation(two_node_model):
    with pytest.raises(ValueError):
        q.free_energy(two_node_model, [0.1])  # wrong length
    with pytest.raises(ValueError):
        q.free_energy(two_node_model, [np.nan, 0.0])
    with pytest.raises(ValueError):
        q.free_energy(two_node_model, [-701.0, 0.0])  # exp would overflow


def test_per_jump_tilt_generalizes_per_node(two_node_model):
    s = np.array([0.3, -0.2])
    s_matrix = np.tile(s[:, None], (1, 2))  # destination-dependent only
    assert_allclose(
        q.tilted_superoperator_per_jump(two_node_model, s_matrix),
        q.tilted_superoperator(two_node_model, s),
        atol=1e-14,
    )


def test_per_jump_tilt_generic_oracle(two_node_model):
    rng = np.random.default_rng(7)
    s_matrix = rng.uniform(-1, 1, (2, 2))
    expected = q.liouvillian(two_node_model).astype(complex)
    for i, j, amp in two_node_model.jumps:
        op = np.zeros((2, 2), dtype=complex)
        op[i, j] = amp
        expected += (np.exp(-s_matrix[i, j]) - 1.0) * np.kron(op.conj(), op)
    assert_allclose(
        q.tilted_superoperator_per_jump(two_node_model, s_matrix), expected, atol=1e-12
    )


# -- limit generators ---------------------------------------------------------


def test_limit_generators(two_node_model):
    # the oracle's two limits split the library's generator: W_s is the
    # inactive part plus exp(-sigma) times the active part
    inactive = limit_generator(two_node_model, "inactive")
    active = limit_generator(two_node_model, "active")
    assert_allclose(inactive + active, q.liouvillian(two_node_model), atol=1e-14)
    w = q.tilted_superoperator(two_node_model, q.uniform_tilt(two_node_model, 0.7))
    assert_allclose(w, inactive + np.exp(-0.7) * active, atol=1e-14)
    with pytest.raises(ValueError):
        limit_generator(two_node_model, "sideways")


def test_inactive_limit_leading_eigenvalue_is_minus_one(two_node_model, six_node_model):
    # survival generator -iH_eff on both sides: decay rate exactly 1
    for model in (two_node_model, six_node_model):
        lead = q.eig_general(limit_generator(model, "inactive")).leading_eigenvalue
        assert_allclose(lead.real, -1.0, atol=1e-10)


def _strongly_connected_digraph(rng, n):
    # a ring through every node keeps G irreducible even at damping 1,
    # where the Perron vector is unique; the ring alone is periodic
    edges = {(k, (k + 1) % n) for k in range(n)}
    mask = rng.random((n, n)) < rng.uniform(0.0, 0.5)
    edges |= {(int(u), int(v)) for u, v in zip(*np.nonzero(mask))}
    return q.DirectedGraph(n=n, edges=frozenset(edges))


def test_limit_rows_match_dense_oracle(two_node_graph, six_node_graph, rng):
    star = q.DirectedGraph(n=3, edges=frozenset({(0, 1), (0, 2), (1, 0), (2, 0)}))
    cases = [(two_node_graph, 0.85, 1.0), (six_node_graph, 0.85, 1.0), (star, 1.0, 1.0)]
    for k in range(8):
        g = _strongly_connected_digraph(rng, int(rng.integers(2, 7)))
        damping = 1.0 if k % 2 else float(rng.uniform(0.5, 0.95))
        cases.append((g, damping, float(rng.uniform(0.0, 2.0))))
    for g, damping, cw in cases:
        model = q.build_qsw(g, damping, cw)
        for mode, theta in (("inactive", -1.0), ("active", 1.0)):
            assert _limit_point(model, mode).theta == theta
            lead = leading_eigenvalue_scipy(limit_generator(model, mode))
            assert abs(lead.real - theta) <= 1e-12
        alpha_norm = _limit_point(model, "active").alpha_norm
        assert_allclose(alpha_norm, dense_active_limit_profile(model), rtol=0, atol=1e-12)
    # the periodic star at damping 1, where power iteration never settles
    assert_allclose(
        q.active_limit_normalized_activity(q.build_qsw(star, 1.0)),
        [0.5, 0.25, 0.25], rtol=0, atol=1e-15,
    )


def test_active_limit_ranking_is_pagerank(two_node_model, six_node_model, two_node_graph, six_node_graph):
    for model, g in ((two_node_model, two_node_graph), (six_node_model, six_node_graph)):
        an = q.active_limit_normalized_activity(model)
        assert_allclose(an, q.pagerank(q.google_matrix(g)), atol=1e-10)


# -- free energy ----------------------------------------------------------------


def test_free_energy_zero_at_zero_tilt(two_node_model, six_node_model):
    for model in (two_node_model, six_node_model):
        assert_allclose(q.free_energy(model, np.zeros(model.n)), 0.0, atol=1e-12)


def test_free_energy_uniform_tilt_closed_form(two_node_model, six_node_model, rng):
    # theta(sigma, ..., sigma) = exp(-sigma) - 1 exactly, any graph
    models = [two_node_model, six_node_model]
    for _ in range(3):
        models.append(
            q.build_qsw(random_digraph(rng, n_max=6), coherent_weight=float(rng.uniform(0, 2)))
        )
    for model in models:
        for sigma in (-1.5, -0.3, 0.0, 0.8, 2.5):
            assert_allclose(
                q.free_energy(model, q.uniform_tilt(model, sigma)),
                np.expm1(-sigma),
                atol=1e-10,
            )


def test_free_energy_frozen_nonuniform_values(two_node_model, six_node_model):
    # frozen from an independent eigensolver on the generic assembly
    assert_allclose(
        q.free_energy(two_node_model, [1.0, 0.0]), -0.1951713014165249, atol=1e-10
    )
    assert_allclose(
        q.free_energy(two_node_model, [0.5, -0.5]), 0.30342725202990184, atol=1e-10
    )
    s6 = np.zeros(6)
    s6[3] = 0.7
    assert_allclose(
        q.free_energy(six_node_model, s6), -0.12872941432892795, atol=1e-10
    )


def test_free_energy_classical_reduces_to_markov_chain(two_node_classical, rng):
    # with zero coherent weight the population sector carries the
    # leading eigenvalue of the n x n tilted rate matrix
    g2 = q.parse_edge_list("n 2\n0 1\n")
    for s in ([0.0, 0.0], [0.7, -0.4], [-1.2, 0.3]):
        expected = leading_eigenvalue_scipy(classical_tilted_matrix(g2, s)).real
        assert_allclose(q.free_energy(two_node_classical, s), expected, atol=1e-8)
    for _ in range(3):
        g = random_digraph(rng, n_max=6)
        model = q.build_qsw(g, coherent_weight=0.0)
        s = rng.uniform(-1.0, 1.0, g.n)
        expected = leading_eigenvalue_scipy(classical_tilted_matrix(g, s)).real
        assert_allclose(q.free_energy(model, s), expected, atol=1e-8)


def test_free_energy_non_increasing_per_coordinate(two_node_model, six_node_model, rng):
    for model in (two_node_model, six_node_model):
        s = rng.uniform(-0.5, 0.5, model.n)
        base = q.free_energy(model, s)
        for k in range(model.n):
            bumped = s.copy()
            bumped[k] += 0.3
            assert q.free_energy(model, bumped) <= base + 1e-10


# -- activity -------------------------------------------------------------------


def test_activity_zero_tilt_hand_values(two_node_model):
    # G @ diag(rho_ss) with the hand-solved steady state: (66, 151)/217
    expected = np.array([66.0, 151.0]) / 217.0
    assert_allclose(q.activity(two_node_model, np.zeros(2)), expected, atol=1e-8)
    assert_allclose(q.activity_from_steady_state(two_node_model), expected, atol=1e-12)


def test_activity_routes_agree(six_node_model):
    # finite differences of theta vs the static steady-state formula
    fd = q.activity(six_node_model, np.zeros(6))
    static = q.activity_from_steady_state(six_node_model)
    assert_allclose(fd, static, atol=1e-7)


def test_total_activity_uniform_tilt(two_node_model, six_node_model):
    # sum_i alpha_i at uniform sigma must be exp(-sigma)
    for model in (two_node_model, six_node_model):
        for sigma in (-0.8, 0.0, 0.7):
            alpha = q.activity(model, q.uniform_tilt(model, sigma))
            assert_allclose(alpha.sum(), np.exp(-sigma), atol=1e-7)
            assert np.all(alpha >= -1e-8)


def test_activity_self_check_trips_on_coarse_step(two_node_model):
    with pytest.raises(q.ConvergenceError):
        q.activity(two_node_model, [0.5, -0.5], h=0.8, check_tol=1e-10)
    # same step passes with the check disabled
    q.activity(two_node_model, [0.5, -0.5], h=0.8, self_check=False)


def test_activity_validates_step(two_node_model):
    with pytest.raises(ValueError):
        q.activity(two_node_model, np.zeros(2), h=0.0)


def test_normalized_activity():
    assert_allclose(q.normalized_activity([1.0, 3.0]), [0.25, 0.75])
    with pytest.raises(q.ZeroActivityError):
        q.normalized_activity(np.zeros(3))


# -- dispersion -------------------------------------------------------------------


def test_dispersion_single_node_is_poissonian(single_node_model):
    # theta(s) = exp(-s) - 1 exactly: variance/mean = 1 at every tilt
    for s in (-0.5, 0.0, 1.0):
        delta, delta_global = q.dispersion(single_node_model, [s])
        assert_allclose(delta[0], 1.0, atol=1e-6)
        assert_allclose(delta_global, 1.0, atol=1e-6)


def test_dispersion_classical_matches_markov_oracle(two_node_classical):
    # independent route: finite differences on the 2x2 tilted matrix
    g2 = q.parse_edge_list("n 2\n0 1\n")
    s = np.array([0.2, -0.3])
    h = 1e-4

    def theta_cl(sv):
        return leading_eigenvalue_scipy(classical_tilted_matrix(g2, sv)).real

    delta, delta_global = q.dispersion(two_node_classical, s)
    expected = []
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        first = (theta_cl(s + e) - theta_cl(s - e)) / (2 * h)
        second = (theta_cl(s + e) - 2 * theta_cl(s) + theta_cl(s - e)) / h**2
        expected.append(second / (-first))
    assert_allclose(delta, expected, atol=1e-5)
    assert_allclose(delta_global, sum(expected), atol=1e-5)


def test_dispersion_undefined_where_activity_vanishes(two_node_model):
    # a strongly suppressed node has activity below the floor: its
    # index of dispersion is undefined, and so is the global sum
    delta, delta_global = q.dispersion(two_node_model, [30.0, 0.0])
    assert delta[0] is None
    assert delta[1] is not None
    assert delta_global is None


def test_stationary_dispersion_matches_fd_and_skips_nodes_no_jump_reaches(single_node_model):
    # at damping 1 the last node has no in-edge, so no jump lands there
    assert q.stationary_dispersion(single_node_model, [1.0]) == (1.0,)  # Poisson
    for text in ("n 3\n0 1\n1 0\n2 0\n", "n 4\n0 1\n1 2\n2 0\n3 0\n3 1\n"):
        model = q.build_qsw(q.parse_edge_list(text), damping=1.0)
        alpha = q.activity_from_steady_state(model)
        delta = q.stationary_dispersion(model, alpha)
        assert alpha[-1] == 0.0 and delta[-1] is None
        with np.errstate(invalid="ignore"):
            _, fd = richardson_activity_dispersion(model)
        assert_allclose(delta[:-1], fd[:-1], rtol=1e-6, atol=0)


def test_dispersion_six_node_regression():
    # pinned output of the frozen bundled graph at the crossover peak
    from qswalk.data import load_bundled

    model = q.build_qsw(load_bundled("six_node"))
    _, dg = q.dispersion(model, q.uniform_tilt(model, -0.2))
    assert_allclose(dg, 6.505073543789056, atol=1e-6)


# -- scan -------------------------------------------------------------------------


def test_scan_returns_points_in_input_order(two_node_model):
    grid = [q.uniform_tilt(two_node_model, v) for v in (-0.5, 0.0, 0.5)]
    points = q.scan(two_node_model, grid)
    assert [p.error for p in points] == [None, None, None]
    for p, v in zip(points, (-0.5, 0.0, 0.5)):
        assert_allclose(p.s, q.uniform_tilt(two_node_model, v))
        assert_allclose(p.theta, np.expm1(-v), atol=1e-10)
        assert_allclose(np.sum(p.alpha), np.exp(-v), atol=1e-7)
        assert p.delta_global is not None


def test_scan_records_per_point_failure(two_node_model):
    points = q.scan(two_node_model, [np.zeros(2), np.zeros(3), np.ones(2)])
    assert points[0].error is None
    assert points[1].error is not None
    assert points[1].theta is None
    assert points[2].error is None


def test_scan_records_numerical_failure_as_error_cell(two_node_model, monkeypatch):
    def fail(*args, **kwargs):
        raise q.ConvergenceError("step-halving drift too large")

    monkeypatch.setattr("qswalk.tilt._observables", fail)
    (point,) = q.scan(two_node_model, [np.zeros(2)])
    assert point.error == "step-halving drift too large"
    assert point.theta is None


def test_scan_raises_programming_errors(two_node_model, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("unsupported operand")

    monkeypatch.setattr("qswalk.tilt._observables", broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        q.scan(two_node_model, [np.zeros(2)])


def test_scan_parallel_matches_serial(two_node_model):
    grid = [q.uniform_tilt(two_node_model, v) for v in np.linspace(-0.4, 0.4, 5)]
    serial = q.scan(two_node_model, grid)
    parallel = q.scan(two_node_model, grid, n_workers=2)
    assert [p.theta for p in serial] == [p.theta for p in parallel]
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.alpha, b.alpha)
        assert a.delta_global == b.delta_global


def test_scan_validates_input(two_node_model):
    with pytest.raises(ValueError):
        q.scan(two_node_model, [])
    with pytest.raises(ValueError):
        q.scan(two_node_model, [np.zeros(2)], h=-1.0)


def test_thermo_point_is_frozen(two_node_model):
    point = q.scan(two_node_model, [np.zeros(2)])[0]
    with pytest.raises(Exception):
        point.theta = 1.0


# -- real Hermitian-basis eigensolve -------------------------------------------


def _real_tilted(model, s):
    w = model.hermitian_generator.copy()
    return tilt_recycling(w, model, np.exp(-np.asarray(s))[:, None])


def _eight_node_model():
    rng = np.random.default_rng(8)
    mask = rng.random((8, 8)) < 0.35
    edges = frozenset((u, v) for u in range(8) for v in range(8) if mask[u, v])
    return q.build_qsw(q.DirectedGraph(n=8, edges=edges), coherent_weight=1.3)


def test_real_and_complex_tilted_spectra_pair_up(two_node_model, six_node_model):
    for model in (two_node_model, six_node_model, _eight_node_model()):
        s = np.linspace(-0.9, 1.3, model.n) ** 3  # non-uniform
        real = scipy.linalg.eigvals(_real_tilted(model, s))
        cplx = scipy.linalg.eigvals(q.tilted_superoperator(model, s))
        rows, cols = scipy.optimize.linear_sum_assignment(np.abs(real[:, None] - cplx[None, :]))
        assert np.abs(real[rows] - cplx[cols]).max() <= 1e-10


def test_free_energy_equals_complex_eigensolve(two_node_model, six_node_model):
    for model in (two_node_model, six_node_model, _eight_node_model()):
        for sigma in np.linspace(-2.5, 2.5, 11):
            s = sigma + 0.3 * np.sin(np.arange(model.n))
            expected = q.eig_general(q.tilted_superoperator(model, s)).leading_eigenvalue.real
            assert abs(q.free_energy(model, s) - expected) <= 1e-12


def test_free_energy_is_repeatable_and_leaves_the_cache_alone(six_node_graph):
    model = q.build_qsw(six_node_graph)
    s = np.linspace(-0.4, 0.6, 6)
    first = q.free_energy(model, s)
    base = model.hermitian_generator
    snapshot = base.copy()
    for sigma in (-3.0, 0.0, 2.0):
        q.free_energy(model, q.uniform_tilt(model, sigma))
    assert q.free_energy(model, s) == first
    assert model.hermitian_generator is base
    assert np.array_equal(base, snapshot)


def test_free_energy_makes_one_real_eigensolve(six_node_model, monkeypatch):
    calls = []

    def spy(m):
        calls.append(m.dtype)
        return q.eig_general(m)

    monkeypatch.setattr("qswalk.tilt.eig_general", spy)
    q.free_energy(six_node_model, np.linspace(-1.0, 1.0, 6))
    assert calls == [np.dtype(float)]


def test_activity_is_the_observables_alpha(six_node_model):
    s = np.linspace(-0.5, 0.5, 6)
    point = q.tilt._observables(six_node_model, s, 1e-4, self_check=True)
    assert np.array_equal(q.activity(six_node_model, s), point.alpha)


def test_scan_pooled_matches_serial_with_cached_generator(six_node_graph):
    model = q.build_qsw(six_node_graph)
    q.free_energy(model, np.zeros(6))  # populate the cache before pickling
    grid = [np.linspace(-0.5, 0.5, 6) + v for v in (-1.0, 0.0, 0.8, 2.0)]
    serial = q.scan(model, grid)
    pooled = q.scan(model, grid, n_workers=2)
    for a, b in zip(serial, pooled):
        assert a.error is None and b.error is None
        assert a.theta == b.theta
        assert np.array_equal(a.alpha, b.alpha)
        assert a.delta == b.delta
