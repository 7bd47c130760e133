"""Walk construction, Liouvillian assembly, steady states, evolution.

The generator built by the package (grouped closed form) is checked
against a term-by-term textbook assembly (tests/oracles.py) on bundled
and random graphs; steady-state values for the two-node chain are the
hand-solved fractions 100/217, 117/217, -17i/217.
"""

import math
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qswalk as q
from qswalk.lindblad import DENSE_NODE_LIMIT, check_dense_budget, tilt_recycling
from qswalk.linalg import to_hermitian_basis
from oracles import (
    dense_steady_state,
    expm_propagate,
    from_hermitian_basis,
    generic_liouvillian,
    hermitian_basis_unitary,
    jump_list_liouvillian,
    jump_list_tilt_recycling,
    jump_list_tilted,
    jump_list_tilted_per_jump,
    random_digraph,
)


# -- build_qsw -------------------------------------------------------------


def test_build_two_node_hamiltonian(two_node_model):
    assert_allclose(two_node_model.hamiltonian, [[0.0, 1.0], [1.0, 0.0]])


def test_build_two_node_jumps(two_node_model):
    expected = [
        (0, 0, np.sqrt(0.075)),
        (0, 1, np.sqrt(0.5)),
        (1, 0, np.sqrt(0.925)),
        (1, 1, np.sqrt(0.5)),
    ]
    assert two_node_model.n == 2
    assert_allclose(two_node_model.amplitudes, np.sqrt([[0.075, 0.5], [0.925, 0.5]]), atol=1e-15)
    assert len(two_node_model.jumps) == 4
    for (i, j, amp), (ei, ej, eamp) in zip(two_node_model.jumps, expected):
        assert (i, j) == (ei, ej)
        assert_allclose(amp, eamp, atol=1e-15)


def test_one_jump_per_positive_rate(two_node_graph, six_node_graph):
    # teleportation makes every rate positive: n^2 jumps, no cutoff
    for g in (two_node_graph, six_node_graph):
        model = q.build_qsw(g)
        assert len(model.jumps) == g.n * g.n
        assert np.array_equal(model.amplitudes, np.sqrt(q.google_matrix(g)))
        assert_allclose(model.rates, q.google_matrix(g), atol=1e-15)
    # without damping a zero rate is no jump
    model = q.build_qsw(two_node_graph, damping=1.0)
    assert [(i, j) for i, j, _amp in model.jumps] == [(0, 1), (1, 0), (1, 1)]


def test_coherent_weight_scales_hamiltonian(two_node_graph):
    m = q.build_qsw(two_node_graph, coherent_weight=0.3)
    assert_allclose(m.hamiltonian, 0.3 * np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_classical_model_has_zero_hamiltonian(two_node_classical):
    assert_allclose(two_node_classical.hamiltonian, np.zeros((2, 2)))


def test_self_loop_dropped_from_hamiltonian_kept_in_rates():
    g = q.parse_edge_list("0 0\n0 1\n")
    m = q.build_qsw(g)
    assert m.hamiltonian[0, 0] == 0.0
    assert m.hamiltonian[0, 1] == 1.0
    assert m.rates[0, 0] > 0.0  # self-jump survives


def test_model_validation():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        q.QswModel(np.array([[0.0, 1.0], [0.5, 0.0]]), swap)
    with pytest.raises(ValueError, match="square"):
        q.QswModel(np.zeros((2, 3)), swap)
    with pytest.raises(ValueError, match="does not match"):
        q.QswModel(np.zeros((3, 3)), swap)
    with pytest.raises(ValueError, match="non-negative"):
        q.QswModel(np.zeros((2, 2)), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        q.QswModel(np.zeros((2, 2)), np.array([[0.0, 1.0], [np.nan, 0.0]]))
    with pytest.raises(ValueError, match="sum to 1"):
        # source 1 has no jumps: rates are not column-stochastic
        q.QswModel(np.zeros((2, 2)), np.array([[0.0, 0.0], [1.0, 0.0]]))
    g = q.parse_edge_list("n 2\n0 1\n")
    for weight in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="coherent_weight must be finite and >= 0"):
            q.build_qsw(g, coherent_weight=weight)


def test_model_copies_its_arrays(two_node_graph):
    h = np.array([[0.0, 0.8], [0.8, 0.0]])
    amp = np.sqrt(q.google_matrix(two_node_graph))
    model = q.QswModel(h, amp)
    theta = q.free_energy(model, [0.3, -0.2])  # caches the generator
    h[0, 1] = h[1, 0] = 5.0
    amp[:] = 0.0
    assert model.hamiltonian[0, 1] == 0.8
    assert np.array_equal(model.amplitudes, np.sqrt(q.google_matrix(two_node_graph)))
    assert q.free_energy(model, [0.3, -0.2]) == theta
    fresh = q.QswModel(model.hamiltonian, model.amplitudes)
    assert np.array_equal(model.hermitian_generator, fresh.hermitian_generator)


def test_models_compare_and_hash_by_identity(two_node_graph):
    a, b = q.build_qsw(two_node_graph), q.build_qsw(two_node_graph)
    assert a == a and not a != a
    assert a != b and not a == b  # equal arrays, distinct models
    assert {a, b, a} == {a, b} and len({a, b}) == 2
    assert hash(a) == hash(a)


def test_model_arrays_are_read_only(two_node_model):
    for arr in (two_node_model.hamiltonian, two_node_model.amplitudes, two_node_model.rates):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0


# -- liouvillian -----------------------------------------------------------


def test_liouvillian_matches_generic_assembly(two_node_model, six_node_model, two_node_classical):
    for model in (two_node_model, six_node_model, two_node_classical):
        assert_allclose(
            q.liouvillian(model), generic_liouvillian(model), atol=1e-12
        )


def test_liouvillian_matches_generic_on_random_graphs(rng):
    for _ in range(6):
        g = random_digraph(rng, n_max=5)
        cw = float(rng.uniform(0.0, 2.0))
        model = q.build_qsw(g, coherent_weight=cw)
        assert_allclose(
            q.liouvillian(model), generic_liouvillian(model), atol=1e-12
        )


def test_array_generators_equal_the_jump_list_assembly(two_node_graph, six_node_graph):
    # entry for entry, not to rounding: FD second derivatives of theta
    # magnify a one-ulp change in the generator by 1/h^2
    rng = np.random.default_rng(16)
    mask = rng.random((16, 16)) < 0.2
    dense = q.DirectedGraph(n=16, edges=frozenset(zip(*np.nonzero(mask))))
    star = q.parse_edge_list("0 1\n1 0\n0 2\n2 0\n0 3\n3 0\n")
    models = [
        q.build_qsw(two_node_graph),
        q.build_qsw(six_node_graph),
        q.build_qsw(dense, coherent_weight=0.7),
        q.build_qsw(star, damping=1.0),  # zero rates: no jump
    ]
    for model in models:
        n = model.n
        s = rng.uniform(-2.0, 2.0, n)
        s_matrix = rng.uniform(-2.0, 2.0, (n, n))
        reference = jump_list_liouvillian(model)
        assert np.array_equal(q.liouvillian(model), reference)
        assert np.array_equal(model.hermitian_generator, to_hermitian_basis(reference))
        assert np.array_equal(q.tilted_superoperator(model, s), jump_list_tilted(model, s))
        assert np.array_equal(
            tilt_recycling(q.liouvillian(model), model, np.exp(-s_matrix)),
            jump_list_tilted_per_jump(model, s_matrix),
        )
        dest = np.array([i for i, _j, _amp in model.jumps])
        assert np.array_equal(
            tilt_recycling(model.hermitian_generator.copy(), model, np.exp(-s)[:, None]),
            jump_list_tilt_recycling(to_hermitian_basis(reference), model, np.exp(-s)[dest]),
        )


def test_liouvillian_spectrum_contract(two_node_model, six_node_model, rng):
    models = [two_node_model, six_node_model]
    for _ in range(4):
        models.append(q.build_qsw(random_digraph(rng, n_max=6)))
    for model in models:
        spectrum = q.eig_general(q.liouvillian(model)).full_spectrum
        assert spectrum.real.max() <= 1e-9  # dissipative: nothing grows
        assert np.sum(np.abs(spectrum) < 1e-9) == 1  # unique stationary mode


def test_recycling_scatters_rates_on_population_block(two_node_model, six_node_model):
    # the population block is G - I: recycled rates minus the decay that
    # sum_k Ldag L = I gives every population
    for model in (two_node_model, six_node_model):
        n = model.n
        diag = np.arange(n) * (n + 1)
        block = q.liouvillian(model)[np.ix_(diag, diag)]
        assert_allclose(block, model.rates - np.eye(n), atol=1e-15)


def test_liouvillian_preserves_trace(two_node_model, six_node_model):
    for model in (two_node_model, six_node_model):
        left = q.vec(np.eye(model.n))
        assert_allclose(left @ q.liouvillian(model), 0.0, atol=1e-12)


def test_liouvillian_trace_preserving_to_rounding_off_stochastic_rates():
    # squared amplitudes of source 0 sum to 1 - 5e-13, inside the model's
    # 1e-12 tolerance: the anticommutator must use those sums, not I
    rates = np.array([[0.3, 0.4], [0.7 - 5e-13, 0.6]])
    model = q.QswModel(np.array([[0.0, 0.8], [0.8, 0.0]]), np.sqrt(rates))
    left = q.vec(np.eye(2))
    assert np.abs(left @ q.liouvillian(model)).max() <= 1e-15


# -- steady_state ------------------------------------------------------------


def test_steady_state_two_node_hand_values(two_node_model):
    # solving the 4x4 stationarity system by hand gives rationals over 217
    rho = q.steady_state(two_node_model)
    expected = np.array(
        [
            [100.0 / 217.0, -17.0j / 217.0],
            [17.0j / 217.0, 117.0 / 217.0],
        ]
    )
    assert_allclose(rho, expected, atol=1e-12)


def test_steady_state_is_valid_density_matrix(six_node_model):
    rho = q.steady_state(six_node_model)
    assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert_allclose(np.trace(rho).real, 1.0, atol=1e-12)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_steady_state_annihilated_by_generator(six_node_model):
    resid = q.liouvillian(six_node_model) @ q.vec(q.steady_state(six_node_model))
    assert np.abs(resid).max() < 1e-10


def test_steady_state_classical_is_pagerank(two_node_graph, two_node_classical):
    rho = q.steady_state(two_node_classical)
    pr = q.pagerank(q.google_matrix(two_node_graph))
    assert_allclose(np.diag(rho).real, pr, atol=1e-10)
    assert_allclose(rho[0, 1], 0.0, atol=1e-12)


def test_steady_state_random_models(rng):
    for _ in range(5):
        model = q.build_qsw(random_digraph(rng, n_max=6), coherent_weight=float(rng.uniform(0, 1.5)))
        rho = q.steady_state(model)
        assert_allclose(np.trace(rho).real, 1.0, atol=1e-10)
        assert_allclose(rho, rho.conj().T, atol=1e-10)
        assert np.abs(q.liouvillian(model) @ q.vec(rho)).max() < 1e-8


def test_steady_state_matches_dense_kernel(two_node_graph, six_node_graph, rng):
    complete5 = q.DirectedGraph(
        n=5, edges=frozenset((i, j) for i in range(5) for j in range(5) if i != j)
    )
    # K5's H has the eigenvalue -1 four times: rho must not depend on
    # the eigenbasis eigh picks inside that eigenspace
    assert np.sum(np.isclose(np.linalg.eigvalsh(q.symmetrized_adjacency(complete5)), -1.0)) == 4
    models = [
        q.build_qsw(two_node_graph),
        q.build_qsw(six_node_graph),
        q.build_qsw(six_node_graph, coherent_weight=0.0),
        q.build_qsw(complete5),
    ]
    for _ in range(20):
        g = random_digraph(rng, n_max=8)
        models.append(q.build_qsw(g, coherent_weight=float(rng.uniform(0.0, 2.0))))
    for model in models:
        assert_allclose(q.steady_state(model), dense_steady_state(model), rtol=0, atol=1e-12)


def test_steady_state_refuses_several_closed_classes():
    # two 2-cycles, no teleportation: the kernel of G M(1) - I is 2-d
    g = q.parse_edge_list("0 1\n1 0\n2 3\n3 2\n")
    with pytest.raises(q.DegeneracyError, match="kernel dimension 2"):
        q.steady_state(q.build_qsw(g, damping=1.0))


def test_steady_state_flags_a_wrong_rate_vector(six_node_model, monkeypatch):
    # the Lindblad residual, not the renewal fixed point, is checked: a
    # rate vector off by 1e-6 gives a trace-1 Hermitian rho that is not
    # stationary
    exact = q.null_vector

    def perturbed(m):
        v = exact(m).real.copy()
        v[0] += 1e-6
        return v

    monkeypatch.setattr("qswalk.lindblad.null_vector", perturbed)
    with pytest.raises(q.ConvergenceError, match="steady-state residual"):
        q.steady_state(six_node_model)


def test_steady_state_rejects_a_traceless_kernel_vector(six_node_model, monkeypatch):
    # a rate vector whose entries cancel cannot be scaled to unit trace
    monkeypatch.setattr(
        "qswalk.lindblad.null_vector", lambda m: np.repeat([1.0, -1.0], 3) / np.sqrt(6)
    )
    with pytest.raises(q.DegeneracyError, match="nearly traceless"):
        q.steady_state(six_node_model)


def test_steady_state_needs_no_dense_generator():
    model = _complete_model(DENSE_NODE_LIMIT + 1)
    tracemalloc.start()
    try:
        rho = q.steady_state(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "hermitian_generator" not in vars(model)
    assert_allclose(np.diag(rho).real, np.full(model.n, 1.0 / model.n), atol=1e-12)
    assert peak < 4 << 20  # O(n^2): a few n x n matrices, no n^2 x n^2 one


# -- evolve ------------------------------------------------------------------


def test_evolve_matches_dense_exponential(two_node_model):
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    out = q.evolve(two_node_model, rho0, t=1.7, dt=1e-3)
    expected = q.unvec(
        expm_propagate(q.liouvillian(two_node_model), q.vec(rho0), 1.7)
    )
    assert_allclose(out, expected, atol=1e-10)


def test_evolve_preserves_trace_and_hermiticity(six_node_model):
    rho0 = np.zeros((6, 6), dtype=complex)
    rho0[0, 0] = 1.0
    for t in (0.5, 2.0, 5.0):
        rho = q.evolve(six_node_model, rho0, t=t, dt=1e-3)
        assert_allclose(np.trace(rho).real, 1.0, atol=1e-9)
        assert np.abs(rho - rho.conj().T).max() < 1e-9


def test_evolve_relaxes_to_steady_state(two_node_model):
    rho0 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    rho = q.evolve(two_node_model, rho0, t=60.0, dt=1e-3)
    assert_allclose(rho, q.steady_state(two_node_model), atol=1e-8)


def test_evolve_validates_input(two_node_model):
    with pytest.raises(ValueError):
        q.evolve(two_node_model, np.eye(3, dtype=complex), t=1.0)
    with pytest.raises(ValueError):
        q.evolve(two_node_model, np.array([[0.5, 0.4], [0.1, 0.5]]), t=1.0)
    with pytest.raises(ValueError):
        q.evolve(two_node_model, 2.0 * np.eye(2, dtype=complex), t=1.0)


# -- Hermitian-basis generator and size budget -------------------------------


def test_hermitian_generator_is_unitary_change_of_basis(two_node_model, six_node_model, rng):
    models = [two_node_model, six_node_model]
    models.append(q.build_qsw(random_digraph(rng, n_max=5), coherent_weight=0.7))
    for model in models:
        u = hermitian_basis_unitary(model.n)
        assert_allclose(u @ u.conj().T, np.eye(model.n**2), atol=1e-14)
        expected = u @ generic_liouvillian(model) @ u.conj().T
        assert_allclose(expected.imag, 0.0, atol=1e-13)
        w = model.hermitian_generator
        assert w.dtype == np.float64
        assert_allclose(w, expected.real, atol=1e-13)


def test_hermitian_generator_keeps_populations_in_place(six_node_model):
    pop = np.arange(6) * 7
    block = np.ix_(pop, pop)
    assert np.array_equal(
        six_node_model.hermitian_generator[block], q.liouvillian(six_node_model)[block].real
    )


_CACHED = ("hermitian_generator", "eigenbasis", "renewal")


def _arrays(value):
    return value if isinstance(value, tuple) else (value,)


@pytest.mark.parametrize("name", _CACHED)
def test_cached_property_is_lazy_and_read_only(two_node_graph, name):
    model = q.build_qsw(two_node_graph)
    assert name not in vars(model)  # built lazily
    w = getattr(model, name)
    assert getattr(model, name) is w
    for a in _arrays(w):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


@pytest.mark.parametrize("name", _CACHED)
def test_pickled_model_drops_the_cached_property(two_node_graph, name):
    model = q.build_qsw(two_node_graph)
    w = getattr(model, name)
    clone = pickle.loads(pickle.dumps(model))
    assert name not in vars(clone)
    for a, b in zip(_arrays(getattr(clone, name)), _arrays(w)):
        assert np.array_equal(a, b)


def test_renewal_is_the_column_stochastic_chain_of_the_eigenbasis(six_node_model):
    lam, v = six_node_model.eigenbasis
    assert_allclose(v @ np.diag(lam) @ v.T, six_node_model.hamiltonian, rtol=0, atol=1e-12)
    t = six_node_model.renewal
    assert_allclose(t.sum(axis=0), np.ones(6), rtol=0, atol=1e-12)
    # at zero coherent weight M(1) = I, and T is G itself
    classical = q.QswModel(np.zeros((6, 6)), six_node_model.amplitudes)
    assert_allclose(classical.renewal, six_node_model.rates, rtol=0, atol=1e-15)


def test_steady_state_is_solved_real_and_exactly_hermitian(six_node_graph, monkeypatch):
    model = q.build_qsw(six_node_graph)
    solved = []
    real_eig = np.linalg.eig

    def spy(m):
        solved.append(m.dtype)
        return real_eig(m)

    monkeypatch.setattr(np.linalg, "eig", spy)
    rho = q.steady_state(model)
    assert solved == [np.dtype(float)]
    assert rho.dtype == complex
    assert np.array_equal(rho, rho.conj().T)
    assert_allclose(np.trace(rho), 1.0, atol=1e-14)
    assert_allclose(q.liouvillian(model) @ q.vec(rho), 0.0, atol=1e-10)


def test_from_hermitian_basis_inverts_the_change_of_basis(rng):
    u = hermitian_basis_unitary(4)
    x = rng.normal(size=16)
    v = from_hermitian_basis(x)
    assert_allclose(v, u.conj().T @ x, atol=1e-15)
    rho = q.unvec(v)
    assert np.array_equal(rho, rho.conj().T)


def test_to_hermitian_basis_rejects_non_hermiticity_preserving(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    with pytest.raises(ValueError, match="Hermiticity"):
        to_hermitian_basis(m)
    with pytest.raises(ValueError, match="perfect square"):
        to_hermitian_basis(np.eye(3))


def test_hermitian_generator_equals_the_copying_conversion_bitwise(
    two_node_graph, six_node_graph, rng
):
    # the cached generator is converted in place; np.array_equal alone
    # would not see a signed zero flip
    models = [q.build_qsw(g) for g in (two_node_graph, six_node_graph)]
    for weight in (0.0, 1.0, 3.0):
        models += [q.build_qsw(random_digraph(rng, n_max=9), coherent_weight=weight)
                   for _ in range(3)]
    h = np.array([[0.0, -1.5, 2.0], [-1.5, -0.5, -0.25], [2.0, -0.25, 0.0]])
    amp = np.sqrt(np.array([[0.2, 0.5, 0.0], [0.3, 0.5, 0.6], [0.5, 0.0, 0.4]]))
    models.append(q.QswModel(h, amp))
    for model in models:
        w, expected = model.hermitian_generator, to_hermitian_basis(q.liouvillian(model))
        assert w.dtype == expected.dtype and w.flags.c_contiguous
        assert w.tobytes() == expected.tobytes()  # signed zeros included


def test_to_hermitian_basis_leaves_its_argument_unchanged(six_node_model):
    m = q.liouvillian(six_node_model)
    kept = m.copy()
    to_hermitian_basis(m)
    assert m.tobytes() == kept.tobytes()


def test_hermitian_generator_build_needs_no_full_size_temporaries():
    # whole-matrix row and column combinations traced 7.8x the result's size
    n = 16
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    model = q.build_qsw(q.DirectedGraph(n=n, edges=frozenset(random.Random(1).sample(pairs, 3 * n))))
    tracemalloc.start()
    try:
        w = model.hermitian_generator
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * w.nbytes


def _complete_model(n):
    # no Google matrix needed: every node jumps uniformly to every node
    return q.QswModel(np.zeros((n, n)), np.full((n, n), 1.0 / math.sqrt(n)))


def test_dense_size_budget_refuses_before_allocating():
    model = _complete_model(DENSE_NODE_LIMIT + 1)
    tracemalloc.start()
    try:
        with pytest.raises(q.SizeBudgetError, match="limited to 64 nodes"):
            q.liouvillian(model)
        with pytest.raises(q.SizeBudgetError):
            model.hermitian_generator
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    check_dense_budget(DENSE_NODE_LIMIT)  # the limit itself is allowed
