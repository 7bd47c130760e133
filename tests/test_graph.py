"""Edge-list parsing, Google matrix construction, and pagerank.

Hand values use the bundled two-node chain 0 -> 1 (node 1 dangling).
With damping 0.85 the rate matrix has columns (0.075, 0.925) and
(0.5, 0.5); solving pi = G pi by hand gives pi = (20/57, 37/57).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qswalk as q
from oracles import loop_google_matrix, pagerank_dense, random_digraph


# -- parsing ---------------------------------------------------------------


def test_parse_two_node(two_node_graph):
    assert two_node_graph.n == 2
    assert two_node_graph.edges == frozenset({(0, 1)})


def test_parse_six_node(six_node_graph):
    assert six_node_graph.n == 6
    assert (5, 2) in six_node_graph.edges
    assert len(six_node_graph.edges) == 7


def test_parse_skips_comments_blanks_and_duplicates():
    text = "# a comment\n\nn 3\n0 1\n0 1\n  2 0   # trailing note\n"
    g = q.parse_edge_list(text)
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (2, 0)})


def test_parse_header_allows_isolated_nodes():
    g = q.parse_edge_list("n 4\n0 1\n")
    assert g.n == 4
    assert g.edges == frozenset({(0, 1)})


def test_parse_infers_size_from_largest_index():
    g = q.parse_edge_list("2 0\n0 1\n")
    assert g.n == 3


def test_parse_final_newline_is_optional():
    a = q.parse_edge_list("n 2\n0 1")
    b = q.parse_edge_list("n 2\n0 1\n")
    assert a == b


def test_parse_allows_self_loop():
    g = q.parse_edge_list("0 0\n")
    assert g.n == 1
    assert g.edges == frozenset({(0, 0)})


@pytest.mark.parametrize(
    "text, line",
    [
        ("0\n", 1),
        ("0 1 2\n", 1),
        ("0 x\n", 1),
        ("-1 0\n", 1),
        ("n 2\n0 2\n", 2),
        ("n 0\n", 1),
        ("n -3\n", 1),
        ("0 1\nn 2\n", 2),
        ("# c\n\n0 bad\n", 3),
        ("n\n", 1),
        ("n 5 6\n", 1),
        ("n x\n", 1),
        ("0 1048576\n", 1),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(q.EdgeListError) as err:
        q.parse_edge_list(text)
    assert err.value.line == line
    assert f"line {line}" in str(err.value)


def test_parse_rejects_empty_input():
    with pytest.raises(q.EdgeListError):
        q.parse_edge_list("")
    with pytest.raises(q.EdgeListError):
        q.parse_edge_list("# nothing but comments\n")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_parse_round_trip(data):
    n = data.draw(st.integers(1, 9))
    edges = data.draw(
        st.frozensets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20
        )
    )
    text = "\n".join([f"n {n}"] + [f"{u} {v}" for u, v in sorted(edges)])
    g = q.parse_edge_list(text)
    assert g == q.DirectedGraph(n=n, edges=edges)


def test_directed_graph_validates_ranges():
    with pytest.raises(ValueError):
        q.DirectedGraph(n=2, edges=frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        q.DirectedGraph(n=0, edges=frozenset())


def test_out_adjacency_orientation(two_node_graph):
    # entry (u, v) = 1 iff edge u -> v
    assert_allclose(two_node_graph.out_adjacency(), [[0, 1], [0, 0]])


# -- symmetrized adjacency -------------------------------------------------


def test_symmetrized_adjacency_two_node(two_node_graph):
    assert_allclose(q.symmetrized_adjacency(two_node_graph), [[0, 1], [1, 0]])


def test_symmetrized_adjacency_drops_self_loops():
    g = q.parse_edge_list("n 2\n0 0\n0 1\n")
    assert_allclose(q.symmetrized_adjacency(g), [[0, 1], [1, 0]])


def test_symmetrized_adjacency_is_binary():
    # reciprocal edges must not stack to 2
    g = q.parse_edge_list("0 1\n1 0\n")
    assert_allclose(q.symmetrized_adjacency(g), [[0, 1], [1, 0]])


# -- Google matrix ---------------------------------------------------------


def test_google_matrix_two_node_hand_values(two_node_graph):
    m = q.google_matrix(two_node_graph)
    assert_allclose(m, [[0.075, 0.5], [0.925, 0.5]], rtol=0, atol=1e-15)


def test_google_matrix_dangling_column_is_uniform():
    g = q.parse_edge_list("n 3\n0 1\n0 2\n1 0\n")  # node 2 dangling
    m = q.google_matrix(g)
    assert_allclose(m[:, 2], np.full(3, 1.0 / 3.0), rtol=0, atol=1e-15)


def test_google_matrix_orientation(two_node_graph):
    # edge 0 -> 1 feeds entry (1, 0): column = source, row = destination
    m = q.google_matrix(two_node_graph)
    assert m[1, 0] > m[0, 0]


def test_google_matrix_damping_validation(two_node_graph):
    for bad in (0.0, -0.2, 1.0000001):
        with pytest.raises(ValueError):
            q.google_matrix(two_node_graph, damping=bad)
    m = q.google_matrix(two_node_graph, damping=1.0)  # boundary value allowed
    assert_allclose(m.sum(axis=0), [1.0, 1.0], atol=1e-15)


def test_google_matrix_column_stochastic_random(rng):
    for _ in range(25):
        g = random_digraph(rng)
        m = q.google_matrix(g)
        assert_allclose(m.sum(axis=0), np.ones(g.n), atol=1e-12)
        assert m.min() >= 0.15 / g.n - 1e-15  # teleport floor


def test_google_matrix_equals_the_loop_form(rng):
    # dangling columns divide by nothing, so no floating-point warning
    for _ in range(25):
        g = random_digraph(rng, n_max=12)
        edges = {(u, v) for (u, v) in g.edges if u != g.n - 1}  # last node dangling
        if g.n > 1:
            edges.add((0, 0))
        g = q.DirectedGraph(n=g.n, edges=frozenset(edges))
        for damping in (0.85, 1.0):
            with np.errstate(all="raise"):
                m = q.google_matrix(g, damping)
            assert m.flags.c_contiguous
            assert np.array_equal(m, loop_google_matrix(g, damping))


# -- pagerank --------------------------------------------------------------


def test_pagerank_two_node_exact(two_node_graph):
    scores = q.pagerank(q.google_matrix(two_node_graph))
    assert_allclose(scores, [20.0 / 57.0, 37.0 / 57.0], rtol=0, atol=1e-12)


def test_pagerank_six_node_frozen(six_node_graph):
    # Perron vector of the dense matrix, computed once with an
    # independent eigensolver and frozen here.
    frozen = [
        0.0659062499999998,
        0.0810203124999997,
        0.03562500000000006,
        0.37761144425675675,
        0.4148369932432435,
        0.02499999999999998,
    ]
    scores = q.pagerank(q.google_matrix(six_node_graph))
    assert_allclose(scores, frozen, rtol=0, atol=1e-10)


def test_pagerank_matches_dense_eigensolver(rng):
    for _ in range(12):
        g = random_digraph(rng)
        scores = q.pagerank(q.google_matrix(g))
        assert_allclose(scores, pagerank_dense(g), atol=1e-9)
        assert scores.min() > 0
        assert_allclose(scores.sum(), 1.0, atol=1e-12)


def test_pagerank_permutation_equivariance(rng):
    g = random_digraph(rng, n_max=7)
    perm = rng.permutation(g.n)
    gp = q.DirectedGraph(
        n=g.n, edges=frozenset((int(perm[u]), int(perm[v])) for u, v in g.edges)
    )
    base = q.pagerank(q.google_matrix(g))
    permuted = q.pagerank(q.google_matrix(gp))
    assert_allclose(permuted[perm], base, atol=1e-11)


def test_pagerank_rejects_non_stochastic():
    with pytest.raises(ValueError):
        q.pagerank(np.eye(2) * 0.5)
    with pytest.raises(ValueError):
        q.pagerank(np.array([[1.5, 0.0], [-0.5, 1.0]]))


def test_pagerank_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        q.pagerank(np.full((2, 3), 0.5))


@pytest.mark.parametrize("matrix, message", [
    (np.array(0.5), "square"),  # 0-d: the shape is checked before it is read
    (np.full((2, 2), np.nan), "column-stochastic"),  # refused before any iteration
])
def test_pagerank_checks_input_before_iterating(matrix, message):
    with pytest.raises(ValueError, match=message):
        q.pagerank(matrix)


def test_pagerank_honors_iteration_cap(two_node_graph, monkeypatch):
    monkeypatch.setattr("qswalk.graph.PAGERANK_MAX_ITER", 2)
    m = q.google_matrix(two_node_graph)
    with pytest.raises(q.ConvergenceError, match="in 2 iterations"):
        q.pagerank(m)
