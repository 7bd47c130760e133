import random

import numpy as np
import pytest

import qswalk as q
from qswalk.data import load_bundled


@pytest.fixture(scope="session")
def two_node_graph():
    return load_bundled("two_node")


@pytest.fixture(scope="session")
def six_node_graph():
    return load_bundled("six_node")


@pytest.fixture(scope="session")
def two_node_model(two_node_graph):
    return q.build_qsw(two_node_graph)


@pytest.fixture(scope="session")
def six_node_model(six_node_graph):
    return q.build_qsw(six_node_graph)


@pytest.fixture(scope="session")
def two_node_classical(two_node_graph):
    return q.build_qsw(two_node_graph, coherent_weight=0.0)


def _random_model(n):
    # n nodes and 3n distinct edges, drawn as perfbench draws its dense graph
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return q.build_qsw(q.DirectedGraph(n=n, edges=frozenset(random.Random(1).sample(pairs, 3 * n))))


@pytest.fixture(scope="session")
def random16_model():
    return _random_model(16)


@pytest.fixture(scope="session")
def random64_model():
    return _random_model(64)


@pytest.fixture(scope="session")
def single_node_model():
    return q.build_qsw(q.DirectedGraph(n=1, edges=frozenset()))


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
