import itertools

import pytest
from hypothesis import strategies as st

from raaggrowth import SimpleGraph

# name -> "PASS" / "FAIL", filled by tests/test_acceptance.py
ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, status in ACCEPTANCE_RESULTS.items():
        terminalreporter.write_line(f"{status:4s}  {name}")


@pytest.fixture
def z1():
    return SimpleGraph.make(["a"], [])


@pytest.fixture
def z2():
    return SimpleGraph.make(["a", "b"], [["a", "b"]])


@pytest.fixture
def f2():
    return SimpleGraph.make(["a", "b"], [])


@pytest.fixture
def path4():
    return SimpleGraph.make(["a", "b", "c", "d"], [["a", "b"], ["b", "c"], ["c", "d"]])


@pytest.fixture
def edgeless4():
    return SimpleGraph.make(["a", "b", "c", "d"], [])


def complete_graph(n):
    labels = [f"v{i}" for i in range(n)]
    return SimpleGraph.make(labels, [[labels[i], labels[j]] for i in range(n) for j in range(i + 1, n)])


def z_star_zn(n):
    labels = ["a"] + [f"b{i}" for i in range(n)]
    return SimpleGraph.make(labels, [[f"b{i}", f"b{j}"] for i in range(n) for j in range(i + 1, n)])


def labelled_graphs(labels):
    """Every graph on the labelled vertices ``labels``, in order of edge mask."""
    pairs = list(itertools.combinations(labels, 2))
    return [SimpleGraph.make(list(labels), [list(p) for i, p in enumerate(pairs) if mask >> i & 1])
            for mask in range(1 << len(pairs))]


def all_three_vertex_graphs():
    """All 8 graphs on labeled vertices x, y, z."""
    return labelled_graphs(["x", "y", "z"])


def path_graph(n):
    labels = [chr(ord("a") + i) for i in range(n)]
    return SimpleGraph.make(labels, [[labels[i], labels[i + 1]] for i in range(n - 1)])


def cycle_graph(n):
    labels = [chr(ord("a") + i) for i in range(n)]
    return SimpleGraph.make(labels, [[labels[i], labels[(i + 1) % n]] for i in range(n)])


@st.composite
def small_graphs(draw, min_vertices=0, max_vertices=4):
    """Graphs on min_vertices..max_vertices vertices with a random edge set."""
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    labels = [f"v{i}" for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    return SimpleGraph.make(labels, [p for p in pairs if draw(st.booleans())])
