import itertools
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bassinv import cli, polynomials
from bassinv.errors import GraphFormatError
from bassinv.resgraph import (genus_sum, intersection_matrix,
                              is_negative_definite, load_graph, loop_count)

from conftest import WAHL_GRAPH, poly


def graph_doc(self_ints, edges, genera=None):
    genera = genera or [0] * len(self_ints)
    return {
        "vertices": [{"id": i + 1, "genus": g, "self_intersection": s}
                     for i, (g, s) in enumerate(zip(genera, self_ints))],
        "edges": [list(e) for e in edges],
    }


class TestLoad:
    def test_wahl_fixture(self):
        g = load_graph(str(WAHL_GRAPH))
        assert len(g.vertices) == 7
        assert all(v.genus == 0 for v in g.vertices)
        assert sorted(v.self_intersection for v in g.vertices) == \
            [-3, -2, -2, -2, -2, -2, -2]
        assert len(g.edges) == 6
        assert loop_count(g) == 0  # a tree

    def test_single_vertex(self):
        g = load_graph(graph_doc([-1], [], genera=[1]))
        assert len(g.vertices) == 1 and not g.edges

    def test_positive_self_intersection_rejected(self):
        with pytest.raises(GraphFormatError):
            load_graph(graph_doc([1], []))
        with pytest.raises(GraphFormatError):
            load_graph(graph_doc([0], []))

    def test_dangling_edge_rejected(self):
        with pytest.raises(GraphFormatError):
            load_graph(graph_doc([-2, -2], [(1, 3)]))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            load_graph(graph_doc([-2], [(1, 1)]))

    def test_duplicate_id_rejected(self):
        doc = graph_doc([-2, -2], [])
        doc["vertices"][1]["id"] = 1
        with pytest.raises(GraphFormatError):
            load_graph(doc)

    def test_negative_genus_rejected(self):
        with pytest.raises(GraphFormatError):
            load_graph(graph_doc([-2], [], genera=[-1]))

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(GraphFormatError, match="invalid JSON"):
            load_graph(bad)

    @pytest.mark.parametrize("raw", [b"\xff\xfe{", b'{"vertices": "\xe9"}'],
                             ids=["utf16-bom", "latin1"])
    def test_non_utf8_file(self, tmp_path, raw):
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        with pytest.raises(GraphFormatError, match="graph file is not UTF-8"):
            load_graph(bad)

    @pytest.mark.parametrize("text", ["[]", "7", "null", '"graph"'])
    def test_document_not_an_object(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(GraphFormatError,
                           match="graph document must be a JSON object"):
            load_graph(bad)

    @pytest.mark.parametrize("key", ["vertices", "edges"])
    @pytest.mark.parametrize("value", [None, {}, "[]", 3])
    def test_vertices_and_edges_must_be_lists(self, key, value):
        doc = graph_doc([-2], [])
        doc[key] = value
        with pytest.raises(GraphFormatError, match=f"'{key}' must be a list"):
            load_graph(doc)

    def test_missing_file(self):
        with pytest.raises(GraphFormatError):
            load_graph("no/such/file.json")

    def test_path_starting_with_a_brace(self, tmp_path):
        # a string is always a path, never JSON text
        text = json.dumps(graph_doc([-2], []))
        path = tmp_path / "{w}.json"
        path.write_text(text)
        assert len(load_graph(str(path)).vertices) == 1
        with pytest.raises(GraphFormatError, match="cannot read graph file"):
            load_graph(text)

    @pytest.mark.parametrize("field", ["id", "genus", "self_intersection"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_vertex_field_rejected(self, field, flag):
        doc = graph_doc([-2, -2], [(1, 2)])
        doc["vertices"][0][field] = flag
        with pytest.raises(GraphFormatError, match="must be integers"):
            load_graph(doc)

    @pytest.mark.parametrize("edge", [[True, 0], [0, True], [False, 1]])
    def test_boolean_edge_endpoint_rejected(self, edge):
        doc = graph_doc([-2, -2], [])
        doc["vertices"][0]["id"] = 0  # ids 0 and 1, which true/false equal
        doc["edges"] = [edge]
        with pytest.raises(GraphFormatError, match="expected \\[id, id\\]"):
            load_graph(doc)

    def test_unknown_keys_rejected_but_comments_ok(self):
        doc = graph_doc([-2], [])
        doc["_note"] = "fine"
        load_graph(doc)
        doc["extra"] = 1
        with pytest.raises(GraphFormatError):
            load_graph(doc)


class TestDerivedNumbers:
    def test_wahl_genus_and_loops(self):
        g = load_graph(str(WAHL_GRAPH))
        assert genus_sum(g) == 0
        assert loop_count(g) == 0

    def test_genus_sum(self):
        g = load_graph(graph_doc([-1, -2], [], genera=[1, 2]))
        assert genus_sum(g) == 3

    def test_empty_graph(self):
        g = load_graph({"vertices": [], "edges": []})
        assert genus_sum(g) == 0 and loop_count(g) == 0

    def test_triangle_has_one_loop(self):
        g = load_graph(graph_doc([-2, -2, -2], [(1, 2), (2, 3), (1, 3)]))
        assert loop_count(g) == 1

    def test_two_disjoint_edges(self):
        g = load_graph(graph_doc([-2] * 4, [(1, 2), (3, 4)]))
        assert loop_count(g) == 0

    def test_multi_edge_counts_as_loop(self):
        g = load_graph(graph_doc([-2, -2], [(1, 2), (1, 2)]))
        assert loop_count(g) == 1
        assert intersection_matrix(g)[0][1] == 2

    def test_adding_edge_in_component_adds_loop(self):
        base = [(1, 2), (2, 3), (3, 4)]
        g0 = load_graph(graph_doc([-2] * 4, base))
        g1 = load_graph(graph_doc([-2] * 4, base + [(1, 4)]))
        assert loop_count(g1) == loop_count(g0) + 1

    def test_relabeling_invariance(self):
        doc = graph_doc([-2, -2, -3], [(1, 2), (2, 3)])
        relabeled = {
            "vertices": [{"id": 30 - v["id"], "genus": v["genus"],
                          "self_intersection": v["self_intersection"]}
                         for v in doc["vertices"]],
            "edges": [[30 - a, 30 - b] for a, b in doc["edges"]],
        }
        assert loop_count(load_graph(doc)) == loop_count(load_graph(relabeled))
        assert genus_sum(load_graph(doc)) == genus_sum(load_graph(relabeled))

    @given(st.integers(0, 8).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(1, max(n, 1)),
                           st.integers(1, max(n, 1))), max_size=14))))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_loops_against_components(self, graph):
        # disconnected graphs, isolated vertices and repeated edges
        n, pairs = graph
        edges = [(a, b) for a, b in pairs if a != b]
        g = load_graph(graph_doc([-2] * n, edges))
        assert loop_count(g) == \
            len(edges) - n + dfs_components(range(1, n + 1), edges)

    @given(st.lists(st.integers(1, 5).flatmap(lambda size: st.lists(
        st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
        max_size=8).map(lambda pairs: (size, pairs))), min_size=2,
        max_size=4), st.integers(0, 4))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_loops_of_multigraph_unions(self, blocks, repeat):
        # two to four blocks on separate, negative and spaced-out ids, and
        # the first `repeat` edges drawn twice
        vertices, edges, start = [], [], -20
        for size, pairs in blocks:
            ids = [start + 3 * k for k in range(size)]
            vertices += ids
            edges += [(ids[a], ids[b]) for a, b in pairs if a != b]
            start += 3 * size + 1
        edges += edges[:repeat]
        doc = {"vertices": [{"id": v, "genus": 0, "self_intersection": -2}
                            for v in vertices],
               "edges": [list(e) for e in edges]}
        components = dfs_components(vertices, edges)
        assert components >= len(blocks)
        assert loop_count(load_graph(doc)) == \
            len(edges) - len(vertices) + components


def dfs_components(vertices, edges):
    """The number of connected components, by a depth-first search."""
    neighbours = {v: [] for v in vertices}
    for a, b in edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    seen, components = set(), 0
    for v in neighbours:
        if v in seen:
            continue
        components += 1
        seen.add(v)
        stack = [v]
        while stack:
            for w in neighbours[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return components


class TestNoElimination:
    def test_graph_checks_make_no_echelon_call(self, monkeypatch):
        # the loop count and the definiteness test need no elimination:
        # the spy replaces _echelon_add in every module that holds it, so
        # an import by name is counted too
        calls = []
        add = polynomials._echelon_add

        def spy(echelon, row):
            calls.append(row)
            return add(echelon, row)

        for name, module in list(sys.modules.items()):
            if name.startswith("bassinv."):
                for attr, value in list(vars(module).items()):
                    if value is add:
                        monkeypatch.setattr(module, attr, spy)
        polynomials.find_weights(poly("x^2+y^3+z^5"))
        assert calls  # the spy sees a call
        calls.clear()
        info = cli._load_graph_data(WAHL_GRAPH)
        assert (info["g"], info["l"], info["negative_definite"]) == \
            (0, 0, True)
        assert calls == []


class TestIntersectionMatrix:
    def test_single_vertex(self):
        g = load_graph(graph_doc([-2], []))
        assert intersection_matrix(g) == [[-2]]

    def test_chain_of_two(self):
        g = load_graph(graph_doc([-2, -2], [(1, 2)]))
        assert intersection_matrix(g) == [[-2, 1], [1, -2]]

    def test_wahl_matrix(self):
        g = load_graph(str(WAHL_GRAPH))
        assert intersection_matrix(g) == [
            [-2, 1, 0, 0, 0, 0, 0],
            [1, -2, 1, 0, 0, 0, 0],
            [0, 1, -2, 1, 0, 1, 0],
            [0, 0, 1, -2, 1, 0, 0],
            [0, 0, 0, 1, -2, 0, 0],
            [0, 0, 1, 0, 0, -2, 1],
            [0, 0, 0, 0, 0, 1, -3],
        ]


def _definite_by_sampling(matrix, radius=2):
    """Oracle: x^T M x < 0 for every nonzero lattice x in a box.

    Necessary for negative definiteness; for small matrices over a modest box
    it is a strong independent check.
    """
    n = len(matrix)
    for x in itertools.product(range(-radius, radius + 1), repeat=n):
        if all(v == 0 for v in x):
            continue
        q = sum(x[i] * matrix[i][j] * x[j] for i in range(n) for j in range(n))
        if q >= 0:
            return False
    return True


class TestNegativeDefinite:
    def test_single(self):
        assert is_negative_definite([[-2]])
        assert not is_negative_definite([[1]])
        assert not is_negative_definite([[0]])

    def test_chain_of_two(self):
        assert is_negative_definite([[-2, 1], [1, -2]])  # det 3

    def test_indefinite(self):
        assert not is_negative_definite([[-1, 2], [2, -1]])  # det -3

    def test_wahl_matrix(self):
        g = load_graph(str(WAHL_GRAPH))
        m = intersection_matrix(g)
        assert is_negative_definite(m)
        assert _definite_by_sampling(m, radius=1)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            is_negative_definite([[-1, 2], [0, -1]])
        with pytest.raises(ValueError):
            is_negative_definite([[-1, 0], [0, -1], [0, 0]])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_lattice_sampling(self, n):
        rng = random.Random(1234 + n)
        for _ in range(40):
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    v = rng.randint(-3, 3)
                    m[i][j] = m[j][i] = v
            assert is_negative_definite(m) == _definite_by_sampling(m, 3)

    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.integers(-4, 4), min_size=n * (n + 1) // 2,
        max_size=n * (n + 1) // 2).map(lambda v: _symmetric(n, v))))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_agrees_with_cofactor_minors(self, m):
        minors = [_cofactor_det([row[:k] for row in m[:k]])
                  for k in range(1, len(m) + 1)]
        expected = all((-1) ** k * d > 0 for k, d in enumerate(minors, 1))
        assert is_negative_definite(m) == expected

    @given(st.integers(7, 10).flatmap(lambda n: st.tuples(
        st.lists(st.integers(-4, -1), min_size=n, max_size=n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=n + 2))), st.integers(0, 3))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_agrees_with_gaussian_minors(self, graph, repeat):
        # intersection matrices at resolution-graph size, past where
        # cofactor expansion is cheap: the first `repeat` edges twice
        self_ints, pairs = graph
        edges = [(a, b) for a, b in pairs if a != b]
        edges += edges[:repeat]
        m = [[s if i == j else 0 for j in range(len(self_ints))]
             for i, s in enumerate(self_ints)]
        for a, b in edges:
            m[a][b] += 1
            m[b][a] += 1
        doc = graph_doc(self_ints, [(a + 1, b + 1) for a, b in edges])
        assert intersection_matrix(load_graph(doc)) == m
        minors = [_gaussian_det([row[:k] for row in m[:k]])
                  for k in range(1, len(m) + 1)]
        expected = all((-1) ** k * d > 0 for k, d in enumerate(minors, 1))
        assert is_negative_definite(m) == expected

    @pytest.mark.parametrize("m, definite", [
        ([[-2, 1, 0], [1, -2, 1], [0, 1, -2]], True),   # A_3
        ([[-1, 1, 0], [1, -1, 0], [0, 0, -1]], False),  # D_2 = 0
        ([[0, 1], [1, 0]], False),                      # D_1 = 0
    ])
    def test_zero_leading_minor(self, m, definite):
        assert is_negative_definite(m) is definite


def _symmetric(n, values):
    """The n x n symmetric matrix whose lower triangle is `values`."""
    it = iter(values)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            m[i][j] = m[j][i] = next(it)
    return m


def _cofactor_det(m):
    """Determinant by Laplace expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * a * _cofactor_det([row[:j] + row[j + 1:]
                                               for row in m[1:]])
               for j, a in enumerate(m[0]) if a)


def _gaussian_det(m):
    """Determinant by Gaussian elimination over Fractions, swapping in a
    nonzero pivot where one is needed."""
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            r = a[i][k] / a[k][k]
            a[i] = [x - r * y for x, y in zip(a[i], a[k])]
    return det
