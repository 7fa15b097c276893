"""Good-resolution dual graphs: validation and derived numerical data.

Graphs are user-supplied input (resolution of singularities is out of scope
for this tool).  File format: a JSON object

    {"vertices": [{"id": int, "genus": int, "self_intersection": int}, ...],
     "edges": [[id, id], ...]}

with distinct integer ids, strictly negative self-intersections, and edges
between existing distinct vertices; true and false are not integers here.
Multi-edges are allowed (two components may meet more than once); self-loops
are not, because the components of a good resolution are smooth and cross
normally.  Keys starting with "_" are ignored, so fixtures can carry
commentary.
"""

import json
from collections import namedtuple

from .errors import GraphFormatError


Vertex = namedtuple("Vertex", "id genus self_intersection")


class ResolutionGraph(namedtuple("ResolutionGraph", "vertices edges")):
    """Vertices, and edges as pairs (id, id) with id_a <= id_b, multiplicity
    by repetition."""

    __slots__ = ()


def _is_int(x):
    """A JSON integer; Python counts the bools true and false as ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def load_graph(source):
    """Parse and validate a graph from a file path or a dict."""
    if isinstance(source, dict):
        doc = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise GraphFormatError(f"cannot read graph file: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"graph file is not UTF-8: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("graph document must be a JSON object")
    unknown = [k for k in doc if k not in ("vertices", "edges")
               and not k.startswith("_")]
    if unknown:
        raise GraphFormatError(f"unknown keys: {unknown}")
    raw_vertices = doc.get("vertices")
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_vertices, list):
        raise GraphFormatError("'vertices' must be a list")
    if not isinstance(raw_edges, list):
        raise GraphFormatError("'edges' must be a list")
    vertices = []
    seen = set()
    for entry in raw_vertices:
        if (not isinstance(entry, dict)
                or not {"id", "genus", "self_intersection"} <= set(entry)):
            raise GraphFormatError(
                "each vertex needs 'id', 'genus' and 'self_intersection'")
        vid = entry["id"]
        genus = entry["genus"]
        self_int = entry["self_intersection"]
        if not all(map(_is_int, (vid, genus, self_int))):
            raise GraphFormatError(f"vertex {entry}: fields must be integers")
        if vid in seen:
            raise GraphFormatError(f"duplicate vertex id {vid}")
        if genus < 0:
            raise GraphFormatError(f"vertex {vid}: genus must be >= 0")
        if self_int >= 0:
            raise GraphFormatError(
                f"vertex {vid}: self-intersection must be negative")
        seen.add(vid)
        vertices.append(Vertex(vid, genus, self_int))
    edges = []
    for pair in raw_edges:
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(map(_is_int, pair))):
            raise GraphFormatError(f"edge {pair!r}: expected [id, id]")
        a, b = pair
        if a == b:
            raise GraphFormatError(
                f"edge [{a}, {b}]: self-loops are not allowed")
        if a not in seen or b not in seen:
            raise GraphFormatError(f"edge [{a}, {b}]: dangling endpoint")
        edges.append((a, b) if a <= b else (b, a))
    vertices.sort(key=lambda v: v.id)
    edges.sort()
    return ResolutionGraph(tuple(vertices), tuple(edges))


def genus_sum(graph):
    """g: the sum of the component genera."""
    return sum(v.genus for v in graph.vertices)


def loop_count(graph):
    """l: the first Betti number, edges - vertices + components.

    A union-find over the vertex ids takes the edges in turn.  An edge
    that joins two components merges them, one fewer; the others close a
    cycle each, and l counts them.
    """
    parent = {v.id: v.id for v in graph.vertices}

    def root(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]  # path halving
        return a

    loops = 0
    for a, b in graph.edges:
        ra, rb = root(a), root(b)
        if ra == rb:
            loops += 1
        else:
            parent[ra] = rb
    return loops


def intersection_matrix(graph):
    """Symmetric integer matrix: E_i.E_i on the diagonal, edge counts off it.

    Rows follow vertex ids in increasing order.
    """
    index = {v.id: i for i, v in enumerate(graph.vertices)}
    n = len(index)
    mat = [[0] * n for _ in range(n)]
    for i, v in enumerate(graph.vertices):
        mat[i][i] = v.self_intersection
    for a, b in graph.edges:
        i, j = index[a], index[b]
        mat[i][j] += 1
        mat[j][i] += 1
    return mat


def is_negative_definite(matrix):
    """Sylvester's test in exact arithmetic: D_k(-M) > 0 for every leading
    minor of -M, M the integer matrix.

    Bareiss's fraction-free elimination (Math. Comp. 1968) on A = -M
    replaces, at step k, each entry below and right of the pivot by
    (a_kk * a_ij - a_ik * a_kj) / p, p the previous pivot (1 at first).
    By Sylvester's identity the division is exact and the k-th pivot is
    the leading minor D_k(A), so the test stops at the first pivot <= 0.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i):
            if matrix[i][j] != matrix[j][i]:
                raise ValueError("matrix is not symmetric")
    a = [[-x for x in row] for row in matrix]
    prev = 1
    for k in range(n):
        row_k = a[k]
        pivot = row_k[k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            row_i = a[i]
            c = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - c * row_k[j]) // prev
        prev = pivot
    return True
