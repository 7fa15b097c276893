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
from .polynomials import _echelon_add


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
    """l: the first Betti number, edges minus the incidence matrix's rank.

    The edge [a, b] is the row e_a - e_b, and the rank is the size of
    the echelon form that _echelon_add builds from them.  That rank is
    vertices minus components, so l is also edges - vertices + components.
    """
    echelon = {}
    for a, b in graph.edges:
        _echelon_add(echelon, {a: 1, b: -1})
    return len(graph.edges) - len(echelon)


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

    The rows of -M go to _echelon_add in order.  When the k-th gets
    pivot k, it enters as a positive multiple of its Gaussian-elimination
    row, whose k-th entry is D_k(-M)/D_(k-1)(-M): _clear only multiplies
    by a positive lcm and divides by a positive gcd.  Clearing later pivots
    from it never changes that entry's sign, because each later row is zero
    at column k.  So M is negative definite exactly when the pivots, in
    row order, are 0, ..., n-1 and every row is positive at its pivot.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i):
            if matrix[i][j] != matrix[j][i]:
                raise ValueError("matrix is not symmetric")
    echelon = {}
    for row in matrix:
        _echelon_add(echelon, {j: -x for j, x in enumerate(row) if x})
    if list(echelon) != list(range(n)):
        return False
    return all(row[p] > 0 for p, row in echelon.items())
