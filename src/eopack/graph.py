"""Immutable bitset graphs: graph6 codec, named generators, exhaustive enumeration.

Vertices are dense integers 0..n-1 and every vertex set in this package is a
Python int used as a bitset.  Graphs are immutable after construction, so they
can be shared freely between solvers and enumerated corpora can be cached.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import Iterator, Optional, Sequence

_G6_HEADER = ">>graph6<<"
_MASK64 = (1 << 64) - 1


class GraphError(ValueError):
    """Malformed encoding or invalid generator parameters."""


# Every graph on at most _PAIR_BOUND vertices takes the tuple of its edge {v, u},
# v < u, from row v of this table, so a pair is one object however many graphs hold
# it; a row is made the first time a graph needs it, and the table never holds more
# than the 2,016 pairs below the bound.  A larger graph makes its own tuples.
_PAIR_BOUND = 64
_PAIRS: list = [None] * _PAIR_BOUND


def _pair_row(v: int) -> tuple:
    """Fill row v of :data:`_PAIRS`: the shared ``(v, u)`` at index u, for v < u < _PAIR_BOUND."""
    row = _PAIRS[v] = (None,) * (v + 1) + tuple((v, u) for u in range(v + 1, _PAIR_BOUND))
    return row


class Graph:
    """Immutable simple graph: order, adjacency bitsets, canonical edge list.

    ``adj[v]`` is the neighbor bitset of ``v``; ``edges`` is the sorted tuple
    of pairs ``(u, v)`` with ``u < v``; ``edge_index`` maps each such pair to
    its position in ``edges``.

    A graph on at most 64 vertices holds no pair of its own: each pair is the
    one tuple that every such graph shares (:data:`_PAIRS`), so an edge costs
    the graph an 8-byte slot of ``edges`` rather than a 56-byte tuple.
    ``edge_index`` is built on first access and kept, since only witness
    builders, tree certificates and the root group's edge lift read it; the
    10,816 products of the four kinds over graphs on at most 5 vertices take
    14 MB under tracemalloc, 75 MB when each graph made its own tuples and
    index.  Copies and pickles rebuild the graph from ``n`` and ``adj``.
    """

    __slots__ = ("n", "adj", "edges", "_edge_index")

    def __init__(self, n: int, adj: Sequence[int]):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        if len(adj) != n:
            raise GraphError("adjacency list length does not match vertex count")
        full = (1 << n) - 1
        shared = n <= _PAIR_BOUND
        edges = []
        for v in range(n):
            row = adj[v]
            if row & ~full:
                raise GraphError(f"neighbor out of range at vertex {v}")
            if row & (1 << v):
                raise GraphError(f"loop at vertex {v}")
            rest = row >> (v + 1)
            pairs = (_PAIRS[v] or _pair_row(v)) if shared else None
            while rest:
                low = rest & -rest
                u = v + low.bit_length()
                if not (adj[u] >> v) & 1:
                    raise GraphError(f"asymmetric adjacency between {v} and {u}")
                edges.append(pairs[u] if shared else (v, u))
                rest ^= low
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "edges", tuple(edges))  # already sorted: by v, then u

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # rebuilt from its rows, so copies and pickles never carry the index slot
        return Graph, (self.n, self.adj)

    @property
    def edge_index(self) -> dict:
        try:
            return self._edge_index
        except AttributeError:
            index = {e: i for i, e in enumerate(self.edges)}
            object.__setattr__(self, "_edge_index", index)
            return index

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple:
        return tuple(bits(self.adj[v]))

    def min_degree(self) -> int:
        return min((self.degree(v) for v in range(self.n)), default=0)

    def without_edges(self, drop) -> "Graph":
        """Copy with the given edges removed; edges absent from the graph are an error."""
        dropset = {(min(u, v), max(u, v)) for u, v in drop}
        for u, v in dropset:
            if not self.has_edge(u, v):
                raise GraphError(f"edge ({u},{v}) not present")
        keep = [e for e in self.edges if e not in dropset]
        return Graph.from_edges(self.n, keep)

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# graph6 codec (headerless, standard 6-bit encoding)
# ---------------------------------------------------------------------------

# (leading '~' marks, 6-bit characters, orders below this bound) of the order
# field; the first row that fits n is the one written, any row is read
_G6_ORDER_FIELDS = ((0, 1, 63), (1, 3, 1 << 18), (2, 6, 1 << 36))
# graph6 character code -> its six bits as "0"/"1" text, for str.translate
_G6_SIX_BITS = {c: format(c - 63, "06b") for c in range(63, 127)}


def _bit_string(adj: Sequence[int]) -> str:
    """Upper-triangle adjacency as a "0"/"1" string in graph6 pair order.

    Pairs are column-major, x(0,1) x(0,2) x(1,2) x(0,3) ..., so column j is
    the low j bits of ``adj[j]``, lowest vertex first.  :func:`_smaller_strings`
    emits its strings in the same order, first pair most significant.
    """
    return "".join(
        format(adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, len(adj))
    )


def _rows_from_bit_string(n: int, s: str) -> list:
    """Inverse of :func:`_bit_string` on a string of n(n-1)/2 bits, as symmetric rows."""
    r, end = s[::-1], len(s)  # column j, s[j(j-1)/2 : j(j+1)/2] reversed, is a slice of r
    adj = [0] * n
    for j in range(1, n):
        adj[j] = int(r[end - j * (j + 1) // 2 : end - j * (j - 1) // 2], 2)
        col, bit = adj[j], 1 << j
        while col:
            low = col & -col
            adj[low.bit_length() - 1] |= bit
            col ^= low
    return adj


def _pack_bits(g: Graph) -> int:
    """Adjacency bitstring of g packed into an int, first pair most significant."""
    return int(_bit_string(g.adj) or "0", 2)


def _graph_from_bits(n: int, packed: int) -> Graph:
    return Graph(n, _rows_from_bit_string(n, format(packed, f"0{n * (n - 1) // 2}b")))


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (optional ``>>graph6<<`` header tolerated).

    Only spaces, tabs, carriage returns and newlines around it are ignored;
    an error names its byte as an offset into ``text`` itself.
    """
    s = text.rstrip(" \t\r\n")
    start = len(s) - len(s.lstrip(" \t\r\n"))
    if s.startswith(_G6_HEADER, start):
        start += len(_G6_HEADER)
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise GraphError(f"non-ASCII character at byte {exc.start}") from None
    if len(data) == start:
        raise GraphError("empty graph6 string")

    def six_bits(lo: int, hi: int) -> str:
        """``s[lo:hi]`` as a "0"/"1" string, six bits per character."""
        out = s[lo:hi].translate(_G6_SIX_BITS)
        if len(out) != 6 * (hi - lo):  # a character outside the table stays one character
            k = next(k for k in range(lo, hi) if not 63 <= data[k] <= 126)
            raise GraphError(f"out-of-range character at byte {k}")
        return out

    marks = 2 if data.startswith(b"~~", start) else 1 if data.startswith(b"~", start) else 0
    pos = start + marks + _G6_ORDER_FIELDS[marks][1]
    if len(data) < pos:
        raise GraphError(f"truncated length field at byte {len(data)}")
    n = int(six_bits(start + marks, pos), 2)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise GraphError(f"truncated edge data at byte {len(data)}")
    if len(data) - pos > nbytes:
        raise GraphError(f"trailing bytes at byte {pos + nbytes}")
    body = six_bits(pos, len(data))
    if "1" in body[nbits:]:
        raise GraphError(f"nonzero padding bits at byte {pos + nbytes - 1}")
    return Graph(n, _rows_from_bit_string(n, body[:nbits]))


def write_graph6(g: Graph) -> str:
    """Encode g as a headerless graph6 string."""
    n = g.n
    for marks, width, bound in _G6_ORDER_FIELDS:
        if n < bound:
            break
    else:
        raise GraphError("graph too large for graph6")
    body = _bit_string(g.adj)
    body += "0" * (-len(body) % 6)
    fields = [(n >> 6 * k) & 63 for k in reversed(range(width))]
    fields += (int(body[k : k + 6], 2) for k in range(0, len(body), 6))
    return "~" * marks + "".join(chr(63 + x) for x in fields)


def iter_graph6(text: str) -> Iterator[Graph]:
    """Parse a newline-separated multi-graph file body.

    Blank lines are skipped.  A malformed line raises :class:`GraphError`
    prefixed with its 1-based line number; its byte offset counts from the
    start of the line.
    """
    for lineno, line in enumerate(text.split("\n"), 1):
        if line.strip(" \t\r\n"):
            try:
                g = parse_graph6(line)
            except GraphError as exc:
                raise GraphError(f"line {lineno}: {exc}") from None
            yield g


# ---------------------------------------------------------------------------
# named generators
# ---------------------------------------------------------------------------

def empty_graph(n: int) -> Graph:
    return Graph(n, [0] * n)


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise GraphError("complete bipartite needs positive sides")
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def subdivided_star(lengths: Sequence[int]) -> Graph:
    """Center vertex 0 joined to one leaf of each of k disjoint paths.

    Path i occupies a consecutive vertex block; the center attaches to the
    first vertex of each block.
    """
    if not lengths or any(l < 1 for l in lengths):
        raise GraphError("subdivided star needs positive path lengths")
    edges = []
    base = 1
    for l in lengths:
        edges.append((0, base))
        edges.extend((base + t, base + t + 1) for t in range(l - 1))
        base += l
    return Graph.from_edges(base, edges)


def star(r: int) -> Graph:
    if r < 1:
        raise GraphError("star needs r >= 1")
    return subdivided_star([1] * r)


def spider(k: int) -> Graph:
    if k < 1:
        raise GraphError("spider needs k >= 1")
    return subdivided_star([2] * k)


def hypercube(n: int) -> Graph:
    """n-fold Cartesian power of an edge: vertices are n-bit masks."""
    if n < 1:
        raise GraphError("hypercube needs n >= 1")
    edges = []
    for v in range(1 << n):
        for b in range(n):
            u = v | (1 << b)
            if u != v:
                edges.append((v, u))
    return Graph.from_edges(1 << n, edges)


def figure1(r: int) -> Graph:
    """Chain of 2r+1 gadget-decorated vertices on 4(2r+1) vertices.

    The chain vertices t_0..t_2r form a P3 followed by r-1 disjoint P2
    segments (t_0t_1, t_1t_2, then t_3t_4, t_5t_6, ...).  Each t_i carries a
    pendant 4-cycle t_i - a_i - x_i - y_i - t_i whose vertex opposite t_i is
    x_i.  Deleting the 2r+1 edges x_i y_i (see :func:`figure1_xy_edges`)
    drops the edge open packing number from 4r+2 to 3r+2.
    """
    if r < 1:
        raise GraphError("figure1 needs r >= 1")
    k = 2 * r + 1
    edges = [(0, 1), (1, 2)]
    edges.extend((2 * j + 1, 2 * j + 2) for j in range(1, r))
    for i in range(k):
        a, y, x = k + 3 * i, k + 3 * i + 1, k + 3 * i + 2
        edges.extend([(i, a), (i, y), (a, x), (y, x)])
    return Graph.from_edges(4 * k, edges)


def figure1_xy_edges(r: int) -> list:
    """The deletable x_i y_i edges of :func:`figure1` (bottom to right corner)."""
    k = 2 * r + 1
    return [(k + 3 * i + 1, k + 3 * i + 2) for i in range(k)]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _bfs(adj: Sequence[int], root: int) -> tuple:
    """Breadth-first ``(order, parent)`` from ``root`` over bitset rows, neighbours ascending.

    ``order`` lists the vertices reached and ``parent[i]`` is the parent of
    ``order[i]`` (-1 for the root), so a call costs only its component.
    """
    order, parent = [root], [-1]
    seen = 1 << root
    for v in order:
        rest = adj[v] & ~seen
        seen |= rest
        while rest:
            low = rest & -rest
            order.append(low.bit_length() - 1)
            parent.append(v)
            rest ^= low
    return order, parent


def _bfs_dist(g: Graph, src: int) -> list:
    order, parent = _bfs(g.adj, src)
    dist = [math.inf] * g.n
    dist[src] = 0
    for v, p in zip(order[1:], parent[1:]):
        dist[v] = dist[p] + 1
    return dist


def distances(g: Graph) -> list:
    """All-pairs hop distances; unreachable pairs are ``math.inf``."""
    return [_bfs_dist(g, v) for v in range(g.n)]


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(_bfs(g.adj, 0)[0]) == g.n


def bipartition(g: Graph) -> Optional[tuple]:
    """Two-coloring ``(A1, A2)`` or None if an odd cycle exists.

    Within each connected component the side holding its lowest-index vertex
    goes to A1, so the answer is deterministic.
    """
    side = [-1] * g.n
    for root in range(g.n):
        if side[root] < 0:
            order, parent = _bfs(g.adj, root)
            side[root] = 0
            for v, p in zip(order[1:], parent[1:]):
                side[v] = side[p] ^ 1
    masks = [0, 0]
    for v in range(g.n):
        masks[side[v]] |= 1 << v
    if any(g.adj[v] & masks[side[v]] for v in range(g.n)):
        return None
    return tuple(bits(masks[0])), tuple(bits(masks[1]))


# ---------------------------------------------------------------------------
# canonical form and enumeration
# ---------------------------------------------------------------------------

def canonical_form(g: Graph) -> int:
    """Lexicographically least adjacency bitstring over all vertex orderings.

    The last string yielded by :func:`_smaller_strings` from a bound above
    every string, or 0 when g has no vertices.  Intended for small graphs
    (n <= ~10).
    """
    form = 0
    for form in _smaller_strings(g.n, g.adj, 1 << (g.n * (g.n - 1) // 2)):
        pass
    return form


def _smaller_strings(n: int, adj: Sequence[int], best: int) -> Iterator[int]:
    """Adjacency strings of orderings of the rows ``adj``, each below the last.

    Yields a string only when it is strictly below ``best``, the bound
    given or the last string yielded, so the stream strictly decreases and
    is empty exactly when no vertex ordering beats ``best``; from a bound
    above every string it ends at the canonical form.

    Branch-and-bound over partial orderings: placing vertex v at position j
    appends the j-bit word of v (its adjacency to the already placed
    vertices, oldest first).  A node extends its prefix only by the cell of
    unplaced vertices of least word, found with one mask filter per placed
    vertex: keep the cell's non-neighbours of that vertex if there are any
    (word bit 0), else keep the cell (word bit 1).  This is exact because
    every word at depth j has exactly j bits, so for a fixed prefix a child
    of larger word exceeds every completion of a child of least word.  The
    node is cut when its extended prefix exceeds that of ``best``, and the
    node at depth n - 1 is a leaf.  Twins (vertices whose neighborhoods
    agree apart from each other) are interchangeable by an automorphism that
    fixes every other vertex, so only the first vertex of each twin class in
    the cell is tried.
    """
    nbits = n * (n - 1) // 2
    head = list(range(n))
    twins = [0] * n
    for v in range(n):
        for u in range(v):
            if head[u] == u and adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                head[v] = u
                break
        twins[head[v]] |= 1 << v
    for v in range(n):
        twins[v] = twins[head[v]]  # the twin class of v
    full = (1 << n) - 1
    non_rows = [full ^ a for a in adj]

    def extend(depth: int, free: int, prefix: int, done: int, non: tuple):
        # free: unplaced vertices; non: non-neighbour rows of the placed ones, oldest first
        nonlocal best
        cell, word = free, 0
        for row in non:
            word <<= 1
            if cell & row:
                cell &= row
            else:
                word |= 1
        prefix = (prefix << depth) | word
        done += depth
        if prefix > best >> (nbits - done):
            return
        if depth == n - 1:
            if prefix < best:
                best = prefix
                yield prefix
            return
        while cell:
            low = cell & -cell
            v = low.bit_length() - 1
            cell &= ~twins[v]
            yield from extend(depth + 1, free ^ low, prefix, done, non + (non_rows[v],))

    yield from extend(0, full, 0, 0, ())


# ---------------------------------------------------------------------------
# automorphisms by individualization and refinement
# ---------------------------------------------------------------------------

# the cap on individualizations times vertices (relabelled Q_8 uses about 11,500)
_AUT_WORK_LIMIT = 1 << 17


def is_aut(g: Graph, p: Sequence[int]) -> bool:
    """Whether ``p`` (``v -> p[v]``) permutes the vertices and maps every edge to an edge."""
    return sorted(p) == list(range(g.n)) and _maps_edges(g.adj, p)


def _maps_edges(adj: Sequence[int], p: Sequence[int]) -> bool:
    # :func:`is_aut` for a permutation p, on symmetric rows.  An edge between
    # fixed vertices maps to itself; a moved u must have the fixed neighbours
    # of p[u], and each edge between moved vertices is checked from its lower end
    moved = sum(1 << u for u, x in enumerate(p) if u != x)
    fixed, left = ~moved, moved
    while left:
        lu = left & -left
        left ^= lu
        u = lu.bit_length() - 1
        row = adj[u]
        image = adj[p[u]]
        if (row ^ image) & fixed:
            return False
        rest = row & left
        while rest:
            low = rest & -rest
            if not (image >> p[low.bit_length() - 1]) & 1:
                return False
            rest ^= low
    return True


def orbit_masks(count: int, perms, domain: Optional[int] = None) -> list:
    """Orbits of the group that permutations of 0..count-1 generate, as masks by least element.

    With a mask ``domain`` that every permutation maps onto itself, only
    the orbits inside it, found from its elements alone.
    """
    items = range(count) if domain is None else list(bits(domain))
    root = list(range(count))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for p in perms:
        for i in items:
            j = p[i]
            if i != j:
                a, b = find(i), find(j)
                if a != b:
                    root[max(a, b)] = min(a, b)
    orbits: dict = {}
    for i in items:
        r = find(i)
        orbits[r] = orbits.get(r, 0) | (1 << i)
    return list(orbits.values())


def _refine(adj: Sequence[int], cells: list, ns: list, queue: list) -> None:
    """Refine an ordered partition in place to an equitable one.

    ``cells[s]`` is the vertex mask of the cell starting at position s (0 at
    other positions) and ``ns`` the ascending starts of the non-singleton
    cells; no per-vertex array is kept.  Each splitter taken from ``queue``
    (cell starts, first in first out) adds the rows of its vertices into
    *planes*, a vertical binary counter: plane j holds bit j of every
    vertex's neighbour count in the splitter, and their OR ``nbr`` holds the
    vertices with a neighbour there.  Each non-singleton cell meeting
    ``nbr``, in ascending start order, is split by the planes, most
    significant first, into its parts outside and inside each plane; so its
    fragments come out in ascending order of the count, the count-0
    fragment included.  A singleton splitter's only plane is its row, so
    each cell it touches splits into the parts outside and inside that row.
    A split cell already queued queues all its new fragments; otherwise all
    but its first largest fragment (Hopcroft's rule).  Refinement stops
    once the queue or ``ns`` is empty.  Nothing depends on vertex labels,
    so relabelling the graph relabels the result.
    """
    queued = set(queue)
    queue = deque(queue)
    while queue and ns:
        s = queue.popleft()
        queued.discard(s)
        x = cells[s]
        if not x & (x - 1):  # a singleton: each cell it touches splits by its row
            row = adj[x.bit_length() - 1]
            for st in [st for st in ns if 0 != cells[st] & row != cells[st]]:
                cell = cells[st]
                inside = cell & row
                out = cell ^ inside
                a = out.bit_count()
                cells[st], cells[st + a] = out, inside
                # queue both new parts if the cell was queued, else the smaller
                pos = st + a if st in queued or a >= inside.bit_count() else st
                queued.add(pos)
                queue.append(pos)
                i = ns.index(st)
                ns[i:i + 1] = [q for q, y in ((st, out), (st + a, inside)) if y & (y - 1)]
            continue
        planes, nbr = [], 0
        while x:
            low = x & -x
            x ^= low
            carry = adj[low.bit_length() - 1]
            nbr |= carry
            for j, plane in enumerate(planes):
                planes[j] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            if carry:
                planes.append(carry)
        planes.reverse()
        touched = [st for st in ns if cells[st] & nbr]
        split = {st for plane in planes for st in touched if 0 != cells[st] & plane != cells[st]}
        for st in sorted(split):
            cell = cells[st]
            parts = [cell]
            for plane in planes:
                if cell & plane not in (0, cell):  # else it splits no part
                    parts = [q for y in parts for q in (y & ~plane, y & plane) if q]
            sizes = [y.bit_count() for y in parts]
            keep = None if st in queued else sizes.index(max(sizes))
            pos = st
            starts = []
            for i, y in enumerate(parts):
                cells[pos] = y
                if y & (y - 1):
                    starts.append(pos)
                if i != keep and pos not in queued:
                    queued.add(pos)
                    queue.append(pos)
                pos += sizes[i]
            i = ns.index(st)
            ns[i:i + 1] = starts


def _individualize(adj, cells: list, ns: list, v: int) -> int:
    """Split v off the front of the first non-singleton cell, refine, and return the next.

    The first non-singleton cell starts at ``ns[0]``; the return value is
    the new ``ns[0]``, or -1 when the partition is discrete.
    """
    st = ns[0]
    rest = cells[st] ^ (1 << v)
    cells[st] = 1 << v
    cells[st + 1] = rest
    ns[:1] = [st + 1] if rest & (rest - 1) else []
    _refine(adj, cells, ns, [st])
    return ns[0] if ns else -1


def _twin_cell_generators(adj: Sequence[int], cells: list) -> Optional[list]:
    """A transposition and a full cycle of each non-singleton cell, if all are twin cells.

    None as soon as some non-singleton cell is not a twin cell.  Each cell
    costs one mask comparison per vertex; a 2-vertex cell gets only its
    transposition, which is also its cycle.
    """
    gens = []
    n = len(adj)
    for x in cells:
        if not x & (x - 1):
            continue
        cell = list(bits(x))
        v0 = cell[0]
        if not (
            all(adj[v] == adj[v0] for v in cell)
            or all(adj[v] | 1 << v == adj[v0] | 1 << v0 for v in cell)
        ):
            return None
        swap = list(range(n))
        swap[cell[0]], swap[cell[1]] = cell[1], cell[0]
        gens.append(tuple(swap))
        if len(cell) > 2:
            cyc = list(range(n))
            for a, b in zip(cell, cell[1:] + cell[:1]):
                cyc[a] = b
            gens.append(tuple(cyc))
    return gens


def automorphism_generators(g: Graph) -> list:
    """Automorphisms of g, as tuples ``p`` with ``v -> p[v]``, generating a subgroup of Aut(g).

    Individualization and refinement (McKay & Piperno, *Practical graph
    isomorphism II*, 2014).  The first path refines the unit partition and
    individualizes the lowest vertex of the first non-singleton cell until
    the partition is discrete.  Then, from the deepest level up, for each
    cell-mate w of that level's path vertex v not yet in v's orbit, a
    depth-first search below "individualize w" looks for a leaf whose map
    from the first leaf is an automorphism; branches whose cell sizes differ
    from the first path's at the same level are pruned.  Before it descends
    from a node, the search tries the map that node's cells imply, which is
    the map of the first leaf it would reach.  Every generator
    found at a level fixes the path vertices above it, so without limits the
    generators generate Aut(g).  One limit only shrinks the subgroup: the
    search stops, keeping what it found, once its individualizations times
    the order exceed ``_AUT_WORK_LIMIT``.  Every returned map passes
    :func:`is_aut`, so its orbits are orbits of a real subgroup.

    Refinement cannot split twins, so a graph with a large twin class would
    spend the whole work limit on its first path.  A *twin cell* is a cell
    whose vertices all have the same open neighborhood, or all the same
    closed one; any permutation of it fixing the other vertices is an
    automorphism.  So when every non-singleton cell of the refined unit
    partition is a twin cell, Aut(g) is exactly the product of the cells'
    symmetric groups (automorphisms preserve that partition), and the
    result is one transposition and one full cycle per cell, with no search.
    """
    return _automorphisms(g.adj)


def _automorphisms(adj: Sequence[int], domain: Optional[int] = None) -> list:
    """:func:`automorphism_generators` of the graph on 0..len(adj)-1 with these rows.

    With a vertex mask ``domain``, of the induced subgraph on it instead:
    rows are masked to the domain, and every map fixes the vertices outside
    it.  The search sees vertex labels only through their order, so the
    maps are those of the subgraph relabelled to 0..k-1 in vertex order,
    carried back.  Builds no :class:`Graph`, so a solver can ask it about
    many induced subgraphs cheaply.
    """
    n = len(adj)
    if domain is None:
        domain = (1 << n) - 1
    else:
        adj = [row & domain for row in adj]
    k = domain.bit_count()
    if k < 2:
        return []
    cells = [0] * k
    cells[0] = domain
    ns = [0]
    _refine(adj, cells, ns, [0])
    twins = _twin_cell_generators(adj, cells)
    if twins is not None:
        return twins
    steps = _AUT_WORK_LIMIT // k
    levels = []  # (cells, ns) before each individualization
    while ns:
        steps -= 1
        if steps < 0:
            return []
        levels.append((cells[:], ns[:]))
        x = cells[ns[0]]
        _individualize(adj, cells, ns, (x & -x).bit_length() - 1)
    path = [c for c, _ in levels] + [cells]  # the first path's cells at each level
    shapes = [[x.bit_count() for x in c] for c in path]

    def implied_map(first: list, cells: list) -> Optional[list]:
        # the map from the first path's cells to equally shaped ``cells``:
        # singletons by position, the identity on equal cells; None if a
        # non-singleton cell differs
        p = list(range(n))
        for a, b in zip(first, cells):
            if a != b:
                if a & (a - 1):
                    return None
                p[a.bit_length() - 1] = b.bit_length() - 1
        return p

    def leaf_automorphism(depth: int, w: int):
        # depth-first below "individualize w at depth" for an automorphic
        # leaf.  Below a node at level d whose implied map is an
        # automorphism, the search would follow the first path's choices to
        # that map's image of the first leaf, with len(levels) - d further
        # individualizations and no failed leaf; so the map is returned at
        # once and those steps are charged, and the result is the same
        nonlocal steps
        stack = [levels[depth] + (w, depth)]
        while stack and steps > 0:
            cells, ns, v, d = stack.pop()
            cells, ns = cells[:], ns[:]
            steps -= 1
            nxt = _individualize(adj, cells, ns, v)
            d += 1
            if [x.bit_count() for x in cells] != shapes[d]:
                continue
            ahead = len(levels) - d
            p = implied_map(path[d], cells) if steps >= ahead else None
            if p is not None and _maps_edges(adj, p):
                steps -= ahead
                return tuple(p)
            if nxt < 0:
                continue
            for u in reversed(list(bits(cells[nxt]))):
                stack.append((cells, ns, u, d))
        return None

    orbit = [1 << u for u in range(n)]  # orbit mask of each vertex under gens
    gens = []
    for depth in range(len(levels) - 1, -1, -1):
        cells, ns = levels[depth]
        x = cells[ns[0]]
        v = (x & -x).bit_length() - 1
        for w in bits(x ^ (1 << v)):
            if steps <= 0:
                return gens
            if (orbit[v] >> w) & 1:
                continue
            p = leaf_automorphism(depth, w)
            if p is not None:
                gens.append(p)
                for u, x in enumerate(p):
                    if u != x and not (orbit[u] >> x) & 1:
                        merged = orbit[u] | orbit[x]
                        for y in bits(merged):
                            orbit[y] = merged
    return gens


def canonical_graph(g: Graph) -> Graph:
    return _graph_from_bits(g.n, canonical_form(g))


def enumerate_graphs(n: int, dedup: bool = False) -> Iterator[Graph]:
    """All labeled graphs on n vertices, or one representative per class.

    The deduped stream (1 <= n <= 8) is Read's orderly generation (*Every
    one a winner*, 1978) on canonical forms: a string on n vertices is kept
    when it is a canonical form on n - 1 vertices followed by one new
    column and :func:`_smaller_strings` finds no ordering that beats it.
    This is exact.  Dropping the last column of a canonical string leaves
    the string of the first n - 1 vertices placed, which is at most the
    prefix of every other ordering, so it is the canonical form of that
    subgraph: each class extends exactly one parent, by exactly one column.
    Only columns from twice the parent's last column up are tried: swapping
    the last two vertices changes only the last two columns, the canonical
    string is at most the swapped one, so the new column shifted right one
    bit is at least the parent's last column.  Parents and columns go up in
    ascending order, so the canonical forms come out ascending.
    """
    if dedup:
        if not 1 <= n <= 8:
            raise GraphError("dedup enumeration supports 1 <= n <= 8")
        forms = [0]
        for new in range(1, n):
            kept = []
            for form in forms:
                base = _rows_from_bit_string(new, format(form, f"0{new * (new - 1) // 2}b"))
                last = form & ((1 << (new - 1)) - 1)
                for col in range(last << 1, 1 << new):
                    nbrs = int(format(col, f"0{new}b")[::-1], 2)  # bit i: joined to vertex i
                    adj = [a | ((nbrs >> v) & 1) << new for v, a in enumerate(base)] + [nbrs]
                    cand = form << new | col
                    if next(_smaller_strings(new + 1, adj, cand), None) is None:
                        kept.append(cand)
            forms = kept
        for form in forms:
            yield _graph_from_bits(n, form)
    else:
        if not 1 <= n <= 6:
            raise GraphError("labeled enumeration supports 1 <= n <= 6")
        for mask in range(1 << (n * (n - 1) // 2)):
            yield _graph_from_bits(n, mask)


def _prufer_tree(seq: Sequence[int], n: int) -> Graph:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    edges = []
    for x in seq:
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return Graph.from_edges(n, edges)


def _rooted_tree_code(adj: Sequence[int], root: int) -> str:
    """AHU code of a tree rooted at ``root``: "(" + sorted child codes + ")"."""
    order, parent = _bfs(adj, root)
    kids: list = [[] for _ in adj]
    for i in range(len(order) - 1, 0, -1):
        kids[parent[i]].append("(" + "".join(sorted(kids[order[i]])) + ")")
    return "(" + "".join(sorted(kids[root])) + ")"


def _tree_code(adj: Sequence[int]) -> str:
    """Isomorphism-invariant code of a tree given as bitset rows.

    The center (or the two bicenters) is found by peeling leaves layer by
    layer; the code is the least AHU code (Aho, Hopcroft & Ullman 1974) over
    the trees rooted at the centers.  Two trees are isomorphic exactly when
    their codes are equal.
    """
    deg = [a.bit_count() for a in adj]
    layer = [v for v, d in enumerate(deg) if d <= 1]
    left = len(adj)
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            rest = adj[v]
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                deg[u] -= 1
                if deg[u] == 1:
                    nxt.append(u)
                rest ^= low
        layer = nxt
    return min(_rooted_tree_code(adj, c) for c in layer)


def enumerate_trees(n: int, dedup: bool = False) -> Iterator[Graph]:
    """All labeled trees on n vertices (2 <= n <= 9), or one per class (n <= 14).

    The labeled stream decodes every length-(n-2) Pruefer sequence over
    0..n-1.  The deduped stream grows representatives by leaf attachment
    (every unlabeled tree arises from a smaller one by adding a leaf) and
    keeps the first tree met with each :func:`_tree_code`.  Representatives
    are yielded in ascending order of their codes.
    """
    if dedup:
        if not 2 <= n <= 14:
            raise GraphError("deduped tree enumeration supports 2 <= n <= 14")
    elif not 2 <= n <= 9:
        raise GraphError("labeled tree enumeration supports 2 <= n <= 9")
    if not dedup:
        if n == 2:
            yield path(2)
            return
        seq = [0] * (n - 2)
        while True:
            yield _prufer_tree(seq, n)
            k = n - 3
            while k >= 0 and seq[k] == n - 1:
                seq[k] = 0
                k -= 1
            if k < 0:
                return
            seq[k] += 1
    else:
        reps = [[0b10, 0b01]]
        for size in range(3, n + 1):
            leaf = size - 1
            grown = {}
            for t in reps:
                for v in range(leaf):
                    bigger = t[:]
                    bigger[v] |= 1 << leaf
                    bigger.append(1 << v)
                    grown.setdefault(_tree_code(bigger), bigger)
            reps = [grown[k] for k in sorted(grown)]
        for t in reps:
            yield Graph(n, t)


# ---------------------------------------------------------------------------
# seeded random graphs
# ---------------------------------------------------------------------------

def _splitmix64(state: int) -> tuple:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit stream; identical output for a seed on every platform."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state, out = _splitmix64(self._state)
        return out

    def below(self, bound: int) -> int:
        """Uniform-ish value in [0, bound) via fixed-point multiply."""
        return (self.next64() * bound) >> 64


def random_graph(n: int, p, seed: int) -> Graph:
    """Edge-independent random graph; each pair drawn from one splitmix64 stream."""
    try:
        frac = Fraction(p)  # nan raises ValueError, inf OverflowError
    except (ValueError, OverflowError):
        frac = None
    if frac is None or not 0 <= frac <= 1:
        raise GraphError("edge probability must lie in [0, 1]")
    threshold = (frac.numerator << 64) // frac.denominator
    rng = SplitMix64(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.next64() < threshold:
                edges.append((u, v))
    return Graph.from_edges(n, edges)
