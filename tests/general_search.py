"""The general simplicial isomorphism search, as a reference for tests.

``mfc.isomorphism.find_isomorphism`` maps a complex onto a model, a
complex built by ``milnor_fiber_complex``, and is complete only there.
This search takes complexes of any shape (walls, hand-built complexes),
so tests use it as an independent oracle: joint color refinement
(``mfc.isomorphism._refine``) over incident-simplex structure, candidate
generation through images of already-mapped neighbours, and
forward/backward simplex checks at every extension, in one loop with an
explicit stack.  With a type map, every vertex must go to a vertex of
its mapped type.  Without one it can stall on relabelled thick rank-2
models such as G17's, so tests call it only on small complexes.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from mfc.complexes import TypedComplex
from mfc.isomorphism import _initial_colors, _refine


def incidence(c: TypedComplex):
    """Per vertex: list of incident simplices of dim >= 1."""
    inc = [[] for _ in range(c.n_vertices)]
    for k in range(1, c.dim + 1):
        for s in c.simplices(k):
            for v in s:
                inc[v].append(s)
    return inc


def adjacency(c: TypedComplex):
    adj = [set() for _ in range(c.n_vertices)]
    for (u, v) in c.simplices(1):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def general_isomorphism(a: TypedComplex, b: TypedComplex,
                        type_map: dict | None = None
                        ) -> dict[int, int] | None:
    """The vertex map of a simplicial isomorphism a -> b, or None; the
    empty complexes' map is {}, so test the result with ``is None``.

    With a type map (a dict from each of a's type labels to one of b's),
    every vertex must go to a vertex of the mapped type.
    """
    if a.f_vector() != b.f_vector() or a.dim != b.dim:
        return None
    if a.n_vertices == 0:
        return {}
    return _search(a, b, type_map)


def vertex_order(adj, class_size) -> list[int]:
    """The search order: connectivity-first, starting from the rarest
    color.  Each next vertex has the most already-ordered neighbours, then
    the smallest color class, then the smallest id; it comes off a lazy
    heap of (-ordered neighbours, class size, id) entries, where an entry
    is stale once its vertex is ordered or has gained a neighbour."""
    n = len(adj)
    mapped_nbrs = [0] * n
    placed = [False] * n
    heap = [(0, class_size[v], v) for v in range(n)]
    heapify(heap)
    order = []
    while heap:
        neg, _size, v = heappop(heap)
        if placed[v] or -neg != mapped_nbrs[v]:
            continue
        order.append(v)
        placed[v] = True
        for u in adj[v]:
            if not placed[u]:
                mapped_nbrs[u] += 1
                heappush(heap, (-mapped_nbrs[u], class_size[u], u))
    return order


def _search(a: TypedComplex, b: TypedComplex, tmap
            ) -> dict[int, int] | None:
    """A vertex map a -> b (taking each vertex to its type under tmap, if
    given), or None.

    Depth-first over the vertex order with an explicit stack: entry i is
    the iterator over the remaining candidates for the i-th vertex, so the
    depth is limited by memory, not by the interpreter's recursion limit.
    """
    inc_a, inc_b = incidence(a), incidence(b)
    adj_a, adj_b = adjacency(a), adjacency(b)
    colors_a, colors_b = _initial_colors(a, b, tmap)
    colors_a, colors_b = _refine(colors_a, colors_b, a, b)

    classes_a: dict[int, list[int]] = {}
    classes_b: dict[int, list[int]] = {}
    for v, c in enumerate(colors_a):
        classes_a.setdefault(c, []).append(v)
    for w, c in enumerate(colors_b):
        classes_b.setdefault(c, []).append(w)
    if sorted((c, len(vs)) for c, vs in classes_a.items()) != \
       sorted((c, len(vs)) for c, vs in classes_b.items()):
        return None

    n = a.n_vertices
    order = vertex_order(adj_a, [len(classes_a[c]) for c in colors_a])

    # incident simplices of v whose other vertices come earlier in the order
    pos = {v: i for i, v in enumerate(order)}
    ready = [[s for s in inc_a[v] if all(pos[u] <= pos[v] for u in s)]
             for v in range(n)]

    phi = {}
    phi_inv = {}
    sets_b = b._simplex_sets()
    sets_a = a._simplex_sets()

    def candidates(v):
        """The images of v that fit the partial map, in increasing order.
        Each is a common neighbour of the images of v's mapped neighbours,
        so adjacency from a to b holds by construction."""
        cv = colors_a[v]
        image_nbrs = [adj_b[phi[u]] for u in adj_a[v] if u in phi]
        if image_nbrs:
            cands = sorted(w for w in set.intersection(*image_nbrs)
                           if w not in phi_inv and colors_b[w] == cv)
        else:
            cands = [w for w in classes_b[cv] if w not in phi_inv]
        for w in cands:
            # adjacency from b back to a, against all mapped vertices
            if any(wb in phi_inv and phi_inv[wb] not in adj_a[v]
                   for wb in adj_b[w]):
                continue
            # forward: mapped a-simplices at v must land in b
            if any(tuple(sorted(phi[u] if u != v else w for u in s))
                   not in sets_b.get(len(s) - 1, ()) for s in ready[v]):
                continue
            # backward: fully mapped b-simplices at w must pull back
            if any(all(x == w or x in phi_inv for x in sb)
                   and tuple(sorted(phi_inv[x] if x != w else v for x in sb))
                   not in sets_a.get(len(sb) - 1, ()) for sb in inc_b[w]):
                continue
            yield w

    stack = [candidates(order[0])]
    while stack:
        v = order[len(stack) - 1]
        if v in phi:                    # back here: v's last image failed
            del phi_inv[phi.pop(v)]
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            continue
        phi[v] = w
        phi_inv[w] = v
        if len(stack) == n:
            return phi
        stack.append(candidates(order[len(stack)]))
    return None
