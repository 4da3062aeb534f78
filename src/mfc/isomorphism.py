"""Simplicial isomorphism by color refinement plus backtracking.

The complexes here are small but extremely symmetric, so the search
leans on (a) joint color refinement over incident-simplex structure,
(b) candidate generation through images of already-mapped neighbors,
and (c) forward/backward simplex checks at every extension.  The
backtracking is one loop over the vertex order with an explicit stack
of candidate iterators, so no recursion grows with the vertex count.
A caller that knows which type of a goes to which type of b passes that
map (``type_map``), and every vertex must then go to a vertex of the
mapped type; the search does not look for one.  An isomorphism is its
vertex map, a dict from a's vertex ids to b's.  All orderings are
explicit, so results are deterministic (refine-then-backtrack as in
McKay-Piperno, Practical graph isomorphism, II, 2014).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .complexes import TypedComplex


def verify_isomorphism(a: TypedComplex, b: TypedComplex,
                       vertex_map: dict[int, int],
                       type_map: dict | None = None) -> bool:
    """Re-check a claimed isomorphism from scratch; with a type map (a's
    type labels to b's), every vertex must also go to its mapped type."""
    if len(vertex_map) != a.n_vertices or a.n_vertices != b.n_vertices:
        return False
    if sorted(vertex_map.values()) != list(range(b.n_vertices)):
        return False
    if a.f_vector() != b.f_vector():
        return False
    for k in range(a.dim + 1):
        bset = set(b.simplices(k))
        for s in a.simplices(k):
            if tuple(sorted(vertex_map[v] for v in s)) not in bset:
                return False
    if type_map is not None:
        return all(type_map.get(a.vertex_types[v]) == b.vertex_types[w]
                   for v, w in vertex_map.items())
    return True


def _incidence(c: TypedComplex):
    """Per vertex: list of incident simplices of dim >= 1."""
    inc = [[] for _ in range(c.n_vertices)]
    for k in range(1, c.dim + 1):
        for s in c.simplices(k):
            for v in s:
                inc[v].append(s)
    return inc


def _adjacency(c: TypedComplex):
    adj = [set() for _ in range(c.n_vertices)]
    for (u, v) in c.simplices(1):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _refine(colors_a, colors_b, inc_a, inc_b):
    """Joint iterated refinement; returns stable, comparable colors.

    New signatures embed the old color, so classes only ever split; the
    loop stops when the joint class count stops growing.
    """
    while True:
        interned: dict = {}

        def sig(colors, inc, v):
            neigh = []
            for s in inc[v]:
                neigh.append((len(s), tuple(sorted(colors[u] for u in s if u != v))))
            neigh.sort()
            return (colors[v], tuple(neigh))

        def recolor(colors, inc):
            sigs = [sig(colors, inc, v) for v in range(len(colors))]
            out = []
            for s in sigs:
                if s not in interned:
                    interned[s] = len(interned)
                out.append(interned[s])
            return out

        before = len(set(colors_a) | set(colors_b))
        na = recolor(colors_a, inc_a)
        nb = recolor(colors_b, inc_b)
        after = len(set(na) | set(nb))
        colors_a, colors_b = na, nb
        if after == before:
            return colors_a, colors_b


def _initial_colors(a: TypedComplex, b: TypedComplex, tmap=None):
    """Comparable starting colors: a vertex's incident-simplex count in
    each dimension and, under a type map a -> b, its type (a's types read
    through the map); colors are numbered in order of appearance."""
    interned: dict = {}

    def col(c: TypedComplex, label):
        prof = [[0] * (c.dim + 1) for _ in range(c.n_vertices)]
        for k in range(c.dim + 1):
            for s in c.simplices(k):
                for v in s:
                    prof[v][k] += 1
        return [interned.setdefault((tuple(p), label(t)), len(interned))
                for p, t in zip(prof, c.vertex_types)]

    if tmap is None:
        return col(a, lambda t: None), col(b, lambda t: None)
    return col(a, tmap.get), col(b, lambda t: t)


def find_isomorphism(a: TypedComplex, b: TypedComplex,
                     type_map: dict | None = None) -> dict[int, int] | None:
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


def _vertex_order(adj, class_size) -> list[int]:
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
    inc_a, inc_b = _incidence(a), _incidence(b)
    adj_a, adj_b = _adjacency(a), _adjacency(b)
    colors_a, colors_b = _initial_colors(a, b, tmap)
    colors_a, colors_b = _refine(colors_a, colors_b, inc_a, inc_b)

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
    order = _vertex_order(adj_a, [len(classes_a[c]) for c in colors_a])

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
