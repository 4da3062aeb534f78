"""Simplicial isomorphism by color refinement plus backtracking.

The complexes here are small but extremely symmetric, so the search
leans on (a) joint color refinement over incident-simplex structure,
(b) candidate generation through images of already-mapped neighbors,
and (c) forward/backward simplex checks at every extension.  All
orderings are explicit, so results are deterministic.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import permutations

from .complexes import TypedComplex


@dataclass
class Isomorphism:
    vertex_map: dict[int, int]
    type_map: dict | None = None  # type label of a -> type label of b


def verify_isomorphism(a: TypedComplex, b: TypedComplex,
                       vertex_map: dict[int, int],
                       respect_types: bool = False) -> bool:
    """Re-check a claimed isomorphism from scratch."""
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
    if respect_types:
        tmap = {}
        for v, w in vertex_map.items():
            ta, tb = a.vertex_types[v], b.vertex_types[w]
            if tmap.setdefault(ta, tb) != tb:
                return False
        if len(set(tmap.values())) != len(tmap):
            return False
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


def _initial_colors(a: TypedComplex, b: TypedComplex, type_seed=None):
    """Comparable starting colors; type_seed maps (side, vertex) -> token."""
    interned: dict = {}

    def col(c: TypedComplex, side):
        out = []
        prof = [[0] * (c.dim + 1) for _ in range(c.n_vertices)]
        for k in range(c.dim + 1):
            for s in c.simplices(k):
                for v in s:
                    prof[v][k] += 1
        for v in range(c.n_vertices):
            key = (tuple(prof[v]),
                   type_seed[(side, v)] if type_seed is not None else 0)
            if key not in interned:
                interned[key] = len(interned)
            out.append(interned[key])
        return out

    return col(a, 0), col(b, 1)


def _candidate_type_maps(a: TypedComplex, b: TypedComplex):
    """Type bijections consistent with per-type vertex counts and the
    multiset of simplex type sets."""
    ta, tb = a.type_universe(), b.type_universe()
    if len(ta) != len(tb):
        return

    ca, cb = Counter(a.vertex_types), Counter(b.vertex_types)

    def type_multiset(c, tmap=None):
        return Counter(frozenset(tmap[c.vertex_types[v]] if tmap
                                 else c.vertex_types[v] for v in s)
                       for k in range(c.dim + 1) for s in c.simplices(k))

    target = type_multiset(b)
    for perm in permutations(tb):
        tmap = dict(zip(ta, perm))
        if any(ca[t] != cb[tmap[t]] for t in ta):
            continue
        if type_multiset(a, tmap) != target:
            continue
        yield tmap


def find_isomorphism(a: TypedComplex, b: TypedComplex,
                     respect_types: bool = False) -> Isomorphism | None:
    """A simplicial isomorphism a -> b, or None.

    With respect_types, additionally requires some bijection of type
    universes making the vertex map type-preserving; the bijection
    found is returned alongside the vertex map.
    """
    if a.f_vector() != b.f_vector() or a.dim != b.dim:
        return None
    if a.n_vertices == 0:
        return Isomorphism({}, {} if respect_types else None)
    if not respect_types:
        vm = _search(a, b, None)
        return Isomorphism(vm) if vm is not None else None
    for tmap in _candidate_type_maps(a, b):
        vm = _search(a, b, tmap)
        if vm is not None:
            return Isomorphism(vm, dict(tmap))
    return None


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


def _search(a: TypedComplex, b: TypedComplex, tmap) -> dict[int, int] | None:
    inc_a, inc_b = _incidence(a), _incidence(b)
    adj_a, adj_b = _adjacency(a), _adjacency(b)

    if tmap is None:
        seed = None
    else:
        order = {t: i for i, t in enumerate(a.type_universe())}
        seed = {}
        inv = {w: t for t, w in tmap.items()}
        for v in range(a.n_vertices):
            seed[(0, v)] = order[a.vertex_types[v]]
        for w in range(b.n_vertices):
            seed[(1, w)] = order[inv[b.vertex_types[w]]]
    colors_a, colors_b = _initial_colors(a, b, seed)
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
    ready: list[list] = [[] for _ in range(n)]
    for v in range(n):
        for s in inc_a[v]:
            if all(pos[u] <= pos[v] for u in s):
                ready[v].append(s)

    phi = {}
    phi_inv = {}
    sets_b = b._simplex_sets()
    sets_a = a._simplex_sets()

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 100))

    def extend(idx: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        cv = colors_a[v]
        mapped_adj = [phi[u] for u in adj_a[v] if u in phi]
        if mapped_adj:
            cands = set(adj_b[mapped_adj[0]])
            for w_img in mapped_adj[1:]:
                cands &= adj_b[w_img]
            cands = sorted(w for w in cands
                           if w not in phi_inv and colors_b[w] == cv)
        else:
            cands = [w for w in classes_b[cv] if w not in phi_inv]
        for w in cands:
            # adjacency must match exactly against all mapped vertices
            ok = True
            for u in adj_a[v]:
                if u in phi and phi[u] not in adj_b[w]:
                    ok = False
                    break
            if ok:
                for wb in adj_b[w]:
                    if wb in phi_inv and phi_inv[wb] not in adj_a[v]:
                        ok = False
                        break
            if ok:
                for s in ready[v]:
                    img = tuple(sorted(phi[u] if u != v else w for u in s))
                    if img not in sets_b.get(len(s) - 1, ()):
                        ok = False
                        break
            if ok:
                # backward: fully mapped b-simplices at w must pull back
                for sb in inc_b[w]:
                    if all(x == w or x in phi_inv for x in sb):
                        pre = tuple(sorted(phi_inv[x] if x != w else v for x in sb))
                        if pre not in sets_a.get(len(sb) - 1, ()):
                            ok = False
                            break
            if not ok:
                continue
            phi[v] = w
            phi_inv[w] = v
            if extend(idx + 1):
                return True
            del phi[v]
            del phi_inv[w]
        return False

    if extend(0):
        return dict(phi)
    return None
