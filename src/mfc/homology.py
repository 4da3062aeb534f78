"""Reduced simplicial homology over exact integer arithmetic.

From dimension 2 up, one coreduction pass (``_coreduced``) first pairs
off cells of the augmented chain complex: a pair (a, b) with a the only
face of b still present has incidence +-1, and removing it leaves every
other boundary restricted to the cells left, so integral homology,
torsion included, is unchanged (Kaczynski, Mrozek and Slusarek 1998;
Mrozek and Batko 2009).  On a Milnor fiber complex only the top-degree
cells of the bouquet survive.

Ranks and invariant factors of the surviving boundary maps come from a
sparse integer elimination with unit pivots (boundary matrices almost
always reduce completely this way); any leftover block goes through a
dense Smith normal form on Python ints.  No floating point anywhere.

The pivot is always a unit entry of the shortest column that has one,
ties broken by column id.  Columns are kept in a lazy min-heap keyed by
(length, column id), so picking a pivot costs a heap pop instead of a
scan over every live column, and the eliminations themselves dominate
(cf. Dumas, Heckenbach, Saunders and Welker 2003 on sparse elimination
of simplicial boundary matrices).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .complexes import TypedComplex


@dataclass
class BettiResult:
    """Reduced Betti numbers by degree (-1..dim) and the torsion: per
    degree k, the non-unit invariant factors of the boundary out of k."""

    betti: dict[int, int]
    invariant_factors: dict[int, list[int]]

    @property
    def torsion_free(self) -> bool:
        return not any(self.invariant_factors.values())

    def concentrated_value(self, degree: int) -> int | None:
        """The value in ``degree`` if all other reduced degrees vanish."""
        if any(v for k, v in self.betti.items() if k != degree):
            return None
        return self.betti.get(degree, 0)


def _dense_diagonalize(rows: list[list[int]]) -> list[int]:
    """Absolute values of the diagonal after integer diagonalization.

    The cokernel of a diagonal matrix is the direct sum of Z/d_i, so
    torsion-freeness (all d_i = 1) and rank (count of nonzero d_i) need
    no divisibility chaining.
    """
    a = [row[:] for row in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    diag = []
    t = 0
    while t < m and t < n:
        piv = None
        pv = 0
        for i in range(t, m):
            for j in range(t, n):
                v = a[i][j]
                if v and (piv is None or abs(v) < pv):
                    piv, pv = (i, j), abs(v)
        if piv is None:
            break
        i0, j0 = piv
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        p = a[t][t]
        clean = True
        for i in range(t + 1, m):
            if a[i][t]:
                q = a[i][t] // p
                if q:
                    at = a[t]
                    a[i] = [x - q * y for x, y in zip(a[i], at)]
                if a[i][t]:
                    clean = False
        for j in range(t + 1, n):
            if a[t][j]:
                q = a[t][j] // p
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                if a[t][j]:
                    clean = False
        if not clean:
            continue  # a strictly smaller remainder exists; re-pick pivot
        diag.append(abs(p))
        t += 1
    return diag


def rank_and_factors(cols: list[dict]) -> tuple[int, list[int]]:
    """Rank over Q and the nonzero invariant factors over Z.

    Sparse elimination with unit pivots.  Each pivot is the first unit
    entry (in dict order) of the shortest column that has one, ties broken
    by the smaller column id.  Columns wait in a lazy min-heap keyed by
    (length, column id): a column is pushed again whenever an elimination
    changes it, and an entry whose column is gone or has another length
    is skipped when popped, as is a column with no unit entry.  A pivot
    therefore costs O(log h) heap work plus the elimination itself, with h
    the number of heap entries, instead of a scan over every live column.
    The residual block (no unit entries left) is finished densely.
    """
    cols = [dict(c) for c in cols]
    live_cols = set(i for i, c in enumerate(cols) if c)
    rows_to_cols: dict[int, set] = {}
    for ci in live_cols:
        for r in cols[ci]:
            rows_to_cols.setdefault(r, set()).add(ci)
    heap = [(len(cols[ci]), ci) for ci in live_cols]
    heapq.heapify(heap)
    rank = 0
    factors: list[int] = []
    while heap:
        lc, pci = heapq.heappop(heap)
        pcol = cols[pci]
        if pci not in live_cols or len(pcol) != lc:
            continue  # stale entry: the column was used or has changed
        prow = next((r for r, v in pcol.items() if v == 1 or v == -1), None)
        if prow is None:
            continue  # pushed again if an elimination changes it
        pval = pcol[prow]
        rank += 1
        factors.append(1)
        live_cols.discard(pci)
        users = rows_to_cols[prow] & live_cols
        for r in pcol:
            rows_to_cols[r].discard(pci)
        for ci in users:
            col = cols[ci]
            mult = col[prow] * pval  # pval in {1,-1}: mult = col[prow]/pval
            for r, v in pcol.items():
                nv = col.get(r, 0) - mult * v
                if nv:
                    if r not in col:
                        rows_to_cols.setdefault(r, set()).add(ci)
                    col[r] = nv
                elif r in col:
                    del col[r]
                    rows_to_cols[r].discard(ci)
            if col:
                heapq.heappush(heap, (len(col), ci))
            else:
                live_cols.discard(ci)
    if live_cols:
        rows_left = sorted({r for ci in live_cols for r in cols[ci]})
        rindex = {r: i for i, r in enumerate(rows_left)}
        dense = []
        for _r in rows_left:
            dense.append([0] * len(live_cols))
        for j, ci in enumerate(sorted(live_cols)):
            for r, v in cols[ci].items():
                dense[rindex[r]][j] = v
        extra = [d for d in _dense_diagonalize(dense) if d]
        rank += len(extra)
        factors.extend(extra)
    return rank, factors


def _n_components(n_vertices: int, edges) -> int:
    """Connected components of the graph on the vertex ids
    range(n_vertices) with these edges (0 for no vertices), by union-find
    with path halving: each edge that joins two roots merges two
    components."""
    comps = n_vertices
    parent = list(range(comps))
    for u, v in edges:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u != v:
            parent[u] = v
            comps -= 1
    return comps


def _graph_betti(n_vertices: int, edges, n_edges: int) -> BettiResult:
    """Reduced Betti numbers of the graph on the vertex ids
    range(n_vertices) with ``edges``, n_edges distinct pairs of them: b_0
    is one less than the components (``_n_components``), b_1 = f_1 - f_0
    + components, and graph homology is free.  With no edges the graph
    is f_0 points, of dimension 0, and has no degree 1; with no vertices
    it is the empty complex, {empty}, of dimension -1."""
    if not n_vertices:
        return BettiResult({-1: 1}, {})
    if not n_edges:
        return BettiResult({-1: 0, 0: n_vertices - 1}, {})
    comps = _n_components(n_vertices, edges)
    return BettiResult({-1: 0, 0: comps - 1,
                        1: n_edges - n_vertices + comps}, {})


def _coreduced(c: TypedComplex) -> dict[int, list[dict]]:
    """The boundary columns, by degree -1..dim, of the cells of c's
    augmented chain complex that survive one coreduction pass; rows index
    the surviving cells one degree down, in simplex order.

    The pass pairs the empty simplex with vertex 0, then, from a FIFO
    queue, removes a pair (a, b) whenever a is the only face of b still
    present.  Such a pair has incidence +-1 and leaves the boundary of
    every other cell restricted to the cells left, so the survivors carry
    the integral homology of c, torsion included (Kaczynski, Mrozek and
    Slusarek 1998; Mrozek and Batko 2009).
    """
    dim = c.dim
    # cell ids: 0 is the empty simplex, then the simplices degree by
    # degree; the cells of degree k are range(bounds[k + 1], bounds[k + 2])
    bounds = [0, 1]
    for k in range(dim + 1):
        bounds.append(bounds[-1] + len(c.simplices(k)))
    n_cells = bounds[-1]
    # faces[x]: the faces of cell x, each the face that drops the vertex
    # at position k, k-1, ..., 0 (the order of itertools.combinations)
    faces: list[list[int]] = [[]] + [[0]] * len(c.simplices(0))
    for k in range(1, dim + 1):
        get = dict(zip(c.simplices(k - 1), range(bounds[k], bounds[k + 1]))
                   ).__getitem__
        faces.extend(list(map(get, combinations(s, k)))
                     for s in c.simplices(k))
    # top cells have no cofaces: they share one empty tuple
    cofaces: list = [[] for _ in range(bounds[dim + 1])]
    cofaces.extend([()] * (n_cells - bounds[dim + 1]))
    for x in range(1, n_cells):
        for f in faces[x]:
            cofaces[f].append(x)
    live_faces = list(map(len, faces))
    alive = bytearray(b"\x01") * n_cells
    queue: deque[int] = deque()
    push, pop = queue.append, queue.popleft
    a, b = 0, 1
    while True:
        alive[a] = alive[b] = 0
        # a dead cell's count is never read again; one that reaches 1 is
        # skipped when popped
        for x in (a, b):
            for y in cofaces[x]:
                n = live_faces[y] - 1
                live_faces[y] = n
                if n == 1:
                    push(y)
        while queue:
            b = pop()
            if alive[b] and live_faces[b] == 1:
                for a in faces[b]:
                    if alive[a]:
                        break
                break
        else:
            break
    residue: dict[int, list[dict]] = {-1: []}
    for k in range(dim + 1):
        down = {x: i for i, x in enumerate(
            x for x in range(bounds[k], bounds[k + 1]) if alive[x])}
        residue[k] = [
            {down[f]: -1 if (k - j) % 2 else 1
             for j, f in enumerate(faces[x]) if alive[f]}
            for x in range(bounds[k + 1], bounds[k + 2]) if alive[x]]
    return residue


def reduced_betti(c: TypedComplex) -> BettiResult:
    """Reduced Betti numbers and the integral torsion of c.

    Dimension <= 1 uses exact combinatorial formulas (``_graph_betti``);
    graph homology is free, so the certificate is immediate there.  From
    dimension 2 up, a coreduction pass (``_coreduced``) shrinks the
    augmented chain complex, and ``rank_and_factors`` eliminates each
    boundary map of the cells that survive: b_k is the number of
    surviving k-cells less the ranks of the boundaries into and out of
    degree k, and the non-unit factors of the boundary out of degree k,
    sorted, give the torsion of degree k-1.
    """
    dim = c.dim
    if dim <= 1:
        edges = c.simplices(1)
        return _graph_betti(len(c.simplices(0)), edges, len(edges))

    residue = _coreduced(c)
    ranks = {-1: 0, dim + 1: 0}
    all_factors = {}
    for k in range(dim + 1):
        rank, factors = rank_and_factors(residue[k])
        ranks[k] = rank
        all_factors[k] = sorted(f for f in factors if f != 1)
    betti = {k: len(residue[k]) - ranks[k] - ranks[k + 1]
             for k in range(-1, dim + 1)}
    return BettiResult(betti, all_factors)
