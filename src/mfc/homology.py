"""Reduced simplicial homology over exact integer arithmetic.

Ranks and invariant factors of the boundary maps come from a sparse
integer elimination with unit pivots (boundary matrices almost always
reduce completely this way); any leftover block goes through a dense
Smith normal form on Python ints.  No floating point anywhere.

The pivot is always a unit entry of the shortest column that has one,
ties broken by column id.  Columns are kept in a lazy min-heap keyed by
(length, column id), so picking a pivot costs a heap pop instead of a
scan over every live column, and the eliminations themselves dominate
(cf. Dumas, Heckenbach, Saunders and Welker 2003 on sparse elimination
of simplicial boundary matrices).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .complexes import TypedComplex


@dataclass
class BettiResult:
    """Reduced Betti numbers by degree (-1..dim) and a torsion certificate."""

    betti: dict[int, int]
    torsion_free: bool
    invariant_factors: dict[int, list[int]]

    def get(self, k: int) -> int:
        return self.betti.get(k, 0)

    def concentrated_value(self, degree: int) -> int | None:
        """The value in ``degree`` if all other reduced degrees vanish."""
        for k, v in self.betti.items():
            if k != degree and v != 0:
                return None
        return self.get(degree)


def boundary_columns(c: TypedComplex, k: int) -> list[dict]:
    """Columns of the boundary map from k-simplices to (k-1)-simplices.

    Column entries are row -> +-1, a row being the index of a face among
    the (k-1)-simplices.  k = 0 is the augmentation onto the empty
    simplex.
    """
    simps = c.simplices(k)
    if k == 0:
        return [{0: 1} for _ in simps]
    faces = {s: i for i, s in enumerate(c.simplices(k - 1))}
    cols = []
    for s in simps:
        col = {}
        for pos in range(len(s)):
            f = s[:pos] + s[pos + 1:]
            col[faces[f]] = 1 if pos % 2 == 0 else -1
        cols.append(col)
    return cols


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


def _n_components(c: TypedComplex) -> int:
    """Connected components of the 1-skeleton (0 for no vertices), by
    union-find with path halving."""
    n = c.n_vertices
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in c.simplices(1):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in range(n)})


def reduced_betti(c: TypedComplex) -> BettiResult:
    """Reduced Betti numbers over Q; integral torsion-freeness via the
    elementary divisors of every boundary map.

    Dimension <= 1 uses exact combinatorial formulas (component counts);
    graph homology is free, so the certificate is immediate there.
    """
    dim = c.dim
    if dim < 0:
        return BettiResult({-1: 1}, True, {})
    f0 = len(c.simplices(0))
    if dim == 0:
        return BettiResult({-1: 0, 0: f0 - 1}, True, {})
    if dim == 1:
        comps = _n_components(c)
        f1 = len(c.simplices(1))
        return BettiResult({-1: 0, 0: comps - 1, 1: f1 - f0 + comps}, True, {})

    ranks = {}
    all_factors = {}
    for k in range(dim + 1):
        rank, factors = rank_and_factors(boundary_columns(c, k))
        ranks[k] = rank
        all_factors[k] = [f for f in factors if f != 1]
    betti = {-1: 1 - ranks[0]}
    for k in range(dim + 1):
        fk = len(c.simplices(k))
        betti[k] = fk - ranks[k] - ranks.get(k + 1, 0)
    torsion_free = all(not fs for fs in all_factors.values())
    return BettiResult(betti, torsion_free, all_factors)
