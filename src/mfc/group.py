"""Finite groups from admissible presentations.

``enumerate_group`` realizes the group of a diagram as its right regular
action: a permutation of element ids per generator, with element 0 the
identity and ids assigned breadth-first from the identity in generator
order.  The general engine is Todd-Coxeter coset enumeration over the
trivial subgroup (HLT scanning with coincidence handling); cyclic and
dihedral diagrams use direct constructions because their braid relators
have length ~|G| (see notes in the repository docs).
"""

from __future__ import annotations

import os
import tempfile
from collections import deque
from dataclasses import dataclass, field

from .diagram import (Diagram, basic_degrees, cache_key_string, classify,
                      diagram_name, group_order)

DEFAULT_CAP = 200_000


class CapExceeded(RuntimeError):
    """Expected or actual enumeration size above the configured cap."""


class GroupTable:
    """Regular action of a finite group given by an admissible diagram.

    right[i][x] is x * r_i, left[i][x] is r_i * x.  word(x) gives one
    shortest word (tuple of generator indices) with value x.
    """

    def __init__(self, diagram: Diagram, right: list[list[int]]):
        self.diagram = diagram
        self.ngens = diagram.rank
        self.right = right
        self.order = len(right[0]) if right else 1
        self._standardize()
        self.gen_elements = [self.right[i][0] for i in range(self.ngens)]

    # -- construction -----------------------------------------------------

    def _standardize(self):
        """Renumber breadth-first from the identity with fixed generator order,
        then derive words, left actions and inverses."""
        n = self.order
        ng = self.ngens
        if ng == 0:
            self.words = [()]
            self.left = []
            self.right_inv = []
            self.inv = [0]
            self.bfs_order = [0]
            return
        new_id = [-1] * n
        new_id[0] = 0
        order_bfs = [0]
        dq = deque([0])
        right = self.right
        while dq:
            x = dq.popleft()
            for i in range(ng):
                y = right[i][x]
                if new_id[y] < 0:
                    new_id[y] = len(order_bfs)
                    order_bfs.append(y)
                    dq.append(y)
        if len(order_bfs) != n:
            raise ValueError("generator action not transitive")
        self.right = [[0] * n for _ in range(ng)]
        for i in range(ng):
            old = right[i]
            new_col = self.right[i]
            for x in range(n):
                new_col[new_id[x]] = new_id[old[x]]
        right = self.right
        # BFS again on the renumbered table: parent links give shortest
        # words without materializing them (they can have length ~|G|)
        parent = [-1] * n
        last = [0] * n
        parent[0] = 0
        bfs = [0]
        dq = deque([0])
        while dq:
            x = dq.popleft()
            for i in range(ng):
                y = right[i][x]
                if parent[y] < 0:
                    parent[y] = x
                    last[y] = i
                    bfs.append(y)
                    dq.append(y)
        self.parent = parent
        self.last_letter = last
        self.bfs_order = bfs
        # left multiplication by each generator: l_g(x * r_j) = l_g(x) * r_j
        self.left = []
        for i in range(ng):
            lam = [0] * n
            lam[0] = right[i][0]
            seen = bytearray(n)
            seen[0] = 1
            dq = deque([0])
            while dq:
                x = dq.popleft()
                lx = lam[x]
                for j in range(ng):
                    y = right[j][x]
                    if not seen[y]:
                        seen[y] = 1
                        lam[y] = right[j][lx]
                        dq.append(y)
            self.left.append(lam)
        self.right_inv = [_invert(col) for col in right]
        # inv(parent * r_j) = r_j^{-1} * inv(parent), via inverted left tables
        left_inv = [_invert(col) for col in self.left]
        inv = [0] * n
        for x in bfs[1:]:
            inv[x] = left_inv[last[x]][inv[parent[x]]]
        self.inv = inv

    def word(self, x: int) -> tuple[int, ...]:
        """One shortest word (generator indices) evaluating to element x."""
        out = []
        while x != 0:
            out.append(self.last_letter[x])
            x = self.parent[x]
        out.reverse()
        return tuple(out)

    # -- arithmetic --------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Product a*b via the stored word of b."""
        for letter in self.word(b):
            a = self.right[letter][a]
        return a

    def conjugate(self, g: int, h: int) -> int:
        """h g h^{-1}."""
        x = g
        w = self.word(h)
        for letter in reversed(w):
            x = self.right_inv[letter][x]
        for letter in reversed(w):
            x = self.left[letter][x]
        return x

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = self.mul(x, g)
            k += 1
        return k

    def left_perm(self, g: int) -> list[int]:
        """Permutation x -> g*x, composed from generator left actions."""
        w = self.word(g)
        if not w:
            return list(range(self.order))
        cur = list(self.left[w[-1]])
        for letter in reversed(w[:-1]):
            lam = self.left[letter]
            cur = [lam[x] for x in cur]
        return cur


def _invert(col: list[int]) -> list[int]:
    out = [0] * len(col)
    for x, y in enumerate(col):
        out[y] = x
    return out


# ---------------------------------------------------------------------------
# Todd-Coxeter over the trivial subgroup
# ---------------------------------------------------------------------------

def _relators(d: Diagram) -> list[list[int]]:
    """Relator words over the letter alphabet gens + formal inverses.

    Letters 0..n-1 are the generators, n+i is the inverse of i.
    """
    n = d.rank
    rels = []
    for i in range(n):
        rels.append([i] * d.orders[i])
    for i in range(n):
        for j in range(i + 1, n):
            m = d.m(i, j)
            braid_ij = [i if k % 2 == 0 else j for k in range(m)]
            braid_ji = [j if k % 2 == 0 else i for k in range(m)]
            rels.append(braid_ij + [n + x for x in reversed(braid_ji)])
    return rels


def todd_coxeter(d: Diagram, cap: int) -> list[list[int]]:
    """HLT coset enumeration of the trivial subgroup; returns the right
    regular action of the generators as permutations of 0..|G|-1."""
    ngens = d.rank
    if ngens == 0:
        return []
    width = 2 * ngens
    inv_letter = [ngens + i for i in range(ngens)] + list(range(ngens))
    rels = _relators(d)
    limit = max(4 * cap, cap + 10_000)

    table: list[list] = [[None] * width]
    p = [0]  # union-find for coincidences

    def rep(x: int) -> int:
        r = x
        while p[r] != r:
            r = p[r]
        while p[x] != r:
            p[x], x = r, p[x]
        return r

    pending: deque = deque()

    def merge(a: int, b: int):
        a, b = rep(a), rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        p[b] = a
        pending.append(b)

    def process_coincidences():
        while pending:
            gamma = pending.popleft()  # newly dead coset
            row = table[gamma]
            for x in range(width):
                delta = row[x]
                if delta is None:
                    continue
                table[delta][inv_letter[x]] = None
                mu = rep(gamma)
                nu = rep(delta)
                tmu = table[mu]
                if tmu[x] is not None:
                    merge(nu, tmu[x])
                elif table[nu][inv_letter[x]] is not None:
                    merge(mu, table[nu][inv_letter[x]])
                else:
                    tmu[x] = nu
                    table[nu][inv_letter[x]] = mu

    def define(alpha: int, x: int) -> int:
        if len(table) > limit:
            raise CapExceeded("coset table grew past %d rows" % limit)
        beta = len(table)
        table.append([None] * width)
        p.append(beta)
        table[alpha][x] = beta
        table[beta][inv_letter[x]] = alpha
        return beta

    def scan_and_fill(alpha: int, word: list[int]):
        f, b = alpha, alpha
        i, j = 0, len(word) - 1
        while True:
            while i <= j:
                nxt = table[f][word[i]]
                if nxt is None:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    merge(f, b)
                    process_coincidences()
                return
            while j >= i:
                prv = table[b][inv_letter[word[j]]]
                if prv is None:
                    break
                b = prv
                j -= 1
            if j < i:
                merge(f, b)
                process_coincidences()
                return
            if j == i:
                table[f][word[i]] = b
                table[b][inv_letter[word[i]]] = f
                return
            define(f, word[i])

    alpha = 0
    while alpha < len(table):
        if rep(alpha) != alpha:
            alpha += 1
            continue
        for w in rels:
            scan_and_fill(alpha, w)
            if rep(alpha) != alpha:
                break
        alpha += 1

    live = [x for x in range(len(table)) if rep(x) == x]
    index = {x: k for k, x in enumerate(live)}
    right = [[0] * len(live) for _ in range(ngens)]
    for k, x in enumerate(live):
        row = table[x]
        for i in range(ngens):
            y = row[i]
            if y is None:
                raise RuntimeError("incomplete coset table")
            right[i][k] = index[rep(y)]
    return right


# ---------------------------------------------------------------------------
# direct constructions for families with |G|-length relators
# ---------------------------------------------------------------------------

def _cyclic_right(m: int) -> list[list[int]]:
    return [[(x + 1) % m for x in range(m)]]


def _dihedral_right(q: int, first: int) -> list[list[int]]:
    """Regular action of I2(q) = <s0, s1>; element (eps, k) = s_first^eps t^k
    with t = s0 s1 the rotation, indexed eps*q + k."""
    n = 2 * q
    r0 = [0] * n
    r1 = [0] * n
    for eps in (0, 1):
        for k in range(q):
            x = eps * q + k
            # x * s0: s^eps t^k s0 -> s^(1-eps) t^(-k) when first=0
            r0[x] = (1 - eps) * q + (-k) % q
            r1[x] = (1 - eps) * q + (1 - k) % q
    return [r0, r1] if first == 0 else [r1, r0]


# ---------------------------------------------------------------------------
# public constructor plus cache
# ---------------------------------------------------------------------------

def enumerate_group(d: Diagram, cap: int = DEFAULT_CAP,
                    cache_dir: str | None = None) -> GroupTable:
    """Realize the diagram's group as a GroupTable.

    Raises CapExceeded when the classified order exceeds ``cap``.  With
    ``cache_dir`` (or $MFC_CACHE_DIR) set, generator tables are persisted
    keyed by the diagram's canonical form.
    """
    expected = group_order(d)
    if expected > cap:
        raise CapExceeded("group order %d exceeds cap %d" % (expected, cap))
    if cache_dir is None:
        cache_dir = os.environ.get("MFC_CACHE_DIR") or None
    if cache_dir:
        cached = _load_cached(d, cache_dir, expected)
        if cached is not None:
            return cached
    t = _build(d, cap, expected)
    if cache_dir:
        save_group_cache(t, cache_dir)
    return t


def _build(d: Diagram, cap: int, expected: int) -> GroupTable:
    n = d.rank
    if n == 0:
        t = GroupTable(d, [])
    elif n == 1:
        t = GroupTable(d, _cyclic_right(d.orders[0]))
    elif n == 2 and d.orders == (2, 2):
        t = GroupTable(d, _dihedral_right(d.m(0, 1), 0))
    else:
        t = GroupTable(d, todd_coxeter(d, cap))
    if t.order != expected:
        raise RuntimeError("enumerated order %d != classified order %d for %s"
                           % (t.order, expected, diagram_name(d)))
    return t


def _cache_path(d: Diagram, cache_dir: str) -> str:
    import hashlib
    key = cache_key_string(d)
    h = hashlib.sha256(key.encode()).hexdigest()[:24]
    return os.path.join(cache_dir, "mfc-group-%s.txt" % h)


def save_group_cache(t: GroupTable, cache_dir: str) -> str:
    """Write the generator tables; a unique temporary name and an atomic
    rename keep concurrent writers from clobbering each other."""
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(t.diagram, cache_dir)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".mfc-group-",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("MFC-GROUP v1 %s %d\n"
                     % (cache_key_string(t.diagram), t.order))
            for col in t.right:
                fh.write(" ".join(map(str, col)) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def _load_cached(d: Diagram, cache_dir: str, expected: int) -> GroupTable | None:
    """The cached table of d, or None (a miss) unless the file parses and
    its columns are permutations satisfying every defining relation."""
    path = _cache_path(d, cache_dir)
    try:
        with open(path) as fh:
            header = fh.readline().split()
            if header != ["MFC-GROUP", "v1", cache_key_string(d),
                          str(expected)]:
                return None
            right = [[int(x) for x in fh.readline().split()]
                     for _ in range(d.rank)]
    except (OSError, ValueError):
        return None
    for col in right:
        if len(col) != expected or sorted(col) != list(range(expected)):
            return None
    try:
        t = GroupTable(d, right)
    except ValueError:
        return None  # generator action not transitive
    return t if check_relations(t) else None


# ---------------------------------------------------------------------------
# parabolic cosets, reflections, conjugacy classes
# ---------------------------------------------------------------------------

@dataclass
class CosetPartition:
    """Left cosets g<I> as orbits of right multiplication by I."""

    subset: tuple[int, ...]
    block_of: list[int]
    reps: list[int]          # smallest element of each block, block 0 = <I>
    block_size: int

    @property
    def n_blocks(self) -> int:
        return len(self.reps)


def parabolic_cosets(t: GroupTable, I) -> CosetPartition:
    """Partition of element ids into left cosets of the standard parabolic
    generated by the generator indices in I."""
    I = tuple(sorted(set(I)))
    n = t.order
    if not I:
        return CosetPartition(I, list(range(n)), list(range(n)), 1)
    block_of = [-1] * n
    reps = []
    cols = [t.right[i] for i in I]
    for s in range(n):
        if block_of[s] >= 0:
            continue
        bid = len(reps)
        reps.append(s)
        block_of[s] = bid
        stack = [s]
        while stack:
            x = stack.pop()
            for col in cols:
                y = col[x]
                if block_of[y] < 0:
                    block_of[y] = bid
                    stack.append(y)
    if n % len(reps) != 0:
        raise RuntimeError("parabolic blocks of unequal size")
    size = n // len(reps)
    counts = [0] * len(reps)
    for b in block_of:
        counts[b] += 1
    if any(c != size for c in counts):
        raise RuntimeError("parabolic blocks of unequal size")
    return CosetPartition(I, block_of, reps, size)


def reflections(t: GroupTable, d: Diagram | None = None) -> list[int]:
    """All non-identity elements conjugate to a power of a generator,
    as a sorted list of element ids."""
    seed = set()
    for i in range(t.ngens):
        x = t.gen_elements[i]
        while x != 0:
            seed.add(x)
            x = t.right[i][x]
    out = set()
    stack = list(seed)
    conj_tables = _generator_conjugations(t)
    while stack:
        x = stack.pop()
        if x in out:
            continue
        out.add(x)
        for tab in conj_tables:
            y = tab[x]
            if y not in out:
                stack.append(y)
    return sorted(out)


def _generator_conjugations(t: GroupTable) -> list[list[int]]:
    """Per generator i, the table x -> r_i x r_i^{-1}."""
    tables = []
    for i in range(t.ngens):
        ri_inv = t.right_inv[i]
        li = t.left[i]
        tables.append([li[ri_inv[x]] for x in range(t.order)])
    return tables


@dataclass
class ConjugacyClasses:
    class_of: list[int]
    reps: list[int]
    sizes: list[int]

    @property
    def n_classes(self) -> int:
        return len(self.reps)


def conjugacy_classes(t: GroupTable) -> ConjugacyClasses:
    """Orbits of conjugation; representatives are the smallest element ids."""
    n = t.order
    conj = _generator_conjugations(t)
    class_of = [-1] * n
    reps, sizes = [], []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        cid = len(reps)
        reps.append(x)
        class_of[x] = cid
        stack = [x]
        count = 1
        while stack:
            y = stack.pop()
            for tab in conj:
                z = tab[y]
                if class_of[z] < 0:
                    class_of[z] = cid
                    stack.append(z)
                    count += 1
        sizes.append(count)
    return ConjugacyClasses(class_of, reps, sizes)


def reflection_classes(t: GroupTable, d: Diagram | None = None,
                       classes: ConjugacyClasses | None = None
                       ) -> list[tuple[int, list[int]]]:
    """(representative, sorted class members) for each conjugacy class of
    reflections, in order of representative id."""
    refl = reflections(t, d)
    if classes is None:
        classes = conjugacy_classes(t)
    by_class: dict[int, list[int]] = {}
    for x in refl:
        by_class.setdefault(classes.class_of[x], []).append(x)
    out = []
    for cid in sorted(by_class, key=lambda c: classes.reps[c]):
        out.append((classes.reps[cid], sorted(by_class[cid])))
    return out


def check_relations(t: GroupTable, sample: int | None = None) -> bool:
    """Verify the defining relations on the regular action (all points, or a
    deterministic sample of that many)."""
    d = t.diagram
    n = t.order
    pts = range(n) if sample is None or sample >= n else range(0, n, max(1, n // sample))

    def run(word, x):
        for i in word:
            x = t.right[i][x]
        return x

    for i in range(t.ngens):
        w = [i] * d.orders[i]
        for x in pts:
            if run(w, x) != x:
                return False
    for i in range(t.ngens):
        for j in range(i + 1, t.ngens):
            m = d.m(i, j)
            w1 = [i if k % 2 == 0 else j for k in range(m)]
            w2 = [j if k % 2 == 0 else i for k in range(m)]
            for x in pts:
                if run(w1, x) != run(w2, x):
                    return False
    return True
