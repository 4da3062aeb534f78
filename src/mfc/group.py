"""Finite groups from admissible presentations.

``enumerate_group`` realizes the group of a diagram as its right regular
action: a permutation of element ids per generator, with element 0 the
identity and ids assigned breadth-first from the identity in generator
order.  That numbering depends only on the group and its generators, so
every construction below ends in the same canonical table.

* An irreducible diagram of rank >= 2 is built by induction from its
  largest maximal parabolic subgroup H = G_J: Todd-Coxeter coset
  enumeration (HLT scanning with coincidence handling) over H gives the
  action on the |G|/|H| cosets, and the Schreier elements of a Schreier
  transversal, identified in H's own table, give the regular action on
  pairs (h, coset).  H's table is built the same way, down to rank 1.
* A reducible diagram is the direct product of its component groups.
* Cyclic and dihedral diagrams use direct constructions, because their
  braid relators have length ~|G|.  These are born canonical, with their
  breadth-first tree; the induced and product tables are renumbered by
  one breadth-first pass (``GroupTable._standardize``).

The table keeps only the generators' right actions and the
breadth-first tree; left multiplication, inverses and conjugation are
derived from them when needed.  ``GroupTable.left_translation`` gives
g * x for every x in one pass along the tree; ``left_multiplier`` gives
it for the x asked for, along their ancestors only, which is what
``element_order`` and the walk of the reflection classes read.
``parabolic_cosets`` walks a standard parabolic G_I once, as a tree from
the identity, and reads each left coset sG_I off that tree's image
under s, one lookup per element.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .diagram import (Diagram, components_with_indices, diagram_name,
                      group_order)

DEFAULT_CAP = 200_000


class CapExceeded(RuntimeError):
    """Expected or actual enumeration size above the configured cap."""


class GroupTable:
    """Regular action of a finite group given by an admissible diagram.

    right[i][x] is x * r_i.  parent[x] and last_letter[x] give
    x = parent[x] * r_last_letter[x] along a breadth-first tree from the
    identity, so word(x) gives one shortest word (tuple of generator
    indices) with value x, and left_translation(g) gives g * x for every
    x.  Nothing else is stored: no left action, inverse right action or
    table of element inverses.

    Given no ``parent``, the table renumbers ``right`` into canonical order
    and builds the tree; a builder that passes the tree vouches that
    ``right`` is canonical already.
    """

    def __init__(self, diagram: Diagram, right: list[list[int]],
                 parent: list[int] | None = None,
                 last_letter: list[int] | None = None):
        self.diagram = diagram
        self.ngens = diagram.rank
        self.right = right
        self.order = len(right[0]) if right else 1
        if parent is None:
            self._standardize()
        else:
            self.parent, self.last_letter = parent, last_letter
        self.gen_elements = [self.right[i][0] for i in range(self.ngens)]

    # -- construction -----------------------------------------------------

    def _standardize(self):
        """Renumber breadth-first from the identity with fixed generator order,
        recording each element's BFS parent and last letter in the new ids."""
        n = self.order
        ng = self.ngens
        right = self.right
        # parent links give shortest words without materializing them (they
        # can have length ~|G|); every id below is an int object of new_id
        new_id = [-1] * n
        new_id[0] = 0
        order = [0]
        parent = [0]
        last = [0]
        for x in order:
            px = new_id[x]
            for i in range(ng):
                y = right[i][x]
                if new_id[y] < 0:
                    new_id[y] = len(order)
                    order.append(y)
                    parent.append(px)
                    last.append(i)
        if len(order) != n:
            raise ValueError("generator action not transitive")
        # new column k is new_id[old[order[k]]]
        self.right = [list(map(new_id.__getitem__,
                               map(old.__getitem__, order)))
                      for old in right]
        self.parent = parent
        self.last_letter = last

    def word(self, x: int) -> tuple[int, ...]:
        """One shortest word (generator indices) evaluating to element x."""
        out = []
        while x != 0:
            out.append(self.last_letter[x])
            x = self.parent[x]
        out.reverse()
        return tuple(out)

    # -- arithmetic --------------------------------------------------------

    def left_translation(self, g: int) -> list[int]:
        """g * x for every element x, in one pass along the parent links:
        x = p * r_l gives g * x = (g * p) * r_l, and parents come first."""
        out = [g] * self.order
        right, parent, last = self.right, self.parent, self.last_letter
        for x in range(1, self.order):
            out[x] = right[last[x]][out[parent[x]]]
        return out

    def left_multiplier(self, g: int):
        """The map x -> g * x, read along the parent links as in
        ``left_translation``, but only for the x asked for: each call
        climbs from x to its nearest ancestor already computed, then
        computes and remembers the path back down.  The cost is the
        number of distinct ancestors of the arguments, at most |G|."""
        memo = {0: g}
        right, parent, last = self.right, self.parent, self.last_letter

        def times(x: int) -> int:
            path = []
            while x not in memo:
                path.append(x)
                x = parent[x]
            y = memo[x]
            for x in reversed(path):
                y = memo[x] = right[last[x]][y]
            return y
        return times

    def element_order(self, g: int) -> int:
        """The least k >= 1 with g^k = 1.  The powers g^k = g * g^(k-1)
        are read through one ``left_multiplier``, so the cost is the
        number of distinct ancestors of g's powers, at most |G|."""
        times_g = self.left_multiplier(g)
        k, x = 1, g
        while x != 0:
            x = times_g(x)
            k += 1
        return k


def _invert(col: list[int]) -> list[int]:
    """The inverse permutation."""
    out = [0] * len(col)
    for x, y in enumerate(col):
        out[y] = x
    return out


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration
# ---------------------------------------------------------------------------

def _relations(d: Diagram):
    """The defining relations as (lhs, rhs) word pairs over the generator
    indices: each power r_i^{o_i} = 1, then each braid relation
    r_i r_j r_i ... = r_j r_i r_j ... (m_ij letters a side)."""
    n = d.rank
    for i in range(n):
        yield [i] * d.orders[i], []
    for i in range(n):
        for j in range(i + 1, n):
            m = d.m(i, j)
            yield ([i if k % 2 == 0 else j for k in range(m)],
                   [j if k % 2 == 0 else i for k in range(m)])


def _relators(d: Diagram) -> list[list[int]]:
    """Relator words lhs * rhs^-1 over the letter alphabet gens + formal
    inverses: letters 0..n-1 are the generators, n+i is the inverse of i.
    """
    n = d.rank
    return [lhs + [n + x for x in reversed(rhs)]
            for lhs, rhs in _relations(d)]


def todd_coxeter(d: Diagram, cap: int, subgroup=()) -> list[list[int]]:
    """HLT coset enumeration of the right cosets of the subgroup generated
    by the generators in ``subgroup``; coset 0 is the subgroup itself.
    Returns the right action of each generator as a permutation of the
    coset ids 0..index-1; the default trivial subgroup gives the right
    regular action."""
    ngens = d.rank
    if ngens == 0:
        return []
    width = 2 * ngens
    inv_letter = [ngens + i for i in range(ngens)] + list(range(ngens))
    limit = max(4 * cap, cap + 10_000)

    # cols[x][c] is coset c times letter x, -1 while undefined
    cols: list[list[int]] = [[-1] for _ in range(width)]
    p = [0]  # union-find for coincidences; p[c] == c iff c is live
    for j in subgroup:
        cols[j][0] = 0
        cols[inv_letter[j]][0] = 0
    # per relator: the column of each letter, and of its inverse
    scans = [([cols[x] for x in w], [cols[inv_letter[x]] for x in w])
             for w in _relators(d)]

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
            for x in range(width):
                col, icol = cols[x], cols[inv_letter[x]]
                delta = col[gamma]
                if delta < 0:
                    continue
                icol[delta] = -1
                mu = rep(gamma)
                nu = rep(delta)
                if col[mu] >= 0:
                    merge(nu, col[mu])
                elif icol[nu] >= 0:
                    merge(mu, icol[nu])
                else:
                    col[mu] = nu
                    icol[nu] = mu

    alpha = 0
    while alpha < len(p):
        if p[alpha] != alpha:
            alpha += 1
            continue
        for fw, bw in scans:
            # scan the relator from alpha, filling in its last gap or
            # defining a new coset while two or more letters are missing
            f = b = alpha
            i, j = 0, len(fw) - 1
            while True:
                while i <= j:
                    nxt = fw[i][f]
                    if nxt < 0:
                        break
                    f = nxt
                    i += 1
                if i > j:
                    if f != b:
                        merge(f, b)
                        process_coincidences()
                    break
                while j >= i:
                    prv = bw[j][b]
                    if prv < 0:
                        break
                    b = prv
                    j -= 1
                if j < i:
                    merge(f, b)
                    process_coincidences()
                    break
                if j == i:
                    fw[i][f] = b
                    bw[i][b] = f
                    break
                beta = len(p)
                if beta > limit:
                    raise CapExceeded("coset table grew past %d rows" % limit)
                for col in cols:
                    col.append(-1)
                p.append(beta)
                fw[i][f] = beta
                bw[i][beta] = f
            if p[alpha] != alpha:
                break
        alpha += 1

    live = [x for x in range(len(p)) if p[x] == x]
    index = {x: k for k, x in enumerate(live)}
    right = []
    for col in cols[:ngens]:
        if any(col[x] < 0 for x in live):
            raise RuntimeError("incomplete coset table")
        right.append([index[rep(col[x])] for x in live])
    return right


# ---------------------------------------------------------------------------
# direct constructions for families with |G|-length relators
# ---------------------------------------------------------------------------

def _cyclic(m: int):
    """Z_m in canonical order: element x is r^x, with parent x - 1."""
    ids = list(range(m))
    return [ids[1:] + ids[:1]], [0] + ids[:-1], [0] * m


def _dihedral(q: int):
    """I2(q) = <s0, s1> in canonical order.  For 0 < k < q the alternating
    word of length k that starts with s0 is 2k - 1 and the one that starts
    with s1 is 2k; the longest element is 2q - 1.  So x's parent is x - 2
    (0 for x < 2) and its last letter is bit 1 of x.  Right multiplication
    by s1 swaps 4j <-> 4j+2 and 4j+1 <-> 4j+3, by s0 swaps 0 <-> 1,
    4j+2 <-> 4j+4 and 4j+3 <-> 4j+5; at the top, s_{q mod 2} swaps
    2q-2 <-> 2q-1, where those blocks run past the group."""
    n = 2 * q
    right = [[1, 0] + [((x - 2) ^ 2) + 2 for x in range(2, n)],
             [x ^ 2 for x in range(n)]]
    col = right[q % 2]
    col[n - 2], col[n - 1] = n - 1, n - 2
    return right, [0, 0] + list(range(n - 2)), [x >> 1 & 1 for x in range(n)]


# ---------------------------------------------------------------------------
# public constructor
# ---------------------------------------------------------------------------

def enumerate_group(d: Diagram, cap: int = DEFAULT_CAP) -> GroupTable:
    """Realize the diagram's group as a GroupTable.

    Raises CapExceeded, before any table is built, when the classified
    order exceeds ``cap``.
    """
    _check_rank(d.rank, cap)
    expected = group_order(d)
    if expected > cap:
        raise CapExceeded("group order %d exceeds cap %d" % (expected, cap))
    return _build(d, cap, expected)


def _check_rank(rank: int, cap: int) -> None:
    """Raise CapExceeded when 2^rank, a lower bound on the order of any
    group of this rank (every basic degree is at least 2), is over cap."""
    if rank >= cap.bit_length():            # 2^rank > cap
        raise CapExceeded("group order at least 2^%d exceeds cap %d"
                          % (rank, cap))


def _build(d: Diagram, cap: int, expected: int) -> GroupTable:
    n = d.rank
    if n == 0:
        t = GroupTable(d, [])
    elif n == 1:
        t = GroupTable(d, *_cyclic(d.orders[0]))
    elif n == 2 and d.orders == (2, 2):
        t = GroupTable(d, *_dihedral(d.m(0, 1)))
    else:
        comps = components_with_indices(d)
        if len(comps) > 1:
            t = GroupTable(d, _product_right(d, comps, cap))
        else:
            t = GroupTable(d, _induced_right(d, cap))
    if t.order != expected:
        raise RuntimeError("enumerated order %d != classified order %d for %s"
                           % (t.order, expected, diagram_name(d)))
    return t


def _product_right(d: Diagram, comps, cap: int) -> list[list[int]]:
    """Regular action of the direct product of the components: element
    (x_1, ..., x_k) is numbered in mixed radix, the first component most
    significant.  (Inducing from a maximal parabolic would not be faithful
    here: it contains a whole component, a normal subgroup.)"""
    tables = [_build(cd, cap, group_order(cd)) for cd, _idx in comps]
    total = 1
    for t in tables:
        total *= t.order
    ids = list(range(total))
    right: list[list[int]] = [[] for _ in range(d.rank)]
    stride = total
    for t, (_cd, idx) in zip(tables, comps):
        size = t.order
        block = stride
        stride //= size
        for k, r in zip(idx, t.right):
            col = right[k]
            for outer in range(0, total, block):
                for x in range(size):
                    y = outer + r[x] * stride
                    col += ids[y:y + stride]
    return right


def _induced_right(d: Diagram, cap: int) -> list[list[int]]:
    """Regular action of an irreducible group G from its largest maximal
    parabolic subgroup H = G_J.

    With a Schreier transversal t_c of the right cosets c = H t_c, element
    h t_c has id c*|H| + h, and (h t_c) r_i = (h s) t_{c r_i} with the
    Schreier element s = t_c r_i t_{c r_i}^-1 in H.  Each s is identified
    in H's table by its images of a few base cosets, which tell H's
    elements apart when G acts faithfully on the cosets of H.  For an
    irreducible G it does: the core of H is normal and fixes H's nonzero
    fixed space, so the core's own fixed space is a nonzero G-stable
    subspace, hence everything, and the core is trivial.  The checks
    below stay anyway.
    """
    n = d.rank
    best = -1
    for k in range(n):
        sub_j = tuple(j for j in range(n) if j != k)
        order_j = group_order(d.induced(sub_j))
        if order_j > best:
            best, J = order_j, sub_j
    h_table = _build(d.induced(J), cap, best)
    cos = todd_coxeter(d, cap, J)
    index = len(cos[0])
    n_h = h_table.order
    cos_inv = [_invert(col) for col in cos]

    # Schreier tree over the cosets in generator order: t_c = t_p r_l
    t_parent = [-1] * index
    t_letter = [0] * index
    t_parent[0] = 0
    order = [0]
    for c in order:
        for i in range(n):
            y = cos[i][c]
            if t_parent[y] < 0:
                t_parent[y] = c
                t_letter[y] = i
                order.append(y)

    # images of coset b under every h in H, along H's parent links
    h_cols = [cos[j] for j in J]
    h_parent, h_last = h_table.parent, h_table.last_letter

    def images(b: int) -> list[int]:
        img = [b] * n_h
        for h in range(1, n_h):
            img[h] = h_cols[h_last[h]][img[h_parent[h]]]
        return img

    # base: each coset that tells more of H's elements apart is added
    base, base_imgs = [], []
    n_keys = 1
    for b in range(1, index):
        if n_keys == n_h:
            break
        img = images(b)
        keys = len(set(zip(*base_imgs, img)))
        if keys > n_keys:
            base.append(b)
            base_imgs.append(img)
            n_keys = keys
    if n_keys != n_h:
        raise RuntimeError("%s does not act faithfully on the cosets of "
                           "its parabolic subgroup %r" % (diagram_name(d), J))
    lookup = {key: h for h, key in enumerate(zip(*base_imgs))}

    # b t_c for every base coset b and coset c, along the Schreier tree
    base_t = []
    for b in base:
        bt = [b] * index
        for c in order[1:]:
            bt[c] = cos[t_letter[c]][bt[t_parent[c]]]
        base_t.append(bt)

    def schreier_element(c: int, i: int) -> int:
        c2 = cos[i][c]
        key = []
        for bt in base_t:
            x = cos[i][bt[c]]
            y = c2
            while y:  # apply t_{c2}^-1, one tree edge at a time
                x = cos_inv[t_letter[y]][x]
                y = t_parent[y]
            key.append(x)
        h = lookup.get(tuple(key))
        if h is None:
            raise RuntimeError("Schreier element of %s not found in its "
                               "parabolic subgroup %r" % (diagram_name(d), J))
        return h

    # right multiplication of H by s, composed along s's parent links from
    # the nearest cached ancestor
    h_right = h_table.right
    right_mul = {0: list(range(n_h))}

    def right_mul_of(s: int) -> list[int]:
        path = []
        while s not in right_mul:
            path.append(s)
            s = h_parent[s]
        perm = right_mul[s]
        for s in reversed(path):
            col = h_right[h_last[s]]
            perm = [col[x] for x in perm]
            right_mul[s] = perm
        return perm

    ids = list(range(index * n_h))
    right = []
    for i in range(n):
        col: list[int] = []
        for c in range(index):
            off = cos[i][c] * n_h
            col += map(ids[off:off + n_h].__getitem__,
                       right_mul_of(schreier_element(c, i)))
        right.append(col)
    return right


# ---------------------------------------------------------------------------
# parabolic cosets, reflections, conjugacy classes
# ---------------------------------------------------------------------------

@dataclass
class CosetPartition:
    """Left cosets g<I> as orbits of right multiplication by I."""

    block_of: list[int]
    reps: list[int]          # smallest element of each block, block 0 = <I>

    @property
    def n_blocks(self) -> int:
        return len(self.reps)


def _subgroup_tree(t: GroupTable, I) -> tuple[list[int], list[tuple]]:
    """The standard parabolic G_I, walked breadth-first from the identity
    along the right columns of the generators in I: its members in that
    order, and for each member after the identity the pair (position of
    its parent member, column), with member = column[parent member]."""
    cols = [t.right[i] for i in I]
    members = [0]
    seen = {0}
    tree = []
    for k, x in enumerate(members):
        for col in cols:
            y = col[x]
            if y not in seen:
                seen.add(y)
                members.append(y)
                tree.append((k, col))
    return members, tree


def parabolic_cosets(t: GroupTable, I) -> CosetPartition:
    """Partition of element ids into left cosets of the standard parabolic
    generated by the generator indices in I.

    G_I is walked once (``_subgroup_tree``).  The block s<I> of the
    smallest unassigned s is that tree's image under left multiplication
    by s: member = column[parent member] gives s * member =
    column[s * parent member], one lookup per element."""
    I = tuple(sorted(set(I)))
    n = t.order
    if not I:
        return CosetPartition(list(range(n)), list(range(n)))
    members, tree = _subgroup_tree(t, I)
    block_of = [-1] * n
    reps = []
    for s in range(n):
        if block_of[s] >= 0:
            continue
        bid = len(reps)
        reps.append(s)
        img = [s]
        for p, col in tree:
            img.append(col[img[p]])
        for y in img:
            block_of[y] = bid
    # blocks that overlapped would leave more of them than |G| / |G_I|
    if len(reps) * len(members) != n:
        raise RuntimeError("parabolic blocks of unequal size")
    return CosetPartition(block_of, reps)


@dataclass
class ConjugacyClasses:
    class_of: list[int]
    reps: list[int]
    sizes: list[int]

    @property
    def n_classes(self) -> int:
        return len(self.reps)


@dataclass
class ReflectionClasses:
    """The conjugacy classes that hold a reflection, in class-id order."""

    reps: list[int]          # smallest element of each class
    sizes: list[int]


def _generator_inverses(t: GroupTable) -> list[int]:
    """r_i^-1 for each generator: the last power of r_i before the
    identity on r_i's column."""
    out = []
    for g, col in zip(t.gen_elements, t.right):
        while col[g] != 0:
            g = col[g]
        out.append(g)
    return out


def conjugacy_classes(t: GroupTable) -> ConjugacyClasses:
    """Orbits of conjugation; representatives are the smallest element ids.

    When the generators commute pairwise, the group is abelian, so every
    class is one element and no conjugation is computed."""
    n = t.order
    gens, right = t.gen_elements, t.right
    if all(right[j][gens[i]] == right[i][gens[j]]
           for i in range(t.ngens) for j in range(i)):
        return ConjugacyClasses(list(range(n)), list(range(n)), [1] * n)
    # per generator i, the table x -> r_i^{-1} x r_i: the left translation
    # by r_i^{-1} read through right multiplication by r_i
    conj = [list(map(col.__getitem__, t.left_translation(g)))
            for g, col in zip(_generator_inverses(t), right)]
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


def reflection_classes(t: GroupTable, classes: ConjugacyClasses | None = None
                       ) -> ReflectionClasses:
    """The conjugacy classes of reflections, the classes that hold a
    non-identity power of a generator: each class's representative (its
    smallest element id, as in ``conjugacy_classes``) and size, in
    class-id order, which is the order of the representatives.

    Given ``classes``, they are read off.  Otherwise only the reflections
    are walked: from each power, its closure under x -> r_j^-1 x r_j for
    every generator j.  That closure is a whole conjugacy class, since
    conjugation by r_j^-1 is a power of conjugation by r_j (a permutation
    of finite order) and the r_j generate the group.  Each r_j^-1 x is
    read through a ``left_multiplier``, so the walk costs about n times
    the number of ancestors of the reflections, never n |G|.

    At rank 1 the powers of the generator are the whole group, which is
    abelian, so every element but the identity is a class of its own and
    nothing is read or walked."""
    if t.ngens == 1:
        return ReflectionClasses(list(range(1, t.order)), [1] * (t.order - 1))
    powers = []
    for g, col in zip(t.gen_elements, t.right):
        while g != 0:
            powers.append(g)
            g = col[g]
    if classes is not None:
        found = sorted({classes.class_of[x] for x in powers})
        return ReflectionClasses([classes.reps[cid] for cid in found],
                                 [classes.sizes[cid] for cid in found])
    conj = [(t.left_multiplier(g), col)
            for g, col in zip(_generator_inverses(t), t.right)]
    seen = set()
    orbits = []
    for x in powers:
        if x in seen:
            continue
        seen.add(x)
        orbit = [x]
        for y in orbit:
            for times, col in conj:
                z = col[times(y)]
                if z not in seen:
                    seen.add(z)
                    orbit.append(z)
        orbits.append((min(orbit), len(orbit)))
    orbits.sort()
    return ReflectionClasses([rep for rep, _ in orbits],
                             [size for _, size in orbits])
