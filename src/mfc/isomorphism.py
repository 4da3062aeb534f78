"""Simplicial isomorphism onto a Milnor fiber complex.

The one search (``find_isomorphism``) maps a complex onto a model, a
complex built by ``milnor_fiber_complex``.  It uses what is known about
a coset complex: its group acts simply transitively on its chambers by
type-preserving automorphisms, so one chamber can be pinned to the
identity chamber and the rest of the map follows panel by panel (Tits,
A local approach to buildings, 1981).  A caller that knows which type
of a goes to which type of the model passes that map (``type_map``),
and every vertex must then go to a vertex of the mapped type.  An
extension that backtracks more often than a has chambers starts again
from refined colors (``_refine``, refine-then-backtrack as in
McKay-Piperno, Practical graph isomorphism, II, 2014).  Maps whose
isomorphism is known from the structure of the groups (the monomial
certificate, the walls of a join) are built directly and re-checked by
``verify_isomorphism``.

An isomorphism is its vertex map, a dict from a's vertex ids to b's.
All orderings are explicit, so results are deterministic.
"""

from __future__ import annotations

from itertools import permutations

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
    sets_b = b._simplex_sets()
    for k in range(a.dim + 1):
        for s in a.simplices(k):
            if tuple(sorted(vertex_map[v] for v in s)) not in sets_b[k]:
                return False
    if type_map is not None:
        return all(type_map.get(a.vertex_types[v]) == b.vertex_types[w]
                   for v, w in vertex_map.items())
    return True


def _refine(colors_a, colors_b, a: TypedComplex, b: TypedComplex):
    """Joint iterated refinement of a's and b's vertex colors; returns
    stable, comparable colors.

    A round colors each simplex of dimension >= 1 once, by the sorted
    colors of its vertices, and a vertex's signature is its own color
    with the sorted colors of its incident simplices.  Signatures embed
    the old color, so classes only ever split; the loop stops when the
    joint class count stops growing.
    """
    faces_a = [s for k in range(1, a.dim + 1) for s in a.simplices(k)]
    faces_b = [s for k in range(1, b.dim + 1) for s in b.simplices(k)]
    while True:
        interned: dict = {}

        def recolor(colors, faces):
            around = [[] for _ in colors]
            for s in faces:
                color = tuple(sorted(map(colors.__getitem__, s)))
                for v in s:
                    around[v].append(color)
            out = []
            for c, cols in zip(colors, around):
                cols.sort()
                out.append(interned.setdefault((c, tuple(cols)),
                                               len(interned)))
            return out

        before = len(set(colors_a) | set(colors_b))
        colors_a = recolor(colors_a, faces_a)
        colors_b = recolor(colors_b, faces_b)
        if len(set(colors_a) | set(colors_b)) == before:
            return colors_a, colors_b


def _initial_colors(a: TypedComplex, b: TypedComplex, tmap=None):
    """Comparable starting colors: a vertex's incident-simplex count in
    each dimension (``incidence_counts``) and, under a type map a -> b,
    its type (a's types read through the map); colors are numbered in
    order of appearance."""
    interned: dict = {}

    def col(c: TypedComplex, label):
        return [interned.setdefault((p, label(t)), len(interned))
                for p, t in zip(c.incidence_counts(), c.vertex_types)]

    if tmap is None:
        return col(a, lambda t: None), col(b, lambda t: None)
    return col(a, tmap.get), col(b, lambda t: t)


def find_isomorphism(a: TypedComplex, model: TypedComplex,
                     type_map: dict | None = None) -> dict[int, int] | None:
    """The vertex map of a simplicial isomorphism from a onto ``model``, a
    complex built by ``milnor_fiber_complex``, or None; the empty
    complexes' map is {}, and 0-dimensional ones take any bijection.
    With a type map (a dict from each of a's type labels to one of the
    model's), every vertex must go to a vertex of the mapped type; at
    dimension 0 that is the model's one type.

    The model's group acts simply transitively on its chambers by
    type-preserving automorphisms, so if any isomorphism exists, one of
    them takes a's first chamber c0 onto the model's first chamber C0,
    the identity chamber, whose type-r vertex is the first id of type r;
    with a type map, so does one that respects it.  Each bijection
    c0 -> C0 that keeps the initial colors (``incidence_counts``, and
    the mapped type) is extended across a's panels (``_extend``),
    backtracking at most once per chamber of a.  An extension that needs
    more, as on thick rank-2 models with long cycles such as G17's,
    starts again from colors refined with c0's vertices and their images
    set apart (``_refine``), which seldom leave it a choice, and runs to
    the end.  A map that ``_extend`` accepts is injective and sends every
    chamber of a onto a chamber of the model; with equal f-vectors and
    every model simplex a face of a chamber, that is an isomorphism.  The
    search is complete, so None is exact.
    """
    if a.f_vector() != model.f_vector():
        return None
    if a.n_vertices == 0:
        return {}
    if a.dim == 0:
        # a 0-dimensional model is a rank-1 group's: one vertex type
        if type_map is not None and any(
                type_map.get(t) != u
                for t, u in zip(a.vertex_types, model.vertex_types)):
            return None
        return {v: v for v in range(a.n_vertices)}
    base_a, base_b = _initial_colors(a, model, type_map)
    chambers = a.simplices(a.dim)
    c0, anchor = chambers[0], model.simplices(model.dim)[0]
    star: list[list[int]] = [[] for _ in range(a.n_vertices)]
    for i, c in enumerate(chambers):
        for v in c:
            star[v].append(i)
    for image in permutations(anchor):
        if any(base_a[v] != base_b[w] for v, w in zip(c0, image)):
            continue
        start = dict(zip(c0, image))
        try:
            phi = _extend(a, model, star, base_a, base_b, start,
                          budget=len(chambers))
        except _OverBudget:
            colors_a, colors_b = list(base_a), list(base_b)
            for k, (v, w) in enumerate(start.items(), 1):
                colors_a[v] = colors_b[w] = -k
            colors_a, colors_b = _refine(colors_a, colors_b, a, model)
            phi = (_extend(a, model, star, colors_a, colors_b, start)
                   if sorted(colors_a) == sorted(colors_b) else None)
        if phi is not None:
            return dict(enumerate(phi))
    return None


class _OverBudget(Exception):
    """``_extend`` backtracked more often than its budget allows."""


def _extend(a: TypedComplex, model: TypedComplex, star: list[list[int]],
            colors_a, colors_b, start: dict[int, int],
            budget: int | None = None) -> list[int] | None:
    """A vertex map from a onto the model that extends ``start``, a map of
    one chamber onto a chamber, as a list, or None when there is none;
    ``star[v]`` lists the chambers of a through v, by their index among
    a's top-dimensional simplices, and a vertex goes only to a vertex of
    its color.  Raises _OverBudget on backtracking more than ``budget``
    times.

    A chamber of a whose vertices are all mapped must go onto a model
    chamber (``fits``).  A chamber with one unmapped vertex x is open: x
    can go only to an unmapped vertex of its color that completes the
    image of the chamber's other vertices to a model chamber, one of the
    image panel's own vertices.  Open chambers are read in the order they
    open, and each one narrows x's domain to those vertices: an empty
    domain fails, a single vertex is forced, and a larger domain waits.
    When no open chamber is left unread, the first waiting vertex still
    unmapped is a choice point over its domain.  So each choice is
    followed by everything it forces before the next is made.

    Depth-first over the choice points, with an explicit stack of them
    and trails of mapped vertices and of narrowed domains; backtracking
    undoes the trails and cuts the two queues back to their lengths at
    the choice, so nothing is copied and no recursion grows with the
    chamber count.  The map is complete when every vertex is mapped; a
    search that stops short has reached every chamber of c0's gallery
    component, so a is not gallery connected or not pure, and no model
    is isomorphic to it.
    """
    chambers = a.simplices(a.dim)
    panels_b = model.panels()
    phi = [-1] * a.n_vertices
    phi_inv = [-1] * model.n_vertices
    domain: list[list[int] | None] = [None] * a.n_vertices
    unmapped = [len(c) for c in chambers]
    trail: list[int] = []       # mapped vertices, in order
    narrowed = []               # (vertex, its domain before), in order
    opened: list[int] = []      # chambers, in the order they opened
    waiting: list[int] = []     # vertices whose domain has several images
    read = first_waiting = 0

    def fits(c) -> bool:
        return phi[c[-1]] in panels_b.get(
            tuple(sorted([phi[u] for u in c[:-1]])), ())

    def assign(x, y) -> bool:
        """Map x to y; False when a chamber that this completes does not
        fit.  The counts are kept whole either way, for the undo."""
        phi[x], phi_inv[y] = y, x
        trail.append(x)
        ok = True
        for i in star[x]:
            unmapped[i] -= 1
            if unmapped[i] == 1:
                opened.append(i)
            elif unmapped[i] == 0 and ok:
                ok = fits(chambers[i])
        return ok

    ok = all([assign(x, y) for x, y in start.items()])
    choices = []    # (x, images left to try, lengths to cut back to)
    while True:
        if not ok:
            # back to the latest choice point with an image left to try
            while choices:
                x, rest, (n_trail, n_narrowed, n_opened, read, n_waiting,
                          first_waiting) = choices[-1]
                while len(trail) > n_trail:
                    u = trail.pop()
                    phi_inv[phi[u]] = -1
                    phi[u] = -1
                    for i in star[u]:
                        unmapped[i] += 1
                while len(narrowed) > n_narrowed:
                    u, before = narrowed.pop()
                    domain[u] = before
                del opened[n_opened:], waiting[n_waiting:]
                y = next(rest, None)
                if y is not None:
                    if budget is not None:
                        budget -= 1
                        if budget < 0:
                            raise _OverBudget
                    ok = assign(x, y)
                    break
                choices.pop()
            else:
                return None
            continue
        if read < len(opened):
            i = opened[read]
            read += 1
            if unmapped[i] != 1:
                continue
            c = chambers[i]
            x = next(u for u in c if phi[u] < 0)
            apexes = panels_b.get(
                tuple(sorted([phi[u] for u in c if u != x])), ())
            before = domain[x]
            if before is None:
                ys = [y for y in apexes
                      if phi_inv[y] < 0 and colors_b[y] == colors_a[x]]
            else:
                inside = set(apexes)
                ys = [y for y in before if phi_inv[y] < 0 and y in inside]
            narrowed.append((x, before))
            domain[x] = ys
            if len(ys) == 1:
                ok = assign(x, ys[0])
            elif not ys:
                ok = False
            elif before is None:
                waiting.append(x)
            continue
        while (first_waiting < len(waiting)
               and phi[waiting[first_waiting]] >= 0):
            first_waiting += 1
        if first_waiting == len(waiting):
            return phi if len(trail) == a.n_vertices else None
        x = waiting[first_waiting]
        ys = [y for y in domain[x] if phi_inv[y] < 0]
        if len(ys) > 1:
            choices.append((x, iter(ys[1:]),
                            (len(trail), len(narrowed), len(opened), read,
                             len(waiting), first_waiting)))
        ok = bool(ys) and assign(x, ys[0])
