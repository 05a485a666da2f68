"""Independent brute-force oracles.

Everything here works element by element from the multiplication table
alone, deliberately ignoring the engine's generator shortcuts, coset
extensions and caches, so the two paths can disagree when one is wrong.
"""

from __future__ import annotations

import random
from itertools import combinations

from cdlat import Group
from cdlat.groups import from_cayley


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def is_closed_mask(g: Group, mask: int) -> bool:
    rows = g.table
    elems = [i for i in range(g.order) if mask >> i & 1]
    for a in elems:
        row = rows[a]
        for b in elems:
            if not mask >> row[b] & 1:
                return False
    return True


def brute_subgroup_masks(g: Group) -> set[int]:
    """Subset filtration: test every subset of Lagrange-compatible size
    containing the identity for closure under multiplication."""
    n = g.order
    rows = g.table
    others = list(range(1, n))
    found = set()
    for d in divisors(n):
        for combo in combinations(others, d - 1):
            elems = (0,) + combo
            mask = 0
            for e in elems:
                mask |= 1 << e
            ok = True
            for a in elems:
                row = rows[a]
                for b in elems:
                    if not mask >> row[b] & 1:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found.add(mask)
    return found


def brute_centralizer_mask(g: Group, hmask: int) -> int:
    """Filter every element against every member of H (no generators)."""
    members = [i for i in range(g.order) if hmask >> i & 1]
    mask = 0
    for x in range(g.order):
        if all(g.mul(x, h) == g.mul(h, x) for h in members):
            mask |= 1 << x
    return mask


def brute_center_mask(g: Group) -> int:
    return brute_centralizer_mask(g, (1 << g.order) - 1)


def brute_normalizer_mask(g: Group, hmask: int) -> int:
    members = [i for i in range(g.order) if hmask >> i & 1]
    mask = 0
    for x in range(g.order):
        xi = g.inv(x)
        conj = 0
        for h in members:
            conj |= 1 << g.mul(g.mul(xi, h), x)
        if conj == hmask:
            mask |= 1 << x
    return mask


def brute_closure_mask(g: Group, seed) -> int:
    """Close {1} u seed under products, pair by pair.  Each round
    multiplies the elements the last round found with every element so
    far, on either side, until a round finds nothing new; so every
    ordered pair of the result is multiplied once."""
    rows = g.table
    old: set[int] = set()
    fresh = {0} | set(seed)
    while fresh:
        current = old | fresh
        new = set()
        for a in fresh:
            row_a = rows[a]
            for b in current:
                new.add(row_a[b])
        for b in old:
            row_b = rows[b]
            for a in fresh:
                new.add(row_b[a])
        old = current
        fresh = new - current
    mask = 0
    for e in old:
        mask |= 1 << e
    return mask


def brute_generated_mask(g: Group, gens) -> int:
    """<gens> as the orbit of the identity under right multiplication by
    gens, one product per element and generator: in a finite group every
    inverse is a positive power, so the orbit is closed."""
    rows = g.table
    seen = {0}
    orbit = [0]
    for a in orbit:
        row_a = rows[a]
        for s in gens:
            b = row_a[s]
            if b not in seen:
                seen.add(b)
                orbit.append(b)
    return sum(1 << e for e in seen)


def brute_normal_closure_mask(g: Group, big_mask: int, small_mask: int) -> int:
    """Closure of the set of all big-conjugates of all small elements."""
    big = [i for i in range(g.order) if big_mask >> i & 1]
    small = [i for i in range(g.order) if small_mask >> i & 1]
    conjugates = set()
    for k in big:
        ki = g.inv(k)
        for h in small:
            conjugates.add(g.mul(g.mul(ki, h), k))
    return brute_closure_mask(g, conjugates)


def brute_product_set(g: Group, amask: int, bmask: int) -> int:
    left = [i for i in range(g.order) if amask >> i & 1]
    right = [i for i in range(g.order) if bmask >> i & 1]
    mask = 0
    for a in left:
        for b in right:
            mask |= 1 << g.mul(a, b)
    return mask


def brute_is_associative(rows) -> bool:
    """(a*b)*c == a*(b*c) on every triple of a square table, n**3 products."""
    n = len(rows)
    return all(
        rows[rows[a][b]][c] == rows[a][rows[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def brute_subgroup_masks_within(g: Group, within: int) -> set[int]:
    """Every subgroup of S = `within`: start from {1}, adjoin one element
    of S at a time and close naively.  Every subgroup is reached by
    adjoining its generators one by one."""
    elems = [x for x in range(g.order) if within >> x & 1]
    found = {1}
    frontier = [1]
    while frontier:
        grown = []
        for mask in frontier:
            members = [x for x in elems if mask >> x & 1]
            for x in elems:
                if mask >> x & 1:
                    continue
                bigger = brute_closure_mask(g, members + [x])
                if bigger not in found:
                    found.add(bigger)
                    grown.append(bigger)
        frontier = grown
    return found


def brute_cd_members(g: Group, within: int | None = None) -> tuple[int, list[int]]:
    """Largest |H| * |C_S(H)| over the subgroups H of S = `within` (all of
    g by default), with C_S(H) = C_G(H) & S, and the masks attaining it
    ordered by (order, elements)."""
    if within is None:
        within = (1 << g.order) - 1
    best, members = 0, []
    for h in brute_subgroup_masks_within(g, within):
        m = h.bit_count() * (brute_centralizer_mask(g, h) & within).bit_count()
        if m > best:
            best, members = m, [h]
        elif m == best:
            members.append(h)
    members.sort(key=lambda h: (h.bit_count(), [x for x in range(g.order) if h >> x & 1]))
    return best, members


def fresh_group(spec: str) -> Group:
    """A copy of evaluate(spec) with empty memos, sharing no per-group
    state with the evaluation cache's copy."""
    from cdlat.specparse import evaluate

    g = evaluate(spec)
    return Group(
        g.order,
        name=g.name,
        rows=g.table,
        inv_table=[g.inv(x) for x in range(g.order)],
        known_gens=g.known_gens,
        perm_images=g.perm_images,
        product_meta=g.product_meta,
    )


def relabelled(g: Group, seed: int) -> tuple[Group, list[int]]:
    """g under a seeded shuffle of its labels, the identity kept at 0,
    rebuilt from its bare table, and the new label of each old one."""
    n = g.order
    label = [0] + random.Random(seed).sample(range(1, n), n - 1)
    old = sorted(range(n), key=label.__getitem__)
    rows = [[label[g.mul(old[a], old[b])] for b in range(n)] for a in range(n)]
    return from_cayley(rows), label


def brute_conjugate_mask(g: Group, hmask: int, x: int) -> int:
    """{x^-1 h x : h in H}, element by element."""
    xi = g.inv(x)
    mask = 0
    for h in range(g.order):
        if hmask >> h & 1:
            mask |= 1 << g.mul(g.mul(xi, h), x)
    return mask


def brute_permutation_table(g: Group) -> tuple[list[list[int]], list[int]]:
    """Products and inverses of a permutation group composed from its
    perm_images alone: a*b applies a's images first, then b's."""
    images = g.perm_images
    where = {p: i for i, p in enumerate(images)}
    rows = [[where[tuple(q[v] for v in p)] for q in images] for p in images]
    # the inverse lists, at each point, the point that p sends there
    inv = [where[tuple(sorted(range(len(p)), key=p.__getitem__))] for p in images]
    return rows, inv


def brute_discovery(g: Group) -> list[tuple[int, tuple[int, ...]]]:
    """The subgroups of g in the order the discovery BFS meets them, each
    with the generators it is first reached by.  The cyclic subgroups come
    first, in element order; then each subgroup K in turn is joined, by
    the orbit of brute_generated_mask, with one element x of each right
    coset Kx in element order, and a new join is appended with K's
    generators plus x."""
    n = g.order
    rows = g.table
    found = {1: ()}
    for x in range(1, n):
        found.setdefault(brute_generated_mask(g, [x]), (x,))
    worklist = list(found)
    full = (1 << n) - 1
    wi = 0
    while wi < len(worklist):
        kmask = worklist[wi]
        wi += 1
        if kmask == full:
            continue
        gens = found[kmask]
        members = [h for h in range(n) if kmask >> h & 1]
        covered = kmask
        for x in range(1, n):
            if covered >> x & 1:
                continue
            for h in members:
                covered |= 1 << rows[h][x]
            joined = brute_generated_mask(g, gens + (x,))
            if joined not in found:
                found[joined] = gens + (x,)
                worklist.append(joined)
    return list(found.items())


def brute_lexmin_generators(g: Group, mask: int, joins: dict | None = None) -> tuple[int, ...]:
    """The lexicographically least of the shortest sequences of elements
    of H = `mask` that generate H.  That sequence is ascending, since
    sorting a sequence never makes it larger, so this is a depth-first
    search over ascending index sequences, one length at a time from 0
    up.  An element already in the subgroup its prefix generates is never
    tried: dropping it would leave a shorter sequence generating the same
    subgroup, and every shorter length has failed.  `joins` memoizes the
    orbits <prefix, y> by (<prefix>, y); calls on one group may share
    it."""
    elems = [x for x in range(g.order) if mask >> x & 1]
    if joins is None:
        joins = {}

    def search(sub, seq, start, left):
        if not left:
            return seq if sub == mask else None
        for i in range(start, len(elems)):
            y = elems[i]
            if sub >> y & 1:
                continue
            key = (sub, y)
            if key not in joins:
                joins[key] = brute_generated_mask(g, seq + (y,))
            found = search(joins[key], seq + (y,), i + 1, left - 1)
            if found is not None:
                return found
        return None

    length = 0
    while (found := search(1, (), 0, length)) is None:
        length += 1
    return found
