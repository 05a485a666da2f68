"""Independent brute-force oracles.

Most oracles here work element by element from the multiplication table
alone, deliberately ignoring the engine's generator shortcuts, coset
extensions and caches, so the two paths can disagree when one is wrong.
Some share an engine piece that other tests check against a table-only
oracle, because they test something built on top of it:

- `brute_maximal_centralizers` reads `element_centralizer` (checked
  against `brute_element_centralizer_mask`); it tests the scan over them.
- `brute_measure_lemmas` and `brute_cd_sublattice` are the per-pair forms
  of two checks, and test the checks' row walk and element lists.  They
  take the enumerated subgroups and lattice index from `checks._subgroups`
  and `checks._lattice`, joins from `join_subgroups`, and verdicts from
  `checks._failed`/`_passed`/`_skipped`.  Centralizers come from the
  engine too (the index's `cent`, or `centralizer`), so a test that makes
  `subgroups.centralizer` wrong sees the same wrong value in a check and
  in its oracle.  Product sets come from the table.
- `brute_from_cayley` ends with the engine's `check_axioms`: it is the
  oracle of `from_cayley`'s validation passes, while associativity has
  its own table-only oracle, `brute_is_associative`.
- `brute_ut_product` decodes indices through `ut_entry_bit`, the encoding
  it compares against.

`fresh_group` and `relabelled` build test inputs with `evaluate`, `Group`
and `from_cayley`; they are not oracles.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, repeat
from operator import itemgetter

from cdlat import Group, NotAGroup
from cdlat.checks import _failed, _lattice, _passed, _skipped, _subgroups
from cdlat.corpus import ENUMERABLE_WREATH_SPECS, universal_corpus_specs
from cdlat.groups import check_axioms, from_cayley, ut_entry_bit
from cdlat.subgroups import (
    centralizer,
    element_centralizer,
    join_subgroups,
)

# every group the oracles are compared on: the universal corpus, the
# order-32 fixture and the wreath products small enough to enumerate
ORACLE_SPECS = universal_corpus_specs() + ("corpus:g32",) + ENUMERABLE_WREATH_SPECS


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


def brute_element_centralizer_mask(g: Group, s: int) -> int:
    """C_G(s) by scanning every x for x*s == s*x, two products each."""
    table = g.table
    row_s = table[s]
    mask = 0
    for x in range(g.order):
        if table[x][s] == row_s[x]:
            mask |= 1 << x
    return mask


def brute_class_representatives(g: Group) -> list[int]:
    """The least element of each conjugacy class, each class formed as
    {k^-1*x*k} over every k in g."""
    seen = 0
    reps = []
    for x in range(g.order):
        if seen >> x & 1:
            continue
        reps.append(x)
        for k in range(g.order):
            seen |= 1 << g.mul(g.mul(g.inv(k), x), k)
    return reps


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


def brute_subnormal_defect(g: Group, mask: int) -> int | None:
    """The subnormal defect of the subgroup `mask` by the chain K_0 = G,
    K_(i+1) = <H^(K_i)> of naive normal closures; None when the chain
    stops above H."""
    current, depth = (1 << g.order) - 1, 0
    while current != mask:
        nxt = brute_normal_closure_mask(g, current, mask)
        if nxt == current:
            return None
        current, depth = nxt, depth + 1
    return depth


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


def brute_maximal_centralizers(g: Group, within: int) -> tuple[int, list[tuple[int, int]]]:
    """cdlattice._maximal_centralizers by the full scan: the centralizers
    in S = `within` are closed under intersection from the element
    centralizers C_S(y) (taken from element_centralizer, which the tests
    check against a scan of G), and every closed M is tested against every
    key c, collecting the y with C_S(y) = c >= M into C_S(M).  Returns the
    largest |M| * |C_S(M)| and the (M, C_S(M)) pairs attaining it, ordered
    by (order, elements)."""
    classes: dict[int, int] = {}
    for y in range(g.order):
        if within >> y & 1:
            c = element_centralizer(g, y) & within
            classes[c] = classes.get(c, 0) | 1 << y
    closed = {within}
    for c in classes:
        closed |= {m & c for m in closed}
    scored = []
    for m in closed:
        cent = 0
        for c, ys in classes.items():
            if m & ~c == 0:
                cent |= ys
        scored.append((m.bit_count() * cent.bit_count(), m, cent))
    best = max(value for value, _, _ in scored)
    pairs = [(m, cent) for value, m, cent in scored if value == best]
    pairs.sort(key=lambda p: (p[0].bit_count(), [x for x in range(g.order) if p[0] >> x & 1]))
    return best, pairs


def brute_above(masks: list[int]) -> tuple[int, ...]:
    """For each i, the bitset of the j != i with masks[i] <= masks[j], by a
    containment test per pair."""
    return tuple(
        sum(1 << j for j, k in enumerate(masks) if j != i and h & ~k == 0)
        for i, h in enumerate(masks)
    )


def brute_hasse_edges(masks: list[int]) -> tuple[tuple[int, int], ...]:
    """Cover pairs (i, j) of distinct masks, masks[i] < masks[j] with no
    masks[k] strictly between, by testing every k against a full
    containment matrix; i ascending, then j."""
    m = len(masks)
    leq = [[mi & ~mj == 0 for mj in masks] for mi in masks]
    edges = []
    for i in range(m):
        for j in range(m):
            if i == j or not leq[i][j]:
                continue
            if any(leq[i][k] and leq[k][j] for k in range(m) if k != i and k != j):
                continue
            edges.append((i, j))
    return tuple(edges)


def brute_order_isomorphic(a: list[int], b: list[int]) -> bool:
    """True iff some bijection of the two mask families preserves
    containment both ways, by trying every bijection."""
    if len(a) != len(b):
        return False
    leq_a = [[x & ~y == 0 for y in a] for x in a]
    leq_b = [[x & ~y == 0 for y in b] for x in b]
    n = len(a)
    return any(
        all(leq_a[i][j] == leq_b[p[i]][p[j]] for i in range(n) for j in range(n))
        for p in permutations(range(n))
    )


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


def brute_from_cayley(table, *, name=None) -> Group:
    """from_cayley as three passes over every entry: entries, then a
    relabel of every entry through the 0<->identity swap, then every row
    and every column checked as a permutation before check_axioms."""
    n = len(table)
    if n == 0:
        raise NotAGroup("empty table")
    rows = [list(r) for r in table]
    for i, row in enumerate(rows):
        if len(row) != n:
            raise NotAGroup(f"row {i} has length {len(row)}, expected {n}")
        if all(map(isinstance, row, repeat(int))) and 0 <= min(row) and max(row) < n:
            continue
        for v in row:
            if not isinstance(v, int) or not 0 <= v < n:
                raise NotAGroup(f"row {i} holds entry {v!r} outside 0..{n - 1}")
    full = list(range(n))
    ident = None
    for e in range(n):
        if rows[e] == full and all(rows[x][e] == x for x in full):
            ident = e
            break
    if ident is None:
        raise NotAGroup("table has no identity element")
    if ident != 0:
        # the 0 <-> identity swap is its own inverse, so relabeled row i is
        # old row swap[i], read at swap[j] and mapped through swap
        swap = full[:]
        swap[0], swap[ident] = ident, 0
        get_swapped = itemgetter(*swap)
        rows = [list(map(swap.__getitem__, get_swapped(rows[swap[i]]))) for i in full]
    for i, row in enumerate(rows):
        if len(set(row)) != n:
            raise NotAGroup(f"row {i} is not a permutation of 0..{n - 1}")
    for j, column in enumerate(zip(*rows)):
        if len(set(column)) != n:
            raise NotAGroup(f"column {j} is not a permutation of 0..{n - 1}")
    group = Group(n, name=name or f"cayley{n}", rows=rows)
    check_axioms(group)
    return group


def brute_permutation_table(g: Group) -> tuple[list[list[int]], list[int]]:
    """Products and inverses of a permutation group composed from its
    perm_images alone: a*b applies a's images first, then b's."""
    images = g.perm_images
    where = {p: i for i, p in enumerate(images)}
    rows = [[where[tuple(q[v] for v in p)] for q in images] for p in images]
    # the inverse lists, at each point, the point that p sends there
    inv = [where[tuple(sorted(range(len(p)), key=p.__getitem__))] for p in images]
    return rows, inv


def brute_ut_product(n: int, a: int, b: int) -> int:
    """The product of UT(n, 2) indices a and b as 0/1 matrices: each is
    decoded entry by entry through ut_entry_bit, the two are multiplied
    mod 2 row by column, and the product's entries above the diagonal are
    encoded the same way."""
    above = [(i, j, ut_entry_bit(n, i, j)) for i in range(n) for j in range(i + 1, n)]

    def matrix(x: int) -> list[list[int]]:
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for i, j, t in above:
            m[i][j] = x >> t & 1
        return m

    ma, mb = matrix(a), matrix(b)
    out = 0
    for i, j, t in above:
        if sum(ma[i][k] * mb[k][j] for k in range(n)) % 2:
            out |= 1 << t
    return out


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


# ---------------------------------------------------------------------------
# The two pairwise checks in their per-pair form: the verdicts, witnesses
# and stats that `checks` must give from its row walk and element lists


def brute_measure_lemmas(g: Group) -> tuple[str, dict | None, dict]:
    """measure-lemmas over positions in the enumerated subgroups, reading
    each meet from the mask index and each join by closing the two
    subgroups anew (`join_subgroups`), not from the lattice's up-sets."""
    subs = _subgroups(g)
    if subs is None:
        return _skipped("group too large to enumerate")
    lattice = _lattice(g)
    masks = [h.mask for h in subs]
    orders = [h.order for h in subs]
    index, cent = lattice.index, lattice.cent
    meas = [o * orders[c] for o, c in zip(orders, cent)]
    for i, c in enumerate(cent):
        if meas[i] > meas[c]:
            return _failed("m(H) exceeds m(C(H))", [subs[i], subs[c]])
        if meas[i] == meas[c] and cent[c] != i:
            return _failed("equal measures but H != C(C(H))", [subs[i], subs[c]])
    n = len(subs)
    for i in range(n):
        for j in range(i, n):
            inter = index[masks[i] & masks[j]]
            join = index[join_subgroups(subs[i], subs[j]).mask]
            lhs = meas[i] * meas[j]
            rhs = meas[join] * meas[inter]
            if lhs > rhs:
                return _failed("submultiplicativity fails", [subs[i], subs[j]])
            conds = False
            if orders[i] * orders[j] // orders[inter] == orders[join]:
                ci, cj = cent[i], cent[j]
                cc_order = orders[ci] * orders[cj] // (masks[ci] & masks[cj]).bit_count()
                conds = cc_order == orders[cent[inter]]
            if (lhs == rhs) != conds:
                return _failed("equality condition mismatch", [subs[i], subs[j]])
    return _passed(subgroups_enumerated=n, pairs_checked=n * (n + 1) // 2)


def brute_cd_sublattice(g: Group, members) -> tuple[str, dict | None, dict]:
    """cd-sublattice on the given CD members, with up-sets from a
    containment test per pair and each product set read from the table
    (`brute_product_set`)."""
    subs = [m.subgroup for m in members]
    masks = [h.mask for h in subs]
    at = {mask: i for i, mask in enumerate(masks)}
    cents = [centralizer(g, h) for h in subs]
    up = [sum(1 << j for j, k in enumerate(masks) if h & ~k == 0) for h in masks]
    for i, (h, cent) in enumerate(zip(subs, cents)):
        if cent.mask not in at:
            return _failed("centralizer of a member is not a member", [h, cent])
        if cents[at[cent.mask]].mask != h.mask:
            return _failed("double centralizer differs from the member", [h, cent])
        for j in range(i + 1, len(subs)):
            k = subs[j]
            if h.mask & k.mask not in at:
                return _failed("member intersection escapes the lattice", [h, k])
            both = up[i] & up[j]
            least = masks[(both & -both).bit_length() - 1] if both else None
            if brute_product_set(g, h.mask, k.mask) == least:
                continue
            join = join_subgroups(h, k)
            if join.mask not in at:
                return _failed("member join escapes the lattice", [h, k])
            if h.order * k.order // (h.mask & k.mask).bit_count() != join.order:
                return _failed("product set HK is smaller than the join", [h, k])
            return _failed("literal product set HK differs from join", [h, k])
    n = len(subs)
    enumerated = _subgroups(g)
    stats = {} if enumerated is None else {"subgroups_enumerated": len(enumerated)}
    return _passed(**stats, pairs_checked=n * (n - 1) // 2)
