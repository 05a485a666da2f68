"""Group-axiom validation: Light's associativity test in check_axioms
against the n**3 brute-force oracle, on loops made by swapping
intercalates (2x2 Latin subsquares) in group tables."""

import re
from itertools import product

import pytest

from cdlat import Group, NotAGroup, center, check_axioms, evaluate, from_cayley
from cdlat.corpus import universal_corpus_specs
from cdlat.groups import generating_set

from bruteforce import brute_closure_mask, brute_is_associative

SWAP_SPECS = ("C8", "D8", "Q8", "C2 x C4", "C6", "D12", "A4")


def swap_intercalate(rows, r1, r2, c1, c2):
    """Exchange the two symbols of the intercalate on rows r1, r2 and
    columns c1, c2; the table stays a Latin square."""
    u, v = rows[r1][c1], rows[r1][c2]
    rows[r1][c1] = rows[r2][c2] = v
    rows[r1][c2] = rows[r2][c1] = u


def intercalates(rows):
    """Every intercalate off the identity's row and column."""
    n = len(rows)
    found = []
    for r1 in range(1, n):
        for r2 in range(r1 + 1, n):
            for c1 in range(1, n):
                c2 = rows[r2].index(rows[r1][c1])
                if c2 > c1 and rows[r1][c2] == rows[r2][c1]:
                    found.append((r1, r2, c1, c2))
    return found


def central_block_swaps(g):
    """With z a central involution, every block {a, az} x {b, bz} off the
    identity's coset is an intercalate.  Yields the table with each subset
    of these blocks swapped: the subsets that change the extension's
    2-cocycle by a cocycle give groups again, the rest give loops."""
    z = next(x for x in center(g).elements() if g.element_order(x) == 2)
    reps = [a for a in range(1, g.order) if a < g.table[a][z]]
    blocks = [(a, g.table[a][z], b, g.table[b][z]) for a in reps for b in reps]
    for chosen in product((False, True), repeat=len(blocks)):
        rows = [list(r) for r in g.table]
        for block, swap in zip(blocks, chosen):
            if swap:
                swap_intercalate(rows, *block)
        yield rows


def modified_tables():
    for spec in SWAP_SPECS:
        g = evaluate(spec)
        base = [list(r) for r in g.table]
        yield base
        for ic in intercalates(base):
            rows = [list(r) for r in base]
            swap_intercalate(rows, *ic)
            yield rows
        if g.order <= 8:
            yield from central_block_swaps(g)


def rejects(rows) -> bool:
    group = Group(len(rows), name="loop", rows=rows)
    try:
        check_axioms(group)
    except NotAGroup:
        return True
    return False


def test_light_test_matches_brute_force_on_swapped_tables():
    verdicts = {True: 0, False: 0}
    for rows in modified_tables():
        associative = brute_is_associative(rows)
        assert rejects(rows) == (not associative), rows
        verdicts[associative] += 1
    # both answers occur, so the agreement is tested in both directions
    assert verdicts[True] > len(SWAP_SPECS) and verdicts[False] > 0


def test_order_512_loop_rejected_with_a_true_witness():
    g = evaluate("D16 x Q8 x C4")
    rows = [list(r) for r in g.table]
    z = next(x for x in center(g).elements() if g.element_order(x) == 2)
    a, b = next(
        (a, b)
        for a in range(1, g.order)
        for b in range(1, g.order)
        if a != z and b != z and rows[a][b] not in (0, z)
    )
    # a, b, az, bz avoid the identity, and a*b != 1, z keeps every inverse
    swap_intercalate(rows, a, rows[a][z], b, rows[b][z])
    with pytest.raises(NotAGroup, match="associativity") as err:
        from_cayley(rows)
    x, y, w = map(int, re.findall(r"\d+", str(err.value)))
    assert rows[rows[x][y]][w] != rows[x][rows[y][w]]


@pytest.mark.parametrize("spec", universal_corpus_specs() + ("corpus:g32",))
def test_generating_set_is_greedy_and_generates(spec):
    g = evaluate(spec)
    gens = generating_set(g)
    span = 1
    for i, x in enumerate(gens):
        # each generator is the smallest element outside the previous span
        assert x == next(e for e in range(g.order) if not span >> e & 1)
        span = brute_closure_mask(g, gens[: i + 1])
    assert span == (1 << g.order) - 1
