"""Random groups against the oracles: the paper's theorems hold for every
finite group, so groups nobody chose are test cases too.

The strategy draws `perm:` specs from 1-3 random permutations on 2-6
points, some of them times C2, C3 or C4 and some `wr C2` of a small random
bottom.  Every lattice is compared with `bruteforce`'s oracles, and the
checks whose claims are universal must pass (or, for the wreath checks,
pass or skip).  The draws are derandomized and no example database is
kept, so the suite stays deterministic.  Groups past order 64 are
rejected: the brute-force oracles grow with the number of subgroups times
the order, and `brute_cd_members` alone takes about 0.4 s on a drawn A5
(order 60).  The 100 draws take about 2 s in all.
"""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cdlat import OrderCapExceeded, cd_lattice, check_ids, run_check
from cdlat.cdlattice import _maximal_centralizers
from cdlat.products import DirectProductMeta, WreathMeta
from cdlat.specparse import evaluate
from cdlat.subgroups import _discover

from bruteforce import (
    brute_above,
    brute_cd_members,
    brute_centralizer_mask,
    brute_discovery,
    brute_maximal_centralizers,
    brute_subnormal_defect,
)

MAX_ORDER = 64
UNIVERSAL = ("cd-sublattice", "cd-subnormal", "useful-prop", "measure-lemmas")
WREATH = tuple(cid for cid in check_ids() if cid.startswith("wreath-"))


def cycles(images: list[int]) -> str:
    """A permutation of 1..n, given as the image of each point in turn, in
    cycle notation; the identity is `(1)`."""
    seen, out = set(), []
    for start in range(1, len(images) + 1):
        if start in seen or images[start - 1] == start:
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = images[x - 1]
        out.append("(" + ",".join(map(str, cycle)) + ")")
    return "".join(out) or "(1)"


@st.composite
def perm_specs(draw, max_points: int = 6, max_gens: int = 3) -> str:
    n = draw(st.integers(2, max_points))
    gens = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=max_gens))
    return "perm:[" + ",".join(cycles(p) for p in gens) + "]"


random_specs = st.one_of(
    perm_specs(),
    st.tuples(perm_specs(), st.sampled_from(["C2", "C3", "C4"])).map(
        lambda t: f"({t[0]}) x {t[1]}"
    ),
    perm_specs(max_points=4, max_gens=2).map(lambda s: f"({s}) wr C2"),
)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(random_specs)
# the draws follow the test's source text; the wreath with a trivial
# bottom, which no fixed test builds, is run whatever they are
@example("(perm:[(1)]) wr C2")
def test_random_groups_match_the_oracles_and_the_theorems(spec):
    try:
        g = evaluate(spec, max_order=MAX_ORDER)
    except OrderCapExceeded:
        assume(False)
    full = (1 << g.order) - 1
    result = cd_lattice(g)
    masks = result.member_masks()
    assert (result.max_measure, masks) == brute_cd_members(g), spec
    assert result.above == brute_above(masks), spec
    for m in result.members:
        h = m.subgroup.mask
        cent = brute_centralizer_mask(g, h)
        assert masks[m.centralizer_index] == cent, (spec, h)
        assert m.is_centrally_large == (cent & ~h == 0), (spec, h)
        assert m.defect == brute_subnormal_defect(g, h), (spec, h)
        assert m.is_normal == (m.defect <= 1), (spec, h)
    assert _maximal_centralizers(g, full) == brute_maximal_centralizers(g, full), spec
    assert list(_discover(g, full)) == brute_discovery(g), spec
    meta = g.product_meta
    passing = UNIVERSAL + (("direct-cd", "direct-cl") if isinstance(meta, DirectProductMeta) else ())
    for check_id in passing:
        v = run_check(check_id, g)
        assert v.status == "passed", (spec, check_id, v.witness, v.stats)
    if isinstance(meta, WreathMeta):
        for check_id in WREATH:
            v = run_check(check_id, g)
            assert v.status != "failed", (spec, check_id, v.witness)
