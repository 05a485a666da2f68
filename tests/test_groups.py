"""Group construction: tables, permutation closure, named families."""

import math
import random
import sys

import pytest

from cdlat import (
    BadParameter,
    NotAGroup,
    OrderCapExceeded,
    PermutationGenSet,
    center,
    check_axioms,
    closure,
    dump_cayley,
    evaluate,
    from_cayley,
    from_cayley_file,
    from_permutations,
    load_cayley,
    named_group,
    ut_entry_bit,
)
from cdlat.cli import main
from cdlat.groups import TABLE_LIMIT

from bruteforce import (
    ORACLE_SPECS,
    brute_from_cayley,
    brute_permutation_table,
    brute_ut_product,
)

S4_GENS = PermutationGenSet.from_cycles([[(1, 2)], [(1, 2, 3, 4)]])
S3_GENS = PermutationGenSet.from_cycles([[(1, 2)], [(1, 2, 3)]])


def test_trivial_table():
    g = from_cayley([[0]])
    assert g.order == 1
    assert g.mul(0, 0) == 0 and g.inv(0) == 0


def test_c2_table():
    g = from_cayley([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.mul(1, 1) == 0 and g.inv(1) == 1


def test_identity_relabeled_to_zero():
    # C3 written with identity at index 2
    table = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    g = from_cayley(table)
    assert g.mul(0, 1) == 1 and g.mul(1, 0) == 1
    check_axioms(g)


@pytest.mark.parametrize(
    "table, fragment",
    [
        ([[0, 1], [0, 1]], "identity"),  # no identity
        ([[0, 1], [1, 1]], "row"),  # row 1 not a permutation
        ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "column"),  # column 1 repeats
    ],
)
def test_bad_tables_rejected(table, fragment):
    with pytest.raises(NotAGroup) as err:
        from_cayley(table)
    assert fragment in str(err.value)


def test_non_associative_loop_rejected():
    # order-5 loop: Latin square, identity at 0, two-sided inverses,
    # but (1*1)*2 != 1*(1*2)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAGroup) as err:
        from_cayley(table)
    assert "associativity" in str(err.value)


def test_s3_roundtrip_through_cayley_dump():
    s3 = from_permutations(S3_GENS)
    assert s3.order == 6
    assert any(
        s3.mul(x, y) != s3.mul(y, x) for x in range(6) for y in range(6)
    )
    text = dump_cayley(s3)
    again = from_cayley(load_cayley(text))
    assert again.rows() == s3.rows()


def test_s4_from_standard_generators():
    g = from_permutations(S4_GENS)
    assert g.order == 24
    check_axioms(g)


def test_single_3cycle_closure():
    g = from_permutations(PermutationGenSet.from_cycles([[(1, 2, 3)]]))
    assert g.order == 3


def test_klein_from_double_transpositions():
    g = from_permutations(
        PermutationGenSet.from_cycles([[(1, 2), (3, 4)], [(1, 3), (2, 4)]])
    )
    assert g.order == 4
    assert all(g.inv(x) == x for x in range(4))


def test_permutation_closure_order_cap():
    with pytest.raises(OrderCapExceeded):
        from_permutations(S4_GENS, max_order=10)


def test_deterministic_discovery_order():
    a = from_permutations(S4_GENS)
    b = from_permutations(S4_GENS)
    assert a.rows() == b.rows()
    assert a.perm_images == b.perm_images


@pytest.mark.parametrize(
    "family, n, order",
    [
        ("C", 1, 1),
        ("C", 12, 12),
        ("D", 4, 4),
        ("D", 8, 8),
        ("D", 12, 12),
        ("Q", 8, 8),
        ("Q", 16, 16),
        ("S", 1, 1),
        ("S", 4, 24),
        ("S", 5, 120),
        ("A", 2, 1),
        ("A", 4, 12),
        ("A", 5, 60),
        ("UT", 2, 2),
        ("UT", 3, 8),
        ("UT", 4, 64),
        ("UT", 5, 1024),
    ],
)
def test_named_orders(family, n, order):
    g = named_group(family, n)
    assert g.order == order
    if family == "S" and n >= 2:
        assert g.order == math.factorial(n)
    if family == "UT":
        assert g.order == 2 ** (n * (n - 1) // 2)


@pytest.mark.parametrize(
    "family, n",
    [("C", 0), ("D", 7), ("D", 2), ("Q", 4), ("Q", 12), ("S", 0), ("A", -1), ("UT", 1), ("X", 3)],
)
def test_named_bad_parameters(family, n):
    with pytest.raises(BadParameter):
        named_group(family, n)


def test_named_order_cap():
    with pytest.raises(OrderCapExceeded):
        named_group("UT", 9)
    with pytest.raises(OrderCapExceeded):
        named_group("S", 9)


def test_named_order_cap_prints_orders_of_up_to_4300_digits():
    # str() prints ints of up to 4300 digits by default; 1558! has 4300
    with pytest.raises(OrderCapExceeded) as err:
        named_group("S", 1558)
    assert str(err.value) == f"S1558 has order {math.factorial(1558)} > cap 20000"
    huge = 10**600
    for family, n, name in (
        ("S", 1559, "S1559"),
        ("A", 1559, "A1559"),
        ("UT", 70000, "UT(70000,2)"),
        ("UT", huge, f"UT({huge},2)"),
    ):
        with pytest.raises(OrderCapExceeded) as err:
            named_group(family, n)
        assert str(err.value) == f"{name} has order (more than 4300 digits) > cap 20000"


def test_named_order_cap_under_a_lowered_digit_limit():
    # a process may lower the digit limit of str(); an order past it is
    # reported by that limit instead.  310! has 640 digits, 311! has 642
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(OrderCapExceeded) as err:
            named_group("S", 310)
        assert str(err.value) == f"S310 has order {math.factorial(310)} > cap 20000"
        for family, n, name in (
            ("S", 311, "S311"),
            ("S", 1000, "S1000"),
            ("UT", 70000, "UT(70000,2)"),
        ):
            with pytest.raises(OrderCapExceeded) as err:
                named_group(family, n)
            assert str(err.value) == f"{name} has order (more than 640 digits) > cap 20000"
    finally:
        sys.set_int_max_str_digits(default)


@pytest.mark.parametrize(
    "family, n",
    [("C", 6), ("D", 8), ("D", 12), ("Q", 8), ("Q", 16), ("S", 4), ("A", 4), ("UT", 3), ("UT", 4)],
)
def test_named_axioms_exhaustive(family, n):
    check_axioms(named_group(family, n))


def test_d8_center_has_order_two():
    assert center(named_group("D", 8)).order == 2


def test_d4_is_klein():
    g = named_group("D", 4)
    assert center(g).order == 4
    assert all(g.inv(x) == x for x in range(4))


def test_q8_presentation():
    q8 = named_group("Q", 8)
    x, y = 2, 1
    x2 = q8.mul(x, x)
    assert q8.element_order(x) == 4
    assert q8.mul(y, y) == x2
    assert q8.mul(q8.mul(q8.inv(y), x), y) == q8.inv(x)
    # unique element of order 2
    assert sum(q8.element_order(e) == 2 for e in range(8)) == 1


def test_q16_generalized():
    q16 = named_group("Q", 16)
    assert sum(q16.element_order(e) == 2 for e in range(16)) == 1
    check_axioms(q16)


@pytest.mark.parametrize("family", ["C", "D", "Q"])
def test_families_past_table_limit_are_formula_backed(family):
    g = named_group(family, 8192)
    assert g.rows() is None
    assert all(g.mul(x, g.inv(x)) == 0 == g.mul(g.inv(x), x) for x in range(g.order))


def test_q8192_presentation_past_table_limit():
    q = named_group("Q", 8192)
    x, y = 2, 1
    assert q.element_order(x) == 4096
    assert q.mul(y, y) == 2048 << 1  # y^2 = x^(m/2)
    assert q.mul(q.mul(q.inv(y), x), y) == q.inv(x)


def test_ut_generators_generate():
    for n in (3, 4):
        g = named_group("UT", n)
        assert closure(g, g.known_gens).order == g.order


def test_ut52_known_structure():
    g = named_group("UT", 5)
    # transvection entries are single bits
    assert ut_entry_bit(5, 0, 1) == 0
    assert ut_entry_bit(5, 3, 4) == 9
    assert closure(g, g.known_gens).order == 1024
    # spot-check: elementary matrices on disjoint rows/cols commute
    a = 1 << ut_entry_bit(5, 0, 1)
    b = 1 << ut_entry_bit(5, 2, 3)
    assert g.mul(a, b) == g.mul(b, a)
    # and e_{01} e_{12} != e_{12} e_{01}
    c = 1 << ut_entry_bit(5, 1, 2)
    assert g.mul(a, c) != g.mul(c, a)


def test_ut52_sampled_associativity():
    import random

    g = named_group("UT", 5)
    rng = random.Random(7)
    for _ in range(3000):
        a, b, c = rng.randrange(1024), rng.randrange(1024), rng.randrange(1024)
        assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ut_product_matches_matrix_multiplication(n):
    # every pair up to UT(4,2), seeded pairs above; UT(6,2) has order
    # 32768, past the default cap.  The opposite group would pass the
    # associativity and commutator tests above, but not this one.
    g = named_group("UT", n, max_order=2**15)
    if g.order <= 64:
        pairs = [(a, b) for a in range(g.order) for b in range(g.order)]
    else:
        rng = random.Random(n)
        count = 20000 if n == 5 else 4000
        pairs = [(rng.randrange(g.order), rng.randrange(g.order)) for _ in range(count)]
    for a, b in pairs:
        assert g.table[a][b] == brute_ut_product(n, a, b), (a, b)
    assert all(g.table[a][g.inv(a)] == 0 for a in range(g.order))


def test_cayley_file_comments_and_errors(tmp_path):
    path = tmp_path / "c3.cay"
    path.write_text("# cyclic of order 3\n3\n0 1 2\n1 2 0  # row\n2 0 1\n")
    from cdlat import from_cayley_file

    g = from_cayley_file(path)
    assert g.order == 3
    with pytest.raises(NotAGroup):
        load_cayley("2\n0 1\n")  # missing a row
    with pytest.raises(NotAGroup):
        load_cayley("x\n")


@pytest.mark.parametrize(
    "cycles, message",
    [
        ([[(3, 0)]], "cycle point 0 is below 1"),
        ([[(1, 2)], [(3, 0)]], "cycle point 0 is below 1"),
        ([[(2, -1)]], "cycle point -1 is below 1"),
        ([[(1, 1)]], r"cycle \(1, 1\) repeats a point"),
        ([[(1, 2, 3, 2)]], r"cycle \(1, 2, 3, 2\) repeats a point"),
    ],
)
def test_cycles_reject_points_below_one_and_repeated_points(cycles, message):
    with pytest.raises(BadParameter, match=message):
        PermutationGenSet.from_cycles(cycles)


PERMUTATION_CASES = {
    **{f"S{n}": lambda n=n: named_group("S", n) for n in range(1, 7)},
    **{f"A{n}": lambda n=n: named_group("A", n) for n in range(4, 7)},
    "klein": lambda: from_permutations(
        PermutationGenSet.from_cycles([[(1, 2), (3, 4)], [(1, 3), (2, 4)]])
    ),
    "repeated generator": lambda: from_permutations(
        PermutationGenSet.from_cycles([[(1, 2, 3)], [(1, 2)], [(1, 2, 3)], [(3, 4)]])
    ),
    "identity generator": lambda: from_permutations(
        PermutationGenSet.from_cycles([[(1,)], [(1, 2, 3, 4, 5)], [(2, 5), (3, 4)]], degree=5)
    ),
}


@pytest.mark.parametrize("case", PERMUTATION_CASES)
def test_permutation_tables_match_composed_images(case):
    g = PERMUTATION_CASES[case]()
    rows, inv = brute_permutation_table(g)
    assert g.rows() == [tuple(r) for r in rows]
    assert [g.inv(x) for x in range(g.order)] == inv
    assert g.perm_images[0] == tuple(range(len(g.perm_images[0])))


def test_formula_backed_permutation_products_match_composed_images():
    g = named_group("S", 7)
    assert g.order > TABLE_LIMIT and g.rows() is None
    images = g.perm_images
    where = {p: i for i, p in enumerate(images)}
    rng = random.Random(7)
    for _ in range(2000):
        a, b = rng.randrange(g.order), rng.randrange(g.order)
        assert g.table[a][b] == where[tuple(images[b][v] for v in images[a])]
    for a in rng.sample(range(g.order), 50):
        assert g.table[a][g.inv(a)] == 0 == g.table[g.inv(a)][a]


# rejection messages are part of the CLI's output: each case runs with
# the identity at 0 and at 2, where the table is relabeled first
S3_ROWS = [list(r) for r in from_permutations(S3_GENS).table]
LOOP5_ROWS = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def shifted(rows, shift):
    """The same table with every label x renamed x + shift (mod n)."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[(a + shift) % n][(b + shift) % n] = (rows[a][b] + shift) % n
    return out


def bad_table(case, shift):
    rows = shifted(LOOP5_ROWS if case == "associativity" else S3_ROWS, shift)
    at = lambda x: (x + shift) % len(rows)  # noqa: E731
    row = rows[at(4)]
    if case == "short row":
        del row[-1]
    elif case in ("non-int", "negative", "too large"):
        row[at(2)] = {"non-int": 1.5, "negative": -1, "too large": len(rows)}[case]
    elif case == "first bad entry":
        row[1], row[3] = -1, 1.5
        del rows[at(5)][-1]
    elif case == "no identity":
        ident = rows[at(0)]
        ident[at(1)], ident[at(2)] = ident[at(2)], ident[at(1)]
    elif case == "row":
        row[at(2)] = row[at(3)]
    elif case == "column":
        row[at(2)], row[at(4)] = row[at(4)], row[at(2)]
    return rows


@pytest.mark.parametrize(
    "case, shift, message",
    [
        ("short row", 0, "row 4 has length 5, expected 6"),
        ("short row", 2, "row 0 has length 5, expected 6"),
        ("non-int", 0, "row 4 holds entry 1.5 outside 0..5"),
        ("non-int", 2, "row 0 holds entry 1.5 outside 0..5"),
        ("negative", 0, "row 4 holds entry -1 outside 0..5"),
        ("negative", 2, "row 0 holds entry -1 outside 0..5"),
        ("too large", 0, "row 4 holds entry 6 outside 0..5"),
        ("too large", 2, "row 0 holds entry 6 outside 0..5"),
        ("first bad entry", 0, "row 4 holds entry -1 outside 0..5"),
        ("first bad entry", 2, "row 0 holds entry -1 outside 0..5"),
        ("no identity", 0, "table has no identity element"),
        ("no identity", 2, "table has no identity element"),
        ("row", 0, "row 4 is not a permutation of 0..5"),
        ("row", 2, "row 2 is not a permutation of 0..5"),
        ("column", 0, "column 2 is not a permutation of 0..5"),
        ("column", 2, "column 2 is not a permutation of 0..5"),
        ("associativity", 0, "associativity fails at triple (1, 1, 2)"),
        ("associativity", 2, "associativity fails at triple (1, 1, 2)"),
    ],
)
def test_from_cayley_rejection_messages(case, shift, message):
    with pytest.raises(NotAGroup) as err:
        from_cayley(bad_table(case, shift))
    assert str(err.value) == message


def cayley_text(rows):
    return f"{len(rows)}\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n"


@pytest.mark.parametrize(
    "case, shift, message",
    [
        ("token", 0, "cayley file row is not integers: '4 2 1.5 5 0 3'"),
        ("token", 2, "cayley file row is not integers: '2 5 0 4 1.5 1'"),
        ("word", 0, "cayley file row is not integers: 'x 2 1 5 0 3'"),
        ("word", 2, "cayley file row is not integers: '2 5 x 4 3 1'"),
        ("short", 0, "cayley file row has 5 entries, expected 6"),
        ("short", 2, "cayley file row has 5 entries, expected 6"),
    ],
)
def test_load_cayley_rejection_messages(case, shift, message):
    rows = [list(map(str, r)) for r in shifted(S3_ROWS, shift)]
    at = lambda x: (x + shift) % 6  # noqa: E731
    row = rows[at(4)]
    if case == "token":
        row[at(2)] = "1.5"
    elif case == "word":
        row[at(0)] = "x"
    else:
        row.pop()
    with pytest.raises(NotAGroup) as err:
        load_cayley(cayley_text(rows))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "cayley file holds no data"),
        ("# only a comment\n", "cayley file holds no data"),
        ("x\n", "cayley file order line is not an integer: 'x'"),
        ("0\n", "cayley file order must be positive, got 0"),
        ("2\n0 1\n", "cayley file has 1 rows, expected 2"),
        ("1\n0\n0\n", "cayley file has 2 rows, expected 1"),
    ],
)
def test_load_cayley_rejects_a_malformed_file(text, message):
    with pytest.raises(NotAGroup) as err:
        load_cayley(text)
    assert str(err.value) == message


def relabelled_rows(g, seed, ident):
    """g's table under a seeded shuffle of its labels that sends the
    identity to index `ident`."""
    n = g.order
    label = [ident] + random.Random(seed).sample([x for x in range(n) if x != ident], n - 1)
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            rows[label[a]][label[b]] = label[g.mul(a, b)]
    return rows


def outcome(build, table):
    """What `build` makes of `table`: the group's rows, inverses and
    known_gens, or the message of the NotAGroup it raises."""
    try:
        g = build(table)
    except NotAGroup as exc:
        return str(exc)
    return g.rows(), [g.inv(x) for x in range(g.order)], g.known_gens


@pytest.mark.parametrize("where", ["index 1", "middle", "last"])
def test_from_cayley_matches_the_oracle_on_relabelled_groups(where):
    for spec in ORACLE_SPECS:
        n = evaluate(spec).order
        ident = min({"index 1": 1, "middle": n // 2, "last": n - 1}[where], n - 1)
        for seed in (1, 2):
            rows = relabelled_rows(evaluate(spec), seed, ident)
            want = outcome(brute_from_cayley, rows)
            assert not isinstance(want, str), (spec, seed, want)
            assert outcome(from_cayley, rows) == want, (spec, seed)


@pytest.mark.parametrize(
    "case",
    [
        "short row",
        "non-int",
        "negative",
        "too large",
        "first bad entry",
        "no identity",
        "row",
        "column",
        "associativity",
    ],
)
def test_from_cayley_rejects_bad_tables_as_the_oracle_does(case):
    for shift in range(6):
        table = bad_table(case, shift)
        want = outcome(brute_from_cayley, table)
        assert isinstance(want, str), (shift, want)
        assert outcome(from_cayley, table) == want, shift


@pytest.mark.parametrize("base", [S3_ROWS, LOOP5_ROWS], ids=["S3", "loop5"])
def test_from_cayley_rejects_every_single_entry_change_as_the_oracle_does(base):
    # under every shift, so the identity sits at each index in turn
    n = len(base)
    for shift in range(n):
        for a in range(n):
            for b in range(n):
                for v in range(n):
                    table = shifted(base, shift)
                    if table[a][b] == v:
                        continue
                    table[a][b] = v
                    want = outcome(brute_from_cayley, table)
                    assert isinstance(want, str), (shift, a, b, v)
                    assert outcome(from_cayley, table) == want, (shift, a, b, v)


def test_from_cayley_leaves_the_callers_table_unchanged():
    table = shifted(S3_ROWS, 2)  # the identity sits at index 2
    rows = list(table)
    before = [list(r) for r in table]
    from_cayley(table)
    assert table == before and all(r is s for r, s in zip(table, rows))
    # a tuple-of-tuples table builds the same group
    frozen = tuple(map(tuple, table))
    assert outcome(from_cayley, frozen) == outcome(brute_from_cayley, table)


@pytest.mark.parametrize("token", ["007", "+3", "-0", "1_0", "\u0663"])
def test_load_cayley_parses_other_tokens_as_int_does(token):
    lines = [" ".join(map(str, r)) for r in S3_ROWS]
    tokens = lines[4].split()
    tokens[2] = token
    lines[4] = " ".join(tokens)
    table = load_cayley("6\n" + "\n".join(lines) + "\n")
    assert table == [list(map(int, line.split())) for line in lines]


def test_load_cayley_chains_the_int_error():
    lines = [" ".join(map(str, r)) for r in S3_ROWS]
    lines[4] = lines[4].replace("2", "2x")
    with pytest.raises(NotAGroup) as err:
        load_cayley("6\n" + "\n".join(lines) + "\n")
    assert isinstance(err.value.__context__, ValueError)
    assert err.value.__context__.__context__ is None


def test_cayley_file_entry_out_of_range(tmp_path, capsys):
    # "6" is written as the order-6 table would write an element, but it
    # names none
    rows = [list(map(str, r)) for r in S3_ROWS]
    rows[4][2] = "6"
    path = tmp_path / "g.cay"
    path.write_text(cayley_text(rows))
    with pytest.raises(NotAGroup) as err:
        from_cayley_file(path)
    assert str(err.value) == "row 4 holds entry 6 outside 0..5"
    assert main(["compute", f"cayley:{path}", "--no-cache"]) == 4
    assert capsys.readouterr().err == "error: row 4 holds entry 6 outside 0..5\n"
