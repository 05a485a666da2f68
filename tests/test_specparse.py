"""Mini-language grammar, errors, round-trips, evaluation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlat import (
    OrderCapExceeded,
    ParseError,
    dump_cayley,
    named_group,
    parse_spec,
    spec_text,
)
from cdlat.groups import DEFAULT_ORDER_CAP
from cdlat.specparse import (
    _EVAL_CACHE,
    CayleyAtom,
    CorpusAtom,
    FamilyAtom,
    PermAtom,
    Product,
    UTAtom,
    Wreath,
    evaluate,
)


def test_atoms():
    assert parse_spec("D8") == FamilyAtom("D", 8)
    assert parse_spec("UT(5,2)") == UTAtom(5)
    assert parse_spec("corpus:g32") == CorpusAtom("g32")
    assert parse_spec("cayley:/tmp/foo.cay") == CayleyAtom("/tmp/foo.cay")
    assert parse_spec("perm:[(1,2),(1,2,3,4)]") == PermAtom((((1, 2),), ((1, 2, 3, 4),)))
    assert parse_spec("perm:[(1,2)(3,4),(1,3)(2,4)]") == PermAtom(
        (((1, 2), (3, 4)), ((1, 3), (2, 4)))
    )


def test_product_left_associative():
    node = parse_spec("S3 x D8 x C2")
    assert node == Product(Product(FamilyAtom("S", 3), FamilyAtom("D", 8)), FamilyAtom("C", 2))


def test_wreath_binds_tighter_than_product():
    node = parse_spec("C2 x D8 wr C2")
    assert node == Product(FamilyAtom("C", 2), Wreath(FamilyAtom("D", 8), 2))


def test_parenthesized_wreath_bottom():
    node = parse_spec("(C2 wr C2) wr C2")
    assert node == Wreath(Wreath(FamilyAtom("C", 2), 2), 2)


def test_whitespace_insensitive_operators():
    assert parse_spec("S3xD8") == parse_spec("S3 x D8") == parse_spec("S3  x  D8")
    assert parse_spec("D8wrC2") == parse_spec("D8 wr C2")
    assert parse_spec("(S3 x D8)wrC2") == Wreath(
        Product(FamilyAtom("S", 3), FamilyAtom("D", 8)), 2
    )


@pytest.mark.parametrize(
    "bad, pos_at_least",
    [
        ("", 0),
        ("B8", 0),
        ("D", 1),
        ("S3 x", 4),
        ("(S3", 3),
        ("UT(5,3)", 5),
        ("S3 ; D8", 3),
        ("perm:[]", 6),
        ("corpus:", 7),
    ],
)
def test_parse_errors_carry_position(bad, pos_at_least):
    with pytest.raises(ParseError) as err:
        parse_spec(bad)
    assert err.value.position >= pos_at_least
    assert "position" in str(err.value)


def test_nesting_depth_counts_parentheses_products_and_wreaths():
    chain = " x ".join(["C1"] * 51)  # 50 products
    assert parse_spec("(" * 50 + chain + ")" * 50) == parse_spec(chain)
    assert parse_spec("(" * 99 + "C2" + ")" * 99 + " wr C2") == parse_spec("C2 wr C2")
    for deeper in (
        "(" * 50 + chain + " x C1" + ")" * 50,
        "(" * 100 + "C2" + ")" * 100 + " wr C2",
        "(" * 101 + "C2" + ")" * 101,
    ):
        with pytest.raises(ParseError, match="nests deeper than 100 levels"):
            parse_spec(deeper)


def test_parse_error_expected_tokens():
    with pytest.raises(ParseError) as err:
        parse_spec("x D8")
    assert err.value.expected


@pytest.mark.parametrize(
    "text",
    [
        "D8",
        "UT(4,2)",
        "corpus:ut52",
        "S3 x D8",
        "S3 x D8 x C2",
        "D8 wr C2",
        "(C2 wr C2) wr C2",
        "(S3 x D8) wr C2",
        "C2 x (S3 x D8) wr C2",
        "perm:[(1,2)(3,4),(1,3)(2,4)]",
        "cayley:/tmp/x.cay",
    ],
)
def test_round_trip_fixed_cases(text, tmp_path):
    node = parse_spec(text)
    assert parse_spec(spec_text(node)) == node


_atoms = st.one_of(
    st.builds(FamilyAtom, st.sampled_from("CDQSA"), st.integers(1, 30)),
    st.builds(UTAtom, st.integers(2, 9)),
    st.builds(CorpusAtom, st.sampled_from(["g32", "ut52", "other_name"])),
    st.builds(
        PermAtom,
        st.lists(
            st.lists(
                st.lists(st.integers(1, 9), min_size=2, max_size=4).map(tuple),
                min_size=1,
                max_size=2,
            ).map(tuple),
            min_size=1,
            max_size=3,
        ).map(tuple),
    ),
)


def _specs(depth: int):
    if depth == 0:
        return _atoms
    sub = _specs(depth - 1)
    return st.one_of(
        _atoms,
        st.builds(Product, sub, sub),
        st.builds(Wreath, sub, st.integers(1, 5)),
    )


@settings(max_examples=200, deadline=None)
@given(_specs(3))
def test_round_trip_generated_specs(node):
    assert parse_spec(spec_text(node)) == node


def test_evaluate_atoms_and_products():
    assert evaluate("C6").order == 6
    assert evaluate("S3 x D8").order == 48
    assert evaluate("D8 wr C2").order == 128
    assert evaluate("perm:[(1,2),(1,2,3,4)]").order == 24
    assert evaluate("corpus:g32").order == 32


def test_evaluate_is_cached():
    assert evaluate("D8 wr C2") is evaluate("D8 wr C2")
    assert evaluate("D8 wr C2") is evaluate("D8wrC2")  # same canonical text


def test_evaluate_cayley_file(tmp_path):
    path = tmp_path / "k4.cay"
    path.write_text("4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n")
    g = evaluate(f"cayley:{path}")
    assert g.order == 4 and g.is_abelian()


def test_evaluate_rereads_an_edited_or_deleted_cayley_file(tmp_path):
    path = tmp_path / "g.cay"
    spec = f"cayley:{path}"
    path.write_text(dump_cayley(named_group("C", 4)))
    assert evaluate(spec).order == 4
    path.write_text(dump_cayley(named_group("S", 3)))
    assert evaluate(spec).order == 6
    path.unlink()
    with pytest.raises(OSError):
        evaluate(spec)


def test_evaluate_keeps_one_entry_per_spec_and_cap(tmp_path):
    path = tmp_path / "g.cay"
    spec = f"cayley:{path}"
    for family, param in (("C", 4), ("S", 3), ("C", 8)):
        group = named_group(family, param)
        path.write_text(dump_cayley(group))
        assert evaluate(spec).order == group.order
    # each rewrite replaced the entry instead of adding one
    assert [key for key in _EVAL_CACHE if key[0] == spec] == [(spec, DEFAULT_ORDER_CAP)]


def test_evaluate_caps_fixture_and_cayley_orders(tmp_path):
    path = tmp_path / "s3.cay"
    path.write_text(dump_cayley(named_group("S", 3)))
    with pytest.raises(OrderCapExceeded, match=r"^corpus:ut52 has order 1024 > cap 10$"):
        evaluate("corpus:ut52", max_order=10)
    with pytest.raises(OrderCapExceeded, match=r"has order 6 > cap 5$"):
        evaluate(f"cayley:{path}", max_order=5)
    assert evaluate(f"cayley:{path}", max_order=6).order == 6
