"""The record classes keep their contract, and `import cdlat` stays light.

Each record keeps its module, name, field order, construction by position
and keyword, its repr, value equality that is sensitive to the type, and
(for the frozen ones) hashing and read-only fields.
"""

import copy
import importlib
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cdlat
from cdlat import BadParameter, CDMember, CDResult, PermutationGenSet, Verdict
from cdlat import DirectProductMeta, WreathMeta, named_group, parse_spec, spec_text
from cdlat.cdlattice import SubgroupCD
from cdlat.checks import CheckDef
from cdlat.records import Record
from cdlat.specparse import (
    CayleyAtom,
    CorpusAtom,
    FamilyAtom,
    PermAtom,
    Product,
    UTAtom,
    Wreath,
)
from cdlat.subgroups import full_subgroup

SRC = Path(__file__).resolve().parent.parent / "src"

C2 = named_group("C", 2)
S3 = named_group("S", 3)


SPEC_NODES = [
    (FamilyAtom, {"family": "C", "param": 3}),
    (UTAtom, {"n": 5}),
    (CorpusAtom, {"name": "g32"}),
    (PermAtom, {"generators": (((1, 2), (3, 4)), ((1, 3),))}),
    (CayleyAtom, {"path": "g.cay"}),
    (Product, {"left": FamilyAtom("C", 2), "right": Wreath(FamilyAtom("S", 3), 2)}),
    (Wreath, {"bottom": Product(FamilyAtom("C", 2), UTAtom(4)), "top": 3}),
]

FROZEN = SPEC_NODES + [
    (
        CDMember,
        {
            "subgroup": full_subgroup(C2),
            "is_normal": True,
            "defect": 0,
            "is_centrally_large": True,
            "centralizer_index": 0,
        },
    ),
    (CDResult, {"group": C2, "max_measure": 4, "members": (), "above": (2, 0)}),
    (SubgroupCD, {"max_measure": 9, "member_masks": (7,), "cl_masks": ()}),
    (CheckDef, {"check_id": "x", "claim": "a claim", "fn": len, "default_specs": ("C2",)}),
    (PermutationGenSet, {"degree": 3, "generators": ((1, 0, 2), (0, 2, 1))}),
    (DirectProductMeta, {"factors": (C2, S3)}),
    (WreathMeta, {"bottom": S3, "top_order": 2}),
]

VERDICT_FIELDS = {
    "check_id": "sym-cd",
    "group_spec": "S4",
    "status": "failed",
    "witness": {"note": "n", "subgroups": []},
    "stats": {"pairs": 3},
    "elapsed": 0.5,
}

MODULES = {
    CDMember: "cdlat.cdlattice",
    CDResult: "cdlat.cdlattice",
    SubgroupCD: "cdlat.cdlattice",
    Verdict: "cdlat.checks",
    CheckDef: "cdlat.checks",
    PermutationGenSet: "cdlat.groups",
    DirectProductMeta: "cdlat.products",
    WreathMeta: "cdlat.products",
    **{cls: "cdlat.specparse" for cls, _ in SPEC_NODES},
}

ALL = FROZEN + [(Verdict, VERDICT_FIELDS)]


def _ids(case):
    return case[0].__name__


def test_every_record_class_is_listed():
    for info in pkgutil.iter_modules(cdlat.__path__):
        if info.name != "__main__":  # which runs the CLI
            importlib.import_module(f"cdlat.{info.name}")
    found, todo = set(), [Record]
    while todo:
        subclasses = todo.pop().__subclasses__()
        found.update(subclasses)
        todo += subclasses
    # Verdict, the one mutable record, is no Record subclass
    assert {cls for cls in found if cls.__module__.startswith("cdlat.")} | {Verdict} == set(
        MODULES
    )
    assert len(ALL) == len(MODULES) and {cls for cls, _ in ALL} == set(MODULES)


@pytest.mark.parametrize("case", ALL, ids=_ids)
def test_construction_by_position_and_keyword_repr_and_module(case):
    cls, fields = case
    values = tuple(fields.values())
    by_position, by_keyword = cls(*values), cls(**fields)
    assert by_position == by_keyword
    assert tuple(getattr(by_keyword, name) for name in fields) == values
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(by_position) == f"{cls.__name__}({body})"
    assert (cls.__module__, cls.__qualname__) == (MODULES[cls], cls.__name__)
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(**fields, extra=1)


@pytest.mark.parametrize("case", FROZEN, ids=_ids)
def test_frozen_records_compare_and_hash_by_type_and_value(case):
    cls, fields = case
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert a != tuple(fields.values())
    assert a != list(fields.values())
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(a, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert getattr(a, name) is fields[name]
    assert copy.copy(a) == a


def test_spec_nodes_are_unequal_across_types():
    assert CorpusAtom("x") != CayleyAtom("x")
    assert FamilyAtom("C", 3) != ("C", 3)
    assert UTAtom(4) != CorpusAtom(4)
    assert Product(UTAtom(4), UTAtom(5)) != Wreath(UTAtom(4), 5)
    assert len({CorpusAtom("x"), CayleyAtom("x"), FamilyAtom("C", 3)}) == 3


@pytest.mark.parametrize("case", SPEC_NODES, ids=_ids)
def test_spec_nodes_round_trip_through_text_and_pickle(case):
    cls, fields = case
    node = cls(**fields)
    assert parse_spec(spec_text(node)) == node
    assert pickle.loads(pickle.dumps(node)) == node


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PermutationGenSet.from_cycles([], degree=0), "degree must be >= 1, got 0"),
        (lambda: PermutationGenSet(0, ()), "degree must be >= 1, got 0"),
        (lambda: PermutationGenSet(3, ((0, 0, 1),)), "not a permutation of 0..2: (0, 0, 1)"),
        (
            lambda: PermutationGenSet(degree=2, generators=((0, 1), (1, 2))),
            "not a permutation of 0..1: (1, 2)",
        ),
    ],
)
def test_permutation_gen_set_validates_on_construction(build, message):
    with pytest.raises(BadParameter) as info:
        build()
    assert str(info.value) == message


def test_verdict_defaults_and_fresh_stats():
    a = Verdict("c", "C2", "passed")
    b = Verdict(check_id="c", group_spec="C2", status="passed")
    assert (a.witness, a.stats, a.elapsed) == (None, {}, 0.0)
    assert a == b
    assert a.stats is not b.stats
    a.stats["x"] = 1
    assert b.stats == {} and a != b


def test_verdict_is_mutable_unhashable_and_type_sensitive():
    v = Verdict(**VERDICT_FIELDS)
    v.status = "passed"
    v.elapsed = 1.25
    assert (v.status, v.elapsed) == ("passed", 1.25)
    with pytest.raises(TypeError):
        hash(v)
    assert v != tuple(getattr(v, name) for name in VERDICT_FIELDS)


# ---------------------------------------------------------------------------
# Import weight


def test_import_cdlat_loads_no_code_introspection_modules():
    # -S: no site hooks, so no module is already loaded for another reason
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); before = set(sys.modules); "
        "import cdlat; print(*sorted(set(sys.modules) - before))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": ""},
    ).stdout.split()
    assert "cdlat.checks" in out
    assert not {"dataclasses", "inspect", "ast", "dis"} & set(out)


def test_no_engine_module_imports_dataclasses():
    pattern = re.compile(r"^\s*(import dataclasses|from dataclasses import)", re.M)
    sources = sorted((SRC / "cdlat").glob("*.py"))
    assert [p.name for p in sources if pattern.search(p.read_text(encoding="utf-8"))] == []
