"""Finite-group engine for maximal-measure subgroup lattices.

Core surface: group constructors (named families, Cayley tables,
permutation generators, direct and wreath products), exhaustive subgroup
machinery (closure, enumeration, centralizers, normal structure), the
measure lattice with centrally large subgroups, a registry of named
theorem checks over a built-in corpus, and a small spec language with
JSON/DOT reporting.
"""

from .cdlattice import (
    CDMember,
    CDResult,
    cd_lattice,
    cd_of_subgroup,
    cl_subgroups,
    lattice_isomorphic,
    max_measure,
    measure,
)
from .checks import Verdict, check_ids, default_pairs, run_check, run_pairs
from .corpus import corpus_group, corpus_names, universal_corpus_specs
from .errors import (
    BadParameter,
    CDLatError,
    EnumerationLimitExceeded,
    NotAGroup,
    OrderCapExceeded,
    ParseError,
    SubgroupCapExceeded,
    TooLargeForIso,
    UnknownFixture,
)
from .groups import (
    Group,
    PermutationGenSet,
    check_axioms,
    dump_cayley,
    from_cayley,
    from_cayley_file,
    from_permutations,
    group_isomorphic_small,
    load_cayley,
    named_group,
    ut_entry_bit,
)
from .products import (
    DirectProductMeta,
    WreathMeta,
    base_product_subgroup,
    base_projection,
    base_subgroup,
    diagonal_subgroup,
    direct_product,
    product_subgroup,
    projection,
    wreath_cyclic,
)
from .report import (
    ENGINE_VERSION,
    build_report,
    build_verify_report,
    cache_get,
    cache_put,
    export_dot,
    report_json,
)
from .specparse import evaluate, parse_spec, spec_text
from .subgroups import (
    Subgroup,
    all_subgroups,
    center,
    centralizer,
    closure,
    conjugate_subgroup,
    full_subgroup,
    is_normal,
    join_subgroups,
    normal_closure,
    normalizer,
    product_set_mask,
    subnormal_defect,
    trivial_subgroup,
)

__version__ = ENGINE_VERSION
