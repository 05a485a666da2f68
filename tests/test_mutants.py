"""The cheap half of the mutation harness: every mutant still applies.

Running the mutants takes minutes (`python -m tests.mutants`); this only
checks that each one still changes the code it names.
"""

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_snippet_occurs_once(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    # a mutant that does not compile would only show up as an error in the
    # full harness run
    compile(text.replace(mutant.snippet, mutant.replacement), str(ROOT / mutant.path), "exec")
    assert mutant.tests and all((ROOT / t).is_file() for t in mutant.tests)
