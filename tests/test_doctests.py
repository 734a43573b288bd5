"""Run the doctests embedded in the library modules, and README's
library quick start."""

import doctest
from pathlib import Path

import pytest

import kmgroups
import kmgroups._intmat
import kmgroups.analysis
import kmgroups.coxeter
import kmgroups.gcm
import kmgroups.parabolics
import kmgroups.roots
import kmgroups.weyl

MODULES = [
    kmgroups._intmat,
    kmgroups.analysis,
    kmgroups.coxeter,
    kmgroups.gcm,
    kmgroups.parabolics,
    kmgroups.roots,
    kmgroups.weyl,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0


def test_readme_quick_start():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
