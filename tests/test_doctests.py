"""Run the doctests embedded in the library modules."""

import doctest

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
