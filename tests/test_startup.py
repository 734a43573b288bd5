"""Start-up guards: which modules a fresh `km` process loads.

Each check runs a new interpreter and reads the modules it imported from
``python -X importtime``, so it tests the real command path.  Module sets,
not timings: a command must not load an engine it does not run, and no
command may load ``dataclasses``, nor ``argparse`` with the ``gettext``
and ``locale`` it brings: argparse reads only help, refused lines and the
other lines that are not plain.  With bytecode caching off every loaded
module is compiled from source on each run, so a module a command does not
need is a cost it pays every time.  That engine input errors still exit 2
from a fresh process is checked in ``test_cli.py`` (``TestExitCodes``).
"""

import subprocess
import sys
from functools import cache

import pytest

from kmgroups import cli

HEAVY = {"kmgroups.analysis", "kmgroups.parabolics", "kmgroups.roots"}
# the integer matrix kernel: a determinant or a Weyl element loads it
INTMAT = "kmgroups._intmat"
# what a command line read by argparse costs: it imports gettext, and its
# first translated message imports locale
PARSER = {"argparse", "gettext", "locale"}

# one invocation of every command; {} is replaced by a catalog matrix path
ARGV = {
    "validate": ["validate", "{}"],
    "classify": ["classify", "{}"],
    "coxeter": ["coxeter", "{}"],
    "decompose": ["decompose", "{}", "--set", "1"],
    "poset": ["poset", "{}"],
    "nerve": ["nerve", "{}"],
    "ends": ["ends", "{}"],
    "indec": ["indec", "{}", "--q", "2"],
    "report": ["report", "{}", "--q", "2"],
    "weyl-word": ["weyl", "word", "{}", "--word", "1,2"],
    "weyl-straight": ["weyl", "straight", "{}", "--word", "1,2", "--n", "3"],
    "roots": ["roots", "{}", "--max-height", "3"],
    "conj": ["conj", "{}", "--from", "1", "--to", "2"],
    "closure": ["closure", "{}", "--word", "1,2", "--depth", "1"],
    "jregular": ["jregular", "{}", "--set", "1,2", "--max-len", "2", "--n", "2",
                 "--max-height", "2", "--depth", "1"],
    "catalog": ["catalog"],
}
LIGHT = ("validate", "classify", "coxeter", "decompose", "nerve", "catalog")
# the commands that read no Coxeter data
NO_COXETER = ("validate", "catalog")
# the commands that never build a Weyl group element
NO_WEYL = ("validate", "classify", "coxeter", "decompose", "nerve", "ends", "indec",
           "poset", "report")
# the commands that, on affine A1, take no determinant and build no Weyl element
NO_INTMAT = ("validate", "coxeter", "decompose", "nerve", "poset", "catalog")


def imported(*args):
    """(exit code, names of the modules imported) of a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, timeout=60,
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.returncode, names


@pytest.fixture(scope="module")
def km_modules(catalog_paths):
    """name -> the modules one `km` run of that command loads; each command
    runs once here, however many checks read its set."""

    @cache
    def modules(name):
        argv = [catalog_paths["affine_a1"] if a == "{}" else a for a in ARGV[name]]
        rc, names = imported("-m", "kmgroups.cli", *argv)
        assert rc == 0, name
        assert "kmgroups.gcm" in names  # the probe did see the package load
        return frozenset(names)

    return modules


def test_every_command_is_probed():
    assert set(ARGV) == {command.name for command in cli.COMMANDS}


def test_import_kmgroups_runs_no_module():
    rc, names = imported("-c", "import kmgroups")
    assert rc == 0
    assert {n for n in names if n.startswith("kmgroups")} == {"kmgroups"}


def test_import_cli_loads_no_heavy_engine():
    rc, names = imported("-c", "import kmgroups.cli")
    assert rc == 0
    assert "kmgroups.cli" in names
    assert not names & (
        HEAVY | {"dataclasses", "kmgroups.coxeter", "kmgroups.weyl", "kmgroups.catalog", INTMAT}
    )
    assert not names & PARSER


def test_public_names_load_only_their_module():
    rc, names = imported("-c", "from kmgroups import classify, GcmScalars")
    assert rc == 0
    assert not names & (HEAVY | {INTMAT})


@pytest.mark.parametrize("name", LIGHT)
def test_light_commands_load_no_heavy_engine(name, km_modules):
    assert not km_modules(name) & HEAVY


@pytest.mark.parametrize("name", ("ends", "indec"))
def test_verdicts_load_neither_parabolics_nor_roots(name, km_modules):
    names = km_modules(name)
    assert "kmgroups.analysis" in names
    assert not names & {"kmgroups.parabolics", "kmgroups.roots"}


@pytest.mark.parametrize("name", NO_COXETER)
def test_matrix_only_commands_load_no_coxeter(name, km_modules):
    assert "kmgroups.coxeter" not in km_modules(name)


@pytest.mark.parametrize("name", NO_WEYL)
def test_structure_commands_load_no_weyl(name, km_modules):
    assert "kmgroups.weyl" not in km_modules(name)


@pytest.mark.parametrize("name", NO_INTMAT)
def test_commands_without_a_determinant_load_no_intmat(name, km_modules):
    assert INTMAT not in km_modules(name)


# classify takes affine A1's one determinant; the rest build Weyl elements
@pytest.mark.parametrize("name", ["classify", *sorted(set(ARGV) - {*NO_WEYL, "catalog"})])
def test_determinants_and_weyl_elements_load_intmat(name, km_modules):
    assert INTMAT in km_modules(name)


@pytest.mark.parametrize("name", ("poset", "report"))
def test_poset_commands_load_no_roots(name, km_modules):
    names = km_modules(name)
    assert "kmgroups.parabolics" in names
    assert "kmgroups.roots" not in names


@pytest.mark.parametrize("name", sorted(ARGV))
def test_only_catalog_loads_catalog(name, km_modules):
    assert ("kmgroups.catalog" in km_modules(name)) == (name == "catalog")


@pytest.mark.parametrize("name", sorted(ARGV))
def test_no_command_loads_dataclasses(name, km_modules):
    assert "dataclasses" not in km_modules(name)


@pytest.mark.parametrize("name", sorted(ARGV))
def test_no_command_loads_argparse(name, km_modules):
    assert not km_modules(name) & PARSER


@pytest.mark.parametrize("name", sorted(ARGV))
def test_a_well_formed_command_loads_no_help_text(name, catalog_paths, monkeypatch):
    # the help texts are in the argparse tree, and only _argparse builds it
    def refuse(argv):
        raise AssertionError(f"{argv} built the help text")

    monkeypatch.setattr(cli, "_argparse", refuse)
    argv = [catalog_paths["affine_a1"] if a == "{}" else a for a in ARGV[name]]
    command, _ = cli._read_argv(argv)
    assert command.name == name


@pytest.mark.parametrize("argv, code", [(["classify", "--help"], 0), (["classify", "--bogus"], 2)])
def test_help_and_errors_go_to_argparse(argv, code):
    rc, names = imported("-m", "kmgroups.cli", *argv)
    assert rc == code
    assert PARSER <= names
