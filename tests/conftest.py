"""Shared fixtures: catalog matrices and a subprocess runner for the CLI."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from kmgroups import catalog, weyl

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def catalog_gcms():
    return {name: catalog.load(name) for name in catalog.NAMES}


@pytest.fixture(scope="session")
def catalog_paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("catalog")
    out = {}
    for name in catalog.NAMES:
        p = base / f"{name}.json"
        p.write_text(catalog.read_text(name))
        out[name] = str(p)
    return out


@pytest.fixture
def count_products(monkeypatch):
    """A list that gains one entry for each matrix product of two elements."""
    calls = []
    product = weyl.mat_mul

    def counting(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(weyl, "mat_mul", counting)
    return calls


def run_km(*args, stdin=None, timeout=None):
    """Run the CLI in a subprocess; returns CompletedProcess with text IO."""
    return subprocess.run(
        [sys.executable, "-m", "kmgroups.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def km_payload(*args, stdin=None):
    proc = run_km(*args, stdin=stdin)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)["payload"]
