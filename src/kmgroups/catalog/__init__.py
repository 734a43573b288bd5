"""Bundled example matrices, loadable by name.

These back the command-line examples and the golden tests; `km catalog`
exposes them from the shell.
"""

from __future__ import annotations

import json
from importlib import resources

from ..gcm import GeneralizedCartanMatrix

NAMES = (
    "finite_a2",
    "finite_a3",
    "affine_a1",
    "affine_a2",
    "indefinite_rank2",
    "mixed_rank3",
)


def read_text(name: str) -> str:
    if name not in NAMES:
        raise KeyError(f"unknown catalog entry {name!r}; known: {', '.join(NAMES)}")
    return (
        resources.files(__package__).joinpath(f"{name}.json").read_text("utf-8")
    )


def load(name: str) -> GeneralizedCartanMatrix:
    doc = json.loads(read_text(name))
    return GeneralizedCartanMatrix.from_rows(doc["matrix"], doc.get("labels"))
