"""Byte pins for payload branches the goldens never reach.

Each row is (argv template, catalog entry, sha256 of stdout).  The digests
were taken from the hand-written renderers that preceded the single wire
converter in ``kmgroups.cli``, so any change in how a branch is rendered
(infinite orders, ``null`` fields, unsorted input echoes, dot output) fails
here.  The ``closure`` and ``jregular`` digests were taken from the closure
search that built each candidate as v^{-1} w v by dense products, before it
stepped from the parent's conjugate.  These rows are kept out of ``golden_cases.py`` on purpose: that
table also feeds the ``small`` benchmark workload.
"""

import hashlib

import pytest

from conftest import run_km

PINS = [
    # infinite Coxeter orders become null
    (["coxeter", "{}"], "affine_a1",
     "1807e3ea07ebf26f98fb00c9b994bae5c4e5b55fcb41e04da5d043213092b209"),
    (["coxeter", "{}"], "indefinite_rank2",
     "5161f8c260033063618e5ca5f0e1dee5641f3cff887026057947efe7cf40df60"),
    # non-spherical set: finite_order and positive_root_count are null
    (["decompose", "{}", "--set", "1,2"], "affine_a1",
     "f545092d82557725f84c7c256da88d9c77039a4b7c25983895efa0dfc62ca9c0"),
    # infinite element order
    (["weyl", "word", "{}", "--word", "1,2"], "affine_a1",
     "171abf229636f614a7f699209fcf80a7587790e9df82e2cffef2ef342598fe2d"),
    # roots without --set
    (["roots", "{}", "--max-height", "3"], "affine_a2",
     "1858c474abb977666dd9a369d8da7ccc564ba3da9bb0d7fd6e0561e4d23eef7b"),
    # two-element source and target sets
    (["conj", "{}", "--from", "1,2", "--to", "2,3"], "finite_a3",
     "8f24f9846a7bc21eeaaa5c8573d9ae5ff7d8145e51e972f69df5a7b2924fe460"),
    # finite Weyl group: witness is null
    (["ends", "{}"], "finite_a3",
     "86a397c887840ff06d29e64bb6259bb173e8a2edc2fae507eae38c4e4f5afb9d"),
    # inconclusive verdict with failure reasons
    (["indec", "{}", "--q", "2"], "indefinite_rank2",
     "cf49d79c90b2d0156f48dc344b3ebb7c51f9ff550f31a6fe87a30c9605b81283"),
    # nerve as a dot digraph
    (["nerve", "{}", "--format", "dot"], "finite_a3",
     "47b900ec47774d03fc3149d210c123e7e26437c4ae933d05d4d425e58cf9d8e9"),
    # a two-letter conjugator: conjugator [2, 1], conjugate [2, 3]
    (["closure", "{}", "--word", "2,1,2,3,1,2", "--depth", "3"], "affine_a2",
     "20e0671e151c71adcc2ee4aa298a141a6019346ed2a5c94dfa529bfd32f53a12"),
    # seven candidates reach the closure check, over a depth-3 ball of W_J
    (["jregular", "{}", "--set", "1,2,3", "--max-len", "4", "--n", "6",
      "--max-height", "12", "--depth", "3"], "affine_a2",
     "cda0492fcb536bd922701e6915e84bd7d55cc2fcdf5f41b7e93744365a9e05f0"),
]


@pytest.mark.parametrize(
    "template,entry,digest",
    PINS,
    ids=[f"{t[0]}-{e}" for t, e, _ in PINS],
)
def test_stdout_digest_is_pinned(template, entry, digest, catalog_paths):
    argv = [a.replace("{}", catalog_paths[entry]) for a in template]
    proc = run_km(*argv)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest
