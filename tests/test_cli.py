"""End-to-end CLI tests: envelopes, schema conformance, exit codes, goldens."""

import argparse
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from importlib import resources

import jsonschema
import pytest

from conftest import GOLDEN_DIR, km_payload, run_km
from golden_cases import CASES
from test_weyl import KERNEL_GCMS, random_word
from kmgroups import (ComponentNotSphericalError, GeneralizedCartanMatrix,
                      NotEssentialError, NotPrimePowerError, NotSphericalError, WeylGroup)
from kmgroups import cli
from kmgroups.cli import parse_gcm_text, serialize_gcm


@pytest.fixture(scope="session")
def envelope_schema():
    text = (
        resources.files("kmgroups").joinpath("schemas/envelope.schema.json")
        .read_text("utf-8")
    )
    schema = json.loads(text)
    jsonschema.Draft7Validator.check_schema(schema)
    return schema


BIG_PRIME = 10**18 + 3


def finite_a_text(n):
    """Plain-rows text of the Cartan matrix of type A_n."""
    return "".join(
        " ".join("2" if i == j else "-1" if abs(i - j) == 1 else "0" for j in range(n))
        + "\n"
        for i in range(n)
    )


def affine_a_text(n):
    """Plain-rows text of the Cartan matrix of affine type A of rank n."""
    return "".join(
        " ".join("2" if i == j else "-1" if (i - j) % n in (1, n - 1) else "0"
                 for j in range(n))
        + "\n"
        for i in range(n)
    )


class TestInputParsing:
    def test_json_object(self):
        g = parse_gcm_text('{"matrix": [[2, -1], [-1, 2]], "labels": ["x", "y"]}')
        assert g.entries == ((2, -1), (-1, 2))
        assert g.labels == ("x", "y")

    def test_bare_json_array(self):
        g = parse_gcm_text("[[2, -1], [-1, 2]]")
        assert g.rank == 2

    def test_plain_rows_with_comments(self):
        g = parse_gcm_text("# a comment\n2 -1\n\n-1 2\n")
        assert g.entries == ((2, -1), (-1, 2))

    @pytest.mark.parametrize(
        "text", ["", "{}", "[ooops", "2 x\n-1 2", '{"rows": [[2]]}']
    )
    def test_rejects_garbage(self, text):
        from kmgroups.cli import InputError

        with pytest.raises(InputError):
            parse_gcm_text(text)

    def test_round_trip(self):
        g = GeneralizedCartanMatrix.from_rows(
            [[2, -2, 0], [-2, 2, -1], [0, -1, 2]], labels=["a", "b", "c"]
        )
        assert parse_gcm_text(serialize_gcm(g)) == g


class TestEnvelopes:
    def test_every_command_validates_against_the_schema(
        self, envelope_schema, catalog_paths
    ):
        a2 = catalog_paths["finite_a2"]
        aff1 = catalog_paths["affine_a1"]
        aff2 = catalog_paths["affine_a2"]
        invocations = [
            ["validate", a2],
            ["classify", aff2],
            ["coxeter", aff1],
            ["decompose", aff2, "--set", "1,2"],
            ["poset", aff2],
            ["nerve", aff2],
            ["ends", aff2],
            ["indec", aff2, "--q", "4"],
            ["report", aff1, "--q", "2"],
            ["weyl", "word", aff1, "--word", "1,2,1"],
            ["weyl", "straight", aff1, "--word", "1,2", "--n", "4"],
            ["roots", aff1, "--max-height", "4", "--set", "1"],
            ["conj", a2, "--from", "1", "--to", "2"],
            ["conj", a2, "--from", "1", "--to", "1,2"],  # not conjugate
            ["closure", a2, "--word", "1,2,1", "--depth", "1"],
            [
                "jregular", aff1, "--set", "1,2", "--max-len", "2",
                "--n", "6", "--max-height", "7", "--depth", "1",
            ],
            [
                "jregular", aff1, "--set", "1,2", "--max-len", "1",
                "--n", "6", "--max-height", "7", "--depth", "1",
            ],  # not found
            ["catalog"],
        ]
        for argv in invocations:
            proc = run_km(*argv)
            assert proc.returncode == 0, (argv, proc.stderr)
            doc = json.loads(proc.stdout)
            jsonschema.validate(doc, envelope_schema)

    def test_envelope_carries_input_and_version(self, catalog_paths):
        proc = run_km("validate", catalog_paths["finite_a2"])
        doc = json.loads(proc.stdout)
        assert doc["tool"] == {"name": "km", "version": "0.1.0"}
        assert doc["input"]["matrix"] == [[2, -1], [-1, 2]]
        assert doc["command"] == "validate"
        assert doc["warnings"] == []

    def test_bounded_commands_warn(self, catalog_paths):
        proc = run_km("roots", catalog_paths["finite_a2"], "--max-height", "2")
        doc = json.loads(proc.stdout)
        assert any("bounded" in w for w in doc["warnings"])

    def test_stdin_input(self):
        proc = run_km("classify", "-", stdin="2 -3\n-3 2\n")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["payload"]["components"][0]["type"] == "indefinite"

    def test_indices_are_one_based_on_the_wire(self, catalog_paths):
        payload = km_payload(
            "decompose", catalog_paths["mixed_rank3"], "--set", "2,3"
        )
        assert payload["set"] == [2, 3]
        assert payload["spherical_part"] == [2, 3]


class TestExitCodes:
    def test_invalid_matrix_is_exit_2_with_position(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 -1\n-1 2\n")
        proc = run_km("validate", str(bad))
        assert proc.returncode == 2
        assert "DiagonalNotTwo(1)" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "doc, where",
        [
            ('{"matrix": 5}', "Invalid: matrix"),
            ('{"matrix": null}', "Invalid: matrix"),
            ('{"matrix": [[2, -1], 7]}', "Invalid(2)"),
            ('{"matrix": [[2, "x"], [0, 2]]}', "Invalid(1,2)"),
            ('{"matrix": [[2, -1.5], [-1, 2]]}', "Invalid(1,2)"),
            ('{"matrix": [[2, -1], [false, 2]]}', "Invalid(2,1)"),
            ('{"matrix": [[2, -1], [-1, 2]], "labels": 5}', "Invalid: labels"),
        ],
    )
    def test_malformed_json_matrix_is_exit_2_with_position(self, doc, where):
        proc = run_km("classify", "-", stdin=doc)
        assert proc.returncode == 2, proc.stderr
        assert where in proc.stderr
        assert "internal error" not in proc.stderr
        assert proc.stdout == ""

    def test_missing_file_is_exit_2(self):
        proc = run_km("validate", "/nonexistent/x.json")
        assert proc.returncode == 2

    def test_bad_set_index_is_exit_2(self, catalog_paths):
        proc = run_km("decompose", catalog_paths["finite_a2"], "--set", "3")
        assert proc.returncode == 2
        assert "out of range" in proc.stderr

    def test_bad_word_letter_is_exit_2(self, catalog_paths):
        proc = run_km(
            "weyl", "word", catalog_paths["finite_a2"], "--word", "1,9"
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("decompose", "finite_a3", "--set", "1_0"),
            ("decompose", "finite_a3", "--set", "+3"),
            ("indec", "finite_a2", "--q", "1_6"),
            ("report", "affine_a1", "--q", "+4"),
            ("weyl", "word", "finite_a3", "--word", "1, 2"),
            ("conj", "finite_a3", "--from", "1", "--to", "0x3"),
            ("decompose", "finite_a2", "--set", "\u0661"),
            ("indec", "finite_a2", "--q", "\u0663"),
            ("weyl", "word", "finite_a2", "--word", "\uff11,\uff12"),
            ("indec", "finite_a2", "--q", "7" * 5000),
        ],
        ids=["set_underscore", "set_sign", "q_underscore", "q_sign", "word_space",
             "to_hex", "set_arabic_indic", "q_arabic_indic", "word_fullwidth",
             "q_too_many_digits"],
    )
    def test_integers_take_the_bound_syntax(self, catalog_paths, capsys, argv):
        # sets, words and q accept what the bound options accept: ASCII digits only
        assert cli.main([catalog_paths.get(a, a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "first_row",
        ["2 -1_0", "+2 -1", "\u0662 -1", "2 --1", "2 -", "2 -" + "1" * 5000],
        ids=["underscore", "plus", "arabic_indic", "double_minus", "bare_minus",
             "too_many_digits"],
    )
    def test_plain_rows_take_ascii_digits(self, tmp_path, capsys, first_row):
        # an entry is the bound syntax with an optional leading minus
        path = tmp_path / "rows.txt"
        path.write_text(f"{first_row}\n-1 2\n", encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: bad integer row: {first_row!r}\n")

    @pytest.mark.parametrize(
        "labels, stderr",
        [
            ('[null, {"a": [1.5]}]', "Invalid(1): label 1 is None, not a string or integer"),
            ('["a", true]', "Invalid(2): label 2 is True, not a string or integer"),
        ],
        ids=["none_and_dict", "bool"],
    )
    def test_labels_are_strings_or_integers(self, tmp_path, capsys, labels, stderr):
        # no Python repr of another value reaches the wire as a label
        path = tmp_path / "labels.json"
        path.write_text(f'{{"matrix": [[2, -1], [-1, 2]], "labels": {labels}}}')
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {stderr}\n")

    def test_non_prime_power_is_exit_2(self, catalog_paths):
        proc = run_km("indec", catalog_paths["finite_a2"], "--q", "6")
        assert proc.returncode == 2
        assert "prime power" in proc.stderr

    def test_non_essential_jregular_set_is_exit_2(self, catalog_paths):
        proc = run_km(
            "jregular", catalog_paths["finite_a2"], "--set", "1",
            "--max-len", "2", "--n", "2", "--max-height", "2", "--depth", "1",
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: subset [1] is not essential and nonempty\n"

    def test_engine_index_error_is_internal_exit_1(
        self, catalog_paths, monkeypatch, capsys
    ):
        # letters and indices are range-checked on input, so an IndexError
        # that reaches main is a bug in the engine, not bad input
        from kmgroups import cli

        def broken(gcm):
            raise IndexError("engine bug")

        monkeypatch.setattr(cli, "classify", broken)
        assert cli.main(["classify", catalog_paths["finite_a2"]]) == 1
        assert "internal error" in capsys.readouterr().err

    def test_engine_value_error_is_internal_exit_1(
        self, catalog_paths, monkeypatch, capsys
    ):
        # exit 2 is for BadInputError only; any other ValueError is a bug
        from kmgroups import cli

        def broken(gcm):
            raise ValueError("engine bug")

        monkeypatch.setattr(cli, "classify", broken)
        assert cli.main(["classify", catalog_paths["finite_a2"]]) == 1
        assert "internal error: ValueError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error, stderr",
        [
            (NotSphericalError({0, 1}), "subset [1, 2] is not spherical"),
            (ComponentNotSphericalError({0}, 1, {0, 1}),
             "component [1, 2] of [1] + {2} is not spherical"),
            (NotEssentialError({0}), "subset [1] is not essential and nonempty"),
            (NotPrimePowerError(6), "6 is not a prime power"),
        ],
        ids=["not_spherical", "component", "not_essential", "prime_power"],
    )
    def test_bad_input_errors_share_exit_2(
        self, catalog_paths, monkeypatch, capsys, error, stderr
    ):
        # index lists print 1-based on the CLI; the library stays 0-based
        from kmgroups import BadInputError, cli

        assert isinstance(error, BadInputError)

        def rejects(gcm):
            raise error

        monkeypatch.setattr(cli, "classify", rejects)
        assert cli.main(["classify", catalog_paths["finite_a2"]]) == 2
        assert capsys.readouterr().err == f"error: {stderr}\n"
        assert str(error) == error.message(0)

    def test_large_prime_q_is_decided_quickly(self, catalog_paths):
        proc = run_km(
            "indec", catalog_paths["finite_a2"], "--q", "1000000007", timeout=20
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["payload"]["p"] == 1000000007

    @pytest.mark.parametrize("command", ["indec", "report"])
    @pytest.mark.parametrize("q,p,e", [
        (BIG_PRIME, BIG_PRIME, 1), (BIG_PRIME**2, BIG_PRIME, 2), (2**89, 2, 89),
    ])
    def test_q_is_decided_in_time_polynomial_in_its_digits(
            self, catalog_paths, command, q, p, e):
        start = time.perf_counter()
        proc = run_km(command, catalog_paths["affine_a2"], "--q", str(q), timeout=20)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        verdict = json.loads(proc.stdout)["payload"]
        verdict = verdict.get("indecomposability", verdict)
        assert (verdict["q"], verdict["p"], verdict["exponent"]) == (q, p, e)
        assert elapsed < 2, elapsed

    @pytest.mark.parametrize("q", [0, 1, 6, BIG_PRIME * (10**9 + 7)])
    def test_q_that_is_no_prime_power_is_one_line_exit_2(self, catalog_paths, q):
        proc = run_km("indec", catalog_paths["affine_a2"], "--q", str(q), timeout=20)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {q} is not a prime power\n"

    def test_q_beyond_the_certified_range_is_one_line_exit_2(self, catalog_paths):
        # 2^89 - 1 is prime, but too large for the 13 Miller-Rabin bases to prove it
        q = 2**89 - 1
        proc = run_km("report", catalog_paths["affine_a2"], "--q", str(q), timeout=20)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (f"error: cannot decide whether {q} is a prime power: "
                               f"{q} is too large to prove prime\n")

    def test_classify_of_finite_a18_is_quick(self):
        proc = run_km("classify", "-", stdin=finite_a_text(18), timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["payload"]["components"][0]["type"] == "finite"

    def test_order_of_affine_a8_coxeter_element_is_quick(self):
        # rank 9, so the order scan runs to the bound 9! = 362,880
        proc = run_km("weyl", "word", "-", "--word", "1,2,3,4,5,6,7,8,9",
                      stdin=affine_a_text(9), timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["payload"]["order"] is None

    @pytest.mark.parametrize("n, word, order", [(40, "1", 2), (16, "1,2", 3), (20, "1,2", 3)])
    def test_order_of_finite_a_word_is_quick(self, n, word, order):
        # the scan stops at the largest finite W_J inside the element's support
        proc = run_km("weyl", "word", "-", "--word", word, stdin=finite_a_text(n), timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["payload"]["order"] == order

    @pytest.mark.parametrize("n", [16, 20])
    def test_order_of_finite_a_coxeter_word_is_quick(self, n):
        # the cap is read off the one maximal spherical set, the whole of A_n
        word = ",".join(map(str, range(1, n + 1)))
        proc = run_km("weyl", "word", "-", "--word", word, stdin=finite_a_text(n), timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["payload"]["order"] == n + 1

    @pytest.mark.parametrize("n", [17, 30, 40])
    def test_jregular_on_every_generator_of_affine_a_is_quick(self, n):
        # the torsion bound is read off the n maximal spherical sets
        everything = ",".join(map(str, range(1, n + 1)))
        proc = run_km("jregular", "-", "--set", everything, "--max-len", "1", "--n", "2",
                      "--max-height", "1", "--depth", "1", stdin=affine_a_text(n), timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["payload"]["found"] is False

    def test_ends_of_finite_a14_is_quick(self):
        proc = run_km("ends", "-", stdin=finite_a_text(14), timeout=20)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)["payload"]
        assert payload["weyl_infinite"] is False
        assert payload["one_ended"] is False
        assert payload["nerve_agreement"] is True

    def test_indec_of_finite_a40_is_quick(self):
        # finite type decides one_ended without enumerating spherical subsets
        proc = run_km("indec", "-", "--q", "2", stdin=finite_a_text(40), timeout=20)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)["payload"]
        assert payload["by"] == "finite_type"
        assert payload["checklist"]["finite_type"] is True
        assert payload["checklist"]["one_ended"] is False

    def test_poset_of_finite_a20_is_quick(self):
        # a finite diagram has no non-spherical component to scan
        proc = run_km("poset", "-", stdin=finite_a_text(20), timeout=20)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)["payload"]
        assert [c["set"] for c in payload["classes"]] == [[]]
        assert payload["hasse"] == []

    def test_poset_of_affine_a_rank30_is_quick(self):
        # the cover walk: 2^30 subsets would take hours to scan
        n = 30
        text = "".join(
            " ".join("2" if i == j else "-1" if (i - j) % n in (1, n - 1) else "0"
                     for j in range(n)) + "\n"
            for i in range(n)
        )
        proc = run_km("poset", "-", stdin=text, timeout=20)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)["payload"]
        assert len(payload["classes"]) == 2
        assert payload["hasse"] == [[0, 1]]

    def test_report_of_complete_rank12_is_quick(self):
        n = 12
        text = "".join(
            " ".join("2" if i == j else "-2" for j in range(n)) + "\n"
            for i in range(n)
        )
        proc = run_km("report", "-", "--q", "2", stdin=text, timeout=20)
        assert proc.returncode == 0, proc.stderr
        poset = json.loads(proc.stdout)["payload"]["open_subgroup_classes"]
        assert len(poset["classes"]) == 2**n - n == 4084
        assert len(poset["hasse"]) == math.comb(n, 2) + sum(
            k * math.comb(n, k) for k in range(3, n + 1)
        )

    def test_conj_of_finite_a40_is_quick(self):
        # moves read their targets off columns: no dense product per move
        start = time.perf_counter()
        proc = run_km("conj", "-", "--from", "1,2,3", "--to", "38,39,40",
                      stdin=finite_a_text(40), timeout=20)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)["payload"]
        assert payload["conjugate"] is True
        assert payload["moves"][-1]["to"] == [38, 39, 40]
        assert elapsed < 5

    @pytest.mark.parametrize(
        "n, source, target",
        [(20, "1,2,3", "18,19"), (24, "1,3,5,7,9,11,13,15", "1,2,4,6,8,10,12,14")],
        ids=["sizes", "eight_a1_against_a2_and_six_a1"],
    )
    def test_conj_of_unlike_diagrams_is_quick(self, n, source, target):
        # the diagrams differ, so no move is made; the A_24 move graph alone
        # holds 24,310 subsets
        start = time.perf_counter()
        proc = run_km("conj", "-", "--from", source, "--to", target,
                      stdin=finite_a_text(n), timeout=20)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["payload"]["conjugate"] is False
        assert elapsed < 1

    @pytest.mark.parametrize(
        "source, target", [("1,2,3", "6,7"), ("1,3,5,7", "1,2,4,6")]
    )
    def test_unlike_diagrams_answer_as_the_move_graph_does(self, source, target):
        # the A_8 payload is the one an exhausted move graph gives
        payload = km_payload("conj", "-", "--from", source, "--to", target,
                             stdin=finite_a_text(8))
        assert payload == {
            "conjugate": False,
            "from": [int(k) for k in source.split(",")],
            "to": [int(k) for k in target.split(",")],
            "witness_word": None,
            "moves": None,
        }

    def test_unknown_catalog_entry_is_exit_2(self):
        proc = run_km("catalog", "no_such_entry")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: unknown catalog entry 'no_such_entry'; ")
        assert '"' not in proc.stderr

    @pytest.mark.parametrize("n", ["0", "1"])
    @pytest.mark.parametrize("command", ["straight", "jregular"])
    def test_power_bound_below_two_is_exit_2(self, catalog_paths, capsys, command, n):
        from kmgroups import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(self._power_argv(catalog_paths, command, n))
        assert exc.value.code == 2
        assert "below 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["straight", "jregular"])
    def test_power_bound_two_is_accepted(self, catalog_paths, capsys, command):
        from kmgroups import cli

        assert cli.main(self._power_argv(catalog_paths, command, "2")) == 0
        assert json.loads(capsys.readouterr().out)["parameters"]["n"] == 2

    @staticmethod
    def _power_argv(catalog_paths, command, n):
        if command == "straight":
            return ["weyl", "straight", catalog_paths["affine_a2"], "--word", "1,2",
                    "--n", n]
        return ["jregular", catalog_paths["affine_a1"], "--set", "1,2", "--max-len", "2",
                "--n", n, "--max-height", "2", "--depth", "1"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("weyl", "straight", "affine_a2", "--word", "1,2", "--n", "-3"),
            ("roots", "affine_a2", "--max-height", "-1"),
            ("roots", "affine_a2", "--max-height", "3", "--budget", "-5"),
            ("closure", "affine_a2", "--word", "1,2", "--depth", "-1"),
            ("jregular", "affine_a1", "--set", "1,2", "--max-len", "-2", "--n", "2",
             "--max-height", "2", "--depth", "1"),
            ("roots", "finite_a2", "--max-height", "\u0663"),
        ],
        ids=["n", "max_height", "budget", "depth", "max_len", "max_height_arabic_indic"],
    )
    def test_negative_bound_is_exit_2(self, catalog_paths, capsys, argv):
        from kmgroups import cli

        argv = [catalog_paths.get(a, a) for a in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "not a nonnegative integer" in capsys.readouterr().err

    def test_zero_bound_is_accepted(self, catalog_paths):
        payload = km_payload(
            "closure", catalog_paths["affine_a2"], "--word", "1,2", "--depth", "0"
        )
        assert payload["depth"] == 0

    def test_budget_exhaustion_is_exit_3(self, catalog_paths):
        proc = run_km(
            "roots", catalog_paths["affine_a2"], "--max-height", "40",
            "--budget", "5",
        )
        assert proc.returncode == 3
        assert "budget" in proc.stderr

    def test_roots_budget_counts_simple_roots(self, catalog_paths):
        # A_3 has 3 roots of height 1: budget 3 answers, 2 and 0 exit 3
        args = ("roots", catalog_paths["finite_a3"], "--max-height", "1", "--budget")
        assert km_payload(*args, "3")["count"] == 3
        for budget in ("2", "0"):
            proc = run_km(*args, budget)
            assert proc.returncode == 3, (budget, proc.stderr)
            assert "budget" in proc.stderr

    def test_closure_budget_is_exit_3(self, catalog_paths):
        proc = run_km(
            "closure", catalog_paths["affine_a2"], "--word", "1,2",
            "--depth", "9", "--budget", "10",
        )
        assert proc.returncode == 3

    def test_not_found_and_not_conjugate_are_exit_0(self, catalog_paths):
        payload = km_payload(
            "conj", catalog_paths["finite_a3"], "--from", "1,2", "--to", "1,3"
        )
        assert payload == {
            "conjugate": False,
            "from": [1, 2],
            "to": [1, 3],
            "witness_word": None,
            "moves": None,
        }
        payload = km_payload(
            "jregular", catalog_paths["affine_a1"], "--set", "1,2",
            "--max-len", "1", "--n", "6", "--max-height", "7", "--depth", "1",
        )
        assert payload == {"found": False, "set": [1, 2]}

    def test_version_flag(self):
        proc = run_km("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "km 0.1.0"


class TestDotOutput:
    def test_poset_dot(self, catalog_paths):
        proc = run_km("poset", catalog_paths["mixed_rank3"], "--format", "dot")
        assert proc.returncode == 0
        assert proc.stdout.startswith("digraph essential_poset {")
        assert 'label="B [W_{}]"' in proc.stdout
        assert "n0 -> n1;" in proc.stdout
        assert proc.stdout.endswith("}\n")

    def test_nerve_dot(self, catalog_paths):
        proc = run_km("nerve", catalog_paths["affine_a2"], "--format", "dot")
        assert proc.stdout.startswith("digraph nerve_faces {")
        assert proc.stdout.count("->") == 6  # 3 edges x 2 endpoints

    @pytest.mark.parametrize(
        "command, matrix, line",
        [
            ("nerve", [[2, -1], [-1, 2]], r'  n2 [label="{a\"b,c\\d}"];'),
            ("poset", [[2, -2], [-2, 2]], r'  n1 [label="G [W_{a\"b,c\\d}]"];'),
        ],
    )
    def test_labels_are_escaped(self, tmp_path, capsys, command, matrix, line):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"matrix": matrix, "labels": ['a"b', "c\\d"]}))
        assert cli.main([command, str(path), "--format", "dot"]) == 0
        assert line in capsys.readouterr().out.splitlines()


class TestUnwritableStdout:
    """A stdout that cannot take the envelope exits 4 with one message,
    whether or not Python buffers it."""

    @pytest.fixture(params=["buffered", "unbuffered"])
    def env(self, request):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if request.param == "unbuffered":
            env["PYTHONUNBUFFERED"] = "1"
        return env

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["classify", "poset"])
    def test_full_device_exits_4(self, env, tmp_path, command):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"matrix": [[2, -2], [-2, 2]]}))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "kmgroups.cli", command, str(path)],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        assert proc.returncode == 4
        assert proc.stderr == (
            "error: cannot write output: [Errno 28] No space left on device\n"
        )

    def test_reader_closing_early_exits_4(self, env, tmp_path):
        # about 230 kB of poset, far more than a pipe holds
        rows = [[2 if i == j else -2 for j in range(9)] for i in range(9)]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"matrix": rows}))
        proc = subprocess.Popen(
            [sys.executable, "-m", "kmgroups.cli", "poset", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 4
        assert head == b'{\n  "comma'
        assert err == b"error: cannot write output: [Errno 32] Broken pipe\n"


def _parse(parser, argv):
    """(exit code, stdout, stderr, parsed options) of one parse, in-process."""
    out, err = io.StringIO(), io.StringIO()
    code, parsed = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), parsed


_WORDS = [command.name.split("-") for command in cli.COMMANDS]


class TestNarrowedParser:
    """``_build_parser(argv)`` builds only the command ``argv`` names; what
    it prints and parses must match the full tree byte for byte."""

    @pytest.mark.parametrize(
        "argv",
        [[*words, "--help"] for words in _WORDS]
        + _WORDS  # a missing required argument (``catalog`` needs none)
        + [["--help"], ["weyl", "--help"], ["-h", "classify"], ["nosuch", "x"],
           ["--version"], [], ["weyl"], ["classify", "m.json", "extra"],
           ["weyl", "word", "m.json", "--word", "1", "extra"]],
        ids=" ".join,
    )
    def test_matches_the_full_parser(self, argv):
        assert _parse(cli._build_parser(argv), argv) == _parse(cli._build_parser(), argv)

    def test_a_command_builds_only_its_subtree(self):
        def first_words(argv):
            (action,) = cli._build_parser(argv)._subparsers._group_actions
            return list(action.choices)

        assert first_words(["classify", "m.json"]) == ["classify"]
        assert first_words(["weyl", "word"]) == ["weyl"]
        full = list(dict.fromkeys(words[0] for words in _WORDS))
        assert first_words([]) == first_words(["nosuch"]) == first_words(["-h"]) == full


class TestWeylCommands:
    def test_word_payload(self, catalog_paths):
        payload = km_payload(
            "weyl", "word", catalog_paths["finite_a2"], "--word", "2,1,2"
        )
        assert payload["canonical_word"] == [1, 2, 1]
        assert payload["length"] == 3
        assert payload["order"] == 2
        assert payload["support"] == [1, 2]

    def test_straight_payload(self, catalog_paths):
        payload = km_payload(
            "weyl", "straight", catalog_paths["affine_a1"],
            "--word", "1,2", "--n", "5",
        )
        assert payload["is_straight_up_to_n"] is True
        assert payload["power_lengths"] == [2, 4, 6, 8, 10]


    def test_straight_payload_matches_the_element(self):
        rng = random.Random(14)
        flags = set()
        for rows in KERNEL_GCMS:
            gcm = GeneralizedCartanMatrix.from_rows(rows)
            for _ in range(3):
                word, n = random_word(rng, len(rows), 6), rng.randint(2, 7)
                args = argparse.Namespace(word=",".join(str(k + 1) for k in word), n=n)
                _, payload = cli._weyl_straight(gcm, args)
                w = WeylGroup(gcm).from_word(word)
                assert payload["power_lengths"] == [(w**k).length for k in range(1, n + 1)]
                assert payload["is_straight_up_to_n"] == w.is_straight(n), (rows, word, n)
                flags.add(payload["is_straight_up_to_n"])
        assert flags == {True, False}

    def test_affine_e8_roots_to_height_60(self):
        # real roots alpha + n delta, ht(delta) = 30: 240 per 30 heights
        rows = [[2 if i == j else 0 for j in range(9)] for i in range(9)]
        for i, j in [(k, k + 1) for k in range(7)] + [(5, 8)]:
            rows[i][j] = rows[j][i] = -1
        text = "".join(" ".join(map(str, row)) + "\n" for row in rows)
        proc = run_km("roots", "-", "--max-height", "60", stdin=text, timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["payload"]["count"] == 480


class TestCatalogCommand:
    def test_listing(self):
        payload = km_payload("catalog")
        assert "affine_a2" in payload["names"]
        assert len(payload["names"]) == 6

    def test_entry_is_pipeable(self, tmp_path):
        proc = run_km("catalog", "affine_a2")
        assert proc.returncode == 0
        again = run_km("classify", "-", stdin=proc.stdout)
        assert again.returncode == 0
        doc = json.loads(again.stdout)
        assert doc["payload"]["components"][0]["type"] == "affine"


class TestGoldens:
    @pytest.mark.parametrize("name,entry,template", CASES, ids=[c[0] for c in CASES])
    def test_output_matches_golden(self, name, entry, template, catalog_paths):
        argv = [
            a.replace("{}", catalog_paths[entry]) if entry else a
            for a in template
        ]
        proc = run_km(*argv)
        assert proc.returncode == 0, proc.stderr
        expected = (GOLDEN_DIR / name).read_text()
        assert proc.stdout == expected

    def test_runs_are_byte_stable(self, catalog_paths):
        argv = ["report", catalog_paths["affine_a2"], "--q", "4"]
        first = run_km(*argv)
        second = run_km(*argv)
        assert first.stdout == second.stdout
        assert first.stdout.endswith("\n")

    def test_golden_envelopes_validate(self, envelope_schema):
        for name, _, _ in CASES:
            if not name.endswith(".json"):
                continue
            doc = json.loads((GOLDEN_DIR / name).read_text())
            jsonschema.validate(doc, envelope_schema)
