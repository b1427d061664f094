"""Command line golden tests: parse/print identity, JSON schema, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import qhk.cli
from qhk.cli import MAX_BASIS_DIM, _parser, main
from qhk.exprs import element_to_json, format_element
from qhk.sieve import (
    VerifyReport,
    annihilated_subspace,
    basis_dimension,
    monomial_basis,
    primitive_subspace,
    spherical_candidates,
)
from qhk.spaces import RealProj, parse_space


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_normalize_golden(capsys):
    code, out, _ = run(capsys, "normalize", "Q^6 Q^2 a1")
    assert code == 0
    assert out == "Q^5 Q^3 a1\n"
    # products across space kinds commute
    code, out, _ = run(capsys, "normalize", "a1*c1 + c1*a1")
    assert (code, out) == (0, "0\n")


def test_normalize_is_idempotent(capsys):
    code, first, _ = run(capsys, "normalize", "Q^2 a1^3 + Q^4 Q^2 a1")
    assert code == 0
    code, second, _ = run(capsys, "normalize", first.strip())
    assert code == 0
    assert first == second


def test_act_golden(capsys):
    code, out, _ = run(capsys, "act", "--sq", "2", "Q^9 Q^5 g1")
    assert (code, out) == (0, "Q^7 Q^5 g1\n")
    code, out, _ = run(capsys, "act", "--sq", "4", "Q^9 Q^5 g1")
    assert (code, out) == (0, "0\n")


def test_basis_listing(capsys):
    code, out, _ = run(capsys, "basis", "--space", "S1", "--degree", "3", "--max-length", "3")
    assert code == 0
    assert out.splitlines() == ["Q^2 g1", "g1^3"]


def test_sieve_lists_the_degree_three_candidate(capsys):
    code, out, _ = run(capsys, "sieve", "--space", "P", "--degree", "3", "--max-length", "3")
    assert code == 0
    assert out.splitlines() == ["Q^2 a1 + a3 + a1^3 + a1*a2"]


def test_annihilated_and_primitives_dimensions(capsys):
    code, out, _ = run(capsys, "annihilated", "--space", "P", "--degree", "3", "--max-length", "3")
    assert code == 0 and len(out.splitlines()) == 3
    code, out, _ = run(capsys, "primitives", "--space", "P", "--degree", "3", "--max-length", "3")
    assert code == 0 and len(out.splitlines()) == 2


def test_normalize_json_schema(capsys):
    code, out, _ = run(capsys, "normalize", "--format", "json", "Q^9 Q^5 g1")
    assert code == 0
    assert json.loads(out) == {
        "terms": [
            {"factors": [{"ops": [9, 5], "gen": {"space": "S1", "index": 1}, "exp": 1}]}
        ]
    }


def test_subspace_json_schema(capsys):
    code, out, _ = run(
        capsys, "sieve", "--space", "P", "--degree", "3", "--max-length", "3",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"space", "degree", "max_length", "dimension", "basis"}
    assert payload["space"] == "P" and payload["dimension"] == 1
    assert payload["basis"][0]["terms"]


def test_verify_pass_and_json(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "1", "--space", "P", "--max-degree", "8")
    assert code == 0
    assert out.startswith("theorem 1 over P: PASS")
    code, out, _ = run(
        capsys, "verify", "--theorem", "3", "--space", "P", "--max-degree", "4",
        "--max-length", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"theorem", "space", "bounds", "checked", "failures", "excluded", "millis"}
    assert payload["failures"] == []


def test_verify_requires_degree_for_numbered_theorems(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "2", "--space", "P"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_bases_above_the_limit_are_refused(capsys):
    # degree 27 over P is the first above the limit, at caps 2 and 3
    assert basis_dimension(RealProj(), 26, 3) <= MAX_BASIS_DIM < basis_dimension(RealProj(), 27, 2)
    for command in ("basis", "annihilated", "primitives", "sieve"):
        code, out, err = run(capsys, command, "--space", "P", "--degree", "27")
        assert (code, out) == (2, "")
        assert err == (
            "error: the monomial basis of P in degree 27 at length cap 2 has "
            f"136267 elements, above the limit of {MAX_BASIS_DIM}\n"
        )
    for theorem in ("2", "3", "root"):
        code, out, err = run(
            capsys, "verify", "--theorem", theorem, "--space", "P",
            "--max-degree", "27", "--max-length", "3",
        )
        assert (code, out) == (2, "")
        assert "in degree 27 at length cap 3 has 136746 elements" in err
    # theorem 1 checks words one at a time and builds no monomial basis
    code, out, err = run(
        capsys, "verify", "--theorem", "1", "--space", "P", "--max-degree", "27", "--max-length", "3"
    )
    assert (code, err) == (0, "")
    assert out.startswith("theorem 1 over P: PASS (checked 315, excluded 0, ")


def test_bad_expression_is_a_usage_error(capsys):
    code, _, err = run(capsys, "act", "--sq", "1", "Q^2 (a1 + a3)")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "expr",
    ["(" * 1000 + "a1" + ")" * 1000, "Q^" + "9" * 5000 + " a1"],
    ids=("nested", "long-number"),
)
def test_boundary_expressions_are_refused_in_one_line(capsys, expr):
    code, out, err = run(capsys, "normalize", expr)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_long_chain_of_operations_normalizes(capsys):
    assert run(capsys, "normalize", "Q^1 " * 5000 + "a1") == (0, "0\n", "")


def test_bad_space_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--space", "X5", "--degree", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cache_option_is_gone(tmp_path, capsys):
    # `basis` takes no cache directory: `--cache DIR` is an unknown
    # argument, refused before any work and without touching DIR
    cache = tmp_path / "c"
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--space", "P", "--degree", "6", "--cache", str(cache)])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "error: unrecognized arguments: --cache" in err
    assert list(tmp_path.iterdir()) == []


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qhk.cli", "normalize", "Q^1 a1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "a1^2\n"


@pytest.mark.parametrize(
    "argv",
    [["basis", "--space", "P", "--degree", "14"], ["normalize", "Q^6 Q^2 a1 + a1^5"]],
    ids=("basis", "normalize"),
)
def test_a_closed_pipe_ends_the_command_quietly(argv):
    # the reader has gone before the first write: exit 141 (128 + SIGPIPE),
    # apart from 1 (FAIL) and 2 (rejected input), and nothing on stderr
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qhk.cli", *argv], stdout=w, stderr=subprocess.PIPE
        )
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_a_reader_that_stops_after_one_line():
    # `qhk basis --space P --degree 20 | head -1`: the 208 kB listing
    # overfills the pipe, so the writer is still writing when the reader
    # closes
    with subprocess.Popen(
        [sys.executable, "-m", "qhk.cli", "basis", "--space", "P", "--degree", "20"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        status = proc.wait(timeout=120)
        err = proc.stderr.read()
    assert first == b"Q^12 Q^7 a1\n"
    assert (status, err) == (141, b"")


# SHA-256 of the `annihilated`, `primitives` and `sieve` JSON listings over P
# at cap 2, concatenated in that order.  Kernel bases do not depend on how
# the image columns are numbered or on the hash seed, so these bytes are fixed.
LISTING_DIGESTS = {
    1: "48cb44d876aefd1ae808c8d8d2bc1fad18c662e54327ff5c0ca746a7a110862d",
    2: "8da65644d6ad8750865aa85c95340371e8cda7d2cbf7488f2c6293736eaf423a",
    3: "239da686bf463ae96ffd74f9f4c65fee86ba20e5409e3f14d3a24dd472fe8e96",
    4: "6f87b0472f6c485a182270d16a2ea871bc94e296148f38bbffbbc0e5e63f77b2",
    5: "547121f8aae002169b3c2cc960d52f1c7eedfafdb0d5a6994879a338a24f7080",
    6: "6e69d9b7ddea14eed7e8ca1ff68ab665c3c29136f6fb75f04987d1bc47b7e445",
    7: "796265d9ae3155c7df01bdd1a7ac847f58f98d505028b3afbec9fade46e1c6e4",
    8: "913ac7a2e7d27b98ccc90b3afedf16dfacfd34a4c2d900c2fd112e49b25492b1",
    9: "682bc4c8cd35138280b7fa56d006632ce084c2d0d33c3b2821db988bfcb0963e",
    10: "b3cfd7f1f3e65ae707b8a22d115bf9504ac86a5b885933c71f9adc44dbd25fad",
}


@pytest.mark.parametrize("degree", sorted(LISTING_DIGESTS))
def test_subspace_listings_are_byte_stable(capsys, degree):
    text = ""
    for command in ("annihilated", "primitives", "sieve"):
        code, out, _ = run(
            capsys, command, "--space", "P", "--degree", str(degree),
            "--max-length", "2", "--format", "json",
        )
        assert code == 0
        text += out
    assert hashlib.sha256(text.encode()).hexdigest() == LISTING_DIGESTS[degree]


LISTED = {
    "basis": lambda *bounds: [frozenset({m}) for m in monomial_basis(*bounds)],
    "annihilated": annihilated_subspace,
    "primitives": primitive_subspace,
    "sieve": spherical_candidates,
}


@pytest.mark.parametrize("space", ["P", "S1", "S2", "SCP", "P^s1", "SCP^s1"])
def test_streamed_listings_match_the_whole_payload(capsys, space):
    # a listing is written one element at a time; its bytes are those of
    # the whole payload written at once, and of format_element line by line
    dims = set()
    for command, subspace in LISTED.items():
        for cap in (2, 3):
            for degree in range(1, 11):
                elements = subspace(parse_space(space), degree, cap)
                dims.add(len(elements))
                argv = (command, "--space", space, "--degree", str(degree), "--max-length", str(cap))
                payload = {
                    "space": space,
                    "degree": degree,
                    "max_length": cap,
                    "dimension": len(elements),
                    "basis": [element_to_json(el) for el in elements],
                }
                assert run(capsys, *argv, "--format", "json") == (
                    0, json.dumps(payload, indent=2) + "\n", ""
                ), argv
                lines = "".join(format_element(el) + "\n" for el in elements)
                assert run(capsys, *argv) == (0, lines, ""), argv
    assert 0 in dims


def test_indented_json_writer_matches_json_dumps(capsys, monkeypatch):
    # every JSON the CLI prints is json.dumps(..., indent=2) of its payload:
    # listings (some of dimension 0), elements (the zero element too) and
    # verifier reports (with and without failures)
    texts = []
    for command in ("basis", "annihilated", "primitives", "sieve"):
        for degree in (1, 3, 5, 6):
            code, out, _ = run(
                capsys, command, "--space", "P", "--degree", str(degree), "--format", "json"
            )
            texts.append(out)
    for expr in ("Q^9 Q^5 g1", "Q^1 a2", "a1 + a1"):
        code, out, _ = run(capsys, "normalize", "--format", "json", expr)
        texts.append(out)
    code, out, _ = run(capsys, "act", "--format", "json", "--sq", "1", "a1^2")
    texts.append(out)
    code, out, _ = run(
        capsys, "verify", "--theorem", "3", "--space", "P", "--max-degree", "5", "--format", "json"
    )
    texts.append(out)
    payloads = [json.loads(t) for t in texts]
    assert {"terms": []} in payloads
    assert any(p.get("dimension") == 0 for p in payloads)
    for text, payload in zip(texts, payloads):
        assert text == json.dumps(payload, indent=2) + "\n"
    # a failing report whose strings json escapes: quotes, a backslash, a
    # tab and non-ASCII characters, written as \u escapes
    failures = ['a "quoted" failure', "caf\u00e9 \\ tab\t \u2603 \U0001f600"]
    report = VerifyReport("3", "P", {"max_degree": 5, "max_length": 2}, 7, failures, ["x"], 3)
    monkeypatch.setattr(qhk.cli, "run_verifier", lambda *args: report)
    code, out, _ = run(
        capsys, "verify", "--theorem", "3", "--space", "P", "--max-degree", "5", "--format", "json"
    )
    assert code == 1
    assert out.isascii() and json.loads(out)["failures"] == failures
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_one_parser_serves_every_call(capsys):
    # the argument parser is built once per process; a usage error on one
    # call leaves nothing behind that changes the next call's output
    argv = ["sieve", "--space", "P", "--degree", "6", "--format", "json"]
    before = _parser.cache_info()
    for command in ("basis", "annihilated", "primitives", "sieve"):
        code, _, _ = run(capsys, command, "--space", "S1", "--degree", "4")
        assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "2", "--space", "P"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, *argv)
    assert code == 0
    after = _parser.cache_info()
    assert after.misses == 1
    assert after.hits + after.misses == before.hits + before.misses + 6
    proc = subprocess.run(
        [sys.executable, "-m", "qhk.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert out == proc.stdout


# The paper's upper bound on the spherical classes, degree by degree: the
# basis, annihilated, primitive and sieve dimensions that the README's table
# lists, as counted from the text listings (one element per line)
_UPPER_BOUND_TABLE = {
    ("P", 3): (
        [1, 2, 4, 7, 12, 21, 35, 57, 93, 149, 235, 369],
        [1, 1, 3, 4, 4, 8, 14, 23, 32, 53, 76, 95],
        [1, 1, 2, 2, 3, 3, 5, 4, 6, 6, 8, 7],
        [1, 1, 1, 2, 0, 1, 1, 3, 1, 1, 0, 1],
    ),
    ("S1", 4): (
        [1, 1, 2, 3, 4, 6, 9, 12, 17, 24, 32, 44, 60, 80, 108, 144, 189, 250, 330, 430],
        [1, 1, 1, 2, 2, 2, 2, 4, 6, 7, 8, 11, 13, 14, 15, 22, 30, 41, 52, 66],
        [1, 1, 1, 2, 1, 2, 2, 3, 2, 3, 2, 4, 3, 4, 4, 6, 3, 5, 5, 6],
        [1, 1, 0, 2, 0, 0, 0, 3, 1, 0, 0, 0, 0, 0, 0, 4, 1, 1, 1, 0],
    ),
}


@pytest.mark.parametrize("space, cap", list(_UPPER_BOUND_TABLE), ids=("P", "S1"))
def test_the_upper_bound_table_prefix(capsys, space, cap):
    counts = []
    for command in ("basis", "annihilated", "primitives", "sieve"):
        column = []
        for degree in range(1, len(_UPPER_BOUND_TABLE[space, cap][0]) + 1):
            code, out, _ = run(
                capsys, command, "--space", space, "--degree", str(degree), "--max-length", str(cap)
            )
            assert code == 0
            column.append(len(out.splitlines()))
        counts.append(column)
    assert tuple(counts) == _UPPER_BOUND_TABLE[space, cap]
    # the basis column is also the predicted dimension of the size guard
    degrees = range(1, len(counts[0]) + 1)
    assert counts[0] == [basis_dimension(parse_space(space), d, cap) for d in degrees]
