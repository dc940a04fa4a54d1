"""Command-line interface: outputs, formats, exit codes, error paths."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hopfrep import prop_h
from hopfrep.cli import run


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def z2_file(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"generators": ["a"], "relators": ["a^2"]}))
    return str(path)


@pytest.fixture()
def f2_file(tmp_path):
    path = tmp_path / "f2.json"
    path.write_text(json.dumps({"generators": ["a", "b"], "relators": []}))
    return str(path)


@pytest.fixture()
def abelian_lie_file(tmp_path):
    path = tmp_path / "ab2.json"
    path.write_text(json.dumps({"generators": ["a", "b"], "relators": ["[a,b]"]}))
    return str(path)


def test_axioms_all_pass():
    code, out, err = invoke("axioms")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS") for line in lines)


def test_axioms_json():
    code, out, _ = invoke("--format", "json", "axioms")
    payload = json.loads(out)
    assert code == 0
    assert payload["all_hold"] is True
    assert [a["number"] for a in payload["axioms"]] == list(range(1, 11))


def test_normalize():
    code, out, _ = invoke("normalize", "--term", "mu . tau")
    assert code == 0
    assert out == "[2]->[1]: (x2 x1)\n"


def test_normalize_json():
    code, out, _ = invoke("--format", "json", "normalize", "--term", "delta")
    assert json.loads(out) == {"dom": 1, "cod": 2, "words": ["x1", "x1"]}


def test_reduce():
    code, out, _ = invoke("reduce", "--n", "2", "--word", "x1 x2 x1^-1")
    assert code == 0
    assert out == "(x1 x2) - (x2 x1)\n"
    code, out, _ = invoke("reduce", "--n", "1", "--word", "x1^2")
    assert out == "2*(x1)\n"
    code, out, _ = invoke("reduce", "--n", "1", "--word", "e")
    assert out == "0\n"
    code, out, _ = invoke("reduce", "--n", "1", "--word", "x1^2000")
    assert code == 0
    assert out == "2000*(x1)\n"


def test_rep_count(z2_file):
    code, out, _ = invoke("rep-count", "--group", z2_file, "--finite", "sym:3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "4"
    assert len(lines) == 5
    assert lines[1] == "a=e"


def test_rep_count_json(z2_file):
    code, out, _ = invoke(
        "--format", "json", "rep-count", "--group", z2_file, "--finite", "sym:3"
    )
    payload = json.loads(out)
    assert payload["count"] == 4
    assert payload["points"][0] == [0]


def test_rep_ideal_with_groebner(z2_file):
    code, out, _ = invoke(
        "--format",
        "json",
        "rep-ideal",
        "--group",
        z2_file,
        "--target",
        "torus:1",
        "--groebner",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["variables"] == ["z1", "t1"]
    assert payload["ideal"] == ["z1*t1 - 1", "z1^2 - 1"]
    assert payload["groebner_basis"] == ["t1^2 - 1", "z1 - t1"]


def test_lie_rep_ideal(abelian_lie_file):
    code, out, _ = invoke(
        "lie-rep-ideal", "--source", abelian_lie_file, "--target", "sl2"
    )
    assert code == 0
    assert "variables: y1_1 y1_2 y1_3 y2_1 y2_2 y2_3" in out
    assert "relator:0:component:3" in out


def test_cotangent():
    for spec, dim in (("sl:2", 3), ("gl:2", 4), ("torus:1", 1), ("ga", 1)):
        code, out, _ = invoke("cotangent", "--target", spec)
        assert code == 0
        assert out == f"dimension: {dim}\n"


@pytest.mark.parametrize(
    "delta, antipode, counit, message",
    [
        ("u' + 2*u''", "-2*u", 0, "antipode axiom fails at u"),  # x.S(x) = -3x
        ("u' + u''", "1 - u", 1, "counit axiom fails at u"),  # e.x = 1 + x
    ],
)
def test_a_target_that_breaks_the_group_law_exits_two(tmp_path, delta, antipode, counit, message):
    path = tmp_path / "line.json"
    target = {"variables": ["u"], "counit": {"u": counit}, "delta": {"u": delta}}
    path.write_text(json.dumps(dict(target, antipode={"u": antipode})))
    code, out, err = invoke("cotangent", "--target", str(path))
    assert (code, out, err) == (2, "", f"error: custom: {message}\n")


def test_invariance(f2_file):
    code, out, _ = invoke(
        "invariance", "--word", "a b", "--group", f2_file, "--target", "sl:2"
    )
    assert code == 0
    assert out == "invariant: true\n"


@pytest.mark.parametrize("target", ["sl:2", "gl:2", "torus:1"])
def test_invariance_on_the_trivial_group(tmp_path, target):
    # The trace of the empty word is a constant, so it is invariant.
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({"generators": [], "relators": []}))
    code, out, err = invoke("invariance", "--word", "e", "--group", str(path), "--target", target)
    assert (code, out, err) == (0, "invariant: true\n", "")


def test_input_errors_exit_two(tmp_path, z2_file):
    cases = [
        ("normalize", "--term", "mu . ("),
        ("normalize", "--term", "mu . mu"),
        ("reduce", "--n", "2", "--word", "q1"),
        ("rep-count", "--group", str(tmp_path / "missing.json"), "--finite", "sym:3"),
        ("rep-count", "--group", z2_file, "--finite", "sym:99"),
        ("cotangent", "--target", "mystery"),
        ("rep-ideal", "--group", z2_file, "--target", "ga"),  # no matrix shape
    ]
    for argv in cases:
        code, out, err = invoke(*argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


@pytest.mark.parametrize("argv", [["--help"], ["rep-ideal", "--help"]])
def test_help_is_printed_on_the_given_stream(argv, capsys):
    code, out, err = invoke(*argv)
    assert code == 0 and out.startswith("usage: hopfrep") and err == ""
    assert capsys.readouterr() == ("", "")


def test_help_through_the_console_entry_point_exits_zero(monkeypatch, capsys):
    from hopfrep.cli import main

    monkeypatch.setattr(sys, "argv", ["hopfrep", "--help"])
    with pytest.raises(SystemExit) as caught:
        main()
    assert caught.value.code == 0 and capsys.readouterr().out.startswith("usage: hopfrep")


def test_cyclic_order_past_the_cap_exits_two(z2_file):
    code, out, err = invoke("rep-count", "--group", z2_file, "--finite", "cyclic:721")
    assert (code, out) == (2, "")
    assert err == "error: cyclic group supported for 1 <= k <= 720\n"


def test_abelian_dimension_past_the_cap_exits_two(abelian_lie_file):
    code, out, err = invoke("lie-rep-ideal", "--source", abelian_lie_file, "--target", "abelian:9")
    assert (code, out) == (2, "")
    assert err == "error: abelian Lie algebra supported for 0 <= d <= 8\n"


def test_torus_rank_past_the_cap_exits_two():
    code, out, err = invoke("cotangent", "--target", "torus:9")
    assert (code, out, err) == (2, "", "error: torus supported for 1 <= k <= 8\n")
    assert invoke("cotangent", "--target", "torus:8")[:2] == (0, "dimension: 8\n")


def test_sizes_past_the_limit_exit_two(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"generators": ["a"], "relators": ["a^100000000000"]}))
    long = "9" * 5000  # more digits than int() reads under its default limit
    for argv, message in (
        (("reduce", "--n", "1", "--word", "x1^100000000000"), "'x1^100000000000' makes the word"),
        (("rep-count", "--group", str(path), "--finite", "cyclic:2"), "'a^100000000000' makes the word"),
        (("reduce", "--n", "100000000000", "--word", "x1"), "--n 100000000000 is outside 0..1000000"),
        (("normalize", "--term", "mu . id:10000000"), "column 6: 'id:10000000' is wider than 1000000"),
        (("reduce", "--n", "2", "--word", f"x1^{long} x2"), f"'x1^{long}' makes the word longer"),
        (("normalize", "--term", f"id:{long}"), f"column 1: 'id:{long}' is wider than 1000000"),
    ):
        code, out, err = invoke(*argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


_CAPPED = 'group JSON: "{}" has a polynomial of degree over 1000000'


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("ideal", ["u^100000000000 - 1"], _CAPPED.format("ideal")),
        ("delta", {"u": "u'^1000001"}, _CAPPED.format("delta")),
        ("antipode", {"u": "u^1000000 * u"}, _CAPPED.format("antipode")),
        ("matrix", [["u^1000001"]], _CAPPED.format("matrix")),
        # No polynomial holds this degree; the reader names the key all the same.
        ("ideal", [f"u^{2**64}"], _CAPPED.format("ideal")),
    ],
)
def test_a_target_polynomial_past_the_degree_cap_exits_two(tmp_path, key, value, message):
    # With counit 2, checking the counit once computed 2^(10^11) exactly.
    path = tmp_path / "power.json"
    target = {"variables": ["u"], "counit": {"u": 2}, "delta": {"u": "u'*u''"}, "antipode": {"u": "u"}}
    path.write_text(json.dumps({**target, key: value}))
    start = time.perf_counter()
    code, out, err = invoke("cotangent", "--target", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_target_polynomial_at_the_degree_cap_is_read(tmp_path):
    path = tmp_path / "power.json"
    target = {"variables": ["u"], "ideal": ["u^1000000 - 1"], "counit": {"u": 1}}
    path.write_text(json.dumps({**target, "delta": {"u": "u'*u''"}, "antipode": {"u": "u^999999"}}))
    assert invoke("cotangent", "--target", str(path)) == (0, "dimension: 0\n", "")


_OVER_BITS = 'group JSON: "counit" makes a term of "{}" over 2000000 bits'


@pytest.mark.parametrize(
    "key, value, counit, message",
    [
        # 10^64 takes 213 bits and its denominator 1: 214 bits a degree.
        ("ideal", ["u^100000 - 1"], 10**64, _OVER_BITS.format("ideal")),
        ("ideal", ["u^9346 - 1"], 10**64, _OVER_BITS.format("ideal")),
        ("ideal", ["u^9345 - 1"], 10**64, "custom: counit is not a zero of generator u^9345 - 1"),
        ("delta", {"u": "u'^9346 * u''"}, 10**64, _OVER_BITS.format("delta")),
        ("matrix", [["u^9346"]], 10**64, _OVER_BITS.format("matrix")),
        # -2/3 takes 2 bits and 2 more for its denominator.
        ("ideal", ["u^500001"], "-2/3", _OVER_BITS.format("ideal")),
        ("ideal", ["u^500000"], "-2/3", "custom: counit is not a zero of generator u^500000"),
    ],
)
def test_a_target_term_too_large_at_the_counit_exits_two(tmp_path, key, value, counit, message):
    # Evaluating u^100000 - 1 at 10^64 once took about 7 s before the refusal.
    path = tmp_path / "counit.json"
    target = {"variables": ["u"], "counit": {"u": counit}, "delta": {"u": "u'*u''"}, "antipode": {"u": "u"}}
    path.write_text(json.dumps({**target, key: value}))
    start = time.perf_counter()
    code, out, err = invoke("cotangent", "--target", str(path))
    if message.startswith("group JSON"):
        assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("reader", ["Lie relator", "target ideal"])
def test_a_5000_digit_number_is_named_at_its_column(tmp_path, z2_file, reader):
    long, path = "9" * 5000, tmp_path / "long.json"
    if reader == "Lie relator":
        path.write_text(json.dumps({"generators": ["a"], "relators": [f"{long}*a"]}))
        argv, column = ("lie-rep-ideal", "--source", str(path), "--target", "sl2"), 1
    else:
        path.write_text(json.dumps(dict(TORUS_JSON, ideal=["z*w - 1", f"z^{long}"])))
        argv, column = ("rep-ideal", "--group", z2_file, "--target", str(path)), 3
    code, out, err = invoke(*argv)
    try:
        int(long)
    except ValueError:  # the interpreter limits int() to fewer digits
        assert (code, out) == (2, "")
        assert err == f"error: column {column}: a number of 5000 characters is too long\n"
    else:
        assert code == 0 or (code, out) == (2, "") and err.count("\n") == 1


def test_term_wider_than_the_limit_exits_two(monkeypatch):
    # The limit is lowered so that no test builds 10^6 words.
    from hopfrep import prop_h

    monkeypatch.setattr(prop_h, "SIZE_LIMIT", 4)
    assert invoke("normalize", "--term", "id:2 * id:2")[0] == 0
    code, out, err = invoke("normalize", "--term", "id:4 * id:4 * id:4 * id:4")
    assert (code, out, err) == (2, "", "error: a tensor of width 8 is more than 4\n")


def test_a_type_fault_is_named_before_a_later_unknown_symbol():
    # Terms are typed as they are built, so the composite is refused before ``foo`` is read.
    for term in ("mu . mu", "(mu . mu) * foo"):
        code, out, err = invoke("normalize", "--term", term)
        assert (code, out, err) == (2, "", "error: cannot compose [2]->[1] with [2]->[1]\n")


@pytest.mark.parametrize("groebner", [[], ["--groebner"]], ids=["plain", "groebner"])
def test_unknown_order_exits_two_before_reading_inputs(tmp_path, groebner):
    # The group file does not exist: the order is checked first.
    argv = ["rep-ideal", "--group", str(tmp_path / "missing.json"), "--target", "sl:2"]
    code, out, err = invoke(*argv, *groebner, "--order", "deglex")
    assert (code, out) == (2, "")
    assert err == "error: argument --order: invalid choice: 'deglex' (choose from 'grevlex', 'lex')\n"


def test_missing_presentation_key_is_named(tmp_path):
    path = tmp_path / "nogens.json"
    path.write_text(json.dumps({"relators": []}))
    for argv in (
        ("rep-count", "--group", str(path), "--finite", "sym:3"),
        ("lie-rep-ideal", "--source", str(path), "--target", "sl2"),
    ):
        code, out, err = invoke(*argv)
        assert code == 2, argv
        assert err == 'error: presentation JSON: missing key "generators"\n', argv


_ZERO_CUBE = [[[0] * 3] * 3] * 3


@pytest.mark.parametrize(
    "basis, constants, message",
    [  # the ids are those the test had before it took the constants too
        pytest.param(
            ["e"], _ZERO_CUBE, "basis must have 3 names, not 1",
            id="basis0-basis must have 3 names, not 1",
        ),
        pytest.param(
            ["e", "f", "e"], _ZERO_CUBE, "basis repeats 'e'", id="basis1-basis repeats 'e'"
        ),
        pytest.param(
            ["e", "f"], [[[0] * 2] * 2, [[0] * 3] * 2], "constants must form a d x d x d array",
            id="basis2-constants must form a d x d x d array",
        ),
    ],
)
def test_lie_basis_is_checked_against_the_constants(
    tmp_path, abelian_lie_file, basis, constants, message
):
    path = tmp_path / "basis.json"
    path.write_text(json.dumps({"basis": basis, "constants": constants}))
    code, out, err = invoke("lie-rep-ideal", "--source", abelian_lie_file, "--target", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: Lie JSON: {message}\n"


def test_missing_lie_constants_key_is_named(tmp_path, abelian_lie_file):
    path = tmp_path / "noconstants.json"
    path.write_text(json.dumps({"basis": ["e1"]}))
    code, out, err = invoke("lie-rep-ideal", "--source", abelian_lie_file, "--target", str(path))
    assert code == 2
    assert err == 'error: Lie JSON: missing key "constants"\n'


@pytest.mark.parametrize(
    "spec, kind",
    [
        *[(spec, "group") for spec in ("gl:x", "gl:", "sl: 3", "sl:+3", "torus:")],
        *[(spec, "finite group") for spec in ("cyclic:zz", "cyclic: 4", "sym:")],
        ("abelian:q", "Lie"),
        # '' is no path (not the working directory), int() refuses a k of more
        # than 4,300 digits, and a name can be too long for the file system.
        *[pytest.param("", kind, id=f"empty-{kind}") for kind in ("group", "finite group", "Lie")],
        *[
            pytest.param(family + "9" * 5000, kind, id=f"{family}5000-digits-{kind}")
            for family, kind in (("sl:", "group"), ("cyclic:", "finite group"), ("abelian:", "Lie"))
        ],
        pytest.param("x" * 5000, "group", id="5000-character-name-group"),
    ],
)
def test_a_malformed_shipped_spec_exits_two(spec, kind, z2_file, abelian_lie_file):
    command = {
        "group": ("cotangent", "--target"),
        "finite group": ("rep-count", "--group", z2_file, "--finite"),
        "Lie": ("lie-rep-ideal", "--source", abelian_lie_file, "--target"),
    }[kind]
    assert invoke(*command, spec) == (2, "", f"error: unknown {kind} spec {spec!r}\n")


def test_missing_finite_table_key_is_named(tmp_path, z2_file):
    path = tmp_path / "notable.json"
    path.write_text(json.dumps({"names": ["e"]}))
    code, out, err = invoke("rep-count", "--group", z2_file, "--finite", str(path))
    assert code == 2
    assert err == 'error: finite group JSON: missing key "table"\n'


@pytest.mark.parametrize(
    "term, expected",
    [
        (" . ".join(["id:1"] * 3000), "[1]->[1]: (x1)\n"),
        ("(" * 3000 + "mu . tau" + ")" * 3000, "[2]->[1]: (x2 x1)\n"),
    ],
    ids=["chained", "parenthesized"],
)
def test_deep_terms_are_answered(term, expected):
    assert invoke("normalize", "--term", term) == (0, expected, "")


def _nested_brackets(depth):
    relator = "b"
    for _ in range(depth):
        relator = f"[a,{relator}]"
    return relator


@pytest.mark.parametrize(
    "relator, target, last",
    [
        (_nested_brackets(3000), "abelian:2", "g1 [relator:0:component:2]: 0"),
        (
            "(" * 3000 + "[a,b] - 2*[b,a]" + ")" * 3000,
            "sl2",
            "g2 [relator:0:component:3]: -3*y1_2*y2_1 + 3*y1_1*y2_2",
        ),
    ],
    ids=["brackets", "parenthesized"],
)
def test_deep_lie_relators_are_answered(tmp_path, relator, target, last):
    path = tmp_path / "deep_lie.json"
    path.write_text(json.dumps({"generators": ["a", "b"], "relators": [relator]}))
    code, out, err = invoke("lie-rep-ideal", "--source", str(path), "--target", target)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == last


def test_rep_count_on_many_generators_is_answered(tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"generators": [f"x{i}" for i in range(3000)]}))
    code, out, err = invoke("rep-count", "--group", str(path), "--finite", "cyclic:1")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["1", " ".join(f"x{i}=g^0" for i in range(3000))]


def test_deeply_nested_json_exits_two_with_one_line(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = invoke("rep-count", "--group", str(path), "--finite", "cyclic:1")
    assert (code, out) == (2, "")
    assert err == f"error: {path}: JSON nests too deeply\n"


@pytest.mark.parametrize("reader", ["Lie constants", "group counit", "unused presentation key"])
def test_a_5000_digit_json_number_names_the_file(tmp_path, z2_file, abelian_lie_file, reader):
    long, path = "9" * 5000, tmp_path / "long.json"
    if reader == "Lie constants":
        text = '{"constants": [[[%s]]]}' % long
        argv = ("lie-rep-ideal", "--source", abelian_lie_file, "--target", str(path))
    elif reader == "group counit":
        text = json.dumps(dict(TORUS_JSON, counit={"z": 0, "w": "1"}))
        text = text.replace('"z": 0', f'"z": {long}')
        argv = ("cotangent", "--target", str(path))
    else:
        text = '{"generators": ["a"], "relators": ["a^2"], "note": %s}' % long
        argv = ("rep-count", "--group", str(path), "--finite", "cyclic:2")
    path.write_text(text)
    code, out, err = invoke(*argv)
    try:
        int(long)
    except ValueError:  # the interpreter limits int() to fewer digits
        assert (code, out, err) == (2, "", f"error: {path}: a number is too long\n")
    else:
        assert code == 0 or (code, out) == (2, "") and err.count("\n") == 1


def test_missing_group_json_entry_is_named(tmp_path, z2_file):
    path = tmp_path / "units.json"
    path.write_text(
        json.dumps(
            {
                "variables": ["z", "w"],
                "ideal": ["z*w - 1"],
                "counit": {"z": "1", "w": "1"},
                "delta": {"z": "z'*z''"},
                "antipode": {"z": "w", "w": "z"},
            }
        )
    )
    code, out, err = invoke("rep-ideal", "--group", z2_file, "--target", str(path))
    assert code == 2
    assert err == """error: group JSON: "delta" has no entry for variable 'w'\n"""


# A custom SL(2) whose matrix entry 2*b is not a bare coordinate: conjugation
# must still move b, so the trace of a b stays invariant.
SCALED_SL2 = {
    "variables": ["a", "b", "c", "d"],
    "ideal": ["a*d - 2*b*c - 1"],
    "counit": {"a": 1, "b": 0, "c": 0, "d": 1},
    "delta": {
        "a": "a'*a'' + 2*b'*c''",
        "b": "a'*b'' + b'*d''",
        "c": "c'*a'' + d'*c''",
        "d": "2*c'*b'' + d'*d''",
    },
    "antipode": {"a": "d", "b": "-1*b", "c": "-1*c", "d": "a"},
    "matrix": [["a", "2*b"], ["c", "d"]],
    "antipode_matrix": [["d", "-2*b"], ["-1*c", "a"]],
}


def test_invariance_scaled_matrix_entries(tmp_path, f2_file):
    path = tmp_path / "scaled_sl2.json"
    path.write_text(json.dumps(SCALED_SL2))
    code, out, err = invoke(
        "invariance", "--word", "a b", "--group", f2_file, "--target", str(path)
    )
    assert (code, out, err) == (0, "invariant: true\n", "")


def test_closed_stdout_exits_quietly():
    # No reader at all: the first write hits a broken pipe.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hopfrep.cli", "axioms"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 141


def test_unknown_flags_rejected(z2_file):
    code, _, err = invoke("rep-count", "--group", z2_file, "--finite", "sym:3", "--nope")
    assert code == 2
    assert err.startswith("error:")


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"generators": ["a"],')
    code, _, err = invoke("rep-count", "--group", str(path), "--finite", "sym:3")
    assert code == 2
    assert "line" in err and "column" in err


def test_verbose_writes_to_stderr_only():
    code, out, err = invoke("--verbose", "normalize", "--term", "tau")
    assert code == 0
    assert out == "[2]->[2]: (x2; x1)\n"
    assert "normalize" in err


def test_repeated_runs_identical(z2_file):
    for argv in (
        ("axioms",),
        ("normalize", "--term", "mu . (id:1 * S) . delta"),
        ("reduce", "--n", "2", "--word", "x1 x2"),
        ("rep-count", "--group", z2_file, "--finite", "sym:3"),
        ("cotangent", "--target", "sl:2"),
    ):
        first = invoke(*argv)
        second = invoke(*argv)
        assert first == second


# The five options that read a JSON file, each with valid values for the
# other options: (argv before the file, argv after it).
FILE_OPTIONS = {
    "rep-ideal --group": (["rep-ideal", "--group"], ["--target", "sl:2"]),
    "rep-ideal --target": (["rep-ideal", "--group", "{z2}", "--target"], []),
    "rep-count --finite": (["rep-count", "--group", "{z2}", "--finite"], []),
    "lie-rep-ideal --source": (["lie-rep-ideal", "--source"], ["--target", "sl2"]),
    "lie-rep-ideal --target": (["lie-rep-ideal", "--source", "{ab2}", "--target"], []),
}

# name -> (file text, or None for no file; what the one error line must contain).
MALFORMED_FILES = {
    "number": ("5", "JSON: expected an object"),
    "string": ('"x"', "JSON: expected an object"),
    "list": ("[1]", "JSON: expected an object"),
    "truncated": ('{"generators": ["a"],', "{path}: line 1 column 22:"),
    "directory": (None, "{path}"),
    "missing": (None, "{path}"),
}


@pytest.mark.parametrize("content", sorted(MALFORMED_FILES))
@pytest.mark.parametrize("option", sorted(FILE_OPTIONS))
def test_malformed_input_file_exits_two_with_one_line(
    tmp_path, z2_file, abelian_lie_file, option, content
):
    path = tmp_path / f"{content}.json"
    text, expected = MALFORMED_FILES[content]
    if content == "directory":
        path.mkdir()
    elif text is not None:
        path.write_text(text)
    before, after = FILE_OPTIONS[option]
    before = [a.format(z2=z2_file, ab2=abelian_lie_file) for a in before]
    code, out, err = invoke(*before, str(path), *after)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert expected.format(path=path) in err


@pytest.mark.parametrize(
    "payload, key",
    [
        ({"generators": 5}, "generators"),
        ({"generators": ["a"], "relators": [5]}, "relators"),
        ({"generators": ["a"], "relators": "a^2"}, "relators"),
    ],
    ids=["generators-number", "relators-number-item", "relators-string"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ("rep-ideal", "--target", "sl:2", "--group"),
        ("rep-count", "--finite", "sym:3", "--group"),
        ("invariance", "--word", "a", "--target", "sl:2", "--group"),
        ("lie-rep-ideal", "--target", "sl2", "--source"),
    ],
    ids=lambda argv: argv[0],
)
def test_presentation_field_types_are_named(tmp_path, argv, payload, key):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(payload))
    code, out, err = invoke(*argv, str(path))
    assert code == 2
    assert err == f'error: presentation JSON: "{key}" must be a list of strings\n'


def test_rep_ideal_text_output_is_pinned(z2_file):
    code, out, err = invoke("rep-ideal", "--group", z2_file, "--target", "gl:2")
    assert (code, err) == (0, "")
    assert out == (
        "variables: x1_11 x1_12 x1_21 x1_22 t1\n"
        "g0 [copy_ideal:1]: -x1_12*x1_21*t1 + x1_11*x1_22*t1 - 1\n"
        "g1 [relator:0:entry:1,1]: x1_11^2 + x1_12*x1_21 - 1\n"
        "g2 [relator:0:entry:1,2]: x1_11*x1_12 + x1_12*x1_22\n"
        "g3 [relator:0:entry:2,1]: x1_11*x1_21 + x1_21*x1_22\n"
        "g4 [relator:0:entry:2,2]: x1_12*x1_21 + x1_22^2 - 1\n"
    )


def test_rep_ideal_with_inverse_letters_is_pinned(tmp_path):
    # The expected text was printed by commit 65fece1, before the polynomial
    # kernel skipped unit-coefficient products; inverse letters put the
    # antipode's -1 coefficients through every product of the pullback.
    path = tmp_path / "inverse.json"
    path.write_text(json.dumps({"generators": ["a", "b"], "relators": ["a b^-1 a^-1"]}))
    code, out, err = invoke("rep-ideal", "--group", str(path), "--target", "sl:3")
    assert (code, err) == (0, "")
    expected = Path(__file__).parent / "data" / "rep_ideal_inverse_letters_sl3.txt"
    assert out == expected.read_text()


def test_lie_rep_ideal_text_output_is_pinned(abelian_lie_file):
    code, out, err = invoke("lie-rep-ideal", "--source", abelian_lie_file, "--target", "sl2")
    assert (code, err) == (0, "")
    assert out == (
        "variables: y1_1 y1_2 y1_3 y2_1 y2_2 y2_3\n"
        "g0 [relator:0:component:1]: 2*y1_3*y2_1 - 2*y1_1*y2_3\n"
        "g1 [relator:0:component:2]: -2*y1_3*y2_2 + 2*y1_2*y2_3\n"
        "g2 [relator:0:component:3]: -y1_2*y2_1 + y1_1*y2_2\n"
    )


def test_verbose_prints_groebner_stats_and_keeps_stdout(z2_file):
    from hopfrep import alggroups, groups, polyalg, repvariety

    keys = (
        "pairs product_skips gm_skips reductions zero_reductions peak_divisors"
        " max_degree max_terms max_coeff_bits"
    ).split()
    for argv in (
        ("rep-ideal", "--group", z2_file, "--target", "sl:2", "--groebner"),
        ("invariance", "--word", "a", "--group", z2_file, "--target", "sl:2"),
    ):
        code, out, err = invoke(*argv)
        assert err == ""
        groups._build_shipped.cache_clear()
        loud_code, loud_out, loud_err = invoke("--verbose", *argv)
        assert (loud_code, loud_out) == (code, out)
        first, *lines = loud_err.splitlines()
        assert first == f"hopfrep: running {argv[0]}"
        # One basis validates the target, and one answers the command.
        assert len(lines) == 2, loud_err
        for line in lines:
            assert line.startswith("groebner grevlex, ")
            assert [pair.split("=")[0] for pair in line.split(": ")[1].split()] == keys
        # The validated target is reused, so a repeated call prints only the command's basis.
        assert invoke("--verbose", *argv)[2].splitlines() == [first, lines[-1]]
    ideal = repvariety.rep_ideal(
        groups.GroupPresentation.from_json(z2_file), alggroups.make_group("sl:2")
    ).ideal
    stats = polyalg.groebner(ideal).stats
    _, _, loud_err = invoke(
        "--verbose", "rep-ideal", "--group", z2_file, "--target", "sl:2", "--groebner"
    )
    assert loud_err.splitlines()[-1] == "groebner grevlex, 4 variables: " + " ".join(
        f"{k}={v}" for k, v in stats.items()
    )


def test_target_json_without_variables_exits_two(tmp_path, z2_file):
    path = tmp_path / "point.json"
    path.write_text(
        json.dumps(
            {
                "variables": [],
                "ideal": [],
                "counit": {},
                "delta": {},
                "antipode": {},
                "matrix": [["1"]],
            }
        )
    )
    code, out, err = invoke("rep-ideal", "--group", z2_file, "--target", str(path))
    assert (code, out) == (2, "")
    assert err == 'error: group JSON: "variables" must not be empty\n'


TORUS_JSON = {
    "variables": ["z", "w"],
    "ideal": ["z*w - 1"],
    "counit": {"z": "1", "w": "1"},
    "delta": {"z": "z'*z''", "w": "w'*w''"},
    "antipode": {"z": "w", "w": "z"},
    "matrix": [["z"]],
}
# The group of units again, as Z = z/2, T = w/2: a counit off the integers
# and a generator whose Jacobian at the counit has entries T and Z.
RATIONAL_COUNIT_JSON = {
    "variables": ["Z", "T"],
    "ideal": ["4*Z*T - 1"],
    "counit": {"Z": "1/2", "T": "1/2"},
    "delta": {"Z": "2*Z'*Z''", "T": "2*T'*T''"},
    "antipode": {"Z": "T", "T": "Z"},
}
SL2_LIE_CONSTANTS = [
    [[0, 0, 0], [0, 0, 1], [-2, 0, 0]],
    [[0, 0, -1], [0, 0, 0], [0, 2, 0]],
    [[2, 0, 0], [0, -2, 0], [0, 0, 0]],
]

# option -> (argv before the file, a valid payload); each case below breaks one field.
TYPED_OPTIONS = {
    "rep-ideal --target": (["rep-ideal", "--group", "{z2}", "--target"], TORUS_JSON),
    "rep-count --finite": (["rep-count", "--group", "{z2}", "--finite"], {"table": [[0]]}),
    "lie-rep-ideal --target": (
        ["lie-rep-ideal", "--source", "{ab2}", "--target"],
        {"constants": SL2_LIE_CONSTANTS},
    ),
}


TYPED_FIELDS = [
    ("rep-ideal --target", "variables", 5, "must be a list of strings"),
    ("rep-ideal --target", "ideal", "z*w - 1", "must be a list of strings"),
    ("rep-ideal --target", "matrix", ["z"], "must be a list of lists of strings"),
    ("rep-ideal --target", "counit", 5, "must map variables to numbers"),
    ("rep-ideal --target", "delta", {"z": 5, "w": "w'*w''"}, "must map variables to strings"),
    ("rep-ideal --target", "antipode", ["w", "z"], "must map variables to strings"),
    ("rep-count --finite", "table", 5, "must be a list of lists of integers"),
    ("rep-count --finite", "names", 5, "must be a list of strings"),
    ("lie-rep-ideal --target", "constants", 5, "must be a list of lists of lists of numbers"),
    ("lie-rep-ideal --target", "basis", "e f h", "must be a list of strings"),
]


@pytest.mark.parametrize(
    "option, field, value, message",
    TYPED_FIELDS,
    ids=[f"{option.split()[0]}-{field}" for option, field, _, _ in TYPED_FIELDS],
)
def test_input_file_field_types_are_named(
    tmp_path, z2_file, abelian_lie_file, option, field, value, message
):
    before, payload = TYPED_OPTIONS[option]
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(dict(payload, **{field: value})))
    before = [a.format(z2=z2_file, ab2=abelian_lie_file) for a in before]
    code, out, err = invoke(*before, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(f'JSON: "{field}" {message}\n'), err
    assert err.count("\n") == 1


@pytest.mark.parametrize("option", sorted(TYPED_OPTIONS))
def test_typed_option_payloads_are_valid(tmp_path, z2_file, abelian_lie_file, option):
    before, payload = TYPED_OPTIONS[option]
    path = tmp_path / "valid.json"
    path.write_text(json.dumps(payload))
    before = [a.format(z2=z2_file, ab2=abelian_lie_file) for a in before]
    code, out, err = invoke(*before, str(path))
    assert (code, err) == (0, "")


@pytest.mark.parametrize("variables", [["z", "z"], ["z", "t", "z"]])
def test_repeated_target_variable_is_named(tmp_path, z2_file, variables):
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(dict(TORUS_JSON, variables=variables)))
    code, out, err = invoke("rep-ideal", "--group", z2_file, "--target", str(path))
    assert (code, out) == (2, "")
    assert err == """error: group JSON: "variables" repeats 'z'\n"""


@pytest.mark.parametrize("name", ["a{b}", "2x", "x y", ""])
def test_unreadable_target_variable_is_named(tmp_path, z2_file, name):
    path = tmp_path / "unreadable.json"
    table = {name: 0}
    path.write_text(
        json.dumps({"variables": [name], "counit": table, "delta": table, "antipode": table})
    )
    code, out, err = invoke("rep-ideal", "--group", z2_file, "--target", str(path))
    assert (code, out) == (2, "")
    assert err == (
        f'error: group JSON: "variables" has {name!r}, which is not a polynomial variable name\n'
    )


@pytest.mark.parametrize("variables", [["u", "u'"], ["u'", "u"]])
def test_target_variables_whose_primed_copies_collide_are_named(tmp_path, z2_file, variables):
    path = tmp_path / "primed.json"
    path.write_text(
        json.dumps(
            {
                "variables": variables,
                "counit": {"u": 0, "u'": 0},
                "delta": {"u": "u' + u''", "u'": "u'' + u'''"},
                "antipode": {"u": "-u", "u'": "-u'"},
            }
        )
    )
    code, out, err = invoke("rep-ideal", "--group", z2_file, "--target", str(path))
    assert (code, out) == (2, "")
    assert err == "error: custom: variable u' is also the primed copy of u\n"


@pytest.mark.parametrize(
    "argv",
    [("rep-ideal", "--target", "sl:2", "--group"), ("lie-rep-ideal", "--target", "sl2", "--source")],
    ids=lambda argv: argv[0],
)
def test_repeated_generator_names_exit_two(tmp_path, argv):
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps({"generators": ["a", "a"], "relators": []}))
    code, out, err = invoke(*argv, str(path))
    assert (code, out, err) == (2, "", "error: generator names must be distinct\n")


@pytest.mark.parametrize("literal", ["1/0", "abc"])
def test_bad_counit_number_names_file_and_key(tmp_path, literal):
    path = tmp_path / "counit.json"
    path.write_text(json.dumps(dict(TORUS_JSON, counit={"z": literal, "w": "1"})))
    code, out, err = invoke("cotangent", "--target", str(path))
    assert (code, out) == (2, "")
    assert err == f"""error: group JSON {path}: "counit" holds {literal!r}, not a rational\n"""


@pytest.mark.parametrize("literal", ["1/0", "abc"])
def test_bad_lie_constant_names_file_and_key(tmp_path, abelian_lie_file, literal):
    path = tmp_path / "constants.json"
    path.write_text(json.dumps({"constants": [[[literal]]]}))
    code, out, err = invoke("lie-rep-ideal", "--source", abelian_lie_file, "--target", str(path))
    assert (code, out) == (2, "")
    assert err == f"""error: Lie JSON {path}: "constants" holds {literal!r}, not a rational\n"""


# Every command, with the zero-generator group for the edge lines a line
# printer could change ("1" then an empty line; "variables: " with its space).
PINNED_ARGV = {
    "axioms": ["axioms"],
    "normalize": ["normalize", "--term", "(mu * S) . (id:1 * tau) . (delta * id:1)"],
    "reduce": ["reduce", "--n", "3", "--word", "x1 x2 x3 x1^-1 x2^-1"],
    "reduce-bad-n": ["reduce", "--n", "-1", "--word", "e"],
    "rep-ideal": ["rep-ideal", "--group", "{z2}", "--target", "gl:2", "--groebner"],
    "rep-ideal-trivial": ["rep-ideal", "--group", "{trivial}", "--target", "sl:2"],
    "lie-rep-ideal": ["lie-rep-ideal", "--source", "{ab2}", "--target", "sl2"],
    "rep-count": ["rep-count", "--group", "{z2}", "--finite", "sym:3"],
    "rep-count-trivial": ["rep-count", "--group", "{trivial}", "--finite", "sym:3"],
    "cotangent": ["cotangent", "--target", "gl:2"],
    **{
        f"cotangent-{target.replace(':', '')}": ["cotangent", "--target", target]
        for target in (
            "sl:1", "sl:2", "sl:3", "gl:1", "gl:3", "ga",
            *(f"torus:{k}" for k in range(1, 9)),
        )
    },
    "cotangent-rational": ["cotangent", "--target", "{rational}"],
    **{
        f"lie-rep-ideal-two-{target.replace(':', '')}": [
            "lie-rep-ideal", "--source", "{lie2}", "--target", target
        ]
        for target in ("sl2", "abelian:0", "abelian:3")
    },
    "invariance": ["invariance", "--word", "a b a^-1", "--group", "{f2}", "--target", "sl:2"],
}

# (format, case) -> (exit code, stdout or "sha256:" and its digest), recorded
# at commit d133644, where each command chose its format itself; the
# cotangent targets past gl:2 and the two-relator Lie source at 425c5a9; the
# remaining shipped cotangent targets and the rational counit at 7344a06.
PINNED_OUTPUT = {
    ("text", "axioms"): (
        0,
        "sha256:67858b48cf001f05a19be165f45ff4c9a7591866505896e0ec68c152b8fe41c7",
    ),
    ("json", "axioms"): (
        0,
        "sha256:2f8c67a38396fcd98eecba7c2758db553f03390a7b45ef83cfdc672b0e1f3276",
    ),
    ("text", "normalize"): (0, "[2]->[2]: (x1 x2; x1^-1)\n"),
    ("json", "normalize"): (
        0,
        '{\n  "dom": 2,\n  "cod": 2,\n  "words": [\n    "x1 x2",\n    "x1^-1"\n  ]\n}\n',
    ),
    ("text", "reduce"): (0, "(x1 x2 x3) - (x1 x3 x2) - (x2 x3 x1) + (x3 x1 x2)\n"),
    ("json", "reduce"): (
        0,
        "sha256:6c3f312f66c40b2610b6be7dfb6e6b0ddef6b7f9acb63d0fa32f8e1ad9d657c6",
    ),
    ("text", "reduce-bad-n"): (2, ""),
    ("json", "reduce-bad-n"): (2, ""),
    ("text", "rep-ideal"): (
        0,
        "sha256:085b0a804440d2461d7e4de2469a8ce58d25bf1a92e052bb1d5118b7947c9ef7",
    ),
    ("json", "rep-ideal"): (
        0,
        "sha256:b633ddea3a42eeb9398ff6f4bb13cea87835443bd4a94d0e1565887659fdb635",
    ),
    ("text", "rep-ideal-trivial"): (0, "variables: \n"),
    ("json", "rep-ideal-trivial"): (
        0,
        '{\n  "variables": [],\n  "ideal": [],\n  "provenance": []\n}\n',
    ),
    ("text", "lie-rep-ideal"): (
        0,
        "sha256:f1ba06df2620c9448b52dca93f242d2f9d96f11b51822488e7cd74225b0c6f7c",
    ),
    ("json", "lie-rep-ideal"): (
        0,
        "sha256:ddc8dd025877e1f9fe16dd929a5aa475d37512baefaed16b956a540ea251bcfc",
    ),
    ("text", "rep-count"): (0, "4\na=e\na=(1 2)\na=(0 1)\na=(0 2)\n"),
    ("json", "rep-count"): (
        0,
        "sha256:5acfe6064765bffab1b5c398cab5e9c32c69a60c775bb295cbc1e186ff33a641",
    ),
    ("text", "rep-count-trivial"): (0, "1\n\n"),
    ("json", "rep-count-trivial"): (
        0,
        '{\n  "count": 1,\n  "points": [\n    []\n  ],\n  "point_names": [\n    []\n  ]\n}\n',
    ),
    ("text", "cotangent"): (0, "dimension: 4\n"),
    ("json", "cotangent"): (
        0,
        "sha256:de8e2ca14fb9246c75a67fb968d4436db3c2bd69221055f078c94fcdc007e307",
    ),
    ("text", "invariance"): (0, "invariant: true\n"),
    ("json", "invariance"): (0, '{\n  "word": "a b a^-1",\n  "invariant": true\n}\n'),
    ("text", "cotangent-sl1"): (0, "dimension: 0\n"),
    ("json", "cotangent-sl1"): (
        0,
        '{\n  "target": "sl:1",\n  "dimension": 0,\n  "variables": [\n    "x11"\n  ],\n'
        '  "kernel_basis": []\n}\n',
    ),
    ("text", "cotangent-sl3"): (0, "dimension: 8\n"),
    ("json", "cotangent-sl3"): (
        0,
        "sha256:62d288fe714f99905c4cbb8929a67023baa4ac1d21fe98f2e6067176d4bf8cb4",
    ),
    ("text", "cotangent-gl3"): (0, "dimension: 9\n"),
    ("json", "cotangent-gl3"): (
        0,
        "sha256:500b04e47008acaffc70ee7b7be6aa42f4abc1eba12cf0c9582e7245da6e73fb",
    ),
    ("text", "cotangent-torus2"): (0, "dimension: 2\n"),
    ("json", "cotangent-torus2"): (
        0,
        "sha256:69500942cdc01c5a902409ac8ac1230e2b915cdac2d4bb9edae82389988922eb",
    ),
    ("text", "cotangent-torus8"): (0, "dimension: 8\n"),
    ("json", "cotangent-torus8"): (
        0,
        "sha256:146fbbdc7ce74fc7544f61a111998300f11df5689d6e9d863daeaf23ce011fb8",
    ),
    ("text", "cotangent-ga"): (0, "dimension: 1\n"),
    ("json", "cotangent-ga"): (
        0,
        '{\n  "target": "ga",\n  "dimension": 1,\n  "variables": [\n    "u"\n  ],\n'
        '  "kernel_basis": [\n    [\n      "1"\n    ]\n  ]\n}\n',
    ),
    ("text", "cotangent-sl2"): (0, "dimension: 3\n"),
    ("json", "cotangent-sl2"): (
        0,
        "sha256:badd18931ded9c7dc3a90e7eb491cc7128e23d3d2584d714d131f216262822dd",
    ),
    ("text", "cotangent-gl1"): (0, "dimension: 1\n"),
    ("json", "cotangent-gl1"): (
        0,
        '{\n  "target": "gl:1",\n  "dimension": 1,\n  "variables": [\n    "x11",\n    "t"\n  ],\n'
        '  "kernel_basis": [\n    [\n      "-1",\n      "1"\n    ]\n  ]\n}\n',
    ),
    ("text", "cotangent-torus1"): (0, "dimension: 1\n"),
    ("json", "cotangent-torus1"): (
        0,
        '{\n  "target": "torus:1",\n  "dimension": 1,\n  "variables": [\n    "z",\n    "t"\n  ],\n'
        '  "kernel_basis": [\n    [\n      "-1",\n      "1"\n    ]\n  ]\n}\n',
    ),
    ("text", "cotangent-torus3"): (0, "dimension: 3\n"),
    ("json", "cotangent-torus3"): (
        0,
        "sha256:fde7eb903d850ca106c8a5611f73f413c0f1ffb5644ae0cef2c74e40cacfeb16",
    ),
    ("text", "cotangent-torus4"): (0, "dimension: 4\n"),
    ("json", "cotangent-torus4"): (
        0,
        "sha256:914520dbd2b8b1a4cecace7ac73bd820a6f05f272a48aff036f2cdd46177e0ee",
    ),
    ("text", "cotangent-torus5"): (0, "dimension: 5\n"),
    ("json", "cotangent-torus5"): (
        0,
        "sha256:b38796cf78ab660254fa05c3ba9beabcbf99e02c78537b98cd3491701e484d03",
    ),
    ("text", "cotangent-torus6"): (0, "dimension: 6\n"),
    ("json", "cotangent-torus6"): (
        0,
        "sha256:600cdc973e5d16e295a4ca49e62d1263a646fb6089c65732819fac4743649a43",
    ),
    ("text", "cotangent-torus7"): (0, "dimension: 7\n"),
    ("json", "cotangent-torus7"): (
        0,
        "sha256:c48c7477ad3876458c30013b7613d76bcf043afa861a1a272bb4d1ceefa34cac",
    ),
    ("text", "cotangent-rational"): (0, "dimension: 1\n"),
    ("json", "cotangent-rational"): (
        0,
        '{\n  "target": "custom",\n  "dimension": 1,\n  "variables": [\n    "Z",\n    "T"\n  ],\n'
        '  "kernel_basis": [\n    [\n      "-1",\n      "1"\n    ]\n  ]\n}\n',
    ),
    ("json", "lie-rep-ideal-two-sl2"): (
        0,
        "sha256:0c2ec0507ffd12f991448917635c8bb4cd197ce39ca6afa7f0d86eca0b5cd9f7",
    ),
    ("json", "lie-rep-ideal-two-abelian0"): (
        0,
        '{\n  "variables": [],\n  "ideal": [],\n  "provenance": []\n}\n',
    ),
    ("json", "lie-rep-ideal-two-abelian3"): (
        0,
        "sha256:9233fe3bfa8dccf4656d0c03ed9ad751d47fc0cfc94f1c117d1c10de00841d3b",
    ),
}


@pytest.mark.parametrize("fmt, case", sorted(PINNED_OUTPUT), ids="-".join)
def test_every_command_prints_its_pinned_bytes(
    tmp_path, z2_file, f2_file, abelian_lie_file, fmt, case
):
    trivial = tmp_path / "trivial.json"
    trivial.write_text(json.dumps({"generators": [], "relators": []}))
    lie2 = tmp_path / "lie2.json"
    lie2.write_text(json.dumps({"generators": ["a", "b"], "relators": ["[a,b]", "[a,[a,b]]"]}))
    rational = tmp_path / "rational.json"
    rational.write_text(json.dumps(RATIONAL_COUNIT_JSON))
    files = {
        "z2": z2_file,
        "f2": f2_file,
        "ab2": abelian_lie_file,
        "trivial": str(trivial),
        "lie2": str(lie2),
        "rational": str(rational),
    }
    argv = [a.format(**files) for a in PINNED_ARGV[case]]
    code, out, _ = invoke("--format", fmt, *argv)
    expected_code, expected = PINNED_OUTPUT[fmt, case]
    if expected.startswith("sha256:"):
        out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    assert (code, out) == (expected_code, expected)


def test_json_builds_no_text(monkeypatch):
    def refuse(_):
        raise AssertionError("a text line was built under --format json")

    monkeypatch.setattr(prop_h, "format_linhom", refuse)
    monkeypatch.setattr(prop_h, "format_hmorphism", refuse)
    assert invoke("--format", "json", "reduce", "--n", "2", "--word", "x1 x2")[0] == 0
    assert invoke("--format", "json", "normalize", "--term", "delta")[0] == 0
    with pytest.raises(AssertionError, match="text line"):
        invoke("reduce", "--n", "2", "--word", "x1 x2")
