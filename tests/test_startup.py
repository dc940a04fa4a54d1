"""What a fresh process loads: lazy package exports and per-command imports.

The suite's own process has imported every module (``conftest.py`` does),
so each check here runs in a fresh interpreter.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopfrep
from hopfrep.cli import run

SRC = Path(__file__).resolve().parent.parent / "src"

# Every name `hopfrep` exports, by the module it comes from.
EXPORTS = {
    "alggroups": (
        "LieAlgebraData", "LiePresentation", "PresentedCommHopf",
        "conjugation_substitution", "cotangent_at_identity", "make_group", "make_lie",
        "matrix_word", "trace_of_word",
    ),
    "groups": (
        "FiniteGroup", "FreeWord", "GroupPresentation", "enumerate_homs", "evaluate_word",
        "make_finite_group",
    ),
    "polyalg": ("GroebnerBasis", "Ideal", "Polynomial", "groebner", "ideal_member", "linear_kernel"),
    "prop_h": (
        "GroupAlgebraModel", "HMorphism", "LinHom", "TensorAlgebraModel", "compose_h",
        "eval_term", "generator_morphism", "hopf_action", "multilinear_reduce", "parse_term",
        "tensor_h", "verify_axioms",
    ),
    "repvariety": (
        "RepIdealPresentation", "check_observable_invariance", "check_trace_invariance",
        "finite_rep_algebra", "lie_rep_ideal", "rep_ideal",
    ),
}
POLYNOMIAL_LAYER = ("hopfrep.polyalg", "hopfrep.alggroups", "hopfrep.repvariety")


def _python(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        **kwargs,
    )


def _loaded_after(code: str) -> list[str]:
    """The `hopfrep` modules a fresh interpreter holds after running ``code``."""
    listing = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if 'hopfrep' in m)))"
    done = _python("-c", f"{code}\n{listing}")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture()
def inputs(tmp_path):
    files = {
        "z2": {"generators": ["a"], "relators": ["a^2"]},
        "f2": {"generators": ["a", "b"], "relators": []},
        "ab2": {"generators": ["a", "b"], "relators": ["[a,b]"]},
        # A JSON target is validated on every use, so `--verbose` prints the
        # same counters in and out of process; a shipped one is built once.
        "gl1": {
            "variables": ["z", "w"],
            "ideal": ["z*w - 1"],
            "counit": {"z": "1", "w": "1"},
            "delta": {"z": "z'*z''", "w": "w'*w''"},
            "antipode": {"z": "w", "w": "z"},
            "matrix": [["z"]],
        },
    }
    for name, payload in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    return tmp_path


# One invocation of each of the eight subcommands ({dir} is the input folder).
COMMANDS = {
    "axioms": ["--format", "json", "axioms"],
    "normalize": ["normalize", "--term", "mu . (id:1 * S) . delta"],
    "reduce": ["--format", "json", "reduce", "--n", "3", "--word", "x1 x2 x3 x1^-1"],
    "rep-ideal": ["--verbose", "rep-ideal", "--group", "{dir}/z2.json", "--target", "{dir}/gl1.json", "--groebner"],
    "lie-rep-ideal": ["lie-rep-ideal", "--source", "{dir}/ab2.json", "--target", "sl2"],
    "rep-count": ["--format", "json", "rep-count", "--group", "{dir}/z2.json", "--finite", "sym:3"],
    "cotangent": ["cotangent", "--target", "gl:2"],
    "invariance": ["invariance", "--word", "a b", "--group", "{dir}/f2.json", "--target", "sl:2"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_in_a_fresh_process_matches_in_process(inputs, command):
    argv = [a.format(dir=inputs) for a in COMMANDS[command]]
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    done = _python("-m", "hopfrep.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out.getvalue(), err.getvalue())


def test_import_hopfrep_loads_no_submodule():
    assert _loaded_after("import hopfrep") == ["hopfrep"]


@pytest.mark.parametrize(
    "argv",
    [["axioms"], ["normalize", "--term", "mu . tau"], ["reduce", "--n", "2", "--word", "x1 x2"]],
    ids=["axioms", "normalize", "reduce"],
)
def test_prop_commands_leave_the_polynomial_layer_unloaded(argv):
    loaded = _loaded_after(f"import io\nfrom hopfrep.cli import run\nrun({argv!r}, io.StringIO())")
    assert "hopfrep.cli" in loaded
    assert not set(POLYNOMIAL_LAYER) & set(loaded), loaded


def test_every_export_resolves_both_ways():
    assert sorted(hopfrep.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    assert set(hopfrep.__all__) <= set(dir(hopfrep))
    # Each way in its own fresh process, so every lookup is a first one.
    owners = "import importlib\n" + "\n".join(
        f"{name}_owner = importlib.import_module('hopfrep.{module}').{name}"
        for module, names in EXPORTS.items() for name in names
    )
    checks = "\n".join(f"assert {name} is {name}_owner" for name in hopfrep.__all__)
    attribute = "import hopfrep\n" + "\n".join(f"{n} = hopfrep.{n}" for n in hopfrep.__all__)
    from_import = f"from hopfrep import {', '.join(hopfrep.__all__)}"
    for lookup in (attribute, from_import):
        done = _python("-c", f"{lookup}\n{owners}\n{checks}")
        assert done.returncode == 0, done.stderr


def test_unknown_attribute_raises_and_submodules_import():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        hopfrep.nope  # noqa: B018 - the lookup is the test
    loaded = _loaded_after("from hopfrep import alggroups\nassert alggroups.make_group")
    assert {"hopfrep.alggroups", "hopfrep.polyalg"} <= set(loaded)
