"""The three benchmark workloads, built from a seed.

A workload is one *pass*: a fixed list of jobs made from the seed at set-up.
The harness runs the same pass repeatedly, so every pass does identical work
and prints identical output.  Each job's ``call`` is the timed library work
and returns ``(printed output, value for the oracle)``; its ``check`` is an
independent oracle that runs after timing and returns a problem or ``None``.
Library functions are always looked up as module attributes, so the traced
run sees every call.
"""

from __future__ import annotations

import functools
import io
import json
import random
import shutil
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from hopfrep import alggroups, cli, groups, polyalg, prop_h, repvariety

import oracles

@dataclass
class Job:
    label: str  # stable name of the job; the digest covers label and output
    call: Callable[[], tuple[str, object]]
    check: Callable[[str, object], str | None] | None = None
    digest: bool = True


class JobFailed(Exception):
    """A job finished without raising but did not succeed (nonzero exit)."""


def build(name: str, seed: int, scratch: Path) -> "Workload":
    """Generate the inputs and targets of workload ``name`` for ``seed``."""
    if name == "variety":
        return Variety(seed)
    if name == "words":
        return Words(seed)
    if name == "cli_mix":
        return CliMix(seed, scratch)
    raise ValueError(f"unknown workload {name!r}")


class Workload:
    jobs: list[Job]

    def warm_up(self) -> None:
        """Run a few cheap jobs so that lazy set-up is done before timing."""

    def close(self) -> None:
        """Remove anything set-up wrote."""


def _presentation(generators, relators) -> groups.GroupPresentation:
    return groups.GroupPresentation.from_json(
        {"generators": list(generators), "relators": list(relators)}
    )


# ---------------------------------------------------------------------------
# variety: representation ideals and their Groebner bases
# ---------------------------------------------------------------------------

_VARIETY_GROUPS = {
    "Z2": (("a", "b"), ("a b a^-1 b^-1",)),
    "Z/2": (("a",), ("a^2",)),
    "Z/3": (("a",), ("a^3",)),
    "BS(1,2)": (("a", "b"), ("a b a^-1 b^-2",)),
}

# (group, target, monomial order or trace word).  Z2 -> SL(3) is left out:
# no run finishes in 240 s at the seed commit.
_VARIETY_POOL = (
    ("Z2", "sl:2", "grevlex"),
    ("Z2", "sl:2", "lex"),
    ("Z2", "gl:2", "grevlex"),
    ("Z2", "gl:2", "lex"),
    ("Z/2", "sl:3", "grevlex"),
    ("Z/2", "sl:3", "lex"),
    ("Z/3", "sl:2", "grevlex"),
    ("BS(1,2)", "sl:2", "grevlex"),
    ("Z/2", "sl:3", "tr a"),
    ("Z2", "sl:2", "tr a b"),
)


class Variety(Workload):
    """The fixed pool of ten Groebner-heavy jobs; the seed only permutes them."""

    def __init__(self, seed: int) -> None:
        presentations = {
            name: _presentation(*spec) for name, spec in _VARIETY_GROUPS.items()
        }
        targets = {spec: alggroups.make_group(spec) for spec in ("sl:2", "gl:2", "sl:3")}
        jobs = []
        for group_name, target_spec, what in _VARIETY_POOL:
            group, target = presentations[group_name], targets[target_spec]
            label = f"{group_name} -> {target_spec} {what}"
            if what.startswith("tr "):
                word = groups.parse_word(what[3:], group.generators)
                jobs.append(Job(label, _invariance_call(word, group, target), _expect_invariant))
            else:
                jobs.append(Job(label, _groebner_call(group, target, what), _groebner_check(what)))
        self._warm = jobs[_VARIETY_POOL.index(("Z/3", "sl:2", "grevlex"))]
        random.Random(seed).shuffle(jobs)
        self.jobs = jobs

    def warm_up(self) -> None:
        self._warm.call()


def _groebner_call(group, target, order):
    def call():
        ideal = repvariety.rep_ideal(group, target).ideal
        basis = polyalg.groebner(ideal, order)
        return "\n".join(str(g) for g in basis.basis), ideal

    return call


def _groebner_check(order):
    def check(text, ideal):
        problems = oracles.groebner_problems(
            [dict(g.terms) for g in ideal.generators], text.split("\n"), ideal.ring, order
        )
        return "; ".join(problems) or None

    return check


def _invariance_call(word, group, target):
    def call():
        invariant = repvariety.check_trace_invariance(word, group, target)
        return f"invariant: {invariant}", invariant

    return call


def _expect_invariant(text, invariant):
    # A trace is a class function, so it is always conjugation invariant.
    return None if invariant is True else "trace reported not invariant"


# ---------------------------------------------------------------------------
# words: the PROP word layer, no polynomials
# ---------------------------------------------------------------------------

_LAYER_ATOMS = (
    ("mu", 2),
    ("delta", 1),
    ("antipode", 1),
    ("epsilon", 1),
    ("tau", 2),
    ("id", 1),
    ("id", 1),
    ("eta", 0),
)

# Jobs of each kind in one pass.  Sizes (layers, arities, ranks, lengths)
# follow a fixed schedule over each kind's jobs and the seed draws the
# atoms, letters and job order, so every seed does about the same work.
_WORDS_PASS = (
    ("eval_term", 300),
    ("compose_h", 100),
    ("tensor_h", 100),
    ("reduce", 250),
    ("tensor_model", 100),
    ("group_model", 100),
    ("verify_axioms", 45),
    ("long_reduce", 5),
)
# Long reduce jobs: the run lengths, two of a few hundred letters and three
# of a few thousand.  None is near the interpreter's recursion limit, where
# success would depend on the harness's own stack depth.
_LONG_RUNS = (350, 650, 1500, 2100, 2700)


def _random_layer(rng: random.Random, width: int) -> prop_h.GeneratorTerm:
    atoms: list[prop_h.GeneratorTerm] = []
    need = width
    while need > 0:
        name, dom = rng.choice(_LAYER_ATOMS)
        if dom > need or (name == "eta" and rng.random() < 0.6):
            continue
        atoms.append(prop_h.Id(1) if name == "id" else prop_h.Gen(name))
        need -= dom
    if not atoms:
        atoms.append(prop_h.Gen("eta") if rng.random() < 0.5 else prop_h.Id(0))
    term = atoms[0]
    for atom in atoms[1:]:
        term = prop_h.Tensor(term, atom)
    return term


def random_term(rng: random.Random, width: int, layers: int, max_width: int = 6):
    """A random well-typed composite of up to ``layers`` layers on ``width`` inputs."""
    term: prop_h.GeneratorTerm = prop_h.Id(width)
    for _ in range(layers):
        layer = _random_layer(rng, width)
        cod = layer.arity()[1]
        if cod > max_width:
            break
        term, width = prop_h.Compose(layer, term), cod
    return term


def _random_letters(rng: random.Random, rank: int, length: int) -> list[tuple[int, int]]:
    """Freely reduced letters: no letter is followed by its inverse."""
    letters: list[tuple[int, int]] = []
    while len(letters) < length:
        letter = (rng.randint(1, rank), rng.choice((1, -1)))
        if letters and letters[-1] == (letter[0], -letter[1]):
            continue
        letters.append(letter)
    return letters


def _random_morphism(rng: random.Random, dom: int, cod: int, length: int):
    words = tuple(
        groups.FreeWord(dom, tuple(_random_letters(rng, dom, length if dom else 0)))
        for _ in range(cod)
    )
    return prop_h.HMorphism(dom, cod, words)


def _format_action(result: dict) -> str:
    return "; ".join(f"{key}:{coeff}" for key, coeff in sorted(result.items()))


def _reduction_terms(linhom) -> dict[tuple[int, ...], Fraction]:
    return {tuple(i for i, _ in h.words[0].letters): c for h, c in linhom.terms}


class Words(Workload):
    """A seeded mix of word-layer jobs with a fixed composition per pass."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self._groups = {k: groups.make_finite_group(f"sym:{k}") for k in (4, 5)}
        jobs = []
        for kind, count in _WORDS_PASS:
            for k in range(count):
                jobs.append((kind, getattr(self, f"_{kind}")(rng, k)))
        rng.shuffle(jobs)
        self.jobs = [
            Job(f"{i:04d} {kind}", call, check, digest=kind != "long_reduce")
            for i, (kind, (call, check)) in enumerate(jobs)
        ]

    def warm_up(self) -> None:
        done = set()
        for job in self.jobs:
            kind = job.label.split(" ", 1)[1]
            if kind not in done and kind != "long_reduce":
                job.call()
                done.add(kind)

    def _eval_term(self, rng, k):
        term = random_term(rng, k % 4, 1 + k % 8)
        return (lambda: (prop_h.format_hmorphism(prop_h.eval_term(term)), None)), None

    def _compose_h(self, rng, k):
        a, b, c = k % 5, k // 5 % 5, k // 25 % 5
        f, g = _random_morphism(rng, a, b, k % 7), _random_morphism(rng, b, c, k // 7 % 7)
        return (lambda: (prop_h.format_hmorphism(prop_h.compose_h(f, g)), None)), None

    def _tensor_h(self, rng, k):
        f = _random_morphism(rng, k % 5, k // 5 % 5, k % 7)
        g = _random_morphism(rng, k // 25 % 5, (k + 2) % 5, k // 7 % 7)
        return (lambda: (prop_h.format_hmorphism(prop_h.tensor_h(f, g)), None)), None

    def _reduce(self, rng, k):
        rank = 2 + k % 4
        length = rank + k // 4 % (17 - rank)
        word = groups.FreeWord(rank, tuple(_random_letters(rng, rank, length)))
        return _reduce_call(word), _reduce_check(word)

    def _long_reduce(self, rng, k):
        rank = 1 + k % 3
        run = [(rng.randint(1, rank), rng.choice((1, -1)))] * (_LONG_RUNS[k] + rng.randint(-20, 20))
        prefix = _random_letters(rng, rank, 2)
        suffix = _random_letters(rng, rank, 2)
        present = {i for i, _ in prefix + run + suffix}
        suffix += [(i, 1) for i in range(1, rank + 1) if i not in present]
        word = groups.FreeWord(rank, tuple(prefix + run + suffix))
        return _reduce_call(word), _reduce_check(word)

    def _tensor_model(self, rng, k):
        rank = 2 + k % 3
        length = rank + k // 3 % (11 - rank)
        word = groups.FreeWord(rank, tuple(_random_letters(rng, rank, length)))
        morphism = prop_h.HMorphism(rank, 1, (word,))
        model = prop_h.TensorAlgebraModel(rank, rank)
        inputs = [model.generator(i) for i in range(1, rank + 1)]

        def call():
            result = prop_h.hopf_action(morphism, model, inputs)
            return _format_action(result), result

        def check(text, result):
            reduced = prop_h.multilinear_reduce(prop_h.LinHom.of(morphism))
            if prop_h.multilinear_part(result, rank) != dict(reduced.terms):
                return "tensor model disagrees with multilinear_reduce"
            return None

        return call, check

    def _group_model(self, rng, k):
        group = self._groups[4 + k % 2]
        morphism = _random_morphism(rng, 1 + k // 2 % 4, 1 + k // 8 % 3, k % 7)
        inputs = [rng.randrange(group.order) for _ in range(morphism.dom)]
        model = prop_h.GroupAlgebraModel(group)

        def call():
            result = prop_h.hopf_action(morphism, model, inputs)
            return _format_action(result), result

        def check(text, result):
            expected = {prop_h.group_model_tuple_action(morphism, group, inputs): Fraction(1)}
            return None if result == expected else "group model disagrees with word substitution"

        return call, check

    def _verify_axioms(self, rng, k):
        def call():
            checks = prop_h.verify_axioms()
            return " ".join(f"{c.number}:{c.holds}" for c in checks), checks

        def check(text, checks):
            return None if all(c.holds for c in checks) else "an axiom fails"

        return call, check


def _reduce_call(word):
    element = prop_h.LinHom.of(prop_h.HMorphism(word.rank, 1, (word,)))

    def call():
        result = prop_h.multilinear_reduce(element)
        return prop_h.format_linhom(result), result

    return call


def _reduce_check(word):
    def check(text, result):
        expected = oracles.multilinear_closed_form(word.rank, word.letters)
        return None if _reduction_terms(result) == expected else "reduction disagrees with closed form"

    return check


# ---------------------------------------------------------------------------
# cli_mix: the user who scripts the CLI
# ---------------------------------------------------------------------------

# Jobs of each kind in every block of 20; a pass is ten blocks.  Targets,
# relator counts, lengths and inverse-letter counts follow a fixed schedule
# over the blocks, and the seed draws the letters, terms and job order.  The
# cost of a representation ideal grows about threefold per relator letter,
# so free draws would let a few seeds dominate the run time.
_CLI_BLOCK = (
    ("rep-ideal", 6),
    ("lie-rep-ideal", 2),
    ("rep-count", 3),
    ("cotangent", 2),
    ("invariance", 2),
    ("normalize", 2),
    ("reduce", 2),
    ("axioms", 1),
)
_CLI_BLOCKS = 10
_COTANGENT_DIMENSION = {
    "sl:2": 3, "gl:2": 4, "sl:3": 8, "gl:3": 9, "torus:1": 1, "torus:2": 2, "ga": 1,
}
# (finite target, generators): |target|^generators stays small enough for
# the brute-force oracle.
_REP_COUNT_SCHEDULE = (
    ("cyclic:4", 3), ("sym:3", 2), ("sym:4", 2), ("sym:5", 1), ("cyclic:9", 3),
    ("sym:3", 3), ("sym:5", 2), ("cyclic:12", 2), ("sym:4", 3), ("cyclic:7", 3),
)
_LIE_TARGETS = ("sl2", "abelian:1", "abelian:2", "abelian:3")
_NAMES = ("a", "b", "c")


def _word_text(letters) -> str:
    return " ".join(_NAMES[i - 1] + ("" if e == 1 else "^-1") for i, e in letters)


def _term_text(term) -> str:
    if isinstance(term, prop_h.Gen):
        return {"antipode": "S", "epsilon": "eps"}.get(term.name, term.name)
    if isinstance(term, prop_h.Id):
        return f"id:{term.width}"
    if isinstance(term, prop_h.Compose):
        return f"({_term_text(term.outer)}) . ({_term_text(term.inner)})"
    return f"({_term_text(term.left)}) * ({_term_text(term.right)})"


def _random_lie_expr(rng: random.Random, n: int, depth: int = 2) -> str:
    if depth == 0 or rng.random() < 0.3:
        return _NAMES[rng.randrange(n)]
    return f"[{_random_lie_expr(rng, n, depth - 1)},{_random_lie_expr(rng, n, depth - 1)}]"


def _relator(rng: random.Random, n: int, length: int, inverses: int) -> list[tuple[int, int]]:
    """A freely reduced word of ``length`` letters, ``inverses`` of them inverted."""
    if n == 1:  # a single generator cannot mix signs without cancelling
        return [(1, -1 if inverses else 1)] * length
    while True:
        inverted = set(rng.sample(range(length), inverses))
        letters = [(rng.randint(1, n), -1 if p in inverted else 1) for p in range(length)]
        if all(a != (b[0], -b[1]) for a, b in zip(letters, letters[1:])):
            return letters


class CliMix(Workload):
    """Seeded CLI invocations through ``hopfrep.cli.run`` with ``--format json``."""

    def __init__(self, seed: int, scratch: Path) -> None:
        rng = random.Random(seed)
        scratch.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli_mix-", dir=scratch))
        self._files = 0
        jobs = []
        for block in range(_CLI_BLOCKS):
            for kind, count in _CLI_BLOCK:
                for slot in range(count):
                    make = getattr(self, "_" + kind.replace("-", "_"))
                    jobs.append(make(rng, block, slot))
        rng.shuffle(jobs)
        self.jobs = [
            Job(f"{i:03d} {label}", _cli_call(argv), _json_check(check))
            for i, (label, argv, check) in enumerate(jobs)
        ]

    def warm_up(self) -> None:
        _cli_call(["axioms"])()

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _write(self, payload: dict) -> str:
        self._files += 1
        name = f"f{self._files:03d}.json"
        (self.dir / name).write_text(json.dumps(payload))
        return name

    def _group_file(self, n: int, relators) -> str:
        return self._write(
            {"generators": list(_NAMES[:n]), "relators": [_word_text(r) for r in relators]}
        )

    def _rep_ideal(self, rng, block, slot):
        target = ("sl:2", "gl:2", "torus:1", "sl:3", "gl:3", ("gl:2", "sl:2")[block % 2])[slot]
        n = 1 + (block + slot) % 3
        # At most 6 letters into the 3x3 groups, at most 10 into the others.
        length = 2 + block % 5 if target in ("sl:3", "gl:3") else 1 + block
        inverses = length // 2 if block >= 5 else length // 4
        relators = [_relator(rng, n, length, inverses) for _ in range(1 + block % 2)]
        name = self._group_file(n, relators)
        argv = ["rep-ideal", "--group", str(self.dir / name), "--target", target]
        return f"rep-ideal {name} {target}", argv, _rep_ideal_check(target)

    def _lie_rep_ideal(self, rng, block, slot):
        n = 1 + (block + slot) % 3
        relators = []
        for _ in range(1 + slot):
            text = _random_lie_expr(rng, n)
            if rng.random() < 0.5:
                text += f" - {rng.randint(1, 3)}*{_random_lie_expr(rng, n)}"
            relators.append(text)
        name = self._write({"generators": list(_NAMES[:n]), "relators": relators})
        target = _LIE_TARGETS[(2 * block + slot) % len(_LIE_TARGETS)]
        argv = ["lie-rep-ideal", "--source", str(self.dir / name), "--target", target]
        return f"lie-rep-ideal {name} {target}", argv, _vanishes_at_zero

    def _rep_count(self, rng, block, slot):
        spec, n = _REP_COUNT_SCHEDULE[(3 * block + slot) % len(_REP_COUNT_SCHEDULE)]
        length = 2 + (block + slot) % 7
        relators = [_relator(rng, n, length, length // 3) for _ in range(1 + (block + slot) % 2)]
        name = self._group_file(n, relators)
        argv = ["rep-count", "--group", str(self.dir / name), "--finite", spec]
        return f"rep-count {name} {spec}", argv, _rep_count_check(n, relators, spec)

    def _cotangent(self, rng, block, slot):
        targets = sorted(_COTANGENT_DIMENSION)
        target = targets[(2 * block + slot) % len(targets)]
        expected = _COTANGENT_DIMENSION[target]

        def check(text, payload):
            return None if payload["dimension"] == expected else f"dimension is not {expected}"

        return f"cotangent {target}", ["cotangent", "--target", target], check

    def _invariance(self, rng, block, slot):
        n = 1 + (block + slot) % 2
        name = self._group_file(n, [])
        word = _word_text(_random_letters(rng, n, 1 + block % 3))
        target = ("sl:2", "gl:2")[slot]
        argv = ["invariance", "--word", word, "--group", str(self.dir / name), "--target", target]

        def check(text, payload):
            return _expect_invariant(text, payload["invariant"])

        return f"invariance {name} {target} {word}", argv, check

    def _normalize(self, rng, block, slot):
        term = _term_text(random_term(rng, (block + slot) % 4, 1 + (2 * block + slot) % 8))
        return f"normalize {term}", ["normalize", "--term", term], None

    def _reduce(self, rng, block, slot):
        n = 1 + (block + slot) % 4
        letters = _random_letters(rng, n, n + (2 * block + slot) % (11 - n))
        word = " ".join(f"x{i}" if e == 1 else f"x{i}^-1" for i, e in letters)
        expected = oracles.multilinear_closed_form(n, letters)

        def check(text, payload):
            got = {}
            for term in payload["terms"]:
                perm = tuple(int(token[1:]) for token in term["word"].split())
                got[perm] = Fraction(term["coefficient"])
            return None if got == expected else "reduction disagrees with closed form"

        return f"reduce {n} {word}", ["reduce", "--n", str(n), "--word", word], check

    def _axioms(self, rng, block, slot):
        def check(text, payload):
            return None if payload["all_hold"] else "an axiom fails"

        return "axioms", ["axioms"], check


def _cli_call(argv):
    argv = ["--format", "json", *argv]

    def call():
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(argv, out, err)
        if code != 0:
            raise JobFailed(f"exit {code}: {err.getvalue().strip()}")
        text = out.getvalue()
        return text, text

    return call


def _json_check(check):
    def wrapped(text, value):
        return None if check is None else check(text, json.loads(text))

    return wrapped


@functools.lru_cache(maxsize=None)
def _target(spec: str) -> alggroups.PresentedCommHopf:
    return alggroups.make_group(spec)


def _identity_point(target_spec: str, variables) -> dict[str, Fraction]:
    group = _target(target_spec)
    point = {}
    for copy in range(1, len(variables) // len(group.variables) + 1):
        for template, value in zip(group.copy_templates, group.counit):
            point[template.format(c=copy)] = value
    return point


def _rep_ideal_check(target_spec):
    def check(text, payload):
        # The trivial representation (the counit in every block) is a point.
        point = _identity_point(target_spec, payload["variables"])
        if set(point) != set(payload["variables"]):
            return "variables are not the target's copy blocks"
        for i, g in enumerate(payload["ideal"]):
            if oracles.evaluate_printed(g, point) != 0:
                return f"identity point does not zero generator {i}"
        return None

    return check


def _vanishes_at_zero(text, payload):
    # The zero map is a Lie algebra homomorphism.
    point = {v: Fraction(0) for v in payload["variables"]}
    for i, g in enumerate(payload["ideal"]):
        if oracles.evaluate_printed(g, point) != 0:
            return f"zero point does not zero generator {i}"
    return None


def _rep_count_check(n, letters, spec):
    def check(text, payload):
        group = groups.make_finite_group(spec)
        expected = oracles.brute_force_homs(
            n, letters, group.table, group.inverses, group.identity
        )
        if payload["count"] != len(expected):
            return f"count {payload['count']} != brute force {len(expected)}"
        if [tuple(p) for p in payload["points"]] != expected:
            return "points differ from brute force"
        return None

    return check
