"""Command-line front end.

Subcommands map one-to-one onto the library: ``axioms``, ``normalize``,
``reduce``, ``rep-ideal``, ``lie-rep-ideal``, ``rep-count``, ``cotangent``
and ``invariance``.  Each command builds one payload, and ``--format``
prints it as JSON or as its text lines, which are built only when printed.
Output is deterministic (no timestamps, fixed ordering); ``--format json``
is the stable machine contract, text is for humans.  Exit codes: 0
success, 1 verification failure, 2 input error; a reader that closes
stdout early ends the command quietly with 141.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from typing import IO, Iterable, Iterator, Sequence

# Each command imports the rest of the library itself, so a launch loads
# only what its command runs (`axioms` never compiles the polynomial layer).
from . import groups, prop_h


class CliError(ValueError):
    """Input error in the command line itself: bad flags or values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise CliError(message)


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    parser = _Parser(prog="hopfrep", description=__doc__)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("axioms", help="verify the ten Hopf axioms in the word model")

    normalize = sub.add_parser("normalize", help="normalize a generator term")
    normalize.add_argument("--term", required=True)

    reduce_cmd = sub.add_parser("reduce", help="multilinear reduction of a word")
    reduce_cmd.add_argument("--n", type=int, required=True, help="number of letters")
    reduce_cmd.add_argument("--word", required=True, help="word in x1..xn syntax")

    rep = sub.add_parser("rep-ideal", help="representation ideal of a presented group")
    rep.add_argument("--group", required=True, help="path to presentation JSON")
    rep.add_argument("--target", required=True, help="gl:m | sl:m | torus:k | ga | JSON path")
    rep.add_argument("--groebner", action="store_true", help="also print a Groebner basis")
    rep.add_argument("--order", help="monomial order for --groebner (default: graded reverse lex)")

    lie = sub.add_parser("lie-rep-ideal", help="Lie representation ideal")
    lie.add_argument("--source", required=True, help="path to Lie presentation JSON")
    lie.add_argument("--target", required=True, help="sl2 | abelian:d | JSON path")

    count = sub.add_parser("rep-count", help="enumerate homomorphisms into a finite group")
    count.add_argument("--group", required=True, help="path to presentation JSON")
    count.add_argument("--finite", required=True, help="cyclic:k | sym:k | JSON path")

    cot = sub.add_parser("cotangent", help="tangent dimension at the identity")
    cot.add_argument("--target", required=True)

    inv = sub.add_parser("invariance", help="conjugation invariance of a trace observable")
    inv.add_argument("--word", required=True, help="word in the group's generators")
    inv.add_argument("--group", required=True, help="path to presentation JSON")
    inv.add_argument("--target", required=True)
    return parser


def _emit(stream: IO[str], text: str) -> None:
    stream.write(text)
    if not text.endswith("\n"):
        stream.write("\n")


Result = tuple[object, Iterable[str], int]  # a command's payload, text lines and exit code


def _presentation_lines(payload: dict) -> Iterator[str]:
    """The text lines of a `RepIdealPresentation.to_json` payload, from its strings."""
    yield "variables: " + " ".join(payload["variables"])
    for i, (g, provenance) in enumerate(zip(payload["ideal"], payload["provenance"])):
        yield f"g{i} [{provenance['source']}]: {g}"
    if "groebner_basis" in payload:
        yield f"groebner ({payload['groebner_order']}):"
        for g in payload["groebner_basis"]:
            yield f"  {g}"


def _cmd_axioms(args) -> Result:
    checks = prop_h.verify_axioms()
    payload = {
        "axioms": [{"number": c.number, "name": c.name, "holds": c.holds} for c in checks],
        "all_hold": all(c.holds for c in checks),
    }
    lines = (f"{'PASS' if c.holds else 'FAIL'} {c.number:>2} {c.name}" for c in checks)
    return payload, lines, 0 if payload["all_hold"] else 1


def _cmd_normalize(args) -> Result:
    term = prop_h.parse_term(args.term)
    morphism = prop_h.eval_term(term)
    payload = {
        "dom": morphism.dom,
        "cod": morphism.cod,
        "words": [groups.format_word(w) for w in morphism.words],
    }
    return payload, map(prop_h.format_hmorphism, [morphism]), 0


def _cmd_reduce(args) -> Result:
    if not 0 <= args.n <= groups.SIZE_LIMIT:
        raise CliError(f"--n {args.n} is outside 0..{groups.SIZE_LIMIT}")
    word = groups.parse_word(args.word, args.n)
    morphism = prop_h.HMorphism(args.n, 1, (word,))
    reduced = prop_h.multilinear_reduce(prop_h.LinHom.of(morphism))
    payload = {
        "n": args.n,
        "terms": [
            {"coefficient": str(c), "word": groups.format_word(h.words[0])}
            for h, c in reduced.terms
        ],
    }
    return payload, map(prop_h.format_linhom, [reduced]), 0


def _cmd_rep_ideal(args) -> Result:
    from . import alggroups, polyalg, repvariety

    order = polyalg.GREVLEX if args.order is None else args.order
    if order not in polyalg.MONOMIAL_ORDERS:
        choices = ", ".join(map(repr, polyalg.MONOMIAL_ORDERS))
        raise CliError(f"argument --order: invalid choice: {order!r} (choose from {choices})")
    presentation = repvariety.rep_ideal(
        groups.GroupPresentation.from_json(args.group), alggroups.make_group(args.target)
    )
    payload = presentation.to_json()
    if args.groebner:
        payload["groebner_order"] = order
        basis = polyalg.groebner(presentation.ideal, order).basis
        payload["groebner_basis"] = [str(g) for g in basis]
    return payload, _presentation_lines(payload), 0


def _cmd_lie_rep_ideal(args) -> Result:
    from . import alggroups, repvariety

    source = alggroups.LiePresentation.from_json(args.source)
    payload = repvariety.lie_rep_ideal(source, alggroups.make_lie(args.target)).to_json()
    return payload, _presentation_lines(payload), 0


def _point_lines(payload: dict, generators: Sequence[str]) -> Iterator[str]:
    """The count, then one line of assignments per point."""
    yield str(payload["count"])
    for names in payload["point_names"]:
        yield " ".join(f"{g}={name}" for g, name in zip(generators, names))


def _cmd_rep_count(args) -> Result:
    from . import repvariety

    presentation = groups.GroupPresentation.from_json(args.group)
    target = groups.make_finite_group(args.finite)
    points = repvariety.finite_rep_algebra(presentation, target)
    payload = {
        "count": len(points),
        "points": points,
        "point_names": [[target.names[i] for i in p] for p in points],
    }
    return payload, _point_lines(payload, presentation.generators), 0


def _cmd_cotangent(args) -> Result:
    from . import alggroups

    group = alggroups.make_group(args.target)
    basis = alggroups.cotangent_at_identity(group)
    payload = {
        "target": group.name,
        "dimension": len(basis),
        "variables": list(group.variables),
        "kernel_basis": [[str(x) for x in v] for v in basis],
    }
    return payload, map("dimension: {}".format, [len(basis)]), 0


def _cmd_invariance(args) -> Result:
    from . import alggroups, repvariety

    presentation = groups.GroupPresentation.from_json(args.group)
    target = alggroups.make_group(args.target)
    word = groups.parse_word(args.word, presentation.generators)
    invariant = repvariety.check_trace_invariance(word, presentation, target)
    payload = {"word": args.word, "invariant": invariant}
    return payload, ["invariant: true" if invariant else "invariant: false"], 0 if invariant else 1


_COMMANDS = {
    "axioms": _cmd_axioms,
    "normalize": _cmd_normalize,
    "reduce": _cmd_reduce,
    "rep-ideal": _cmd_rep_ideal,
    "lie-rep-ideal": _cmd_lie_rep_ideal,
    "rep-count": _cmd_rep_count,
    "cotangent": _cmd_cotangent,
    "invariance": _cmd_invariance,
}


def run(argv: Sequence[str], out: IO[str] | None = None, err: IO[str] | None = None) -> int:
    """Parse argv, dispatch, and return the exit code (streams injectable for tests)."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    polyalg = None
    try:
        with contextlib.redirect_stdout(out):  # --help prints to sys.stdout
            args = parser.parse_args(list(argv))
        if args.verbose:
            from . import polyalg

            _emit(err, f"hopfrep: running {args.command}")
            polyalg.stats_stream = err
        payload, lines, code = _COMMANDS[args.command](args)
        if args.format == "json":
            _emit(out, json.dumps(payload, indent=2))
        else:
            for line in lines:
                _emit(out, line)
        return code
    except SystemExit as exc:  # --help: argparse's exit, with the help on ``out``
        return exc.code
    except (KeyError, ValueError) as exc:
        # Every error class of the library, and CliError, is a ValueError.
        _emit(err, f"error: {exc}")
        return 2
    finally:
        if polyalg is not None:
            polyalg.stats_stream = None


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (``| head``).  Point stdout at devnull so the
        # flush at interpreter exit cannot raise again, and exit with 128 +
        # SIGPIPE, the status of a process stopped by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    main()
