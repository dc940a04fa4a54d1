"""Spans around the library's public functions, recorded from the benchmark.

`Tracer.install` replaces each traced function at every module attribute or
class attribute a caller looks it up through (several modules import by
name, so each binding is wrapped on its own) and `Tracer.uninstall` puts the
originals back.  A span keeps its name, start, end, parent span, job id and
one note about the result; spans stay in memory until the pass ends.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

from hopfrep import alggroups, cli, groups, polyalg, prop_h, repvariety

NAME, START, END, PARENT, JOB, NOTE = range(6)
_FAILED = "failed"


def _is_zero(p) -> bool:
    return not p.terms


def _hopf_action_name(args) -> str:
    model = args[1]
    return "prop_h.hopf_action." + (
        "tensor" if isinstance(model, prop_h.TensorAlgebraModel) else "group"
    )


def _bindings():
    """(owner, attribute, span name, note on the result) for every traced binding."""
    P = polyalg.Polynomial
    keep = lambda result: result  # noqa: E731 - summarized after the pass
    return [
        *((m, "groebner", "polyalg.groebner", keep) for m in (polyalg, alggroups, repvariety)),
        (polyalg, "normal_form", "polyalg.normal_form", _is_zero),
        *((m, "ideal_member", "polyalg.ideal_member", None) for m in (polyalg, alggroups, repvariety)),
        (P, "__mul__", "polyalg.mul", None),
        (P, "__add__", "polyalg.add", None),
        (P, "substitute", "polyalg.substitute", None),
        (P, "rename", "polyalg.rename", None),
        (polyalg, "format_polynomial", "polyalg.format", len),
        (alggroups, "make_group", "alggroups.make_group", None),
        *((m, "matrix_word", "alggroups.matrix_word", None) for m in (alggroups, repvariety)),
        *(
            (m, "conjugation_substitution", "alggroups.conjugation_substitution", None)
            for m in (alggroups, repvariety)
        ),
        (alggroups, "cotangent_at_identity", "alggroups.cotangent_at_identity", None),
        (repvariety, "rep_ideal", "repvariety.rep_ideal", lambda r: len(r.ideal.generators)),
        (repvariety, "check_trace_invariance", "repvariety.check_trace_invariance", None),
        (repvariety, "finite_rep_algebra", "repvariety.finite_rep_algebra", None),
        (repvariety, "lie_rep_ideal", "repvariety.lie_rep_ideal", None),
        *((m, "enumerate_homs", "groups.enumerate_homs", len) for m in (groups, repvariety)),
        (groups.FreeWord, "substitute", "groups.FreeWord.substitute", None),
        (prop_h, "eval_term", "prop_h.eval_term", None),
        (prop_h, "compose_h", "prop_h.compose_h", None),
        (prop_h, "multilinear_reduce", "prop_h.multilinear_reduce", lambda r: len(r.terms)),
        (prop_h, "hopf_action", _hopf_action_name, None),
        (prop_h, "verify_axioms", "prop_h.verify_axioms", None),
        (cli, "run", "cli.run", None),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self._originals: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans, self.stack, self.job = [], [], -1

    def install(self) -> None:
        for owner, attribute, name, note in _bindings():
            original = getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, note))

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def _wrap(self, fn, name, note):
        tracer = self

        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            span = [
                name(args) if callable(name) else name,
                0.0,
                0.0,
                stack[-1] if stack else -1,
                tracer.job,
                None,
            ]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = perf_counter()
                stack.pop()
                span[NOTE] = _FAILED
                raise
            span[END] = perf_counter()
            stack.pop()
            if note is not None:
                span[NOTE] = note(result)
            return result

        traced.__wrapped__ = fn
        return traced


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def summarize(spans) -> tuple[dict, dict]:
    """Per-name ``calls``/``ms``/``self_ms`` and the exact counters of one pass.

    ``ms`` is inclusive and counts only the outermost span of a name;
    ``self_ms`` subtracts the time covered by direct child spans.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    times: dict[str, dict[str, float]] = defaultdict(lambda: {"ms": 0.0, "self_ms": 0.0})
    counters: dict[str, int] = defaultdict(int)
    for i, span in enumerate(spans):
        name, duration = span[NAME], span[END] - span[START]
        counters[f"{name}.calls"] += 1
        times[name]["self_ms"] += (duration - child[i]) * 1000
        if not _has_ancestor(spans, i, name):
            times[name]["ms"] += duration * 1000
        note = span[NOTE]
        if name == "polyalg.normal_form" and _has_ancestor(spans, i, "polyalg.groebner"):
            counters["polyalg.groebner.reductions"] += 1
            counters["polyalg.groebner.zero_reductions"] += note is True
        elif name == "polyalg.groebner" and note != _FAILED:
            basis = note.basis
            counters["polyalg.groebner.basis_out"] += len(basis)
            for g in basis:
                counters["polyalg.groebner.max_degree"] = max(
                    counters["polyalg.groebner.max_degree"], g.total_degree()
                )
                counters["polyalg.groebner.max_terms"] = max(
                    counters["polyalg.groebner.max_terms"], len(g.terms)
                )
        elif name == "prop_h.multilinear_reduce":
            if note == _FAILED:
                counters["prop_h.multilinear_reduce.failed"] += 1
            else:
                counters["prop_h.multilinear_reduce.terms_out"] += note
        elif note != _FAILED and name in _NOTE_COUNTERS:
            counters[_NOTE_COUNTERS[name]] += note
    return dict(times), dict(counters)


_NOTE_COUNTERS = {
    "polyalg.format": "polyalg.format.bytes",
    "repvariety.rep_ideal": "repvariety.rep_ideal.generators",
    "groups.enumerate_homs": "groups.enumerate_homs.points",
}

# Per-layer metrics: (name, unit).  Times come from the span table, counts
# from the counters; `cli.import_ms` and `trace.overhead_s` are filled in
# by the harness.
PER_LAYER = (
    ("polyalg.groebner.calls", "count"),
    ("polyalg.groebner.ms", "ms"),
    ("polyalg.groebner.self_ms", "ms"),
    ("polyalg.groebner.reductions", "count"),
    ("polyalg.groebner.zero_reductions", "count"),
    ("polyalg.groebner.basis_out", "count"),
    ("polyalg.groebner.max_degree", "count"),
    ("polyalg.groebner.max_terms", "count"),
    ("polyalg.normal_form.calls", "count"),
    ("polyalg.normal_form.self_ms", "ms"),
    ("polyalg.ideal_member.calls", "count"),
    ("polyalg.ideal_member.ms", "ms"),
    ("polyalg.mul.calls", "count"),
    ("polyalg.mul.self_ms", "ms"),
    ("polyalg.add.calls", "count"),
    ("polyalg.add.self_ms", "ms"),
    ("polyalg.substitute.ms", "ms"),
    ("polyalg.rename.ms", "ms"),
    ("polyalg.format.ms", "ms"),
    ("polyalg.format.bytes", "bytes"),
    ("alggroups.make_group.calls", "count"),
    ("alggroups.make_group.ms", "ms"),
    ("alggroups.matrix_word.ms", "ms"),
    ("alggroups.conjugation_substitution.ms", "ms"),
    ("alggroups.cotangent_at_identity.ms", "ms"),
    ("repvariety.rep_ideal.ms", "ms"),
    ("repvariety.rep_ideal.generators", "count"),
    ("repvariety.check_trace_invariance.ms", "ms"),
    ("repvariety.finite_rep_algebra.ms", "ms"),
    ("repvariety.lie_rep_ideal.ms", "ms"),
    ("groups.enumerate_homs.calls", "count"),
    ("groups.enumerate_homs.ms", "ms"),
    ("groups.enumerate_homs.points", "count"),
    ("groups.FreeWord.substitute.calls", "count"),
    ("groups.FreeWord.substitute.self_ms", "ms"),
    ("prop_h.eval_term.calls", "count"),
    ("prop_h.eval_term.ms", "ms"),
    ("prop_h.compose_h.calls", "count"),
    ("prop_h.compose_h.self_ms", "ms"),
    ("prop_h.multilinear_reduce.calls", "count"),
    ("prop_h.multilinear_reduce.ms", "ms"),
    ("prop_h.multilinear_reduce.failed", "count"),
    ("prop_h.multilinear_reduce.terms_out", "count"),
    ("prop_h.hopf_action.tensor.ms", "ms"),
    ("prop_h.hopf_action.group.ms", "ms"),
    ("prop_h.verify_axioms.ms", "ms"),
    ("cli.run.calls", "count"),
    ("cli.run.self_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(passes: list[tuple[dict, dict]]) -> dict[str, float]:
    """Counters of the first traced pass and median span times over all of them."""
    counters = passes[0][1]
    out = {}
    for metric, unit in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        if unit == "ms" and stat in ("ms", "self_ms"):
            out[metric] = statistics.median(t.get(span, {}).get(stat, 0.0) for t, _ in passes)
        elif unit in ("count", "bytes"):
            out[metric] = counters.get(metric, 0)
    return out


def write_spans(path, spans) -> None:
    """One tab-separated line per span: id, name, start, end, parent, job, note."""
    with open(path, "w") as out:
        out.write("id\tname\tstart_s\tend_s\tparent\tjob\tnote\n")
        for i, span in enumerate(spans):
            note = span[NOTE]
            if note is not None and not isinstance(note, (bool, int, str)):
                note = ""
            out.write(
                f"{i}\t{span[NAME]}\t{span[START]:.9f}\t{span[END]:.9f}\t"
                f"{span[PARENT]}\t{span[JOB]}\t{'' if note is None else note}\n"
            )
