"""Benchmark of hopfrep: three seeded workloads, checked outputs, layered metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload variety|words|cli_mix --seed N --seconds S --trace 0|1

The load is one single-threaded closed loop: a job starts when the previous
one returns.  A run repeats one pass of seeded jobs, starting a new pass
while less than ``--seconds`` have passed (and at least twice), so it
measures whole passes for at least that long.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it spends
half the time untraced and half traced and prints the per-layer metrics and
the tracing overhead.  Times are calibrated against a reference loop run
between jobs (see speed.py); raw times go to the report.  After timing,
outputs are checked by independent oracles and an output digest; any
mismatch exits 1.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedLog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
COLD_START_SAMPLES = 10
AXIOMS_ARGV = ["--format", "json", "axioms"]

END_TO_END = (
    ("wall_s", "s"),
    ("job_gmean_ms", "ms"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("cold_start_ms", "ms"),
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("variety", "words", "cli_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--max-jobs", type=int, default=None, help="truncate each pass (used by the self-check)"
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _gmean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# ---------------------------------------------------------------------------
# Set-up and cold start, measured in fresh interpreters
# ---------------------------------------------------------------------------


def _setup_only(args) -> int:
    """Import, generate inputs, build targets and warm up; report the import time."""
    start = time.perf_counter()
    import hopfrep.cli  # noqa: F401 - imports every module of the library

    import_ms = (time.perf_counter() - start) * 1000
    import workloads

    workload = workloads.build(args.workload, args.seed, OUT)
    try:
        workload.warm_up()
    finally:
        workload.close()
    print(json.dumps({"import_ms": import_ms}))
    return 0


def _timed_launch(command, speed, timeout):
    """Run one subprocess; its raw and calibrated wall seconds and its result."""
    speed.sample()
    start = time.perf_counter()
    done = subprocess.run(command, env=_env(), capture_output=True, text=True, timeout=timeout)
    end = time.perf_counter()
    speed.sample()
    return end - start, (end - start) / speed.slowdown(start, end), done


def _measure_setup(args, speed) -> tuple[list[float], list[float], list[float]]:
    """Raw and calibrated seconds of whole set-up runs, and the import ms inside each."""
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ]
    raw, calibrated, imports = [], [], []
    for _ in range(SETUP_SAMPLES):
        seconds, scaled, done = _timed_launch(command, speed, 170)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
        raw.append(seconds)
        calibrated.append(scaled)
        imports.append(json.loads(done.stdout.splitlines()[-1])["import_ms"])
    return raw, calibrated, imports


def _measure_cold_start(expected: str, speed) -> tuple[list[float], list[float]]:
    """Raw and calibrated ms of ``python -m hopfrep.cli --format json axioms``, one at a time."""
    command = [sys.executable, "-m", "hopfrep.cli", *AXIOMS_ARGV]
    raw, calibrated = [], []
    for _ in range(COLD_START_SAMPLES):
        seconds, scaled, done = _timed_launch(command, speed, 60)
        if done.returncode != 0 or done.stdout != expected:
            raise RuntimeError("cold-start axioms output differs from the in-process output")
        raw.append(seconds * 1000)
        calibrated.append(scaled * 1000)
    return raw, calibrated


# ---------------------------------------------------------------------------
# Timed passes
# ---------------------------------------------------------------------------


class Pass:
    """Timings of one pass, a digest per job, and (first pass only) the outputs."""

    def __init__(self, start, end, times, scaled, outputs):
        self.start, self.end = start, end
        self.raw_wall = sum(times)  # seconds in jobs, without the speed samples
        self.wall = sum(scaled)  # the same, calibrated
        self.times = times  # raw seconds per job
        self.scaled = scaled  # calibrated seconds per job
        self.errors = [error for _, _, error in outputs]
        self.digests = [
            hashlib.sha256((f"error {error}" if error else text).encode()).hexdigest()
            for text, _, error in outputs
        ]
        self.outputs = outputs  # (text, value, error name) per job


def _run_pass(jobs, speed, tracer=None) -> Pass:
    spans, outputs = [], []
    speed.sample()
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        t0 = time.perf_counter()
        try:
            text, value = job.call()
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            text, value, error = None, None, type(exc).__name__
        spans.append((t0, time.perf_counter()))
        outputs.append((text, value, error))
        speed.sample_if_due()
    end = time.perf_counter()
    speed.sample()
    times = [t1 - t0 for t0, t1 in spans]
    scaled = [(t1 - t0) / speed.slowdown(t0, t1) for t0, t1 in spans]
    return Pass(start, end, times, scaled, outputs)


def _run_for(
    jobs, seconds, speed, min_passes=1, keep_first=True, tracer=None, after_pass=None
) -> list[Pass]:
    """Whole passes, starting another while less than ``seconds`` have passed."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        result = _run_pass(jobs, speed, tracer)
        if after_pass is not None:
            after_pass(result)
        if passes or not keep_first:
            result.outputs = None
        passes.append(result)
    return passes


def _check(jobs, passes: list[Pass]) -> tuple[list[str], str, dict[str, int]]:
    """Oracle problems, the output digest, and failures by exception of one pass."""
    problems = []
    first = passes[0]
    for number, later in enumerate(passes[1:], start=2):
        for job, expected, got in zip(jobs, first.digests, later.digests):
            if got != expected:
                problems.append(f"pass {number}: output of {job.label!r} changed")
                break
    failures: dict[str, int] = {}
    digest = hashlib.sha256()
    for job, (text, value, error) in sorted(zip(jobs, first.outputs), key=lambda p: p[0].label):
        if error is not None:
            failures[error] = failures.get(error, 0) + 1
        elif job.check is not None:
            problem = job.check(text, value)
            if problem:
                problems.append(f"{job.label}: {problem}")
        if job.digest:
            digest.update(f"{job.label}\n{error or ''}\n{text or ''}\n".encode())
    return problems, digest.hexdigest(), failures


def _recorded_digest(workload: str, seed: int) -> str | None:
    """The digest recorded for this workload and seed at the baseline, if any."""
    recorded = json.loads((HERE / "baseline.json").read_text())["digests"][workload]
    return recorded.get("any_seed") or recorded.get(str(seed))


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "hopfrep" / "__init__.py").is_file():
        print(f"perfbench: no hopfrep sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return _setup_only(args)

    speed = SpeedLog()
    setup_raw, setup_s, import_ms = _measure_setup(args, speed)

    from hopfrep import cli

    import tracing
    import workloads

    workload = workloads.build(args.workload, args.seed, OUT)
    traced_summaries, spans = [], None
    try:
        workload.warm_up()
        jobs = workload.jobs[: args.max_jobs]
        if args.trace:
            untraced = _run_for(jobs, args.seconds / 2, speed)
            tracer = tracing.Tracer()

            def summarize(result):
                nonlocal spans
                times, counters = tracing.summarize(tracer.spans)
                slowdown = speed.slowdown(result.start, result.end)
                times = {n: {k: v / slowdown for k, v in t.items()} for n, t in times.items()}
                traced_summaries.append((times, counters))
                if spans is None:
                    spans = tracer.spans

            tracer.install()
            try:
                traced = _run_for(jobs, args.seconds / 2, speed, 1, False, tracer, summarize)
            finally:
                tracer.uninstall()
        else:
            # Two passes at least, so that every job time is a median of two.
            untraced, traced = _run_for(jobs, args.seconds, speed, 2), []
        passes = untraced + traced
        problems, digest, failures = _check(jobs, passes)
    finally:
        workload.close()

    recorded = None if args.max_jobs is not None else _recorded_digest(args.workload, args.seed)
    if recorded is not None and recorded != digest:
        problems.append(f"output digest {digest} differs from the recorded {recorded}")
    attempted = len(jobs) * len(passes)
    failed = sum(error is not None for p in passes for error in p.errors)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs_per_pass": len(jobs),
        "untraced_pass_walls_s": [p.wall for p in untraced],
        "traced_pass_walls_s": [p.wall for p in traced],
        "raw_untraced_pass_walls_s": [p.raw_wall for p in untraced],
        "raw_traced_pass_walls_s": [p.raw_wall for p in traced],
        "digest": digest,
        "digest_recorded": recorded,
        "failures_per_pass": failures,
        "setup_samples_s": setup_s,
        "raw_setup_samples_s": setup_raw,
        "import_ms_samples": import_ms,
        "reference_slowdown": {
            "median": statistics.median(speed.slowdowns),
            "min": min(speed.slowdowns),
            "max": max(speed.slowdowns),
            "samples": len(speed.slowdowns),
        },
        "problems": problems,
    }

    if args.trace:
        units = dict(tracing.PER_LAYER)
        metrics = tracing.layer_metrics(traced_summaries)
        metrics["cli.import_ms"] = statistics.median(import_ms)
        metrics["trace.overhead_s"] = statistics.median(
            p.wall for p in traced
        ) - statistics.median(p.wall for p in untraced)
        report["counters"] = {k: v for k, v in metrics.items() if units[k] in ("count", "bytes")}
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.tsv"
        tracing.write_spans(spans_path, spans)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        units = dict(END_TO_END)
        expected_axioms = io.StringIO()
        cli.run(AXIOMS_ARGV, expected_axioms, io.StringIO())
        cold_raw, cold_ms = _measure_cold_start(expected_axioms.getvalue(), speed)
        per_job = [statistics.median(p.scaled[i] for p in passes) * 1000 for i in range(len(jobs))]
        raw_per_job = [statistics.median(p.times[i] for p in passes) * 1000 for i in range(len(jobs))]
        metrics = {
            "wall_s": statistics.median(p.wall for p in passes),
            "job_gmean_ms": _gmean(per_job),
            "job_p50_ms": _percentile(per_job, 0.5),
            "job_p90_ms": _percentile(per_job, 0.9),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (attempted - failed) / attempted,
            "cold_start_ms": statistics.median(cold_ms),
        }
        report["raw"] = {
            "wall_s": statistics.median(p.raw_wall for p in passes),
            "job_gmean_ms": _gmean(raw_per_job),
            "job_p50_ms": _percentile(raw_per_job, 0.5),
            "job_p90_ms": _percentile(raw_per_job, 0.9),
            "setup_s": statistics.median(setup_raw),
            "cold_start_ms": statistics.median(cold_raw),
        }
        report["cold_start_samples_ms"] = cold_ms
        report["raw_cold_start_samples_ms"] = cold_raw
        report["job_median_ms"] = {job.label: t for job, t in zip(jobs, per_job)}

    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1)
    )

    status = "not recorded" if recorded is None else "matches" if recorded == digest else "MISMATCH"
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of {len(jobs)} jobs")
    print(f"output digest {digest} ({status})")
    print(f"failed ops per pass: {failures or 'none'}")
    slowdown = report["reference_slowdown"]
    print(
        f"reference loop slowdown: median {slowdown['median']:.3f}, "
        f"range {slowdown['min']:.3f}-{slowdown['max']:.3f} over {slowdown['samples']} samples"
    )
    raw = report.get("raw", {})
    for name, entry in report["metrics"].items():
        line = f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}"
        if name in raw:
            line += f"   (raw {raw[name]:.6g})"
        print(line)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
