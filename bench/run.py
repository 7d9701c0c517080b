#!/usr/bin/env python3
"""pgsim benchmark: three closed-loop workloads with one client each.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` times untraced repetitions
for ``--seconds`` and reports the end-to-end metrics, with every time
scaled to a reference machine speed (``bench/reference.py``); ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
split.  Every repetition's outputs are checked.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
metrics as a table and a ``report`` line with sample counts, quartiles
and provenance.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # The hash seed sets the layout of every dict keyed by strings, which
    # moves timings by several percent from one process to the next.  Fix
    # it, so that runs differ only in what they measure.
    os.execve(sys.executable, [sys.executable] + sys.argv,
              dict(os.environ, PYTHONHASHSEED="0"))

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "pgsim" / "__init__.py").is_file():
    sys.exit("bench: no pgsim sources under %s" % SRC)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import pgsim  # noqa: E402
from pgsim import cli  # noqa: E402
from pgsim import config as cf  # noqa: E402
from pgsim import engagement as en  # noqa: E402
from pgsim import montecarlo as mc  # noqa: E402

from reference import SpeedProbe  # noqa: E402
from tracing import HOOKS, LIGHT_HOOKS, Tracer  # noqa: E402

if Path(pgsim.__file__).resolve().parent != SRC / "pgsim":
    sys.exit("bench: imported pgsim from %s, not from %s" % (pgsim.__file__, SRC))

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "us_per_step": "us",
    "runs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "observer.calls": "count",
    "observer.self_s": "s",
    "observer.us_per_call": "us",
    "observer.used_frac": "ratio",
    "airframe.step_calls": "count",
    "airframe.step_self_s": "s",
    "airframe.us_per_step": "us",
    "airframe.atmosphere_s": "s",
    "airframe.interpolate_s": "s",
    "airframe.thrust_calls": "count",
    "airframe.thrust_s": "s",
    "seeker.calls": "count",
    "seeker.self_s": "s",
    "targets.calls": "count",
    "targets.self_s": "s",
    "guidance.calls": "count",
    "guidance.self_s": "s",
    "engagement.steps": "count",
    "engagement.loop_self_s": "s",
    "engagement.miss_s": "s",
    "engagement.metrics_s": "s",
    "engagement.csv_s": "s",
    "engagement.csv_bytes": "bytes",
    "cli.self_s": "s",
    "config.resolve_s": "s",
    "config.build_setup_s": "s",
    "montecarlo.items": "count",
    "montecarlo.pool_overhead_s": "s",
    "montecarlo.aggregate_s": "s",
    "montecarlo.write_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.remainder_frac": "ratio",
}

# Set-ups (each well under 1 ms) timed after every timed repetition, so
# that setup_s samples the machine over the whole run, as wall_s does.
SETUPS_PER_REPETITION = 20

SWEEP_DELAYS = (0.025, 0.35)  # the ends of the default range
SWEEP_SAMPLES = 2
SWEEP_JOBS = 2


@dataclasses.dataclass
class Outcome:
    """One repetition: its wall time, the engagements it ran, and the
    outputs compared across repetitions (one line per engagement)."""

    wall: float
    lines: list
    failed: set  # indices into ``lines`` whose output check failed
    csv_rows: int = -1
    sweep_s: float = 0.0


def _reject_constant(token):
    raise ValueError("non-standard JSON constant %s" % token)


def check_engagement(termination: str, miss: float) -> bool:
    """An engagement passes when it ends at closest approach with a
    finite, non-negative miss.  Exact miss values are not pinned."""
    return termination == "closest_approach" and math.isfinite(miss) and miss >= 0.0


def resolve_setup(overlay: dict, seed: int):
    """Config document to typed engagement config, as a user's run does."""
    cfg = cf.resolve(overlay)
    cfg["seed"] = seed
    problems = cf.validate(cfg)
    if problems:
        raise cf.ConfigError(problems)
    return cfg, en.EngagementConfig.from_setup(cf.build_setup(cfg))


class EngageWeavePred:
    """One in-process engagement: 0.2 s lag, weaving target, predicted
    source, from config document to metrics, with no file output."""

    overlay = {"seeker": {"lag_time_constant": 0.2},
               "guidance": {"source": "predicted"},
               "target": {"kind": "weaving"}}
    jobs = 1

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed

    def params(self) -> dict:
        return {"config": self.overlay, "master_seed": self.seed}

    def repeat(self, jobs: int) -> Outcome:
        t0 = time.perf_counter()
        _, eng = resolve_setup(self.overlay, self.seed)
        record = en.run_engagement(eng)
        metrics = en.compute_metrics(record, eng)
        wall = time.perf_counter() - t0
        h = hashlib.sha256()
        for col in en.CSV_COLUMNS:
            h.update(record.series[col].tobytes())
        h.update(repr((record.miss_distance, record.miss_time, record.termination_reason,
                       record.diagnostic, metrics)).encode())
        ok = check_engagement(record.termination_reason, record.miss_distance)
        return Outcome(wall, [h.hexdigest()], set() if ok else {0})


class CliRunDefault:
    """``pgsim run --out DIR`` with defaults, in-process: the full
    per-step series is recorded and written as CSV plus metrics JSON."""

    overlay: dict = {}
    jobs = 1

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.out = tmp / "run"

    def params(self) -> dict:
        return {"argv": self.argv("TMPDIR"), "master_seed": self.seed}

    def argv(self, out) -> list:
        return ["run", "--out", str(out), "--seed", str(self.seed)]

    def repeat(self, jobs: int) -> Outcome:
        shutil.rmtree(self.out, ignore_errors=True)
        printed = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(printed):
            code = cli.main(self.argv(self.out))
        wall = time.perf_counter() - t0
        if code != cli.EXIT_OK:
            return Outcome(wall, ["exit code %d" % code], {0})
        csv = (self.out / "engagement.csv").read_bytes()
        doc_bytes = (self.out / "metrics.json").read_bytes()
        header, _, body = csv.partition(b"\n")
        ok = header.decode() == ",".join(en.CSV_COLUMNS)
        try:
            doc = json.loads(doc_bytes, parse_constant=_reject_constant)
            ok = ok and check_engagement(doc["termination_reason"], doc["miss_distance"])
        except (ValueError, KeyError, TypeError):
            ok = False
        digest = hashlib.sha256(csv + doc_bytes).hexdigest()
        return Outcome(wall, [digest], set() if ok else {0}, csv_rows=body.count(b"\n"))


class SweepDelay2w:
    """Reduced paired delay sweep on a 2-worker pool, plus the runs CSV
    and summary JSON; no per-step series is written."""

    overlay = {"sweep": {"delays": list(SWEEP_DELAYS),
                         "samples_per_delay": SWEEP_SAMPLES}}
    jobs = SWEEP_JOBS

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def params(self) -> dict:
        return {"config": self.overlay, "master_seed": self.seed, "jobs": self.jobs,
                "engagements": len(SWEEP_DELAYS) * SWEEP_SAMPLES * 2}

    def repeat(self, jobs: int) -> Outcome:
        t0 = time.perf_counter()
        cfg, base = resolve_setup(self.overlay, self.seed)
        sw = cfg["sweep"]
        sweep = mc.SweepConfig(delays=tuple(float(d) for d in sw["delays"]),
                               samples_per_delay=int(sw["samples_per_delay"]),
                               master_seed=self.seed, sources=tuple(sw["sources"]),
                               base=base)
        ts = time.perf_counter()
        summary = mc.run_sweep(sweep, jobs=jobs)
        sweep_s = time.perf_counter() - ts
        mc.write_runs_csv(summary, self.tmp / "sweep_runs.csv")
        summary.config_echo["resolved_config"] = cfg
        mc.write_summary_json(summary, self.tmp / "sweep_summary.json")
        wall = time.perf_counter() - t0
        lines = (self.tmp / "sweep_runs.csv").read_text().splitlines()[1:]
        failed = {i for i, r in enumerate(summary.runs)
                  if not check_engagement(r.termination, r.miss)}
        if len(lines) != len(summary.runs):
            failed = set(range(len(summary.runs)))
        return Outcome(wall, lines, failed, sweep_s=sweep_s)


WORKLOADS = {
    "engage-weave-pred": EngageWeavePred,
    "sweep-delay-2w": SweepDelay2w,
    "cli-run-default": CliRunDefault,
}


class Ledger:
    """Engagements attempted and failed over every repetition.  An
    engagement fails its own output check, or differs from the
    reference repetition, or is missing from a repetition."""

    def __init__(self, reference: Outcome, steps: int):
        self.reference = reference
        self.steps = steps
        self.attempted = 0
        self.failed = 0
        self.add(reference)

    def add(self, out: Outcome) -> None:
        ref = self.reference.lines
        bad = set(out.failed) | set(range(len(out.lines), len(ref)))
        bad |= {i for i, line in enumerate(out.lines) if i >= len(ref) or line != ref[i]}
        if out.csv_rows not in (-1, self.steps):
            bad.add(0)
        self.attempted += max(len(out.lines), len(ref))
        self.failed += len(bad)


def measure_setup(workload) -> list:
    times = []
    for _ in range(SETUPS_PER_REPETITION):
        t0 = time.perf_counter()
        resolve_setup(workload.overlay, workload.seed)
        times.append(time.perf_counter() - t0)
    return times


def repetition(workload, jobs: int) -> Outcome:
    gc.collect()  # garbage of the previous repetition is not this one's cost
    return workload.repeat(jobs)


def warm_up(workload):
    """First repetition, on 1 worker with only the light hooks: it
    counts the engagement steps and gives the reference outputs."""
    with Tracer(LIGHT_HOOKS) as light:
        reference = repetition(workload, 1)
    if light.missing:
        sys.exit("bench: hooks %s not found in pgsim" % light.missing)
    return Ledger(reference, light.counts["engagement.run"])


def ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced repetition; None marks a metric
    whose hook is missing from the code."""
    thrust = ("airframe.thrust", "airframe.mass_flow", "airframe.mass_at")
    airframe = ("airframe.step", "airframe.atmosphere", "airframe.interpolate") + thrust
    seeker = ("seeker.los_rate", "seeker.delay")
    guidance = ("guidance.select", "guidance.pn", "guidance.autopilot")
    m = {
        "observer.calls": tr.calls("observer.step"),
        "observer.self_s": tr.self_s("observer.step"),
        "observer.used_frac": ratio(tr.counts.get("guidance.select"),
                                    tr.calls("guidance.select")),
        "airframe.step_calls": tr.calls("airframe.step"),
        "airframe.step_self_s": tr.self_s("airframe.step"),
        "airframe.atmosphere_s": tr.self_s("airframe.atmosphere"),
        "airframe.interpolate_s": tr.self_s("airframe.interpolate"),
        "airframe.thrust_calls": tr.calls(*thrust),
        "airframe.thrust_s": tr.self_s(*thrust),
        "seeker.calls": tr.calls(*seeker),
        "seeker.self_s": tr.self_s(*seeker),
        "targets.calls": tr.calls("targets.state"),
        "targets.self_s": tr.self_s("targets.state"),
        "guidance.calls": tr.calls(*guidance),
        "guidance.self_s": tr.self_s(*guidance),
        "engagement.steps": tr.counts.get("engagement.run"),
        "engagement.loop_self_s": tr.self_s("engagement.run"),
        "engagement.miss_s": tr.inclusive_s("engagement.miss"),
        "engagement.metrics_s": tr.inclusive_s("engagement.metrics"),
        "engagement.csv_s": tr.inclusive_s("engagement.csv"),
        "engagement.csv_bytes": tr.counts.get("engagement.csv"),
        "cli.self_s": tr.self_s("cli.main"),
        "config.resolve_s": tr.inclusive_s("config.resolve"),
        "config.build_setup_s": tr.inclusive_s("config.build_setup"),
        "montecarlo.items": tr.calls("montecarlo.item"),
        "montecarlo.aggregate_s": tr.inclusive_s("montecarlo.aggregate"),
        "montecarlo.write_s": tr.inclusive_s("montecarlo.write_runs",
                                             "montecarlo.write_summary"),
    }
    obs_us = ratio(m["observer.self_s"], m["observer.calls"])
    m["observer.us_per_call"] = None if obs_us is None else obs_us * 1e6
    af_us = ratio(tr.inclusive_s("airframe.step"), m["airframe.step_calls"])
    m["airframe.us_per_step"] = None if af_us is None else af_us * 1e6
    # Everything inside run_engagement belongs to one of these layers or
    # to the loop itself, so the remainder measures what the split misses.
    parts = [tr.self_s(*airframe), m["observer.self_s"], m["seeker.self_s"],
             m["targets.self_s"], m["guidance.self_s"], m["engagement.loop_self_s"],
             m["engagement.miss_s"]]
    run_s = tr.inclusive_s("engagement.run")
    if run_s is None or any(p is None for p in parts):
        m["trace.remainder_frac"] = None
    else:
        m["trace.remainder_frac"] = ratio(run_s - sum(parts), run_s)
    return m


def median_or_none(values):
    return None if any(v is None for v in values) else statistics.median(values)


def spread(values) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q[0],
            "q3": q[2], "min": min(values), "max": max(values)}


def peak_rss_mb(jobs: int) -> float:
    """Peak RSS of this process plus ``jobs`` workers, each taken at the
    largest worker's peak; pages a worker shares with this process count
    in both."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if jobs > 1:
        own += jobs * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "pgsim").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, workload) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pgsim": pgsim.__version__,
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params(),
    }


def run_untraced(workload, seconds: float):
    """Warm-up, then untraced repetitions for ``seconds``.  Set-ups and
    the speed probe run after each repetition, outside its wall time;
    every time is scaled to the reference speed of the machine."""
    ledger = warm_up(workload)
    probe = SpeedProbe(workload.jobs)
    try:
        walls, setup = [], []
        stop = time.perf_counter() + seconds
        while not walls or time.perf_counter() < stop:
            out = repetition(workload, workload.jobs)
            ledger.add(out)
            walls.append(out.wall)
            setup += measure_setup(workload)
            probe.after(out.wall)
        rss = peak_rss_mb(workload.jobs)  # before the probe's pool is reaped
    finally:
        probe.close()
    factor = probe.factor()
    wall = statistics.median(walls) * factor
    metrics = {
        "wall_s": wall,
        "us_per_step": wall / ledger.steps * 1e6,
        "runs_per_s": len(ledger.reference.lines) / wall,
        "setup_s": statistics.median(setup) * factor,
        "peak_rss_mb": rss,
    }
    detail = {"speed_factor": factor, "reference_loop_s": spread(probe.times),
              "unscaled_wall_s": spread(walls), "unscaled_setup_s": spread(setup),
              "steps_per_repetition": ledger.steps,
              "engagements_per_repetition": len(ledger.reference.lines)}
    return ledger, metrics, detail


def run_traced(workload, seconds: float):
    """Until ``seconds`` have passed, repeat: an untraced repetition, an
    untraced 1-worker one (for the sweep), and a fully traced 1-worker
    one.  Report per-layer medians, unscaled."""
    ledger = warm_up(workload)
    runs, solos, traced, layers = [], [], [], []
    stop = time.perf_counter() + seconds
    while not traced or time.perf_counter() < stop:
        runs.append(repetition(workload, workload.jobs))
        ledger.add(runs[-1])
        if workload.jobs > 1:
            solos.append(repetition(workload, 1))
            ledger.add(solos[-1])
        else:
            solos.append(runs[-1])
        with Tracer(HOOKS) as tr:
            traced.append(repetition(workload, 1))
        ledger.add(traced[-1])
        layers.append(layer_metrics(tr))
    metrics = {k: median_or_none([m[k] for m in layers]) for k in layers[0]}
    solo_wall = statistics.median(o.wall for o in solos)
    metrics["trace.overhead_frac"] = statistics.median(o.wall for o in traced) / solo_wall - 1.0
    # What the pool adds over a perfect split of the 1-worker sweep (0
    # for the workloads without one).
    metrics["montecarlo.pool_overhead_s"] = (
        statistics.median(o.sweep_s for o in runs)
        - statistics.median(o.sweep_s for o in solos) / workload.jobs)
    detail = {"untraced_wall_s": spread([o.wall for o in runs]),
              "untraced_1_worker_wall_s": spread([o.wall for o in solos]),
              "traced_wall_s": spread([o.wall for o in traced]),
              "missing_hooks": tr.missing}
    return ledger, metrics, detail


def table(metrics: dict, units: dict) -> list:
    """One line per metric; a metric whose hook is missing reads
    ``missing``, never a number."""
    return ["%-28s %14s %s" % (name, "missing" if metrics[name] is None
                               else "%.6g" % metrics[name], unit)
            for name, unit in units.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tmp = ROOT / ".bench_tmp" / ("%s-%d" % (args.workload, os.getpid()))
    tmp.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, tmp)
        run = run_traced if args.trace else run_untraced
        ledger, metrics, detail = run(workload, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()  # left in place while another run uses it
    units = PER_LAYER if args.trace else END_TO_END
    for line in table(metrics, units):
        print(line)
    print("%-28s %14.6g ratio (%d attempted)" % (
        "failed_frac", ledger.failed / ledger.attempted, ledger.attempted))
    print("report " + json.dumps({"provenance": provenance(args, workload), "detail": detail}))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
