"""Seeded delay-sweep experiment over weaving-target engagements.

Every (delay, sample) pair gets one target phase, shared by the
corrected and uncorrected runs so the comparison is paired.  One work
item flies a pair: the warm-up, through which both sources feed guidance
the delayed rate, is flown once, and each source's run goes on from the
handoff step.  A sweep reads only each run's miss, termination,
acceleration peak and the RMSE of its own source, so no run records the
prediction: a delayed run stops stepping the observer at the handoff
step and its ``rmse_predicted*`` read NaN, which no output holds.
Seeding is keyed by (master seed, sample index), which makes the summary
independent of execution order and worker count.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from . import engagement as en
from . import targets as tg

__all__ = ["SweepConfig", "RunResult", "SweepSummary", "run_sweep", "aggregate"]

RUNS_CSV_COLUMNS = ("delay", "source", "sample", "seed", "miss", "rmse",
                    "peak_accel", "termination")


@dataclass(frozen=True)
class SweepConfig:
    delays: tuple
    samples_per_delay: int
    master_seed: int
    sources: tuple
    base: en.EngagementConfig  # template; per-run fields are overridden


@dataclass(frozen=True)
class RunResult:
    delay: float
    source: str
    sample: int
    seed: int
    miss: float
    rmse: float
    peak_accel: float
    termination: str


@dataclass
class SweepSummary:
    groups: dict       # (delay, source) -> stats dict
    runs: list         # RunResult, in deterministic order
    config_echo: dict  # delays/samples/sources/master_seed


def build_run_config(sweep: SweepConfig, delay: float, sample: int) -> tuple:
    """Seed and engagement config of one (delay, sample) pair's runs,
    which set their source with ``with_source``.

    The seeker lag and the observer horizon are both set to the swept
    delay; the weaving-target phase comes from the per-sample seed.
    """
    base = sweep.base
    seed = tg.derive_seed(sweep.master_seed, sample)
    phase = tg.sample_phase(seed)
    target = dataclasses.replace(base.target, kind="weaving", phase=phase)
    seeker = dataclasses.replace(base.seeker, lag_time_constant=delay)
    observer = dataclasses.replace(base.observer, delta=delay)
    return seed, dataclasses.replace(base, target=target, seeker=seeker,
                                     observer=observer)


def _execute_item(args):
    """One (delay, sample) pair: a result per source, in ``sweep.sources``
    order.  Each run after the first resumes from the previous run's
    warm-up state; a run that ends before the warm-up step leaves none,
    and the next one flies from the start."""
    sweep, delay, sample = args
    seed, pair = build_run_config(sweep, delay, sample)
    results = []
    warm = None
    for i, source in enumerate(sweep.sources):
        cfg = pair.with_source(source)
        record = en.run_engagement(cfg, warm, record_prediction=False)
        warm = None  # the prefix copy is not held through the metrics
        metrics = en.compute_metrics(record, cfg)
        results.append(RunResult(
            delay=delay, source=source, sample=sample, seed=seed,
            miss=record.miss_distance, rmse=metrics["rmse_predicted"]
            if source == "predicted" else metrics["rmse_delayed"],
            peak_accel=metrics["peak_accel_cmd"],
            termination=record.termination_reason,
        ))
        if record.warmup is not None and i + 1 < len(sweep.sources):
            # a copy of the prefix rows, so that this record is freed
            # before the next run
            warm = record.warmup.detached()
        record = None
    return results


def run_sweep(sweep: SweepConfig, jobs: int = 1) -> SweepSummary:
    """Run the full sweep, on a process pool of ``jobs`` workers, or
    of one per (delay, sample) pair if there are fewer pairs.

    A diverged engagement becomes a failure row; it never aborts the
    sweep.
    """
    items = [(sweep, d, i)
             for d in sweep.delays
             for i in range(sweep.samples_per_delay)]
    workers = min(jobs, len(items))
    if workers > 1:
        import multiprocessing as mp
        with mp.Pool(workers) as pool:
            pairs = pool.map(_execute_item, items, chunksize=1)
    else:
        pairs = [_execute_item(it) for it in items]
    summary = aggregate([r for pair in pairs for r in pair])
    summary.config_echo = {
        "delays": list(sweep.delays),
        "samples_per_delay": sweep.samples_per_delay,
        "sources": list(sweep.sources),
        "master_seed": sweep.master_seed,
        "std_definition": "population",
    }
    return summary


def aggregate(results) -> SweepSummary:
    """Per-(delay, source) mean and population std of the miss distance.

    Failed runs (a termination in ``engagement.FAILURES``, or a
    non-finite miss) are counted and excluded from the statistics; other
    terminations are data.
    """
    if not results:
        raise ValueError("no results to aggregate")
    groups: dict = {}
    for r in results:
        groups.setdefault((r.delay, r.source), []).append(r)
    stats = {}
    for key in sorted(groups, key=lambda k: (k[0], k[1])):
        rs = groups[key]
        ok = [r.miss for r in rs
              if math.isfinite(r.miss) and r.termination not in en.FAILURES]
        failures = len(rs) - len(ok)
        if not ok:
            stats[key] = {"mean_miss": math.nan, "std_miss": math.nan,
                          "n": 0, "failure_count": failures}
            continue
        arr = np.asarray(ok)
        stats[key] = {
            "mean_miss": float(arr.mean()),
            "std_miss": float(arr.std()),  # population std
            "n": len(ok),
            "failure_count": failures,
        }
    ordered = sorted(results, key=lambda r: (r.delay, r.source, r.sample))
    return SweepSummary(groups=stats, runs=ordered, config_echo={})


def write_runs_csv(summary: SweepSummary, path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(RUNS_CSV_COLUMNS) + "\n")
        for r in summary.runs:
            fh.write("%s,%s,%d,%d,%s,%s,%s,%s\n" % (
                repr(r.delay), r.source, r.sample, r.seed,
                repr(r.miss), repr(r.rmse), repr(r.peak_accel), r.termination))


def write_summary_json(summary: SweepSummary, path) -> None:
    doc = {
        "config": summary.config_echo,
        "groups": [
            {"delay": d, "source": s, **stats}
            for (d, s), stats in sorted(summary.groups.items())
        ],
    }
    write_json(doc, path)


def write_json(doc, path) -> None:
    """Write a JSON document as strict JSON (NaN and infinities become
    ``null``), indented, with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(finite_or_null(doc), fh, indent=2, allow_nan=False)
        fh.write("\n")


def finite_or_null(obj):
    """Copy of a JSON document with every NaN or infinity replaced by
    None, so that it serializes as strict JSON (``null``)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [finite_or_null(v) for v in obj]
    return obj


def write_plotdata(summary: SweepSummary, out_dir) -> None:
    """Per-source columns (delay, mean, mean-std, mean+std) for external
    plotting, one ``plotdata_<source>.csv`` per source in the directory
    ``out_dir``, a :class:`pathlib.Path`."""
    sources = sorted({s for _, s in summary.groups})
    for src in sources:
        rows = [(d, st["mean_miss"], st["std_miss"])
                for (d, s), st in sorted(summary.groups.items()) if s == src]
        with open(out_dir / ("plotdata_%s.csv" % src), "w") as fh:
            fh.write("delay,mean,mean_minus_std,mean_plus_std\n")
            for d, m, sd in rows:
                fh.write("%s,%s,%s,%s\n" % (repr(d), repr(m), repr(m - sd), repr(m + sd)))
