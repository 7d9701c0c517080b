"""Seeded delay-sweep experiment over weaving-target engagements.

Every (delay, sample) pair gets one target phase, shared by the
corrected and uncorrected runs so the comparison is paired.  Seeding is
keyed by (master seed, sample index), which makes the summary
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


def build_run_config(sweep: SweepConfig, delay: float, source: str,
                     sample: int) -> en.EngagementConfig:
    """Engagement config for one work item.

    The seeker lag and the observer horizon are both set to the swept
    delay; the weaving-target phase comes from the per-sample seed.
    """
    base = sweep.base
    seed = tg.derive_seed(sweep.master_seed, sample)
    phase = tg.sample_phase(seed)
    target = dataclasses.replace(base.target, kind="weaving", phase=phase)
    seeker = dataclasses.replace(base.seeker, lag_time_constant=delay)
    observer = dataclasses.replace(base.observer, delta=delay)
    guidance = dataclasses.replace(base.guidance, source=source)
    return dataclasses.replace(base, target=target, seeker=seeker,
                               observer=observer, guidance=guidance)


def _execute_item(args):
    sweep, delay, source, sample = args
    cfg = build_run_config(sweep, delay, source, sample)
    seed = tg.derive_seed(sweep.master_seed, sample)
    record = en.run_engagement(cfg)
    metrics = en.compute_metrics(record, cfg)
    return RunResult(
        delay=delay, source=source, sample=sample, seed=seed,
        miss=record.miss_distance, rmse=metrics.rmse_predicted
        if source == "predicted" else metrics.rmse_delayed,
        peak_accel=metrics.peak_accel_cmd,
        termination=record.termination_reason,
    )


def run_sweep(sweep: SweepConfig, jobs: int = 1) -> SweepSummary:
    """Run the full sweep, on a process pool of ``jobs`` workers, or
    of one per run if there are fewer runs.

    A diverged engagement becomes a failure row; it never aborts the
    sweep.
    """
    items = [(sweep, d, src, i)
             for d in sweep.delays
             for src in sweep.sources
             for i in range(sweep.samples_per_delay)]
    workers = min(jobs, len(items))
    if workers > 1:
        import multiprocessing as mp
        with mp.Pool(workers) as pool:
            results = pool.map(_execute_item, items, chunksize=1)
    else:
        results = [_execute_item(it) for it in items]
    summary = aggregate(results)
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


def write_plotdata(summary: SweepSummary, path_for_source) -> None:
    """Per-source columns (delay, mean, mean-std, mean+std) for external
    plotting; ``path_for_source`` maps a source name to a file path."""
    sources = sorted({s for _, s in summary.groups})
    for src in sources:
        rows = [(d, st["mean_miss"], st["std_miss"])
                for (d, s), st in sorted(summary.groups.items()) if s == src]
        with open(path_for_source(src), "w") as fh:
            fh.write("delay,mean,mean_minus_std,mean_plus_std\n")
            for d, m, sd in rows:
                fh.write("%s,%s,%s,%s\n" % (repr(d), repr(m), repr(m - sd), repr(m + sd)))
