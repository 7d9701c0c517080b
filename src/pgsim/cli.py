"""Command-line entry point.

Subcommands: ``run`` (one engagement), ``sweep`` (Monte-Carlo delay
sweep), ``validate`` (config check only).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from pathlib import Path

from . import config as cf
from . import engagement as en
from . import montecarlo as mc

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
# the most sweep workers --jobs accepts: each worker is a forked copy of
# the parent, and workers beyond the host's CPUs only add processes
MAX_JOBS = 256


def _parse_set(pairs):
    out = []
    for p in pairs:
        if "=" not in p:
            raise cf.ConfigError(["--set expects KEY=VALUE, got %r" % p])
        key, value = p.split("=", 1)
        out.append((key.strip(), value.strip()))
    return out


def _worker_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text) from None
    if not 1 <= value <= MAX_JOBS:
        raise argparse.ArgumentTypeError("need 1 to %d workers, got %d" % (MAX_JOBS, value))
    return value


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgsim",
        description="Seeker-delay-compensated PN engagement simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("run", "simulate one engagement and export CSV + metrics JSON"),
        ("sweep", "run the Monte-Carlo delay sweep"),
        ("validate", "validate the configuration and print the resolved form"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config file overlaying the defaults")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="dotted-key override, repeatable")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides the config)")
        if name in ("run", "sweep"):
            p.add_argument("--out", type=Path, default=Path("."),
                           help="output directory")
        if name == "sweep":
            p.add_argument("--jobs", type=_worker_count, default=min(_usable_cpus(), MAX_JOBS),
                           help="worker processes (1 to %d)" % MAX_JOBS)
    return parser


def _resolve(args) -> dict:
    file_cfg = None
    if args.config is not None:
        with open(args.config) as fh:
            try:
                file_cfg = json.load(fh)
            except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, too deep
                raise cf.ConfigError(["%s is not valid JSON: %s" % (args.config, exc)]) from None
        if not isinstance(file_cfg, dict):
            raise cf.ConfigError(["%s must hold a JSON object" % args.config])
    cfg = cf.resolve(file_cfg, _parse_set(args.set))
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def _fly_writing_csv(eng: en.EngagementConfig, path: Path) -> en.EngagementRecord:
    """Fly ``eng`` and write its series to ``path``, which is opened
    before the flight and removed if the flight or the write raises.

    A forked writer formats the rows on another CPU while the loop
    flies (:class:`pgsim.engagement.CsvStream`).  The record is written
    in-process after the flight instead where there is no fork, where
    another thread runs (a fork would be unsafe), or where the process
    may use only one CPU (the writer would compete with the loop).
    """
    with open(path, "w") as fh:
        try:
            if hasattr(os, "fork") and threading.active_count() == 1 and _usable_cpus() > 1:
                with en.CsvStream(fh) as stream:
                    return en.run_engagement(eng, on_rows=stream.write)
            record = en.run_engagement(eng)
            record.write_csv(path)
        except BaseException:
            os.unlink(path)
            raise
    return record


def cmd_run(args) -> int:
    cfg = _resolve(args)
    eng = en.EngagementConfig.from_setup(cf.build_setup(cfg))
    args.out.mkdir(parents=True, exist_ok=True)
    record = _fly_writing_csv(eng, args.out / "engagement.csv")
    doc = {
        "config": cfg,
        "metrics": en.compute_metrics(record, eng),
        "miss_distance": record.miss_distance,
        "miss_time": record.miss_time,
        "termination_reason": record.termination_reason,
        "source_switch_time": record.source_switch_time,
        "diagnostic": record.diagnostic,
    }
    mc.write_json(doc, args.out / "metrics.json")
    print("termination=%s miss=%.6g m at t=%.6g s"
          % (record.termination_reason, record.miss_distance, record.miss_time))
    if record.termination_reason in en.FAILURES:
        print("%s: %s" % (record.termination_reason, record.diagnostic), file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _resolve(args)
    sweep = cf.build_sweep(cfg)
    args.out.mkdir(parents=True, exist_ok=True)
    summary = mc.run_sweep(sweep, jobs=args.jobs)
    mc.write_runs_csv(summary, args.out / "sweep_runs.csv")
    summary.config_echo["resolved_config"] = cfg
    mc.write_summary_json(summary, args.out / "sweep_summary.json")
    mc.write_plotdata(summary, args.out)
    for (d, s), st in sorted(summary.groups.items()):
        print("delay=%.3f source=%-9s mean=%.4g m std=%.4g m n=%d failures=%d"
              % (d, s, st["mean_miss"], st["std_miss"], st["n"], st["failure_count"]))
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _resolve(args)
    cf.build_setup(cfg)
    print(json.dumps(cfg, indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"run": cmd_run, "sweep": cmd_sweep, "validate": cmd_validate}[args.command]
    try:
        return handler(args)
    except cf.ConfigError as exc:
        for line in exc.problems:
            print("config error: %s" % line, file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
