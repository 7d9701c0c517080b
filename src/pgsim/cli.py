"""Command-line entry point.

Subcommands: ``run`` (one engagement), ``sweep`` (Monte-Carlo delay
sweep), ``validate`` (config check only), ``demo`` (zero-delay /
delayed / corrected comparison table).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import config as cf
from . import engagement as en
from . import montecarlo as mc

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3


def _parse_set(pairs):
    out = []
    for p in pairs:
        if "=" not in p:
            raise cf.ConfigError(["--set expects KEY=VALUE, got %r" % p])
        key, value = p.split("=", 1)
        out.append((key.strip(), value.strip()))
    return out


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
        ("demo", "compare zero-delay, delayed and corrected runs"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config file overlaying the defaults")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="dotted-key override, repeatable")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides PGS_SEED and the config)")
        if name in ("run", "sweep"):
            p.add_argument("--out", type=Path, default=Path("."),
                           help="output directory")
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                           help="worker processes")
    return parser


def _resolve(args) -> dict:
    file_cfg = None
    if args.config is not None:
        with open(args.config) as fh:
            try:
                file_cfg = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8 text
                raise cf.ConfigError(["%s is not valid JSON: %s" % (args.config, exc)]) from None
        if not isinstance(file_cfg, dict):
            raise cf.ConfigError(["%s must hold a JSON object" % args.config])
    cfg = cf.resolve(file_cfg, _parse_set(args.set))
    env_seed = os.environ.get("PGS_SEED")
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise cf.ConfigError(["PGS_SEED must be an integer, got %r" % env_seed]) from None
    if args.seed is not None:
        cfg["seed"] = args.seed
    problems = cf.validate(cfg)
    if problems:
        raise cf.ConfigError(problems)
    return cfg


def _engagement_config(cfg: dict) -> en.EngagementConfig:
    return en.EngagementConfig.from_setup(cf.build_setup(cfg))


def cmd_run(args) -> int:
    cfg = _resolve(args)
    eng = _engagement_config(cfg)
    record = en.run_engagement(eng)
    metrics = en.compute_metrics(record, eng)
    args.out.mkdir(parents=True, exist_ok=True)
    record.write_csv(args.out / "engagement.csv")
    doc = {
        "config": cfg,
        "metrics": dataclasses.asdict(metrics),
        "miss_distance": record.miss_distance,
        "miss_time": record.miss_time,
        "termination_reason": record.termination_reason,
        "source_switch_time": record.source_switch_time,
        "diagnostic": record.diagnostic,
    }
    with open(args.out / "metrics.json", "w") as fh:
        json.dump(mc.finite_or_null(doc), fh, indent=2, allow_nan=False)
        fh.write("\n")
    print("termination=%s miss=%.6g m at t=%.6g s"
          % (record.termination_reason, record.miss_distance, record.miss_time))
    if record.termination_reason == "observer_divergence":
        print("divergence: %s" % record.diagnostic, file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _resolve(args)
    base = _engagement_config(cfg)
    sw = cfg["sweep"]
    sweep = mc.SweepConfig(
        delays=tuple(float(d) for d in sw["delays"]),
        samples_per_delay=int(sw["samples_per_delay"]),
        master_seed=int(cfg["seed"]),
        sources=tuple(sw["sources"]),
        base=base,
    )
    summary = mc.run_sweep(sweep, jobs=max(args.jobs, 1))
    args.out.mkdir(parents=True, exist_ok=True)
    mc.write_runs_csv(summary, args.out / "sweep_runs.csv")
    summary.config_echo["resolved_config"] = cfg
    mc.write_summary_json(summary, args.out / "sweep_summary.json")
    mc.write_plotdata(summary, lambda s: args.out / ("plotdata_%s.csv" % s))
    for (d, s), st in sorted(summary.groups.items()):
        print("delay=%.3f source=%-9s mean=%.4g m std=%.4g m n=%d failures=%d"
              % (d, s, st["mean_miss"], st["std_miss"], st["n"], st["failure_count"]))
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _resolve(args)
    print(json.dumps(cfg, indent=2))
    return EXIT_OK


def cmd_demo(args) -> int:
    cfg = _resolve(args)
    lag = float(cfg["seeker"]["lag_time_constant"]) or 0.2
    scenarios = (
        ("zero delay", 0.0, "true"),
        ("uncorrected", lag, "delayed"),
        ("corrected", lag, "predicted"),
    )
    print("%-12s %12s %12s" % ("source", "LOS RMSE", "miss [m]"))
    for label, scen_lag, source in scenarios:
        scen = json.loads(json.dumps(cfg))
        scen["seeker"]["lag_time_constant"] = scen_lag
        scen["guidance"]["source"] = source
        eng = _engagement_config(scen)
        record = en.run_engagement(eng)
        metrics = en.compute_metrics(record, eng)
        rmse = (metrics.rmse_predicted if scen["guidance"]["source"] == "predicted"
                else metrics.rmse_delayed)
        print("%-12s %12.5g %12.5g" % (label, rmse, record.miss_distance))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"run": cmd_run, "sweep": cmd_sweep,
               "validate": cmd_validate, "demo": cmd_demo}[args.command]
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
