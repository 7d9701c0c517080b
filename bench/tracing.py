"""In-memory span tracer for pgsim's layers.

The tracer wraps functions at the module or class attribute that the
engagement loop looks up on every call (``gd.select_source``,
``frame.table.interpolate``, ...), so the program runs unchanged and
every wrapped call becomes a span.  Spans nest through a stack; on
close each span adds its duration to its hook's inclusive time, its
duration minus the time covered by its wrapped children to the hook's
self time, and its duration to the parent's child time.  Only these
per-hook aggregates are kept, which keeps the cost per call small.

A hook whose target no longer exists is reported as missing; nothing
is wrapped for it and nothing fails.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import types
from typing import Callable, NamedTuple


class Hook(NamedTuple):
    """One wrapped callable: ``target`` is ``"module:attr"`` or
    ``"module:Class.attr"``; ``count`` optionally maps (args, kwargs,
    result) to a number added to ``Tracer.counts[name]``."""

    name: str
    target: str
    count: Callable | None = None


def _consumed_prediction(args, kwargs, result):
    # select_source(t, config, true_rate, delayed_rate, predicted_rate)
    # returns one of its rate arguments unchanged; the prediction is a
    # fresh tuple each step, so identity tells which one guidance used.
    predicted = kwargs["predicted_rate"] if "predicted_rate" in kwargs else args[4]
    return 1 if result is predicted else 0


def _record_steps(args, kwargs, result):
    return len(result)


def _written_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return os.path.getsize(path)


# Every layer of src/pgsim, at the attribute its caller looks up.
HOOKS = (
    Hook("observer.step", "pgsim.observer:rk4_step8"),
    # The per-step airframe integrator has no public name yet.
    Hook("airframe.step", "pgsim.engagement:_vehicle_rk4"),
    Hook("airframe.atmosphere", "pgsim.airframe:atmosphere"),
    Hook("airframe.interpolate", "pgsim.airframe:AeroTable.interpolate"),
    Hook("airframe.thrust", "pgsim.airframe:ThrustProfile.thrust"),
    Hook("airframe.mass_flow", "pgsim.airframe:ThrustProfile.mass_flow"),
    Hook("airframe.mass_at", "pgsim.airframe:ThrustProfile.mass_at"),
    Hook("seeker.los_rate", "pgsim.seeker:los_rate_channels"),
    Hook("seeker.delay", "pgsim.seeker:delay_step"),
    Hook("targets.state", "pgsim.targets:target_state"),
    Hook("guidance.select", "pgsim.guidance:select_source", _consumed_prediction),
    Hook("guidance.pn", "pgsim.guidance:pn_command"),
    Hook("guidance.autopilot", "pgsim.guidance:autopilot_step"),
    Hook("engagement.run", "pgsim.engagement:run_engagement", _record_steps),
    Hook("engagement.miss", "pgsim.engagement:miss_distance"),
    Hook("engagement.metrics", "pgsim.engagement:compute_metrics"),
    Hook("engagement.csv", "pgsim.engagement:EngagementRecord.write_csv", _written_bytes),
    Hook("config.resolve", "pgsim.config:resolve"),
    Hook("config.build_setup", "pgsim.config:build_setup"),
    Hook("montecarlo.item", "pgsim.montecarlo:_execute_item"),
    Hook("montecarlo.aggregate", "pgsim.montecarlo:aggregate"),
    Hook("montecarlo.write_runs", "pgsim.montecarlo:write_runs_csv"),
    Hook("montecarlo.write_summary", "pgsim.montecarlo:write_summary_json"),
    Hook("cli.main", "pgsim.cli:main"),
)

# One span per engagement, which counts its steps and leaves the timing
# of the rest unchanged.
LIGHT_HOOKS = tuple(h for h in HOOKS if h.name == "engagement.run")


def _locate(target: str):
    """(owner, attribute) that ``target`` names, or None if absent."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    if not isinstance(vars(owner).get(attr), types.FunctionType):
        return None
    return owner, attr


class Tracer:
    """Context manager that wraps ``hooks`` on entry and restores them
    on exit.

    After use, ``stats[name]`` is ``[calls, inclusive_s, self_s]`` for
    every hook found, ``counts[name]`` holds the hook's counter, and
    ``missing`` lists the hooks whose target was not found.
    """

    def __init__(self, hooks=HOOKS, clock=time.perf_counter):
        self.hooks = tuple(hooks)
        self.clock = clock
        self.stats: dict = {}
        self.counts: dict = {}
        self.missing: list = []
        self._stack: list = []  # [start, child_s] per open span
        self._saved: list = []  # (owner, attr, original)

    def __enter__(self):
        for hook in self.hooks:
            where = _locate(hook.target)
            if where is None:
                self.missing.append(hook.name)
                continue
            owner, attr = where
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(hook, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, hook: Hook, fn):
        st = self.stats.setdefault(hook.name, [0, 0.0, 0.0])
        stack = self._stack
        clock = self.clock
        counts = self.counts
        count = hook.count
        name = hook.name
        if count is not None:
            counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append([clock(), 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                start, child = stack.pop()
                dur = end - start
                st[0] += 1
                st[1] += dur
                st[2] += dur - child
                if stack:
                    stack[-1][1] += dur
            if count is not None:
                counts[name] += count(args, kwargs, result)
            return result

        return wrapper

    def calls(self, *names) -> int | None:
        return self._sum(names, 0)

    def inclusive_s(self, *names) -> float | None:
        return self._sum(names, 1)

    def self_s(self, *names) -> float | None:
        return self._sum(names, 2)

    def _sum(self, names, i):
        """Sum over ``names``; None if any of them is missing."""
        if any(n in self.missing for n in names):
            return None
        return sum(self.stats[n][i] for n in names)
