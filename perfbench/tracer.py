"""Spans around the calls into spoonarm's layers, kept in memory.

A layer is a spoonarm module. The tracer patches, for the length of a
traced run, the module attributes through which calls cross from one
layer into another (see `boundaries`), so the program itself is not
changed. Every patched call opens a span; a span's self time is its
duration minus the time covered by its direct children, and each op's
root span (layer "bench") keeps the harness time spent inside the op.
The self times of all spans in an op therefore add up to the op's wall
time.

Calls made once per simulated step are too many to keep one by one: they
are timed the same way but stored as per-op totals in `calls`, not as
span records.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def count_rollout(tracer, args, result):
    """Rows a rollout produced, and the rows with a joint at its limit."""
    lo, hi = np.array(args[0].joint_limits).T
    tracer.counters["dynamics.steps"] += len(result)
    tracer.counters["dynamics.limit_contacts"] += int(np.count_nonzero(
        (result.q <= lo) | (result.q >= hi)))


def count_bytes(tracer, args, result):
    tracer.counters["serialize.bytes_written"] += os.path.getsize(args[1])


def boundaries():
    """(module, attribute, recorded one by one, observer) to patch."""
    from spoonarm import analysis, cli, dynamics, serialize, statics

    return [
        # calls the benchmark's ops make
        (cli, "main", True, None),
        (dynamics, "run_scenario", True, count_rollout),
        (analysis, "stabilization_report", True, None),
        (analysis, "workspace_sample", True, None),
        (analysis, "calibrate_handle_distance", True, None),
        (analysis, "compare_handle_variants", True, None),
        (statics, "synthesize_balancing", True, None),
        (serialize, "write_workspace_csv", True, count_bytes),
        # calls from the CLI into the other layers
        (cli, "load_config", True, None),
        (cli, "load_scenario", True, None),
        (cli, "run_scenario", True, count_rollout),
        (serialize, "write_sim_csv", True, count_bytes),
        # per-step calls from dynamics and analysis into kinematics/statics
        (dynamics, "spoon_pose", False, None),
        (dynamics, "handle_pose", False, None),
        (dynamics, "handle_jacobian", False, None),
        (dynamics, "inverse_kinematics", False, None),
        (dynamics, "gravity_potential", False, None),
        (dynamics, "spring_potential", False, None),
        (dynamics, "spring_torque", False, None),
        (analysis, "forward_kinematics", False, None),
        (analysis, "inverse_kinematics", False, None),
    ]


class Tracer:
    def __init__(self):
        self.spans = []     # (id, parent, op, layer, name, start, end)
        self.calls = {}     # (op, name) -> [calls, errors, seconds]
        self.self_s = defaultdict(float)    # layer -> self seconds
        self.counters = defaultdict(int)
        self.ops = 0
        self.op_s = 0.0
        self._stack = []    # open spans: [id, layer, start, child seconds]
        self._next_id = 0
        self._op = None

    # -- spans -------------------------------------------------------------

    def _enter(self, layer):
        self._stack.append([self._next_id, layer, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self, name, record):
        end = time.perf_counter()
        span_id, layer, start, child = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if record:
            self.spans.append((span_id, parent[0] if parent else None,
                               self._op, layer, name, start, end))
        return duration

    @contextmanager
    def op(self, name):
        """Root span of one op."""
        self._op = self.ops
        self._enter("bench")
        try:
            yield
        finally:
            self.op_s += self._exit(f"op.{name}", True)
            self.ops += 1
            self._op = None

    def _traced(self, fn, layer, record, observe):
        name = f"{layer}.{fn.__name__}"

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            stats = self.calls.setdefault((self._op, name), [0, 0, 0.0])
            stats[0] += 1
            self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stats[1] += 1
                raise
            finally:
                stats[2] += self._exit(name, record)
            if observe is not None:
                self._enter("bench")
                observe(self, args, result)
                self._exit(f"bench.observe.{fn.__name__}", False)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every boundary for the length of the block."""
        patched = []
        try:
            for module, attr, record, observe in boundaries():
                fn = getattr(module, attr)
                layer = fn.__module__.rsplit(".", 1)[-1]
                setattr(module, attr,
                        self._traced(fn, layer, record, observe))
                patched.append((module, attr, fn))
            yield self
        finally:
            for module, attr, fn in reversed(patched):
                setattr(module, attr, fn)

    # -- results -----------------------------------------------------------

    def totals(self, name):
        """(calls, errors, seconds) of `name` summed over all ops."""
        rows = [v for (_, n), v in self.calls.items() if n == name]
        return tuple(sum(column) for column in zip(*rows)) or (0, 0, 0.0)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "span_fields": ["id", "parent", "op", "layer", "name",
                                "start_s", "end_s"],
                "spans": self.spans,
                "call_fields": ["op", "name", "calls", "errors", "seconds"],
                "calls": [[op, name, *v]
                          for (op, name), v in sorted(self.calls.items())],
                "self_s": dict(self.self_s),
                "counters": dict(self.counters),
            }, fh)
