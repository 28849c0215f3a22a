"""Span recorder for the traced run.

Spans are recorded around calls into the program's public functions, from
outside: ``install`` replaces each boundary with a wrapper and returns a
function that puts the originals back.  Every span keeps its boundary, start,
end and parent span; they stay in memory and are written out once, when the
run ends.  A span's self time is its duration minus the time its child spans
cover (children of one span never overlap: the program is single-threaded).
"""

from __future__ import annotations

import dataclasses
import functools
import json
from array import array
from time import perf_counter

import numpy as np

# Boundaries called once per descent step, pair or sample: these also report
# their latency median and tail.
PER_STEP = (
    "netcore.gradient_batch",
    "netcore.gradient_array",
    "netcore.with_weights",
    "netcore.quantize",
    "funcdist.next_sample",
    "funcdist.RandomTable.evaluate_batch",
    "sla.update",
)
COARSE = (
    "netcore.evaluate_batch",
    "descent.gd_run",
    "descent.sgd_run",
    "crosspred.pred_monte_carlo",
    "sla.run_trace",
    "sla.accuracy_eval",
    "labcli.main",
)
# Boundaries that also count the rows of their batch argument.
ROWS = ("netcore.gradient_batch", "funcdist.RandomTable.evaluate_batch")
# Percentiles considered for the tail; the highest with ten calls beyond it
# is reported.
TAIL_PERCENTILES = (90.0, 99.0, 99.9, 99.99)


def per_layer_metric_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for boundary in PER_STEP + COARSE:
        out += [(f"{boundary}.calls", "count"), (f"{boundary}.total_s", "s"),
                (f"{boundary}.self_s", "s")]
        if boundary in PER_STEP:
            out += [(f"{boundary}.p50_us", "us"), (f"{boundary}.tail_us", "us")]
        if boundary in ROWS:
            out.append((f"{boundary}.rows", "count"))
    return out


class Tracer:
    def __init__(self):
        self.names = list(PER_STEP + COARSE)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = dict.fromkeys(ROWS, 0)
        self._stack = []

    def wrap(self, name, fn):
        nid = self._ids[name]
        count_rows = name in ROWS
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            if count_rows:
                self.rows[name] += len(args[1])
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self, paritylab):
        """Wrap every boundary the program has; returns the undo function."""
        crosspred, descent, funcdist, labcli, netcore, sla = (
            paritylab.crosspred, paritylab.descent, paritylab.funcdist,
            paritylab.labcli, paritylab.netcore, paritylab.sla)
        targets = [
            ("netcore.gradient_batch", netcore.NeuralNet, "gradient_batch"),
            ("netcore.gradient_array", netcore.NeuralNet, "gradient_array"),
            ("netcore.with_weights", netcore.NeuralNet, "with_weights"),
            ("netcore.evaluate_batch", netcore.NeuralNet, "evaluate_batch"),
            ("netcore.quantize", netcore.QuantizationSpec, "quantize"),
            ("descent.gd_run", descent, "gd_run"),
            ("descent.sgd_run", descent, "sgd_run"),
            ("funcdist.next_sample", funcdist.SampleSource, "next_sample"),
            # the grid-parity runner feeds SGD from its own epoch source
            ("funcdist.next_sample", getattr(labcli, "_EpochPairSource", None),
             "next_sample"),
            ("funcdist.RandomTable.evaluate_batch", funcdist.RandomTable,
             "evaluate_batch"),
            ("crosspred.pred_monte_carlo", crosspred, "pred_monte_carlo"),
            ("sla.run_trace", sla, "run_trace"),
            ("sla.accuracy_eval", sla, "accuracy_eval"),
            ("labcli.main", labcli, "main"),
        ]
        undo = []
        for name, owner, attr in targets:
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                continue  # the boundary is gone from the program; it reads 0
            setattr(owner, attr, self.wrap(name, original))
            undo.append((owner, attr, original))

        original_factory = sla.sgd_as_sla

        @functools.wraps(original_factory)
        def sgd_as_sla(*args, **kwargs):
            machine = original_factory(*args, **kwargs)
            return dataclasses.replace(
                machine, update=self.wrap("sla.update", machine.update))

        sla.sgd_as_sla = sgd_as_sla
        undo.append((sla, "sgd_as_sla", original_factory))

        def restore():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return restore

    def metrics(self) -> dict:
        """Per-boundary calls, total, self time, latency median and tail."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child
        out = {}
        for nid, boundary in enumerate(self.names):
            mine = name == nid
            d = dur[mine]
            out[f"{boundary}.calls"] = (int(d.size), "count")
            out[f"{boundary}.total_s"] = (float(d.sum()), "s")
            out[f"{boundary}.self_s"] = (float(self_time[mine].sum()), "s")
            if boundary in PER_STEP:
                out[f"{boundary}.p50_us"] = (_percentile_us(d, 50.0), "us")
                out[f"{boundary}.tail_us"] = (_tail_us(d), "us")
            if boundary in ROWS:
                out[f"{boundary}.rows"] = (self.rows[boundary], "count")
        return out

    def write(self, path):
        """All spans, in call order, as one compressed numpy archive."""
        np.savez_compressed(
            path,
            boundaries=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _percentile_us(durations, pct) -> float:
    if durations.size == 0:
        return 0.0
    return float(np.percentile(durations, pct)) * 1e6


def tail_percentile(calls: int):
    """Highest of TAIL_PERCENTILES with at least ten calls beyond it, or None."""
    best = None
    for pct in TAIL_PERCENTILES:
        if calls * (100.0 - pct) >= 1000.0 - 1e-6:  # calls beyond >= 10
            best = pct
    return best


def _tail_us(durations) -> float:
    pct = tail_percentile(durations.size)
    return 0.0 if pct is None else _percentile_us(durations, pct)
