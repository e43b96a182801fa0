"""Span recording for the traced benchmark run.

A :class:`Tracer` replaces public functions and methods of combopt's layers
with timing wrappers for the duration of one traced solve (or baseline
round), then puts the originals back.  Each wrapped call records one span
(name, start, end, parent, thread) in per-thread in-memory buffers, so the
QM pool threads never interleave writes with the main thread.  Nothing in
combopt itself changes.

:func:`layer_metrics` reduces the spans and counters of all traced units of
a run to the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import inspect
import threading
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps

import numpy as np
from combopt.qubo.sampler import sa_sample

# the main-thread span that brackets one traced unit
SOLVE = "portfolio.solve"
ROUND = "runner.round"

_SA_SIGNATURE = inspect.signature(sa_sample)


class _Buffer:
    """Spans of one thread, stored column-wise."""

    def __init__(self, thread_name: str):
        self.thread = thread_name
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


class Tracer:
    """Spans, counters and observed values of one traced unit."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counts: Counter = Counter()
        self.values: dict[str, list[float]] = defaultdict(list)
        self.sample_done: dict[int, float] = {}  # id(qubo) -> sa_sample end
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.current_thread().name)
            with self._lock:
                self.buffers.append(buf)
            self._local.buf = buf
        return buf

    def begin(self, nid: int):
        buf = self._buffer()
        idx = len(buf.name)
        buf.name.append(nid)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.end.append(0.0)
        buf.stack.append(idx)
        buf.start.append(time.perf_counter())
        return buf, idx

    @staticmethod
    def finish(buf: _Buffer, idx: int) -> float:
        now = time.perf_counter()
        buf.end[idx] = now
        buf.stack.pop()
        return now

    @contextmanager
    def span(self, name: str):
        buf, idx = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.finish(buf, idx)

    # -- wrapping -------------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Time ``owner.attr`` (module function, method, or dict entry).

        ``observe(args, kwargs, result, end_time)`` runs after the call, outside
        the span, to record counts and values.
        """
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        nid = self.name_id(name)
        tracer = self

        @wraps(original)
        def wrapper(*args, **kwargs):
            buf, idx = tracer.begin(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                end = tracer.finish(buf, idx)
            if observe is not None:
                observe(args, kwargs, result, end)
            return result

        self._patches.append((owner, attr, original, is_dict))
        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls of a hot function without recording spans."""
        original = getattr(owner, attr)
        counts = self.counts

        @wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original, False))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- the layer boundaries -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics need."""
        from combopt.benchstats import runner
        from combopt.modeling import Model
        from combopt.qubo.core import Qubo
        from combopt.solver import branch
        from combopt.solver.sampleset import SampleSet

        self.wrap(Model, "evaluate_unchecked", "modeling.evaluate")
        self.wrap(branch, "propose_state", "moves.propose")
        self.wrap(branch.Branch, "cm_step", "branch.cm_step")
        self.wrap(branch.Branch, "calibrate", "branch.calibrate")
        self.wrap(branch.Branch, "offer", "branch.offer", self._on_offer)
        self.wrap(branch.Branch, "finalize", "branch.finalize", self._on_finalize)
        self.wrap(branch, "qm_query", "subproblem.build", self._on_query)
        self.wrap(branch, "sa_sample", "sampler.sample", self._on_sample)
        self.wrap(runner, "sa_sample", "sampler.sample", self._on_sample)
        self.wrap(runner, "run_cell", "runner.cell")
        for family in list(runner.ENCODERS):
            self.wrap(runner.ENCODERS, family, "encode.build")
        self.wrap(Qubo, "fields", "qubo.fields")
        self.wrap(Qubo, "energies", "qubo.energies")
        self.count_calls(Qubo, "add", "qubo.add")
        self.wrap(SampleSet, "__post_init__", "sampleset.merge")
        self.wrap(SampleSet, "to_json", "sampleset.to_json")

    def _on_offer(self, args, kwargs, improved, _end) -> None:
        source = args[3] if len(args) > 3 else kwargs["source"]
        self.counts[f"offer.{source}"] += 1
        self.counts[f"offer.{source}.improved"] += bool(improved)

    def _on_finalize(self, args, _kwargs, _result, _end) -> None:
        br = args[0]
        self.values["final_temp_ratio"].append(br.temp / br.t0 if br.t0 else 1.0)

    def _on_sample(self, args, kwargs, _result, end) -> None:
        call = _SA_SIGNATURE.bind(*args, **kwargs)
        call.apply_defaults()
        qubo = call.arguments["qubo"]
        self.counts["sampler.visits"] += (
            call.arguments["reads"] * call.arguments["sweeps"] * qubo.n)
        self.sample_done[id(qubo)] = end

    def _on_query(self, _args, _kwargs, query, _end) -> None:
        if query is None:
            return
        self.counts["subproblem.launched"] += 1
        decode, qubo_id, first = query.decode, id(query.qubo), [True]

        def traced_decode(bits):
            if first[0]:
                first[0] = False
                done = self.sample_done.get(qubo_id)
                if done is not None:
                    self.values["mailbox_lag"].append(time.perf_counter() - done)
            state = decode(bits)
            self.counts["subproblem.decoded"] += state is not None
            return state

        query.decode = traced_decode

    # -- reduction ------------------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays; ``parent`` indexes into the same arrays."""
        name, parent, start, end, thread = [], [], [], [], []
        offset = 0
        for t, buf in enumerate(self.buffers):
            p = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            parent.append(np.where(p >= 0, p + offset, -1))
            name.append(np.frombuffer(buf.name, dtype=np.int32))
            start.append(np.frombuffer(buf.start))
            end.append(np.frombuffer(buf.end))
            thread.append(np.full(len(buf.name), t, dtype=np.int32))
            offset += len(buf.name)
        return {"name": np.concatenate(name), "parent": np.concatenate(parent),
                "start": np.concatenate(start), "end": np.concatenate(end),
                "thread": np.concatenate(thread)}


class _Spans:
    """Columns of one tracer plus child-time bookkeeping."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        c = tracer.columns()
        self.name, self.parent = c["name"], c["parent"]
        self.start, self.end, self.thread = c["start"], c["end"], c["thread"]
        self.dur = self.end - self.start
        self.child = np.zeros_like(self.dur)
        has = self.parent >= 0
        np.add.at(self.child, self.parent[has], self.dur[has])

    def mask(self, name: str) -> np.ndarray:
        nid = self.tracer._ids.get(name)
        if nid is None:
            return np.zeros(self.name.size, dtype=bool)
        return self.name == nid

    def child_of(self, child_name: str) -> np.ndarray:
        """Per span: total duration of its direct children named ``child_name``."""
        out = np.zeros_like(self.dur)
        m = self.mask(child_name) & (self.parent >= 0)
        np.add.at(out, self.parent[m], self.dur[m])
        return out

    def exclusive(self) -> np.ndarray:
        return self.dur - self.child

    def on_pool(self) -> np.ndarray:
        pool = [i for i, b in enumerate(self.tracer.buffers) if b.thread.startswith("qm")]
        return np.isin(self.thread, pool)


def _pct(values, q: float) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if values.size else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracers: list[Tracer], time_limit: float | None,
                  setup: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics over the traced units of one run.

    Timings pool the spans of every traced unit.  Counts (``*_calls`` and the
    subproblem funnel) come from the first unit alone, so that they repeat
    exactly between runs of a fixed-work workload.
    """
    spans = [_Spans(t) for t in tracers]

    def durs(name: str, scale: float) -> np.ndarray:
        return np.concatenate([s.dur[s.mask(name)] for s in spans]) * scale

    def per_span(name: str, fn, scale: float) -> np.ndarray:
        return np.concatenate([fn(s)[s.mask(name)] for s in spans]) * scale

    first = tracers[0].counts
    first_spans = spans[0]

    def calls(name: str) -> int:
        return int(first_spans.mask(name).sum())

    unit = SOLVE if any(s.mask(SOLVE).any() for s in spans) else ROUND
    unit_wall = durs(unit, 1.0)

    evaluate = durs("modeling.evaluate", 1e6)
    propose = durs("moves.propose", 1e6)
    step_self = per_span(
        "branch.cm_step",
        lambda s: s.dur - s.child_of("moves.propose") - s.child_of("modeling.evaluate"),
        1e6,
    )
    build = durs("subproblem.build", 1e3)
    sample = durs("sampler.sample", 1e3)
    visits = sum(t.counts["sampler.visits"] for t in tracers)
    steps = sum(int(s.mask("branch.cm_step").sum()) for s in spans)
    accepted = sum(t.counts["offer.cm"] for t in tracers)

    launched = first["subproblem.launched"]
    improved = first["offer.qm.improved"]
    busy = 0.0
    for s in spans:
        pool = s.on_pool() & s.mask("sampler.sample")
        for w0, w1 in zip(s.start[s.mask(unit)], s.end[s.mask(unit)]):
            busy += float(np.clip(np.minimum(s.end[pool], w1) - np.maximum(s.start[pool], w0),
                                  0.0, None).sum())

    out = {
        "problems.parse_ms": setup["parse"] * 1e3,
        "problems.build_ms": setup["build"] * 1e3,
        "modeling.freeze_ms": setup["freeze"] * 1e3,
        "modeling.evaluate_us.p50": _pct(evaluate, 50),
        "modeling.evaluate_us.p99": _pct(evaluate, 99),
        "modeling.evaluate_calls": calls("modeling.evaluate"),
        "moves.propose_us.p50": _pct(propose, 50),
        "moves.propose_us.p99": _pct(propose, 99),
        "moves.propose_calls": calls("moves.propose"),
        "branch.step_self_us": _pct(step_self, 50),
        "branch.step_calls": calls("branch.cm_step"),
        "branch.accept_rate": _ratio(accepted, steps),
        "branch.calibrate_ms": _pct(durs("branch.calibrate", 1e3), 50),
        "branch.final_temp_ratio": _pct(
            [v for t in tracers for v in t.values["final_temp_ratio"]], 50),
        "subproblem.build_ms.p50": _pct(build, 50),
        "subproblem.build_ms.p99": _pct(build, 99),
        "qubo.add_calls_per_query": _ratio(first["qubo.add"], launched) if launched else 0.0,
        "subproblem.launched": launched,
        "subproblem.decoded": first["subproblem.decoded"],
        "subproblem.feasible": first["offer.qm"],
        "subproblem.improved": improved,
        "subproblem.improved_per_launch": _ratio(improved, launched),
        "qubo.fields_ms": _pct(durs("qubo.fields", 1e3), 50),
        "qubo.fields_calls_per_sample": _ratio(calls("qubo.fields"), calls("sampler.sample")),
        "qubo.energies_ms": _pct(durs("qubo.energies", 1e3), 50),
        "sampler.sample_ms.p50": _pct(sample, 50),
        "sampler.sample_ms.p99": _pct(sample, 99),
        "sampler.sample_calls": calls("sampler.sample"),
        "sampler.ns_per_visit": _ratio(sample.sum() * 1e6, visits),
        "sampler.busy_frac": _ratio(busy, unit_wall.sum()),
        "portfolio.self_ms": _pct(per_span(SOLVE, _Spans.exclusive, 1e3), 50),
        "portfolio.mailbox_lag_ms": _pct(
            [v * 1e3 for t in tracers for v in t.values["mailbox_lag"]], 50),
        "portfolio.overrun_ms": (
            _pct((durs(SOLVE, 1.0) - time_limit) * 1e3, 50) if time_limit else 0.0),
        "sampleset.merge_ms": _pct(durs("sampleset.merge", 1e3), 50),
        "sampleset.to_json_ms": _pct(durs("sampleset.to_json", 1e3), 50),
        "encode.build_ms": _pct(durs("encode.build", 1e3), 50),
        "runner.cell_self_ms": _pct(per_span("runner.cell", _Spans.exclusive, 1e3), 50),
        "report.emit_ms": _pct(durs("report.emit", 1e3), 50),
    }
    return {k: float(v) for k, v in out.items()}


def layer_shares(tracers: list[Tracer]) -> dict[str, float]:
    """Exclusive main-thread time of each span name, as a share of unit wall.

    Pool-thread spans run beside the main thread and appear as ``<name>@pool``
    shares of the same wall time.
    """
    totals: dict[str, float] = defaultdict(float)
    wall = 0.0
    for t in tracers:
        s = _Spans(t)
        excl = s.exclusive()
        pool = s.on_pool()
        for nid, name in enumerate(t.names):
            m = s.name == nid
            if name in (SOLVE, ROUND):
                wall += float(s.dur[m].sum())
            main = float(excl[m & ~pool].sum())
            if main:
                totals[name] += main
            side = float(excl[m & pool].sum())
            if side:
                totals[name + "@pool"] += side
    return {k: v / wall for k, v in sorted(totals.items(), key=lambda kv: -kv[1])} if wall else {}


def save_spans(path, tracers: list[Tracer]) -> None:
    """Write every span of the run as one compressed ``.npz`` file.

    Columns: ``unit`` (traced unit index), ``name`` (index into ``names``),
    ``parent`` (row within the same unit, -1 for a root), ``start``, ``end``
    (``perf_counter`` seconds) and ``thread`` (index within the unit).
    """
    names = sorted({n for t in tracers for n in t.names})
    cols = defaultdict(list)
    for unit, t in enumerate(tracers):
        c = t.columns()
        remap = np.array([names.index(n) for n in t.names], dtype=np.int32)
        cols["unit"].append(np.full(c["name"].size, unit, dtype=np.int32))
        cols["name"].append(remap[c["name"]])
        for key in ("parent", "start", "end", "thread"):
            cols[key].append(c[key])
    arrays = {k: np.concatenate(v) for k, v in cols.items()}
    np.savez_compressed(path, names=np.array(names), **arrays)
