"""Per-layer tracing of the package from outside it.

``Tracer.install`` replaces every public function of the package's layer
modules (and the two methods named in ``METHODS``) by a wrapper that
records a span: id, parent id, name, start and end.  A function is
replaced wherever the package looks it up, i.e. in every ``qmemcell``
module namespace that holds it, so calls between and inside modules are
seen too (``qmemcell.decoherence.scattering_rate`` as well as the copy
imported into ``qmemcell``).  The sweep thread pool of ``qmemcell.cli`` is
replaced by a subclass that counts pools and worker threads and hands the
submitting span to the worker, so work done on pool threads keeps its
parent.  ``uninstall`` restores every original.

Spans stay in memory while the traced operations run; ``layer_metrics``
turns them into the per-layer metrics afterwards.  A span's self time is
its duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import re
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "scenario", "shifts", "decoherence", "gaussian", "memory",
          "pumping", "report")
METHODS = {
    ("gaussian", "GaussianState"): ("__post_init__",),
    ("decoherence", "DecoherenceBudget"): ("from_scenario",),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def _wrap(self, name: str, fn):
        tracer = self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1]
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end))
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.count("cli.sweep_pools")

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._stack()[-1]

                def run():
                    stack = tracer._stack()
                    stack.append(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        stack.pop()

                return super().submit(run)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                tracer.count("cli.sweep_workers", len(getattr(self, "_threads", ())))

        return TracedPool

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qmemcell.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(importlib.import_module(f"qmemcell.{layer}"), cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                name = f"{layer}.{cls_name}.{meth}"
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._set(cls, meth, self._wrap(name, raw))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qmemcell" or mod_name.startswith("qmemcell.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        cli = sys.modules["qmemcell.cli"]
        pool = getattr(cli, "ThreadPoolExecutor", None)
        if pool is not None:
            self._set(cli, "ThreadPoolExecutor", self._pool_class(pool))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def _count_steps(tracer, args, kwargs, result):
    steps = kwargs.get("steps", args[2] if len(args) > 2 else 0)
    tracer.count("pumping.euler_steps", int(steps))


def _count_bytes(tracer, args, kwargs, result):
    tracer.count("report.bytes", len(result.encode("utf-8")))


_HOOKS = {"pumping.evolve_pumping": _count_steps, "report.render_rows": _count_bytes}


# ---------------------------------------------------------------------------
# aggregation

_LOAD = {"scenario.load_scenario", "scenario.load_scenario_file", "scenario.default_scenario"}
_CHANNELS = {"decoherence.apply_spin_exchange", "decoherence.apply_scattering",
             "decoherence.apply_boundary_losses"}

#: group -> predicate on span names; "calls" and "busy_ms" of a group count
#: only its outermost spans, so nested calls inside one group are not
#: counted twice
GROUPS = {
    "cli.main": lambda n: n == "cli.main",
    "scenario.load": lambda n: n in _LOAD,
    "scenario.scenario_with": lambda n: n == "scenario.scenario_with",
    "shifts": lambda n: n.startswith("shifts."),
    "decoherence.doppler_average": lambda n: n == "decoherence.doppler_averaged_scattering",
    "decoherence.budget": lambda n: n == "decoherence.DecoherenceBudget.from_scenario",
    "decoherence.channel": lambda n: n in _CHANNELS,
    "gaussian.validate": lambda n: n == "gaussian.GaussianState.__post_init__",
    "gaussian.apply_symplectic": lambda n: n == "gaussian.apply_symplectic",
    "gaussian.beamsplitter_loss": lambda n: n == "gaussian.beamsplitter_loss",
    "memory.run_write": lambda n: n == "memory.run_write",
    "memory.run_read": lambda n: n == "memory.run_read",
    "memory.mean_fidelity": lambda n: n == "memory.mean_fidelity",
    "memory.qnd_transform": lambda n: n == "memory.qnd_transform",
    "pumping.evolve": lambda n: n == "pumping.evolve_pumping",
    "report.rows": lambda n: n.startswith("report.") and n.endswith("_rows")
    and n != "report.render_rows",
    "report.render": lambda n: n == "report.render_rows",
}
_BITS = {group: 1 << i for i, group in enumerate(GROUPS)}

#: per-layer metric -> unit, in the order they are printed
UNITS = {
    "import.total_ms": "ms", "import.scipy_ms": "ms", "import.numpy_ms": "ms",
    "import.qmemcell_self_ms": "ms",
    "cli.main.calls": "count", "cli.main.self_ms": "ms",
    "cli.sweep_pools": "count", "cli.sweep_workers": "count",
    "scenario.load.calls": "count", "scenario.load.busy_ms": "ms",
    "scenario.scenario_with.calls": "count", "scenario.scenario_with.busy_ms": "ms",
    "shifts.calls": "count", "shifts.busy_ms": "ms",
    "decoherence.doppler_average.calls": "count",
    "decoherence.doppler_average.busy_ms": "ms",
    "decoherence.integrand_evals": "count",
    "decoherence.budget.calls": "count", "decoherence.budget.busy_ms": "ms",
    "decoherence.channel.calls": "count", "decoherence.channel.busy_ms": "ms",
    "gaussian.state_validations": "count", "gaussian.validate.busy_ms": "ms",
    "gaussian.apply_symplectic.calls": "count", "gaussian.apply_symplectic.busy_ms": "ms",
    "gaussian.beamsplitter_loss.calls": "count", "gaussian.beamsplitter_loss.busy_ms": "ms",
    "gaussian.states_per_round_trip": "count/trip",
    "memory.run_write.calls": "count", "memory.run_write.busy_ms": "ms",
    "memory.run_write.self_ms": "ms",
    "memory.run_read.calls": "count", "memory.run_read.busy_ms": "ms",
    "memory.run_read.self_ms": "ms",
    "memory.mean_fidelity.calls": "count", "memory.mean_fidelity.busy_ms": "ms",
    "memory.passes_per_result": "count/result",
    "pumping.evolve.calls": "count", "pumping.evolve.busy_ms": "ms",
    "pumping.euler_steps": "count",
    "report.rows.busy_ms": "ms", "report.render.calls": "count",
    "report.render.busy_ms": "ms", "report.bytes": "B",
    "trace.ops": "count", "trace.overhead": "ratio",
}
#: counts that must repeat exactly between traced passes of one seed
EXACT_COUNTS = ("gaussian.state_validations", "decoherence.integrand_evals",
                "memory.passes_per_result", "scenario.scenario_with.calls")


def _covered(intervals: list[tuple[int, int]]) -> int:
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(spans, counters) -> dict[str, float]:
    """Per-layer counts and times (ms) of one traced pass."""
    spans = sorted(spans)          # ids grow on entry: parents come first
    inherited = {0: 0}
    own = {}
    names = {}
    children = defaultdict(list)
    for sid, parent, name, start, end in spans:
        if name not in own:
            own[name] = sum(b for g, b in _BITS.items() if GROUPS[g](name))
        names[sid] = name
        inherited[sid] = inherited.get(parent, 0) | own.get(names.get(parent), 0)
        children[parent].append((start, end))

    calls, busy, self_ns, all_calls = Counter(), Counter(), Counter(), Counter()
    integrand = 0
    for sid, parent, name, start, end in spans:
        anc = inherited[sid]
        all_calls[name] += 1
        if name == "decoherence.scattering_rate" and anc & _BITS["decoherence.doppler_average"]:
            integrand += 1
        for group, bit in _BITS.items():
            if not own[name] & bit or anc & bit:
                continue
            if group == "scenario.load" and anc & _BITS["scenario.scenario_with"]:
                continue
            calls[group] += 1
            busy[group] += end - start
            kids = [(max(a, start), min(b, end)) for a, b in children[sid] if b > start and a < end]
            self_ns[group] += (end - start) - _covered(kids)

    def ms(ns):
        return ns / 1e6

    writes, reads = calls["memory.run_write"], calls["memory.run_read"]
    out = {
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_ms": ms(self_ns["cli.main"]),
        "cli.sweep_pools": counters.get("cli.sweep_pools", 0),
        "cli.sweep_workers": counters.get("cli.sweep_workers", 0),
        "decoherence.integrand_evals": integrand,
        "gaussian.state_validations": all_calls["gaussian.GaussianState.__post_init__"],
        "gaussian.states_per_round_trip":
            all_calls["gaussian.GaussianState.__post_init__"] / reads if reads else 0.0,
        "memory.passes_per_result":
            all_calls["memory.qnd_transform"] / (writes + reads) if writes + reads else 0.0,
        "memory.run_write.self_ms": ms(self_ns["memory.run_write"]),
        "memory.run_read.self_ms": ms(self_ns["memory.run_read"]),
        "pumping.euler_steps": counters.get("pumping.euler_steps", 0),
        "report.bytes": counters.get("report.bytes", 0),
    }
    for group in ("scenario.load", "scenario.scenario_with", "shifts",
                  "decoherence.doppler_average", "decoherence.budget", "decoherence.channel",
                  "gaussian.apply_symplectic", "gaussian.beamsplitter_loss",
                  "memory.run_write", "memory.run_read", "memory.mean_fidelity",
                  "pumping.evolve", "report.render"):
        out[f"{group}.calls"] = calls[group]
        out[f"{group}.busy_ms"] = ms(busy[group])
    out["gaussian.validate.busy_ms"] = ms(busy["gaussian.validate"])
    out["report.rows.busy_ms"] = ms(busy["report.rows"])
    return {k: v for k, v in out.items() if k in UNITS}


def merge_dumps(dumps: list[dict]) -> tuple[list, Counter]:
    """Spans and counters of several traced processes, with distinct ids."""
    spans, counters = [], Counter()
    for i, dump in enumerate(dumps):
        base = (i + 1) << 40
        for sid, parent, name, start, end in dump["spans"]:
            spans.append((base + sid, base + parent if parent else 0, name, start, end))
        counters.update(dump["counters"])
    return spans, counters


# ---------------------------------------------------------------------------
# import layer

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Split ``-X importtime`` output of ``import qmemcell`` into ms figures."""
    total = None
    self_us = Counter()
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        own, cumulative, name = int(m.group(1)), int(m.group(2)), m.group(4)
        top = name.split(".")[0]
        self_us[top] += own
        if name == "qmemcell" and not m.group(3):
            total = cumulative
    if total is None:
        raise ValueError("importtime output has no top-level qmemcell entry")
    return {"import.total_ms": total / 1e3, "import.scipy_ms": self_us["scipy"] / 1e3,
            "import.numpy_ms": self_us["numpy"] / 1e3,
            "import.qmemcell_self_ms": self_us["qmemcell"] / 1e3}


#: fresh interpreters whose ``-X importtime`` output is taken, median
IMPORT_REPEATS = 3


def import_metrics(python: str, env: dict, cwd: str) -> dict[str, float]:
    """Median of IMPORT_REPEATS fresh ``python -X importtime -c 'import qmemcell'``."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import qmemcell"],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import qmemcell failed: {proc.stderr[-500:]}")
        runs.append(parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
