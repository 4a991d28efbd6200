"""Benchmark of the qmemcell package: three workloads, checked outputs.

    python3 bench/run.py --workload {cold_cli,protocol,operating_point,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root (any checkout with ``src/qmemcell``).  With
``--trace 0`` it measures the end-to-end metrics of a workload; with
``--trace 1`` it runs a fixed prefix of the same operations with and
without the per-layer tracer of ``tracing.py`` and reports the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Each result, with the environment it ran in, is also
written to ``.bench_build/qmemcell-bench/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "qmemcell-bench"

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

#: fresh-process set-ups per run; setup_s is their median
SETUP_REPEATS = 5
WARMUP_OPS = 16
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
#: samples a tail percentile needs beyond it before it is reported
TAIL_MIN_BEYOND = 10
CHILD_TIMEOUT_S = 120
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "ops_per_s_all": "1/s", "latency_p50_all_ms": "ms",
                    "latency_tail_ms": "ms", "error_rate": "ratio", "peak_rss_mb": "MB"}
#: the metrics BENCHMARK.json declares, and so the only ones in the last
#: JSON line; the others are printed.  The gated ops_per_s and
#: latency_p50_ms take each operation at its best of the run's rounds,
#: because a shared host slows by 1.5-2x for seconds at a time; the every-sample
#: figures are the *_all ones.  latency_tail_ms is undefined on short runs
#: and error_rate is 0 on a correct build, so neither can be gated.
GATED = ("setup_s", "ops_per_s", "latency_p50_ms", "peak_rss_mb")

SETUP_CODE = ("import time\nimport qmemcell\n"
              "qmemcell.load_scenario_file({path!r})\nprint(time.monotonic_ns())\n")


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def child_env(config_path: str | None = None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "QMEMCELL_CONFIG")}
    env["PYTHONPATH"] = str(SRC)
    if config_path is not None:
        env["QMEMCELL_CONFIG"] = config_path
    return env


def calibration_ms() -> float:
    """Wall time of a fixed pure-Python loop: a gauge of host speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i * i % 7
    return (time.perf_counter() - start) * 1e3


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


@contextlib.contextmanager
def rotating_cpu():
    """Yield ``pin(turn)``, which moves this process, and the processes it
    starts from then on, to CPU ``turn`` modulo the CPUs it may use.

    On a shared host each CPU can slow down by up to 2x, in turn, for
    seconds to minutes; a process left where the scheduler put it can
    spend a whole run on the slow one.  Rotating the rounds over the CPUs lets each
    operation's best of its rounds come from the faster one.
    """
    cpus = sorted(os.sched_getaffinity(0))

    def pin(turn: int) -> None:
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})

    try:
        yield pin
    finally:
        os.sched_setaffinity(0, set(cpus))


def measure_setup(scenario_path: Path) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported
    qmemcell and loaded a scenario file; one untimed warm-up first."""
    code = SETUP_CODE.format(path=str(scenario_path))
    values = []
    with rotating_cpu() as pin:
        for i in range(SETUP_REPEATS + 1):
            pin(i)
            start = time.monotonic_ns()
            proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                raise BenchError(f"set-up process failed: {proc.stderr.strip()[-400:]}")
            if i:
                values.append((int(proc.stdout.split()[-1]) - start) / 1e9)
    return values


# ---------------------------------------------------------------------------
# workloads


class CliRunner:
    """cold_cli (one fresh process per call) and operating_point
    (in-process ``qmemcell.cli.main`` with stdout captured)."""

    def __init__(self, workload: str, seed: int, refs: dict):
        self.workload = workload
        self.cold = workload == "cold_cli"
        self.ops = (inputs.cold_cli_ops(seed) if self.cold
                    else inputs.operating_point_ops(seed))
        files = inputs.cli_scenario_files(self.ops, seed)
        self.digest = inputs.digest(workload, seed, self.ops, files)
        self.dir = WORK / f"{workload}-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (self.dir / name).write_text(text)
        self.refs = refs
        self.outputs: dict[str, str] = {}
        self.trace_dumps: list[dict] | None = None
        if not self.cold:
            from qmemcell import cli
            self.cli = cli

    def _call(self, op: dict) -> tuple[float, int, str, str]:
        path = str(self.dir / inputs.scenario_file_name(op))
        argv = inputs.cli_argv(op, path)
        if self.cold:
            env = child_env(path if op["config"] == "env" else None)
            if self.trace_dumps is not None:
                spans = self.dir / "spans.json"
                cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans), *argv]
            else:
                cmd = [sys.executable, "-m", "qmemcell.cli", *argv]
            start = time.perf_counter()
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            latency = time.perf_counter() - start
            if self.trace_dumps is not None:
                self.trace_dumps.append(json.loads(spans.read_text()))
            return latency, proc.returncode, proc.stdout, proc.stderr
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        latency = time.perf_counter() - start
        return latency, code, out.getvalue(), err.getvalue()

    def run(self, i: int) -> tuple[float, list[str]]:
        op = self.ops[i % len(self.ops)]
        try:
            latency, code, stdout, stderr = self._call(op)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            return 0.0, [f"raised {traceback.format_exception_only(exc)[-1].strip()}"]
        problems = checks.check_cli(op, code, stdout, self.refs)
        if stderr and code == 0:
            problems.append(f"unexpected stderr: {stderr.strip()[:200]}")
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if self.outputs.setdefault(json.dumps(op, sort_keys=True), digest) != digest:
            problems.append("same argv gave different bytes")
        return latency, problems

    def probe(self) -> None:
        """The command-line workloads have no fixed probe."""


class ProtocolRunner:
    """Write-then-read round trips in-process, plus the fixed probe."""

    def __init__(self, seed: int):
        from qmemcell import decoherence, gaussian, memory, report, scenario
        self.decoherence, self.memory, self.report = decoherence, memory, report
        docs, self.ops = inputs.protocol_ops(seed)
        self.digest = inputs.digest("protocol", seed, docs, self.ops)
        self.configs = [scenario.load_scenario(json.dumps(d)) for d in docs]
        self.states = []
        for op in self.ops:
            a = op["amplitudes"]
            st = gaussian.displace(gaussian.memory_vacuum(), gaussian.LIGHT_C, a[0], a[1])
            self.states.append(gaussian.displace(st, gaussian.LIGHT_S, a[2], a[3]))
        self.probe_state = self.states[0]

    def run(self, i: int) -> tuple[float, list[str]]:
        n = i % len(self.ops)
        op, state = self.ops[n], self.states[n]
        cfg = self.configs[op["scenario"]]
        seed = op["seed"]
        try:
            start = time.perf_counter()
            if op["kind"] == "direct":
                budget = self.decoherence.DecoherenceBudget.from_scenario(cfg)
                write = self.memory.run_write(op["k_eff"], state=state, budget=budget,
                                              policy=op["policy"], seed=seed)
                read = self.memory.run_read(op["k_eff"], state=write.state, budget=budget,
                                            policy=op["policy"],
                                            seed=None if seed is None else seed + 1)
                latency = time.perf_counter() - start
                return latency, (checks.check_result(write, "write")
                                 + checks.check_result(read, "read"))
            rows = self.report.memory_sim_rows(cfg, seed, op["k_eff"])
            text = self.report.render_rows(rows, op["format"])
            latency = time.perf_counter() - start
            return latency, checks.check_memory_report(rows, text, op["format"])
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            return 0.0, [f"raised {traceback.format_exception_only(exc)[-1].strip()}"]

    def probe(self) -> list[str]:
        """The fixed probe: zero budget, unit pass, default gain."""
        try:
            return checks.check_probe(self.memory.run_write(1.0, state=self.probe_state))
        except Exception as exc:  # counted as a failed operation
            return [f"probe raised {traceback.format_exception_only(exc)[-1].strip()}"]


def make_runner(workload: str, seed: int, refs: dict):
    if workload == "protocol":
        return ProtocolRunner(seed)
    return CliRunner(workload, seed, refs)


# ---------------------------------------------------------------------------
# measurement


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


def tail_latency(lat_ms: list[float]):
    """(percentile, value, samples beyond) of the highest listed percentile
    with at least TAIL_MIN_BEYOND samples beyond it, or None."""
    ordered = sorted(lat_ms)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1], n - rank
    return None


def start_tally(runner, workload: str) -> Tally:
    """Run the workload's probe, then (in-process workloads) warm caches and
    lazy imports with a few untimed operations; all of them are checked."""
    tally = Tally()
    problems = runner.probe()
    if problems is not None:
        tally.add(problems)
    if workload != "cold_cli":
        for i in range(WARMUP_OPS):
            tally.add(runner.run(i)[1])
    return tally


def run_timed(workload: str, seed: int, seconds: float, refs: dict, record: dict) -> Tally:
    runner = make_runner(workload, seed, refs)
    record["inputs_sha256"] = runner.digest
    record["ops_generated"] = len(runner.ops)
    record["setup_s"] = measure_setup(runner_scenario_file(seed))
    record["calibration_ms"] = [calibration_ms()]
    tally = start_tally(runner, workload)
    samples: list[list[float]] = [[] for _ in runner.ops]
    start = time.perf_counter()
    i = 0
    with rotating_cpu() as pin:
        while i == 0 or time.perf_counter() - start < seconds:
            # a fresh process per operation can move every time; in-process
            # operations move once per round, so caches stay warm inside it
            if workload == "cold_cli":
                pin(i // len(samples) + i)
            elif i % len(samples) == 0:
                pin(i // len(samples))
            latency, problems = runner.run(i)
            samples[i % len(samples)].append(latency * 1e3)
            tally.add(problems)
            i += 1
    record["wall_s"] = time.perf_counter() - start
    record["calibration_ms"].append(calibration_ms())
    usage = resource.RUSAGE_CHILDREN if workload == "cold_cli" else resource.RUSAGE_SELF
    record["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    record["samples_ms"] = samples
    return tally


def runner_scenario_file(seed: int) -> Path:
    path = WORK / "setup-scenario.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(inputs.scenario_file_text(1, 0, seed))
    return path


def traced_pass(runner, workload: str, tally: Tally) -> dict[str, float]:
    """Run the operation list untraced, then traced; per-layer metrics of
    the traced half and the time ratio of the two halves."""
    n_ops = len(runner.ops)
    plain = 0.0
    for i in range(n_ops):
        latency, problems = runner.run(i)
        plain += latency
        tally.add(problems)
    traced = 0.0
    tracer = tracing.Tracer()
    if workload == "cold_cli":
        runner.trace_dumps = []
    else:
        tracer.install()
    try:
        for i in range(n_ops):
            latency, problems = runner.run(i)
            traced += latency
            tally.add(problems)
    finally:
        tracer.uninstall()
    if workload == "cold_cli":
        spans, counters = tracing.merge_dumps(runner.trace_dumps)
        runner.trace_dumps = None
    else:
        spans, counters = tracer.spans, tracer.counters
    metrics = tracing.layer_metrics(spans, counters)
    metrics["trace.overhead"] = plain / traced
    return metrics


def run_traced(workload: str, seed: int, seconds: float, refs: dict, record: dict) -> Tally:
    runner = make_runner(workload, seed, refs)
    record["inputs_sha256"] = runner.digest
    record["ops_generated"] = len(runner.ops)
    record["calibration_ms"] = [calibration_ms()]
    record["imports"] = tracing.import_metrics(sys.executable, child_env(), str(ROOT))
    tally = start_tally(runner, workload)
    n_ops = len(runner.ops)
    passes = []
    start = time.perf_counter()
    with rotating_cpu() as pin:
        while not passes or time.perf_counter() - start < seconds:
            pin(len(passes))
            passes.append(traced_pass(runner, workload, tally))
    record["calibration_ms"].append(calibration_ms())
    record["trace_passes"] = len(passes)
    combined = dict(record["imports"])
    for key, unit in tracing.UNITS.items():
        if key in passes[0]:
            values = [p[key] for p in passes]
            combined[key] = statistics.median(values) if unit in ("ms", "ratio") else values[0]
    combined["trace.ops"] = n_ops
    unstable = [k for k in tracing.EXACT_COUNTS if len({p[k] for p in passes}) > 1]
    if unstable:
        tally.problems.append(f"counts differ between traced passes: {unstable}")
        tally.failed += 1
    record["layers"] = combined
    return tally


# ---------------------------------------------------------------------------
# reporting


def summarize_timed(record: dict, tally: Tally) -> dict[str, tuple[float | None, str]]:
    samples = [s for s in record["samples_ms"] if s]
    flat = [x for s in samples for x in s]
    best = [min(s) for s in samples]
    rounds = f"best of {len(flat) / len(samples):.1f} rounds"
    m = {
        "setup_s": (statistics.median(record["setup_s"]),
                    f"n={len(record['setup_s'])} fresh processes, median"),
        "ops_per_s": (len(best) / (sum(best) / 1e3), f"n={len(best)} ops, each at its {rounds}"),
        "latency_p50_ms": (statistics.median(best), f"n={len(best)} ops, each at its {rounds}"),
        "ops_per_s_all": (len(flat) / (sum(flat) / 1e3),
                          f"n={len(flat)} ops, {sum(flat) / 1e3:.2f} s inside operations"),
        "latency_p50_all_ms": (statistics.median(flat), f"n={len(flat)}, every sample"),
        "error_rate": (tally.failed / tally.attempted,
                       f"n={tally.attempted} attempted, {tally.failed} failed"),
        "peak_rss_mb": (record["peak_rss_mb"], "n=1, peak of the process(es) that ran the workload"),
    }
    tail = tail_latency(flat)
    if tail is None:
        m["latency_tail_ms"] = (None, f"n={len(flat)}: no listed percentile has "
                                      f"{TAIL_MIN_BEYOND} samples beyond it")
    else:
        p, value, beyond = tail
        m["latency_tail_ms"] = (value, f"p{p:g} of every sample, n={len(flat)}, "
                                       f"{beyond} beyond")
    return m


def print_block(workload: str, seed: int, args, record: dict, metrics: dict, tally: Tally) -> None:
    env = record["env"]
    print(f"== {workload}  seed {seed}  {'traced' if args.trace else 'timed'}  "
          f"{args.seconds:g} s")
    print(f"env  python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']} (affinity {env['affinity']})  cpu {env['cpu']!r}  "
          f"loadavg {' '.join(str(x) for x in env['loadavg'])}")
    print(f"inputs sha256 {record['inputs_sha256']}  ({record['ops_generated']} ops generated; "
          f"held-out seed {inputs.HELD_OUT_SEED})")
    cal = record["calibration_ms"]
    print(f"calibration_ms  before {cal[0]:.1f}  after {cal[1]:.1f}")
    for name, (value, unit, note) in metrics.items():
        shown = "-" if value is None else f"{value:.6g}"
        print(f"{name:<40} {shown:>14} {unit:<12} ({note})")
    for problem in tally.problems[:10]:
        print(f"check failed: {problem}")


def run_workload(workload: str, args, refs: dict) -> tuple[Tally, dict]:
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment()}
    if args.trace:
        tally = run_traced(workload, args.seed, args.seconds, refs, record)
        per_pass = f"per traced pass of {record['layers']['trace.ops']} ops"
        metrics = {k: (record["layers"][k], unit,
                       f"median of {tracing.IMPORT_REPEATS} fresh imports"
                       if k.startswith("import.") else per_pass)
                   for k, unit in tracing.UNITS.items()}
        out = {k: record["layers"][k] for k in tracing.UNITS}
    else:
        tally = run_timed(workload, args.seed, args.seconds, refs, record)
        summary = summarize_timed(record, tally)
        metrics = {k: (summary[k][0], END_TO_END_UNITS[k], summary[k][1])
                   for k in END_TO_END_UNITS}
        out = {k: summary[k][0] for k in GATED}
    record["attempted"], record["failed"] = tally.attempted, tally.failed
    record["problems"] = tally.problems[:50]
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}
    print_block(workload, args.seed, args, record, metrics, tally)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    units = tracing.UNITS if args.trace else END_TO_END_UNITS
    return tally, {k: {"value": v, "unit": units[k]} for k, v in out.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qmemcell" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'qmemcell'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("QMEMCELL_CONFIG", None)
    import qmemcell
    if not Path(qmemcell.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported qmemcell from {qmemcell.__file__}, not {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    refs = checks.load_references()

    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            tally, out = run_workload(name, args, refs)
            attempted += tally.attempted
            failed += tally.failed
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in out.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
