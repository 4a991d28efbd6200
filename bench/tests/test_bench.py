"""Tests of the benchmark itself:  python3 -m pytest bench/tests

They run every workload briefly, check the output schema against
BENCHMARK.json, show that corrupted outputs count as failures, and show
that the traced counts repeat exactly and match the package's structure.
"""

import contextlib
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900)


def _last_json(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_timed_run_keeps_schema(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    result = _last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = [line.split()[0] for line in proc.stdout.splitlines() if line.strip()]
    for name in bench.END_TO_END_UNITS:
        assert name in printed


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_counts_repeat(workload):
    runs = [_last_json(_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                              "--trace", "1")) for _ in range(2)]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in runs:
        assert result["correct"] is True
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for key in tracing.EXACT_COUNTS:
        assert runs[0]["metrics"][key]["value"] == runs[1]["metrics"][key]["value"], key


def test_missing_source_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "protocol", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# structure of the package as the tracer sees it


def _traced(fn):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracing.layer_metrics(tracer.spans, tracer.counters)


def test_packaged_point_structure():
    from qmemcell import report, scenario
    m = _traced(lambda: report.memory_sim_rows(scenario.default_scenario()))
    assert m["gaussian.state_validations"] == 145
    assert m["gaussian.states_per_round_trip"] == 145
    assert m["memory.passes_per_result"] == 6
    assert m["decoherence.doppler_average.calls"] == 1
    assert m["decoherence.integrand_evals"] == 147
    assert m["scenario.load.calls"] == 1


def test_one_scenario_with_per_sweep_point():
    from qmemcell import cli

    def sweep():
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            cli.main(["sweep", "--param", "tau_s", "--quantity", "spin_exchange_eta",
                      "--start", "1e-4", "--stop", "2e-3", "--num", "37"])
    m = _traced(sweep)
    assert m["scenario.scenario_with.calls"] == 37
    assert m["cli.sweep_pools"] == 1
    assert m["cli.main.calls"] == 1
    assert 0 < m["cli.main.self_ms"] <= m["scenario.scenario_with.busy_ms"] + 1e3


def test_tracer_restores_the_package():
    from qmemcell import decoherence, gaussian, memory
    originals = (memory.qnd_transform, decoherence.scattering_rate,
                 gaussian.GaussianState.__post_init__)
    _traced(lambda: None)
    assert (memory.qnd_transform, decoherence.scattering_rate,
            gaussian.GaussianState.__post_init__) == originals


# ---------------------------------------------------------------------------
# corrupted outputs count as failures


@pytest.fixture(scope="module")
def refs():
    return checks.load_references()


def _cli_case(refs, fmt):
    op = dict(next(op for op in inputs.operating_point_ops(1) if op["cmd"] == "decoherence"),
              format=fmt, config="none", scenario=0)
    runner = bench.CliRunner("operating_point", 1, refs)
    _, code, out, _ = runner._call(op)
    return op, code, out


@pytest.mark.parametrize("fmt", inputs.FORMATS)
def test_corrupted_cli_output_is_a_failure(refs, fmt):
    op, code, out = _cli_case(refs, fmt)
    assert checks.check_cli(op, code, out, refs) == []
    value = checks.parse_output(out, fmt)[1][1]
    shown = {"csv": repr(value), "json": repr(value), "table": f"{value:.6g}"}[fmt]
    assert shown in out
    assert checks.check_cli(op, code, out.replace(shown, "17.4", 1), refs)
    assert checks.check_cli(op, code, out.replace(shown, "nan", 1), refs)
    assert checks.check_cli(op, 2, out, refs)
    assert checks.check_cli(op, code, out[: len(out) // 2], refs)


def test_runner_counts_corrupted_cli_rows(refs, monkeypatch):
    from qmemcell import cli
    real = cli.render_rows

    def corrupt(rows, fmt):
        bad = dataclasses.replace(rows[0], value=rows[0].value * 1.01 + 1.0)
        return real([bad, *rows[1:]], fmt)

    runner = bench.CliRunner("operating_point", 2, refs)
    assert all(not runner.run(i)[1] for i in range(14))
    monkeypatch.setattr(cli, "render_rows", corrupt)
    assert all(runner.run(i)[1] for i in range(14))


def test_changed_bytes_for_same_argv_are_a_failure(refs, monkeypatch):
    from qmemcell import cli
    runner = bench.CliRunner("operating_point", 2, refs)
    op = runner.ops[0]
    assert not runner.run(0)[1]
    real = cli.render_rows
    monkeypatch.setattr(cli, "render_rows", lambda rows, fmt: real(rows, fmt) + " ")
    runner.ops = [op]
    problems = runner.run(0)[1]
    assert "same argv gave different bytes" in problems


def test_runner_counts_unphysical_protocol_state(monkeypatch):
    from qmemcell import memory
    runner = bench.ProtocolRunner(2)
    direct = [i for i, op in enumerate(runner.ops[:16]) if op["kind"] == "direct"]
    assert all(not runner.run(i)[1] for i in direct)
    real = memory.run_read

    def squeezed(*args, **kwargs):
        result = real(*args, **kwargs)
        state = types.SimpleNamespace(means=result.state.means, cov=0.2 * result.state.cov)
        return dataclasses.replace(result, state=state)

    monkeypatch.setattr(memory, "run_read", squeezed)
    for i in direct:
        assert any("V + i Omega/2" in p for p in runner.run(i)[1])


def test_probe_detects_a_wrong_map(monkeypatch):
    from qmemcell import memory
    runner = bench.ProtocolRunner(2)
    assert runner.probe() == []
    real = memory.run_write
    monkeypatch.setattr(memory, "run_write", lambda *a, **k: dataclasses.replace(
        real(*a, **k), mean_fidelity=0.8))
    assert runner.probe()


# ---------------------------------------------------------------------------
# inputs


def test_digest_follows_the_seed():
    def fingerprint(seed):
        ops = inputs.operating_point_ops(seed)
        return inputs.digest("operating_point", seed, ops, inputs.cli_scenario_files(ops, seed))
    assert fingerprint(1) == fingerprint(1)
    assert fingerprint(1) != fingerprint(inputs.HELD_OUT_SEED)
    _, a = inputs.protocol_ops(4)
    _, b = inputs.protocol_ops(4)
    assert a == b


def test_every_generated_op_has_a_reference(refs):
    for seed in (1, inputs.HELD_OUT_SEED):
        for op in inputs.cold_cli_ops(seed) + inputs.operating_point_ops(seed):
            code, rows = checks.expected_rows(op, refs)
            assert rows and code in (0, 1)


def test_tail_needs_ten_samples_beyond():
    assert bench.tail_latency(list(range(99))) is None
    p, value, beyond = bench.tail_latency(list(range(100)))
    assert (p, beyond) == (90.0, 10)
    assert bench.tail_latency(list(range(1000)))[0] == 99.0
