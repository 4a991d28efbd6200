"""Regenerate ``references.json``, the expected rows of every catalogue case.

Run from the repository root:  python3 bench/make_references.py

Each command-line case of ``inputs.catalogue_cases()`` and every sweep
grid of ``inputs.SWEEP_GRIDS`` is evaluated once with the package in
``src/``.  ``pump`` references are not the package's Euler rows but the
exact solution exp(M t) P0 of the same rate equations (scipy's expm), so
the stored tolerance is the Euler discretization error, stated as an
absolute population; the largest deviation seen is printed.

Regenerating pins the current package output as the reference: do it only
when a change to the catalogue needs new cases, never to absorb a change
in the package's numbers.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from checks import parse_output  # noqa: E402


def _run(argv: list[str]) -> tuple[int, str]:
    from qmemcell import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _exact_pump_rows(args: dict) -> list[list]:
    from scipy.linalg import expm
    from qmemcell import pumping
    system = pumping.uniform_f4_system(args["pump"], args["repump"])
    mat = pumping.rate_matrix(system)
    steps, dt = args["steps"], args["dt"]
    record_every = max(1, steps // 5)
    done, marks = 0, [0]
    while done < steps:
        done += min(record_every, steps - done)
        marks.append(done)
    lo, hi = pumping.DARK_INDICES
    rows = []
    for n in marks:
        pops = expm(mat * (n * dt)) @ system.populations
        rows.append([f"dark_fraction[t={n * dt:.6g}s]", float(pops[lo] + pops[hi]), None])
    rows.append(["dark_minus_edge", float(pops[lo]), None])
    rows.append(["dark_plus_edge", float(pops[hi]), None])
    rows.append(["total_population", float(pops.sum()), None])
    return rows


def main() -> int:
    work = ROOT / ".bench_build" / "qmemcell-bench" / "references"
    work.mkdir(parents=True, exist_ok=True)
    cases = {}
    worst_pump = 0.0
    for op in inputs.catalogue_cases():
        path = None
        if op["scenario"] != 0:
            path = work / f"scenario-{op['scenario']}.json"
            path.write_text(json.dumps(inputs.SCENARIOS[op["scenario"]]))
            op = dict(op, config="flag")
        code, text = _run(inputs.cli_argv(op, str(path)))
        assert code in (0, 1), (op, code)
        rows = [[name, value, status] for name, value, status in parse_output(text, "csv")]
        if op["cmd"] == "pump":
            exact = _exact_pump_rows(op["args"])
            assert [r[0] for r in exact] == [r[0] for r in rows], op
            worst_pump = max(worst_pump, max(abs(a[1] - b[1]) for a, b in zip(exact, rows)))
            rows = exact
        cases[inputs.ref_key(op)] = {"exit": code, "rows": rows}
    sweeps = {}
    for param in sorted(inputs.SWEEP_GRIDS):
        grid = [inputs.grid_value(param, i) for i in range(inputs.GRID_POINTS)]
        for quantity in inputs.SWEEP_QUANTITIES:
            code, text = _run(["sweep", "--param", param, "--quantity", quantity,
                               "--values", ",".join(repr(v) for v in grid)])
            assert code == 0, (param, quantity)
            values = [value for _, value, _ in parse_output(text, "csv")]
            assert len(values) == len(grid) and np.all(np.isfinite(values))
            sweeps[json.dumps(["sweep", param, quantity])] = values
    lines = ['{"cases": {']
    items = sorted(cases.items())
    for i, (key, case) in enumerate(items):
        sep = "," if i < len(items) - 1 else ""
        lines.append(f"{json.dumps(key)}: {json.dumps(case)}{sep}")
    lines.append('}, "sweeps": {')
    items = sorted(sweeps.items())
    for i, (key, values) in enumerate(items):
        sep = "," if i < len(items) - 1 else ""
        lines.append(f"{json.dumps(key)}: {json.dumps(values)}{sep}")
    lines.append("}}")
    (BENCH_DIR / "references.json").write_text("\n".join(lines) + "\n")
    print(f"{len(cases)} cases, {len(sweeps)} sweep grids; "
          f"largest Euler deviation from the exact pump solution: {worst_pump:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
