"""Output checks.  Every operation the benchmark runs is checked here, and
an operation that fails a check counts as failed in ``error_rate``.

Each check returns a list of problems; an empty list means the output is
correct.  Command-line outputs are compared with ``references.json`` at
the per-quantity tolerances below; protocol results are checked for
physicality with the benchmark's own symplectic form, and the fixed probe
against its closed form.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

import inputs

REFERENCES = Path(__file__).resolve().parent / "references.json"

#: (relative, absolute) tolerance of a reported value against its reference
DEFAULT_TOL = (1e-9, 1e-12)
#: values that carry the Doppler average, whose quadrature runs at a
#: relative accuracy of 1e-6; a replacement must match it to that level
DOPPLER_TOL = (2e-6, 0.0)
TOLERANCES = {
    "doppler_scattering_rate": DOPPLER_TOL,
    "scattered_photons_per_pulse": DOPPLER_TOL,
    # differences of ~3e5 Hz ladder entries that cancel: zero up to roundoff
    "compensated_stark_spread": (0.0, 1e-6),
    "compensated_ac_zeeman_spread": (0.0, 1e-6),
}
#: memory-sim rows depend on the budget and hence on the Doppler average
MEMORY_SIM_TOL = (1e-6, 1e-9)
#: pump references are the exact solution of the rate equations; the
#: package integrates them by explicit Euler, whose error at the catalogue's
#: step sizes stays below 5e-4 in population
PUMP_ABS_TOL = 1e-3
#: the table renderer prints six significant digits
TABLE_ROUNDING = 6e-6

#: physicality: minimum eigenvalue of V + i Omega / 2, relative to max |V|
UNCERTAINTY_TOL = 1e-9
PROBE_MAP = np.diag([-1.0, -1.0, 1.0, 1.0])
PROBE_FIDELITY = 2.0 / math.sqrt(6.0)
PROBE_TOL = 1e-9


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


# ---------------------------------------------------------------------------
# parsing rendered reports


def parse_output(text: str, fmt: str) -> list[tuple[str, float, str | None]]:
    """(name, value, status) of every row of a rendered report.

    Raises ValueError when the text is not a well-formed report.
    """
    if fmt == "csv":
        lines = list(csv.reader(io.StringIO(text)))
        if not lines or lines[0][:3] != ["name", "value", "unit"]:
            raise ValueError("csv report lacks its header")
        rows = []
        for cells in lines[1:]:
            if len(cells) != len(lines[0]):
                raise ValueError(f"csv row has {len(cells)} cells: {cells}")
            rows.append((cells[0], float(cells[1]), cells[7] or None))
        return rows
    if fmt == "json":
        docs = json.loads(text)
        if not isinstance(docs, list):
            raise ValueError("json report is not a list")
        return [(d["name"], float(d["value"]), d.get("status")) for d in docs]
    if fmt == "table":
        lines = text.rstrip("\n").split("\n")
        if len(lines) < 2 or not lines[0].startswith("quantity"):
            raise ValueError("table report lacks its header")
        spans, pos = [], 0
        for dashes in lines[1].split("  "):
            spans.append((pos, pos + len(dashes)))
            pos += len(dashes) + 2
        if len(spans) != 7:
            raise ValueError("table report does not have seven columns")
        rows = []
        for line in lines[2:]:
            cells = [line[a:b].strip() for a, b in spans]
            rows.append((cells[0], float(cells[1]), cells[6] or None))
        return rows
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# command-line operations


def _tolerance(op: dict, name: str) -> tuple[float, float]:
    if op["cmd"] == "pump":
        rel, abs_ = 0.0, PUMP_ABS_TOL
    elif op["cmd"] == "memory-sim":
        rel, abs_ = MEMORY_SIM_TOL
    elif op["cmd"] == "sweep":
        rel, abs_ = TOLERANCES.get(op["args"]["quantity"], DEFAULT_TOL)
    else:
        rel, abs_ = TOLERANCES.get(name, DEFAULT_TOL)
    if op["format"] == "table":
        rel += TABLE_ROUNDING
    return rel, abs_


def expected_rows(op: dict, refs: dict) -> tuple[int, list]:
    """(exit code, [name, value, status] rows) the operation must produce."""
    if op["cmd"] == "sweep":
        a = op["args"]
        values = refs["sweeps"][inputs.ref_key(op)]
        rows = [[f"{a['quantity']}[{a['param']}={inputs.grid_value(a['param'], i):g}]",
                 values[i], None] for i in inputs.sweep_indices(op)]
        return 0, rows
    case = refs["cases"][inputs.ref_key(op)]
    return case["exit"], case["rows"]


def check_cli(op: dict, code: int, stdout: str, refs: dict) -> list[str]:
    """Exit code, parse, finiteness and reference values of one CLI call."""
    problems = []
    want_code, want_rows = expected_rows(op, refs)
    allowed = (0, 1) if op["cmd"] == "paper-check" else (0,)
    if code not in allowed or code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    try:
        rows = parse_output(stdout, op["format"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return problems + [f"unparsable {op['format']} output: {exc}"]
    if len(rows) != len(want_rows):
        return problems + [f"{len(rows)} rows, expected {len(want_rows)}"]
    for (name, value, status), (want_name, want_value, want_status) in zip(rows, want_rows):
        if name != want_name:
            problems.append(f"row {name!r}, expected {want_name!r}")
            continue
        if not math.isfinite(value):
            problems.append(f"{name} is not finite: {value}")
            continue
        rel, abs_ = _tolerance(op, name)
        if abs(value - want_value) > max(abs_, rel * abs(want_value)):
            problems.append(f"{name} = {value!r}, reference {want_value!r}")
        if status != want_status:
            problems.append(f"{name} status {status}, reference {want_status}")
    return problems


# ---------------------------------------------------------------------------
# protocol results


def symplectic_form(n_modes: int) -> np.ndarray:
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def physicality_margin(cov: np.ndarray) -> float:
    """Minimum eigenvalue of V + i Omega / 2 (>= 0 for a physical state)."""
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    return float(np.linalg.eigvalsh(0.5 * (cov + cov.T) + 0.5j * symplectic_form(n)).min())


def check_result(result, label: str) -> list[str]:
    """A write or read result: finite, physical output state, sane figures."""
    problems = []
    state = result.state
    arrays = {"means": state.means, "cov": state.cov,
              "transfer_map": result.transfer_map, "added_noise": result.added_noise}
    for key, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            problems.append(f"{label}: {key} is not finite")
    if problems:
        return problems
    cov = np.asarray(state.cov, dtype=float)
    scale = max(1.0, float(np.max(np.abs(cov))))
    if float(np.max(np.abs(cov - cov.T))) > UNCERTAINTY_TOL * scale:
        problems.append(f"{label}: covariance is not symmetric")
    margin = physicality_margin(cov)
    if margin < -UNCERTAINTY_TOL * scale:
        problems.append(f"{label}: min eig of V + i Omega/2 is {margin:.3e}")
    fid = result.mean_fidelity
    if not (math.isfinite(fid) and 0.0 <= fid <= 1.0):
        problems.append(f"{label}: mean fidelity {fid} outside [0, 1]")
    if not all(math.isfinite(v) for v in result.measurements.values()):
        problems.append(f"{label}: measurement outcome not finite")
    return problems


def check_probe(result) -> list[str]:
    """Zero budget, unit pass: map diag(-1, -1, 1, 1), fidelity 2/sqrt(6)."""
    problems = check_result(result, "probe")
    if not np.allclose(result.transfer_map, PROBE_MAP, rtol=0.0, atol=PROBE_TOL):
        problems.append(f"probe map {np.round(result.transfer_map, 12).tolist()}")
    if abs(result.mean_fidelity - PROBE_FIDELITY) > PROBE_TOL:
        problems.append(f"probe fidelity {result.mean_fidelity!r}, expected {PROBE_FIDELITY!r}")
    return problems


def check_memory_report(rows, text: str, fmt: str) -> list[str]:
    """memory_sim_rows plus a renderer: finite rows that survive rendering."""
    problems = []
    try:
        parsed = parse_output(text, fmt)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unparsable {fmt} output: {exc}"]
    if [p[0] for p in parsed] != [r.name for r in rows]:
        return ["rendered row names differ from the rows"]
    rel = TABLE_ROUNDING if fmt == "table" else 0.0
    for row, (_, value, _) in zip(rows, parsed):
        if not (math.isfinite(row.value) and math.isfinite(value)):
            problems.append(f"{row.name} is not finite")
        elif abs(value - row.value) > max(1e-300, rel * abs(row.value)):
            problems.append(f"{row.name} renders as {value!r}, row holds {row.value!r}")
        elif row.name.endswith("mean_fidelity") and not 0.0 <= row.value <= 1.0:
            problems.append(f"{row.name} = {row.value} outside [0, 1]")
    return problems
