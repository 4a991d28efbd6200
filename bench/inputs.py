"""Seeded inputs of the three benchmark workloads.

The package only ever sees what this module generates: argv lists and
scenario files for the command line, and (scenario, state, k_eff, policy)
tuples for the in-process protocol runs.  Every choice comes from a
``random.Random(seed)``, so one seed always gives the same operation list;
``digest`` fingerprints that list so two sides of a comparison can show
they ran the same inputs.

Command-line operations draw their arguments from the fixed catalogue
below, because every output is checked against a reference value stored
in ``references.json`` (regenerate it with ``make_references.py``).  Each
workload's list has a fixed composition, so the mix of cheap and
expensive operations is the same for every seed and only the arguments
and order change.  A run repeats its list in rounds.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("cold_cli", "protocol", "operating_point")

#: seed for development runs, and a second seed kept for confirming a
#: claimed change on inputs it was not tuned on
DEFAULT_SEED = 1
HELD_OUT_SEED = 20050913

FORMATS = ("csv", "table", "json")

#: scenario documents of the catalogue, in document units; index 0 is the
#: packaged operating point (the CLI's default when no config is given)
SCENARIOS = (
    {},
    {"omega_b_hz": 1.5e5, "tau_s": 2.0e-3, "stark_detuning_hz": 2.5e9},
    {"omega_b_hz": 6.0e5, "probe_detuning_hz": -9.0e8,
     "atom_density_m3": 4.0e16, "boundary_loss": 0.03},
    {"tau_s": 5.0e-4, "microwave_detuning_hz": 2.0e7, "feedback_gain": -0.8,
     "beam_area_m2": 1.0e-4},
    {"stark_detuning_hz": -4.0e9, "photon_number": 4.0e12, "atom_number": 5.0e11},
    {"omega_b_hz": 2.0e5,
     "species": {"gamma_d1_hz": 4.8e6, "doppler_halfwidth_hz": 2.0e8}},
)

#: packaged defaults, used to write scenario files in full or minimal form
PACKAGED = {
    "omega_b_hz": 3.0e5, "tau_s": 1.0e-3, "probe_detuning_hz": 7.0e8,
    "stark_detuning_hz": 3.0e9, "microwave_detuning_hz": 3.6e7,
    "atom_number": 1.0e12, "photon_number": 1.0e12, "beam_area_m2": 2.0e-4,
    "atom_density_m3": 2.5e16, "boundary_loss": 0.01, "feedback_gain": -1.0,
}

SHIFTS_OMEGA_HZ = (None, 1.0e5, 5.0e5, 2.0e6)
PULSE_TAU_S = (None, 1.0e-5, 1.0e-4)
MEMORY_K_EFF = (None, 0.5, 2.0)
MEMORY_SEEDS = (None, 3, 11)
PUMP_RATES = (5.0e3, 1.0e4, 2.0e4)
PUMP_DT = (1.0e-6, 2.0e-6)
PUMP_STEPS_SHORT = (1000, 2000)
PUMP_STEPS_LONG = (4000, 8000)

SWEEP_QUANTITIES = ("stark_compensation_intensity", "ac_zeeman_compensation_intensity",
                    "zeeman_dephasing", "doppler_scattering_rate",
                    "spin_exchange_eta", "k_eff")
#: sweep grids: param -> (first value, spacing); every sweep point of every
#: operation lies on one of these 129-point grids of the packaged point
SWEEP_GRIDS = {
    "omega_b_hz": (5.0e4, 1.0e4),
    "stark_detuning_hz": (1.0e9, 5.0e7),
    "microwave_detuning_hz": (1.0e7, 5.0e5),
    "tau_s": (1.0e-4, 2.5e-5),
    "atom_density_m3": (5.0e15, 5.0e14),
    "probe_detuning_hz": (2.0e8, 2.5e7),
}
GRID_POINTS = 129
SWEEP_MIN_POINTS = 16
SWEEP_MAX_POINTS = 128

#: blocks per operation list; a run repeats its list in rounds.  Protocol
#: round trips all cost about the same, so its list is short: each one gets
#: more rounds, and so more chances to be timed while the host is quiet.
OPERATING_POINT_BLOCKS = 16
PROTOCOL_BLOCKS = 4

PROTOCOL_K_EFF = (0.5, 0.75, 1.0, 1.5, 2.0)


def grid_value(param: str, index: int) -> float:
    first, step = SWEEP_GRIDS[param]
    return first + index * step


# ---------------------------------------------------------------------------
# reference keys of command-line operations


def ref_key(op: dict) -> str:
    """Catalogue case an operation's rows are checked against.

    Format and the way the scenario reaches the CLI do not change the
    values, so they are not part of the key.
    """
    cmd, a = op["cmd"], op["args"]
    if cmd == "sweep":
        return json.dumps(["sweep", a["param"], a["quantity"]])
    if cmd == "pump":
        return json.dumps(["pump", a["pump"], a["repump"], a["dt"], a["steps"]])
    extra = [a.get(k) for k in sorted(a)]
    return json.dumps([cmd, op["scenario"], *extra])


def catalogue_cases() -> list[dict]:
    """Every non-sweep command-line case the workloads can draw."""
    cases = []
    for s in range(len(SCENARIOS)):
        for omega in SHIFTS_OMEGA_HZ:
            cases.append(_cli_op("shifts", s, {"omega_b_hz": omega}))
        cases.append(_cli_op("compensate", s, {}))
        for tau in PULSE_TAU_S:
            cases.append(_cli_op("pulse-design", s, {"tau_s": tau}))
        cases.append(_cli_op("decoherence", s, {}))
        cases.append(_cli_op("paper-check", s, {}))
        for k in MEMORY_K_EFF:
            for seed in MEMORY_SEEDS:
                cases.append(_cli_op("memory-sim", s, {"k_eff": k, "seed": seed}))
    for pump in PUMP_RATES:
        for repump in PUMP_RATES:
            for dt in PUMP_DT:
                for steps in PUMP_STEPS_SHORT + PUMP_STEPS_LONG:
                    cases.append(_cli_op("pump", 0, {"pump": pump, "repump": repump,
                                                     "dt": dt, "steps": steps}))
    return cases


def _cli_op(cmd: str, scenario: int, args: dict, fmt: str = "csv",
            config: str = "none", variant: int = 0) -> dict:
    return {"cmd": cmd, "scenario": scenario, "args": args, "format": fmt,
            "config": config, "variant": variant}


def cli_argv(op: dict, scenario_path: str | None) -> list[str]:
    """argv (after the program name) of a command-line operation."""
    cmd, a = op["cmd"], op["args"]
    argv = [cmd]
    if cmd == "shifts" and a["omega_b_hz"] is not None:
        argv += ["--omega-b-hz", repr(a["omega_b_hz"])]
    elif cmd == "pulse-design" and a["tau_s"] is not None:
        argv += ["--tau-s", repr(a["tau_s"])]
    elif cmd == "memory-sim":
        if a["k_eff"] is not None:
            argv += ["--k-eff", repr(a["k_eff"])]
        if a["seed"] is not None:
            argv += ["--seed", str(a["seed"])]
    elif cmd == "pump":
        argv += ["--pump-rate", repr(a["pump"]), "--repump-rate", repr(a["repump"]),
                 "--dt", repr(a["dt"]), "--steps", str(a["steps"])]
    elif cmd == "sweep":
        first = a["first"]
        last = first + a["stride"] * (a["num"] - 1)
        argv += ["--param", a["param"], "--quantity", a["quantity"],
                 "--start", repr(grid_value(a["param"], first)),
                 "--stop", repr(grid_value(a["param"], last)),
                 "--num", str(a["num"])]
    argv += ["--format", op["format"]]
    if op["config"] == "flag":
        argv += ["--config", scenario_path]
    return argv


def sweep_indices(op: dict) -> list[int]:
    a = op["args"]
    return [a["first"] + i * a["stride"] for i in range(a["num"])]


# ---------------------------------------------------------------------------
# command-line workloads


def _sweep_op(rng: random.Random, quantity: str, num: int) -> dict:
    param = rng.choice(sorted(SWEEP_GRIDS))
    stride = rng.randint(1, (GRID_POINTS - 1) // (num - 1))
    first = rng.randint(0, GRID_POINTS - 1 - stride * (num - 1))
    return _cli_op("sweep", 0, {"param": param, "quantity": quantity,
                                "first": first, "stride": stride, "num": num})


def _pump_op(rng: random.Random, steps: int) -> dict:
    return _cli_op("pump", 0, {"pump": rng.choice(PUMP_RATES),
                               "repump": rng.choice(PUMP_RATES),
                               "dt": rng.choice(PUMP_DT), "steps": steps})


def _report_op(rng: random.Random, cmd: str) -> dict:
    args = {}
    if cmd == "shifts":
        args = {"omega_b_hz": rng.choice(SHIFTS_OMEGA_HZ)}
    elif cmd == "pulse-design":
        args = {"tau_s": rng.choice(PULSE_TAU_S)}
    elif cmd == "memory-sim":
        args = {"k_eff": rng.choice(MEMORY_K_EFF), "seed": rng.choice(MEMORY_SEEDS)}
    return _cli_op(cmd, rng.randrange(len(SCENARIOS)), args)


def _stratified_points(rng: random.Random, count: int) -> list[int]:
    """``count`` sweep sizes, one from each equal slice of the allowed range,
    in seeded order."""
    span = SWEEP_MAX_POINTS - SWEEP_MIN_POINTS + 1
    sizes = [SWEEP_MIN_POINTS + int(span * (j + rng.random()) / count)
             for j in range(count)]
    rng.shuffle(sizes)
    return sizes


def _balanced(rng: random.Random, choices: tuple, count: int) -> list:
    """``count`` picks with every choice equally often, in seeded order."""
    picks = [choices[i % len(choices)] for i in range(count)]
    rng.shuffle(picks)
    return picks


def _route(rng: random.Random, ops: list[dict], routes: tuple[str, ...]) -> None:
    """Rotate output formats and pick how each op's scenario reaches the CLI."""
    for i, op in enumerate(ops):
        op["format"] = FORMATS[i % len(FORMATS)]
        if op["cmd"] in ("pump", "sweep") and rng.random() < 0.5:
            op["config"] = "none"
        elif op["scenario"] == 0 and rng.random() < 1.0 / len(routes):
            op["config"] = "none"
        else:
            op["config"] = rng.choice(routes)
        op["variant"] = rng.randrange(2)


def cold_cli_ops(seed: int) -> list[dict]:
    """The eight subcommands, each once, with seeded arguments and order."""
    rng = random.Random(f"cold_cli:{seed}")
    ops = [_report_op(rng, cmd) for cmd in
           ("shifts", "compensate", "pulse-design", "decoherence", "memory-sim",
            "paper-check")]
    ops.append(_pump_op(rng, rng.choice(PUMP_STEPS_SHORT + PUMP_STEPS_LONG)))
    ops.append(_sweep_op(rng, rng.choice(SWEEP_QUANTITIES),
                         _stratified_points(rng, 1)[0]))
    rng.shuffle(ops)
    _route(rng, ops, ("flag", "env"))
    return ops


def operating_point_ops(seed: int) -> list[dict]:
    """Blocks of six sweeps (one per quantity), a short and a long pump run
    and the five single-point reports.  Sweep sizes are stratified per
    quantity across the blocks, so every seed gets the same cost mix."""
    rng = random.Random(f"operating_point:{seed}")
    sizes = {q: _stratified_points(rng, OPERATING_POINT_BLOCKS) for q in SWEEP_QUANTITIES}
    short = _balanced(rng, PUMP_STEPS_SHORT, OPERATING_POINT_BLOCKS)
    long = _balanced(rng, PUMP_STEPS_LONG, OPERATING_POINT_BLOCKS)
    ops: list[dict] = []
    for b in range(OPERATING_POINT_BLOCKS):
        block = [_sweep_op(rng, q, sizes[q][b]) for q in SWEEP_QUANTITIES]
        block += [_pump_op(rng, short[b]), _pump_op(rng, long[b])]
        block += [_report_op(rng, cmd) for cmd in
                  ("paper-check", "shifts", "compensate", "pulse-design", "decoherence")]
        rng.shuffle(block)
        ops += block
    _route(rng, ops, ("flag",))
    return ops


def scenario_file_text(scenario: int, variant: int, seed: int) -> str:
    """A valid scenario document for catalogue entry ``scenario``.

    Variant 0 writes every scalar key, variant 1 only the keys that differ
    from the packaged point; key order and indentation follow the seed.
    """
    rng = random.Random(f"scenario:{seed}:{scenario}:{variant}")
    doc = dict(SCENARIOS[scenario])
    species = doc.pop("species", None)
    if variant == 0:
        doc = {**PACKAGED, **doc}
    keys = sorted(doc)
    rng.shuffle(keys)
    ordered = {k: doc[k] for k in keys}
    if species is not None:
        ordered["species"] = species
    return json.dumps(ordered, indent=rng.choice((None, 2, 4))) + "\n"


def cli_scenario_files(ops: list[dict], seed: int) -> dict[str, str]:
    """File name -> text of every scenario file the operations read."""
    files = {}
    for op in ops:
        if op["config"] != "none":
            name = scenario_file_name(op)
            files[name] = scenario_file_text(op["scenario"], op["variant"], seed)
    return dict(sorted(files.items()))


def scenario_file_name(op: dict) -> str:
    return f"scenario-{op['scenario']}-{op['variant']}.json"


# ---------------------------------------------------------------------------
# protocol workload


def protocol_ops(seed: int) -> tuple[list[dict], list[dict]]:
    """(scenario documents, operations) of the in-process protocol workload.

    Blocks of eight round trips: four under the mean outcome policy and
    four under the sample policy, one of each going through
    ``memory_sim_rows`` and a renderer instead of direct calls.
    """
    rng = random.Random(f"protocol:{seed}")
    scenarios = []
    for _ in range(16):
        scenarios.append({
            "omega_b_hz": round(rng.uniform(1.0e5, 1.0e6), 1),
            "tau_s": round(rng.uniform(2.0e-4, 2.0e-3), 7),
            "stark_detuning_hz": round(rng.uniform(2.0e9, 6.0e9), -3),
            "atom_density_m3": round(rng.uniform(1.0e16, 5.0e16), -10),
            "boundary_loss": round(rng.uniform(0.0, 0.05), 5),
            "feedback_gain": round(rng.uniform(-1.2, -0.8), 4),
        })
    ops: list[dict] = []
    for _ in range(PROTOCOL_BLOCKS):
        block = []
        for j in range(8):
            policy = "mean" if j < 4 else "sample"
            block.append({
                "kind": "report" if j in (0, 4) else "direct",
                "policy": policy,
                "scenario": rng.randrange(len(scenarios)),
                "k_eff": rng.choice(PROTOCOL_K_EFF),
                "amplitudes": [round(rng.gauss(0.0, 2.0), 6) for _ in range(4)],
                "seed": rng.randrange(1, 2**31) if policy == "sample" else None,
                "format": FORMATS[(len(ops) + j) % len(FORMATS)],
            })
        rng.shuffle(block)
        ops.extend(block)
    return scenarios, ops


# ---------------------------------------------------------------------------


def digest(*parts) -> str:
    """sha256 of the canonical JSON of the generated inputs."""
    text = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
