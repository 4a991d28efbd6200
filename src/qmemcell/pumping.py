"""Rate-equation model of optical pumping into the two edge sublevels.

The ground manifold of the cell holds sixteen sublevels, F = 4 with
m = -4..4 followed by F = 3 with m = -3..3.  The pump drives population
out of the interior F = 4 sublevels at a rate proportional to
(F^2 - m^2)/F^2, which vanishes at the two stretched states m = -4 and
m = +4: those are the dark states the memory classes are built from.
Decayed atoms redistribute over the neighboring sublevels of both
hyperfine manifolds and a repumper returns F = 3 population to F = 4.

Populations are classical probabilities; the model tracks no coherences.
The rate matrix is constant in time, so populations are propagated
exactly, P(t) = exp(M t) P(0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import expm

F_UPPER = 4
F_LOWER = 3
N_STATES = 2 * F_UPPER + 1 + 2 * F_LOWER + 1

F4_SLICE = slice(0, 2 * F_UPPER + 1)
F3_SLICE = slice(2 * F_UPPER + 1, N_STATES)

#: indices of the two dark stretched states m = -4 and m = +4
DARK_INDICES = (0, 2 * F_UPPER)


def state_index(f: int, m: int) -> int:
    """Flat index of the sublevel (F, m)."""
    if f == F_UPPER:
        if abs(m) > F_UPPER:
            raise ValueError(f"|m| must not exceed {F_UPPER} for F = {F_UPPER}, got {m}")
        return m + F_UPPER
    if f == F_LOWER:
        if abs(m) > F_LOWER:
            raise ValueError(f"|m| must not exceed {F_LOWER} for F = {F_LOWER}, got {m}")
        return 2 * F_UPPER + 1 + m + F_LOWER
    raise ValueError(f"f must be {F_LOWER} or {F_UPPER}, got {f}")


def pump_rate_profile(m: int, pump_rate: float) -> float:
    """Depletion rate of the F = 4 sublevel m, zero at the edges."""
    return pump_rate * (F_UPPER**2 - m * m) / F_UPPER**2


@dataclass(frozen=True)
class PumpLevelSystem:
    """Populations plus the rates driving them."""

    populations: np.ndarray
    pump_rate: float
    repump_rate: float

    def __post_init__(self):
        pops = np.asarray(self.populations, dtype=float).reshape(-1)
        if pops.shape != (N_STATES,):
            raise ValueError(f"populations must have length {N_STATES}, got {pops.shape}")
        if np.any(pops < -1e-12):
            raise ValueError("populations must be non-negative")
        if not (0.0 <= self.pump_rate < math.inf and 0.0 <= self.repump_rate < math.inf):
            raise ValueError("rates must be non-negative and finite")
        object.__setattr__(self, "populations", pops.copy())
        self.populations.setflags(write=False)

    @property
    def total_population(self) -> float:
        return float(self.populations.sum())

    def dark_fraction(self) -> float:
        return float(sum(self.populations[i] for i in DARK_INDICES))

    def dark_split(self) -> tuple[float, float]:
        """Populations of the m = -4 and m = +4 stretched states."""
        return (float(self.populations[DARK_INDICES[0]]),
                float(self.populations[DARK_INDICES[1]]))


def uniform_f4_system(pump_rate: float, repump_rate: float) -> PumpLevelSystem:
    """All population spread evenly over the F = 4 manifold."""
    pops = np.zeros(N_STATES)
    pops[F4_SLICE] = 1.0 / (2 * F_UPPER + 1)
    return PumpLevelSystem(populations=pops, pump_rate=pump_rate,
                           repump_rate=repump_rate)


def _decay_targets(m: int) -> list[int]:
    """Sublevels reachable from a pump cycle that started at F = 4, m."""
    targets = []
    for q in (-1, 0, 1):
        if abs(m + q) <= F_UPPER:
            targets.append(state_index(F_UPPER, m + q))
        if abs(m + q) <= F_LOWER:
            targets.append(state_index(F_LOWER, m + q))
    return targets


def rate_matrix(system: PumpLevelSystem) -> np.ndarray:
    """Generator M of dP/dt = M P with exactly zero column sums."""
    mat = np.zeros((N_STATES, N_STATES))
    for m in range(-F_UPPER, F_UPPER + 1):
        rate = pump_rate_profile(m, system.pump_rate)
        if rate == 0.0:
            continue
        src = state_index(F_UPPER, m)
        targets = _decay_targets(m)
        share = rate / len(targets)
        for tgt in targets:
            mat[tgt, src] += share
        mat[src, src] -= rate
    if system.repump_rate > 0.0:
        n_f4 = 2 * F_UPPER + 1
        for m in range(-F_LOWER, F_LOWER + 1):
            src = state_index(F_LOWER, m)
            for tgt in range(n_f4):
                mat[tgt, src] += system.repump_rate / n_f4
            mat[src, src] -= system.repump_rate
    return mat


def _check_grid(dt: float, steps: int) -> None:
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")


#: largest deviation of a propagator column sum from 1: 2e-15 at the catalogue
#: rates, growing with pump/repump (3e-9 at 1e12/1e4, 15 at 1e300/1e4)
CONSERVATION_TOL = 1e-9


def _propagator(system: PumpLevelSystem, mat: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """exp(M dt steps) of ``system``'s generator ``mat``, refusing a run time
    that overflows it and a result that does not conserve the population."""
    duration = dt * steps
    if not math.isfinite(duration * float(np.max(np.abs(mat), initial=0.0))):
        raise ValueError(f"run time dt * steps = {duration:g} s overflows the rate matrix")
    prop = expm(mat * duration)
    residual = float(np.abs(prop.sum(axis=0) - 1.0).max())
    if not residual <= CONSERVATION_TOL:
        raise ValueError(
            f"pump rate {system.pump_rate:g} /s and repump rate {system.repump_rate:g} /s "
            f"are too stiff to propagate: over {duration:g} s the propagator changes "
            f"the total population by up to {residual:.3g} (tolerance {CONSERVATION_TOL:g})")
    return prop


def evolve_pumping(system: PumpLevelSystem, dt: float,
                   steps: int) -> PumpLevelSystem:
    """Populations after a time dt * steps, propagated exactly."""
    _check_grid(dt, steps)
    prop = _propagator(system, rate_matrix(system), dt, steps)
    return replace(system, populations=prop @ system.populations)


def pumping_history(system: PumpLevelSystem, dt: float, steps: int,
                    record_every: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Times and population snapshots every ``record_every`` dt up to dt * steps.

    Returns (times, populations) with one row per record, starting with
    the initial state and ending at dt * steps; used by the reporting
    layer to print pump-up curves.  The rates are constant, so one
    propagator per chunk length (at most two) serves every record.
    """
    _check_grid(dt, steps)
    if record_every < 1:
        raise ValueError(f"record_every must be positive, got {record_every}")
    mat = rate_matrix(system)
    props: dict[int, np.ndarray] = {}
    times = [0.0]
    rows = [system.populations.copy()]
    current = system
    done = 0
    while done < steps:
        chunk = min(record_every, steps - done)
        if chunk not in props:
            props[chunk] = _propagator(system, mat, dt, chunk)
        current = replace(current, populations=props[chunk] @ current.populations)
        done += chunk
        times.append(done * dt)
        rows.append(current.populations.copy())
    return np.array(times), np.array(rows)
