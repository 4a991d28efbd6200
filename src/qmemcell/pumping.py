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
exactly, P(t) = exp(M t) P(0), by a plain-numpy exponential that spares
every run a library routine's heavy import.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .scenario import InputError

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


#: largest deviation of a propagator column sum from 1: 2e-15 at the catalogue
#: rates, growing with pump/repump (3e-9 at 1e12/1e4, 15 at 1e300/1e4)
CONSERVATION_TOL = 1e-9


def _check_nonnegative(pops: np.ndarray) -> None:
    if np.any(pops < -1e-12):
        raise ValueError("populations must be non-negative")


class PumpLevelSystem(namedtuple("PumpLevelSystem", ("populations", "pump_rate", "repump_rate"))):
    """A probability distribution over the sixteen sublevels, copied
    read-only, plus the rates driving them; checked on construction,
    ``_make`` and ``_replace`` included.  The total may be off 1 by
    CONSERVATION_TOL, as far as an evolved record drifts."""

    __slots__ = ()

    def __new__(cls, populations: np.ndarray, pump_rate: float, repump_rate: float):
        pops = np.array(populations, dtype=float)
        if pops.shape != (N_STATES,):
            raise ValueError(f"populations must be a 1-D array of length {N_STATES}, "
                             f"got shape {pops.shape}")
        _check_nonnegative(pops)
        total = float(pops.sum())
        if not abs(total - 1.0) <= CONSERVATION_TOL:
            raise ValueError(f"populations must sum to 1 within {CONSERVATION_TOL:g}, "
                             f"got {total!r}")
        for name, rate in (("pump_rate", pump_rate), ("repump_rate", repump_rate)):
            if not 0.0 <= rate < math.inf:
                raise InputError(f"{name} must be non-negative and finite, got {rate}", name)
        pops.setflags(write=False)
        return tuple.__new__(cls, (pops, pump_rate, repump_rate))

    @classmethod
    def _make(cls, iterable) -> "PumpLevelSystem":
        return cls(*iterable)

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


def _read_only(values) -> np.ndarray:
    array = np.array(values, dtype=np.intp)
    array.setflags(write=False)
    return array


# The generator's fixed layout.  Each pumped column (F = 4, |m| < 4) holds
# its share rate / n_targets at every decay target and share - rate on the
# diagonal (the source is one of its own targets); each F = 3 column holds
# repump / 9 at every F = 4 row and -repump on the diagonal.
_PUMPED_M = tuple(range(-F_UPPER + 1, F_UPPER))
#: number of decay targets of each pumped column
_N_TARGETS = tuple(len(_decay_targets(m)) for m in _PUMPED_M)
#: flat positions of the pump block's entries, and for each the index of its
#: value in [shares..., diagonals...]
_PUMP_POSITIONS = _read_only(
    [tgt * N_STATES + state_index(F_UPPER, m) for m in _PUMPED_M for tgt in _decay_targets(m)])
_PUMP_VALUE_INDEX = _read_only(
    [col + len(_PUMPED_M) * (tgt == state_index(F_UPPER, m))
     for col, m in enumerate(_PUMPED_M) for tgt in _decay_targets(m)])
#: flat positions of the F = 3 diagonal
_REPUMP_DIAGONAL = _read_only([i * N_STATES + i for i in range(N_STATES)][F3_SLICE])


def rate_matrix(system: PumpLevelSystem) -> np.ndarray:
    """Generator M of dP/dt = M P with exactly zero column sums."""
    rates = [pump_rate_profile(m, system.pump_rate) for m in _PUMPED_M]
    shares = [rate / n for rate, n in zip(rates, _N_TARGETS)]
    values = np.array(shares + [share - rate for share, rate in zip(shares, rates)])
    mat = np.zeros((N_STATES, N_STATES))
    flat = mat.reshape(-1)
    flat[_PUMP_POSITIONS] = values[_PUMP_VALUE_INDEX]
    if system.repump_rate > 0.0:
        mat[F4_SLICE, F3_SLICE] = system.repump_rate / (2 * F_UPPER + 1)
        flat[_REPUMP_DIAGONAL] = -system.repump_rate
    return mat


# Pade (13, 13) coefficients and the 1-norm up to which they need no scaling
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade-13 scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179, 2005)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expm needs a square matrix, got shape {a.shape}")
    norm = float(np.max(np.sum(np.abs(a), axis=0), initial=0.0))
    if not math.isfinite(norm):
        raise ValueError(f"expm needs a finite matrix, got 1-norm {norm}")
    squarings = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0**squarings
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    # (v - u)^-1 (v + u) written so that a zero column of a stays exact
    result = ident + 2.0 * np.linalg.solve(v - u, u)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            result = result @ result
    if not np.all(np.isfinite(result)):
        raise ArithmeticError(f"expm overflowed for a matrix of 1-norm {norm:.3g}")
    return result


def _propagator(system: PumpLevelSystem, mat: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """exp(M dt steps) of ``system``'s generator ``mat``, refusing rates or a run
    time that overflow it and a result that does not conserve the population."""
    duration = dt * steps
    scale = float(np.max(np.abs(mat), initial=0.0))
    if not math.isfinite(scale):
        raise InputError(f"pump rate {system.pump_rate:g} /s and repump rate "
                         f"{system.repump_rate:g} /s overflow the rate matrix",
                         "pump_rate", "repump_rate")
    if not math.isfinite(duration * scale):
        raise InputError(f"run time dt * steps = {duration:g} s overflows the rate matrix",
                         "dt", "steps")
    prop = expm(mat * duration)
    residual = float(np.abs(prop.sum(axis=0) - 1.0).max())
    if not residual <= CONSERVATION_TOL:
        raise InputError(
            f"pump rate {system.pump_rate:g} /s and repump rate {system.repump_rate:g} /s "
            f"are too stiff to propagate: over {duration:g} s the propagator changes "
            f"the total population by up to {residual:.3g} (tolerance {CONSERVATION_TOL:g})",
            "pump_rate", "repump_rate")
    return prop


def pumping_history(system: PumpLevelSystem, dt: float, steps: int,
                    record_every: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Times and population snapshots every ``record_every`` dt up to dt * steps.

    Returns (times, populations) with one row per record, starting with
    the initial state and ending at dt * steps; used by the reporting
    layer to print pump-up curves.  The rates are constant, so one
    propagator per chunk length (at most two) serves every record; the
    records are checked to be non-negative.
    """
    if not 0.0 < dt < math.inf:
        raise InputError(f"record spacing dt must be positive and finite, got {dt}", "dt")
    if steps < 0:
        raise InputError(f"number of record spacings must be non-negative, got {steps}", "steps")
    if record_every < 1:
        raise ValueError(f"record_every must be positive, got {record_every}")
    mat = rate_matrix(system)
    props: dict[int, np.ndarray] = {}
    times = [0.0]
    rows = [system.populations]
    done = 0
    while done < steps:
        chunk = min(record_every, steps - done)
        if chunk not in props:
            props[chunk] = _propagator(system, mat, dt, chunk)
        rows.append(props[chunk] @ rows[-1])
        done += chunk
        times.append(done * dt)
    pops = np.array(rows)
    _check_nonnegative(pops)
    return np.array(times), pops
