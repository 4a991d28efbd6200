"""Optical pumping rate model for the sixteen ground sublevels."""

import re

import numpy as np
import pytest
from scipy.linalg import expm

from qmemcell import evolve_pumping, pumping_history, rate_matrix, state_index, uniform_f4_system
from qmemcell.pumping import (
    DARK_INDICES,
    F3_SLICE,
    F4_SLICE,
    N_STATES,
    PumpLevelSystem,
    pump_rate_profile,
)
from qmemcell.report import pump_rows

PUMP = 1.0e4
REPUMP = 1.0e4
DT = 1.0e-6


def test_state_index_layout():
    assert state_index(4, -4) == 0
    assert state_index(4, 4) == 8
    assert state_index(3, -3) == 9
    assert state_index(3, 3) == 15
    assert DARK_INDICES == (0, 8)
    assert N_STATES == 16
    with pytest.raises(ValueError):
        state_index(4, 5)
    with pytest.raises(ValueError):
        state_index(3, -4)
    with pytest.raises(ValueError):
        state_index(2, 0)


def test_pump_rate_profile():
    assert pump_rate_profile(-4, PUMP) == 0.0
    assert pump_rate_profile(4, PUMP) == 0.0
    assert pump_rate_profile(0, PUMP) == PUMP
    assert pump_rate_profile(2, PUMP) == pytest.approx(PUMP * 12.0 / 16.0, rel=1e-15)


def test_uniform_start():
    system = uniform_f4_system(PUMP, REPUMP)
    assert system.total_population == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(system.populations[F4_SLICE], 1.0 / 9.0, atol=1e-15)
    assert np.allclose(system.populations[F3_SLICE], 0.0, atol=1e-15)
    assert system.dark_fraction() == pytest.approx(2.0 / 9.0, rel=1e-12)


def test_system_validation():
    with pytest.raises(ValueError, match="length"):
        PumpLevelSystem(populations=np.zeros(9), pump_rate=PUMP, repump_rate=REPUMP)
    with pytest.raises(ValueError, match="non-negative"):
        PumpLevelSystem(populations=-np.ones(16), pump_rate=PUMP, repump_rate=REPUMP)
    with pytest.raises(ValueError, match="rates"):
        uniform_f4_system(-1.0, REPUMP)


def test_rate_matrix_conserves_population():
    mat = rate_matrix(uniform_f4_system(PUMP, REPUMP))
    col_sums = np.abs(mat.sum(axis=0))
    assert col_sums.max() <= 1e-10 * PUMP


def test_rate_matrix_dark_states_are_absorbing():
    mat = rate_matrix(uniform_f4_system(PUMP, REPUMP))
    for idx in DARK_INDICES:
        assert np.array_equal(mat[:, idx], np.zeros(N_STATES))
    # the repump feeds the dark states from every F = 3 sublevel
    assert np.all(mat[0, F3_SLICE] > 0.0)
    assert np.all(mat[8, F3_SLICE] > 0.0)


def test_evolution_conserves_population():
    system = evolve_pumping(uniform_f4_system(PUMP, REPUMP), DT, 2000)
    assert abs(system.total_population - 1.0) <= 1e-12


def test_dark_fraction_non_decreasing():
    _, rows = pumping_history(uniform_f4_system(PUMP, REPUMP), DT, 2000,
                              record_every=100)
    dark = rows[:, 0] + rows[:, 8]
    assert np.all(np.diff(dark) >= -1e-12)


def test_dark_split_stays_symmetric():
    system = evolve_pumping(uniform_f4_system(PUMP, REPUMP), DT, 2000)
    left, right = system.dark_split()
    assert abs(left - right) <= 1e-12
    assert left > 0.3


def test_long_run_pumps_everything_dark():
    system = evolve_pumping(uniform_f4_system(PUMP, REPUMP), DT, 20000)
    assert system.dark_fraction() > 0.99
    assert np.all(system.populations[F3_SLICE] < 1e-2)
    left, right = system.dark_split()
    assert left == pytest.approx(0.5, abs=2e-3)


def test_no_repump_strands_population():
    with_repump = evolve_pumping(uniform_f4_system(PUMP, REPUMP), DT, 2000)
    without = evolve_pumping(uniform_f4_system(PUMP, 0.0), DT, 2000)
    assert without.dark_fraction() < with_repump.dark_fraction()
    assert float(without.populations[F3_SLICE].sum()) > 0.1


@pytest.mark.parametrize("pump, repump", [(PUMP, REPUMP), (3.0e5, 2.0e3), (1.0e3, 0.0)])
@pytest.mark.parametrize("dt, steps", [(1.0e-9, 1), (1.0e-6, 2000), (1.0e-4, 10),
                                       (1.0e-3, 1000)])
def test_evolution_matches_scipy_expm(pump, repump, dt, steps):
    # exact propagation against an independent exponential, up to t = 1 s
    system = uniform_f4_system(pump, repump)
    exact = expm(rate_matrix(system) * (dt * steps)) @ system.populations
    got = evolve_pumping(system, dt, steps).populations
    assert np.max(np.abs(got - exact)) <= 1e-12


def test_pumping_argument_validation():
    system = uniform_f4_system(PUMP, REPUMP)
    with pytest.raises(ValueError, match="dt"):
        evolve_pumping(system, 0.0, 10)
    with pytest.raises(ValueError, match="steps"):
        evolve_pumping(system, DT, -1)
    with pytest.raises(ValueError, match="overflows"):
        evolve_pumping(system, 1.0e300, 10**10)
    # the history checks its grid even when it takes no step
    with pytest.raises(ValueError, match="steps"):
        pumping_history(system, DT, -1)
    with pytest.raises(ValueError, match="dt"):
        pumping_history(system, float("nan"), 0)
    with pytest.raises(ValueError, match="rates"):
        uniform_f4_system(float("inf"), REPUMP)


def test_history_shape_and_endpoints():
    system = uniform_f4_system(PUMP, REPUMP)
    times, rows = pumping_history(system, DT, 1000, record_every=250)
    assert times.shape == (5,)
    assert rows.shape == (5, N_STATES)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1000 * DT, rel=1e-12)
    assert np.array_equal(rows[0], system.populations)
    direct = evolve_pumping(system, DT, 1000)
    assert np.allclose(rows[-1], direct.populations, atol=1e-15)
    with pytest.raises(ValueError, match="record_every"):
        pumping_history(system, DT, 10, record_every=0)


def test_history_handles_ragged_tail():
    times, rows = pumping_history(uniform_f4_system(PUMP, REPUMP), DT, 70,
                                  record_every=30)
    assert times.shape == (4,)
    assert times[-1] == pytest.approx(70 * DT, rel=1e-12)
    assert rows.shape == (4, N_STATES)


def _chained_history(system, dt, steps, record_every):
    rows = [system.populations]
    done = 0
    while done < steps:
        chunk = min(record_every, steps - done)
        system = evolve_pumping(system, dt, chunk)
        done += chunk
        rows.append(system.populations)
    return np.array(rows)


@pytest.mark.parametrize("pump, repump", [(PUMP, REPUMP), (0.0, 0.0)])
@pytest.mark.parametrize("steps, record_every", [(0, 1), (1, 1), (7, 1), (7, 3),
                                                 (4001, 800)])
def test_history_equals_chained_evolution(pump, repump, steps, record_every):
    # one propagator per chunk length gives the same bits as a fresh
    # exponential per record, also for an uneven last chunk
    system = uniform_f4_system(pump, repump)
    times, rows = pumping_history(system, DT, steps, record_every)
    assert np.array_equal(rows, _chained_history(system, DT, steps, record_every))
    assert len(times) == len(rows)


def test_pump_report_overflow_names_run_time():
    with pytest.raises(ValueError, match=r"dt \* steps = .* overflows"):
        pump_rows(PUMP, REPUMP, 1.0e305, 10)


@pytest.mark.parametrize("pump", [1.0e300, 1.0e16])
def test_propagator_that_loses_conservation_names_the_rates(pump):
    # expm of the stiff generator no longer keeps its column sums at 1;
    # unchecked, the run printed a total population of 173430.6 and
    # 1.0000314 for these two pump rates
    prefix = f"pump rate {pump:g} /s and repump rate 10000 /s are too stiff"
    with pytest.raises(ValueError, match="^" + re.escape(prefix)):
        pump_rows(pump, REPUMP, DT, 2000)


@pytest.mark.parametrize("pump", [5.0e3, 1.0e4, 2.0e4])
@pytest.mark.parametrize("repump", [5.0e3, 1.0e4, 2.0e4])
@pytest.mark.parametrize("dt, steps", [(1.0e-6, 1000), (2.0e-6, 8000)])
def test_catalogue_rates_conserve_population(pump, repump, dt, steps):
    rows = {row.name: row.value for row in pump_rows(pump, repump, dt, steps)}
    assert abs(rows["total_population"] - 1.0) < 1e-12
