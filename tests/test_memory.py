"""QND pass maps, rotations, and the write/read protocol."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qmemcell import (
    DecoherenceBudget,
    GaussianChannel,
    GaussianState,
    collective_kappa,
    coupling_g,
    default_scenario,
    differential_rotation,
    displace,
    hamiltonian_to_symplectic,
    mean_fidelity,
    memory_vacuum,
    qnd_transform,
    run_read,
    run_write,
    scenario_with,
    vacuum_state,
)
from qmemcell import gaussian, memory
from qmemcell.constants import CODATA, dipole_moment_squared, vacuum_field_squared
from qmemcell.gaussian import (
    ATOM_MINUS,
    ATOM_PLUS,
    BASIS_CLASS,
    LIGHT_C,
    LIGHT_S,
    POLICY_SAMPLE,
    QUAD_P,
    QUAD_X,
    symplectic_form,
)
from qmemcell.memory import (
    READ_DECODE_C,
    READ_DECODE_S,
    VARIANT_BOTH_CLASSES,
    VARIANT_CLASS_1,
    VARIANT_CLASS_2,
    VARIANT_TWO_CLASS,
    WRITE_DECODE_C,
    WRITE_DECODE_S,
    _read_stages,
    _run_stages,
    _write_stages,
    atomic_basis_matrix,
)
from qmemcell.shifts import collective_k_eff

CANONICAL_FID = 2.0 / math.sqrt(6.0)


# ---------------------------------------------------------------------------
# microscopic couplings


def test_coupling_g_ladder_weights():
    base = dict(f=4, field_squared=1.0, dipole_squared=1.0, detuning=1.0)
    edge = coupling_g(-4, **base)
    center = coupling_g(0, **base)
    assert edge / center == pytest.approx(math.sqrt(8.0 / 20.0), rel=1e-12)
    # the ladder is symmetric about m = -1/2
    assert coupling_g(-3, **base) == pytest.approx(coupling_g(2, **base), rel=1e-12)
    with pytest.raises(ValueError):
        coupling_g(4, **base)
    with pytest.raises(ValueError):
        coupling_g(-5, **base)
    with pytest.raises(ValueError):
        coupling_g(0, 4, 1.0, 1.0, 0.0)


def test_collective_kappa_frozen():
    coupling = collective_kappa(default_scenario())
    assert coupling.kappa_per_s == pytest.approx(-1077.6744450289114, rel=1e-12)
    assert coupling.kappa_tau == pytest.approx(-1.0776744450289114, rel=1e-12)
    assert coupling.k_eff == pytest.approx(-1.524061815982785, rel=1e-12)
    assert coupling.k_eff == pytest.approx(math.sqrt(2.0) * coupling.kappa_tau, rel=1e-12)
    assert len(coupling.g_m) == 8


def test_collective_kappa_sign_follows_detuning():
    red = collective_kappa(scenario_with(default_scenario(), "probe_detuning_hz", -7.0e8))
    assert red.k_eff == pytest.approx(1.524061815982785, rel=1e-12)


def test_collective_kappa_scaling():
    cfg = default_scenario()
    base = collective_kappa(cfg).kappa_per_s
    quadrupled = scenario_with(cfg, "atom_number", 4.0e12)
    assert collective_kappa(quadrupled).kappa_per_s == pytest.approx(2.0 * base, rel=1e-12)


def test_collective_kappa_matches_its_formulas_bit_for_bit():
    species = dataclasses.replace(default_scenario().species, f_ground=3, lambda_d2=8.0e-7)
    for cfg in (default_scenario(), scenario_with(default_scenario(), "tau_s", 2.0e-3),
                dataclasses.replace(default_scenario(), species=species,
                                    probe_detuning=-1.0e9)):
        sp = cfg.species
        e0_sq = vacuum_field_squared(cfg.beam_area, cfg.pulse_duration, sp.lambda_d2)
        mu_sq = dipole_moment_squared(sp.gamma_d2, sp.lambda_d2)
        kappa = -(e0_sq * mu_sq * math.sqrt(cfg.photon_number * cfg.atom_number)
                  / (12.0 * CODATA.hbar**2 * cfg.probe_detuning))
        coupling = collective_kappa(cfg)
        assert coupling.kappa_per_s == kappa
        assert coupling.kappa_tau == kappa * cfg.pulse_duration
        assert coupling.k_eff == math.sqrt(2.0) * kappa * cfg.pulse_duration
        assert coupling.g_m == {m: coupling_g(m, sp.f_ground, e0_sq, mu_sq, cfg.probe_detuning)
                                for m in range(-sp.f_ground, sp.f_ground)}
        # the sweep quantity skips the ladder, not the arithmetic
        assert collective_k_eff(cfg) == coupling.k_eff


def test_collective_kappa_zero_detuning_is_coupling_g_error():
    # a hand-built config skips the scenario checks; the ladder's check
    # still fires first, for the full set and for k_eff alone
    cfg = dataclasses.replace(default_scenario(), probe_detuning=0.0)
    for fn in (collective_kappa, collective_k_eff):
        with pytest.raises(ValueError, match="^detuning must be nonzero$"):
            fn(cfg)


# ---------------------------------------------------------------------------
# pass interaction maps


def _expected_two_class(k):
    s = np.eye(8)
    s[0, 4] = k    # X_c picks up k X_plus
    s[5, 1] = -k   # P_plus picks up -k P_c
    s[3, 7] = -k   # P_s picks up -k P_minus
    s[6, 2] = k    # X_minus picks up k X_s
    return s


def test_two_class_exact_matrix():
    k = 0.83
    assert np.array_equal(qnd_transform(k).x, _expected_two_class(k))


def test_two_class_generator_nilpotent_index_two():
    k = 1.3
    h = np.zeros((8, 8))
    h[1, 4] = h[4, 1] = k
    h[2, 7] = h[7, 2] = k
    gen = symplectic_form(4) @ h
    assert np.array_equal(gen @ gen, np.zeros((8, 8)))
    assert np.allclose(qnd_transform(k).x, expm(gen), atol=1e-12)


def test_single_class_generator_nilpotent_index_three():
    k = 1.0
    h = np.zeros((8, 8))
    h[1, 4] = h[4, 1] = k
    h[2, 5] = h[5, 2] = k
    gen = symplectic_form(4) @ h
    assert np.any(gen @ gen)
    assert np.array_equal(gen @ gen @ gen, np.zeros((8, 8)))
    expected = np.eye(8) + gen + gen @ gen / 2.0
    assert np.allclose(qnd_transform(k, VARIANT_CLASS_1).x, expected, atol=1e-15)
    assert np.allclose(qnd_transform(k, VARIANT_CLASS_1).x, expm(gen), atol=1e-12)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="variant"):
        qnd_transform(1.0, "three_class")


def test_two_class_leaves_cross_sideband_clean():
    state = qnd_transform(1.0).apply(memory_vacuum())
    cross = state.cross_block(LIGHT_C, LIGHT_S)
    assert np.max(np.abs(cross)) < 1e-12


def test_single_class_mixes_sidebands():
    for variant, sign in ((VARIANT_CLASS_1, 1.0), (VARIANT_CLASS_2, -1.0)):
        state = qnd_transform(1.0, variant).apply(memory_vacuum(BASIS_CLASS))
        cross = state.cross_block(LIGHT_C, LIGHT_S)
        # second-order term k^2/2 of the pass correlates the sidebands
        assert cross[0, 0] == pytest.approx(sign * 0.25, rel=1e-12)
        assert abs(cross[0, 0]) > 1e-3


def test_both_classes_equals_collective_form():
    k = 0.77
    basis = atomic_basis_matrix()
    conjugated = basis.then(qnd_transform(math.sqrt(2.0) * k).then(basis))
    both = qnd_transform(k, VARIANT_BOTH_CLASSES)
    assert np.allclose(both.x, conjugated.x, atol=1e-12)
    # the two single-class generators commute, so the passes factorize
    product = qnd_transform(k, VARIANT_CLASS_2).then(qnd_transform(k, VARIANT_CLASS_1))
    assert np.allclose(both.x, product.x, atol=1e-12)


def _pass_hamiltonian(k, variant):
    """The coupling Hamiltonian of each pass variant, entry by entry."""
    h = np.zeros((8, 8))

    def couple(qa, qb, strength):
        h[qa, qb] += strength
        h[qb, qa] += strength

    if variant == VARIANT_TWO_CLASS:
        couple(1, 4, k)
        couple(2, 7, k)
    elif variant == VARIANT_CLASS_1:
        couple(1, 4, k)
        couple(2, 5, k)
    elif variant == VARIANT_CLASS_2:
        couple(1, 6, k)
        couple(2, 7, -k)
    else:
        couple(1, 4, k)
        couple(2, 5, k)
        couple(1, 6, k)
        couple(2, 7, -k)
    return h


@pytest.mark.parametrize("variant", [VARIANT_TWO_CLASS, VARIANT_CLASS_1, VARIANT_CLASS_2,
                                     VARIANT_BOTH_CLASSES])
@pytest.mark.parametrize("k", [0.5, 0.83, 1.0, 2.0, -1.3, 1e-8, 1e8])
def test_qnd_transform_matches_hamiltonian_bit_for_bit(variant, k):
    got = qnd_transform(k, variant).x
    want = hamiltonian_to_symplectic(_pass_hamiltonian(k, variant)).x
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_qnd_transform_rejects_non_finite_and_overflowing_strength():
    for k in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="k_eff"):
            qnd_transform(k)
        with pytest.raises(ValueError, match="k_eff"):
            run_write(k)
    # the second-order term of a class-basis pass overflows; the
    # collective pass has none and stays finite
    with np.errstate(over="ignore"), pytest.raises(ArithmeticError, match=r"k_eff=1e\+200"):
        qnd_transform(1e200, VARIANT_CLASS_1)
    assert np.isfinite(qnd_transform(1e200).x).all()


# ---------------------------------------------------------------------------
# basis change and rotations


def test_atomic_basis_matrix_self_inverse():
    basis = atomic_basis_matrix()
    assert np.allclose(basis.then(basis).x, np.eye(8), atol=1e-15)


def test_atomic_basis_matrix_round_trip():
    state = displace(memory_vacuum(), ATOM_PLUS, 2.0, 0.0)
    basis = atomic_basis_matrix()
    swapped = basis.apply(state)
    # the symmetric displacement splits evenly over the two classes
    assert swapped.means[4] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert swapped.means[6] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    back = basis.apply(swapped)
    assert np.allclose(back.means, state.means, atol=1e-12)


def test_equal_angle_rotation_quarter_turn_swaps_modes():
    expected = np.eye(8)
    expected[4:8, 4:8] = 0.0
    expected[4, 7] = 1.0    # X_plus <- P_minus
    expected[5, 6] = -1.0   # P_plus <- -X_minus
    expected[6, 5] = 1.0    # X_minus <- P_plus
    expected[7, 4] = -1.0   # P_minus <- -X_plus
    quarter = differential_rotation(math.pi / 2.0, math.pi / 2.0)
    assert np.allclose(quarter.x, expected, atol=1e-12)
    # applied twice it returns each quadrature to its own mode, negated
    twice = quarter.then(quarter)
    expected_sq = np.eye(8)
    expected_sq[4:8, 4:8] = -np.eye(4)
    assert np.allclose(twice.x, expected_sq, atol=1e-12)


def test_equal_angle_rotation_small_angle():
    theta = 1e-3
    s = differential_rotation(theta, theta).x
    assert s[4, 4] == pytest.approx(math.cos(theta), rel=1e-12)
    assert s[4, 7] == pytest.approx(math.sin(theta), rel=1e-9)


def test_differential_rotation_canonical_is_per_mode():
    expected = np.eye(8)
    quarter = np.array([[0.0, 1.0], [-1.0, 0.0]])
    expected[4:6, 4:6] = quarter
    expected[6:8, 6:8] = quarter
    s = differential_rotation(math.pi / 2.0, -math.pi / 2.0)
    assert np.allclose(s.x, expected, atol=1e-12)


def test_differential_rotation_light_untouched():
    s = differential_rotation(0.4, 1.1).x
    assert np.array_equal(s[0:4, 0:4], np.eye(4))
    assert np.max(np.abs(s[0:4, 4:8])) == 0.0
    assert np.max(np.abs(s[4:8, 0:4])) == 0.0


def test_differential_rotation_opposite_pair_not_block_diagonal():
    # a pi phase difference alone does not decouple the collective modes
    s = differential_rotation(0.3, 0.3 - math.pi).x
    off = max(np.max(np.abs(s[4:6, 6:8])), np.max(np.abs(s[6:8, 4:6])))
    assert off > 1e-3


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-6.0, max_value=6.0),
       st.integers(min_value=-2, max_value=2))
def test_differential_rotation_block_diagonal_family(phi, wraps):
    # block diagonal exactly when the second angle is -phi mod 2 pi
    s = differential_rotation(phi, -phi + 2.0 * math.pi * wraps).x
    off = max(np.max(np.abs(s[4:6, 6:8])), np.max(np.abs(s[6:8, 4:6])))
    assert off < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-6.0, max_value=6.0),
       st.floats(min_value=-6.0, max_value=6.0))
def test_rotations_are_symplectic(phi_1, phi_2):
    omega = symplectic_form(4)
    for s in (differential_rotation(phi_1, phi_2).x, differential_rotation(phi_1, phi_1).x):
        assert np.abs(s @ omega @ s.T - omega).max() < 1e-10


# ---------------------------------------------------------------------------
# ensemble fidelity


def test_mean_fidelity_of_exact_map():
    transfer = np.diag([-1.0, -1.0, 1.0, 1.0])
    cov = np.diag([0.5, 1.0, 1.0, 0.5])
    fid = mean_fidelity(transfer, cov, WRITE_DECODE_C, WRITE_DECODE_S)
    assert fid == pytest.approx(CANONICAL_FID, rel=1e-12)


def test_mean_fidelity_of_identity_channel():
    fid = mean_fidelity(np.eye(4), 0.5 * np.eye(4), np.eye(2), np.eye(2))
    assert fid == pytest.approx(1.0, rel=1e-12)


def test_mean_fidelity_penalizes_miscalibration():
    cov = np.diag([0.5, 1.0, 1.0, 0.5])
    exact = mean_fidelity(np.diag([-1.0, -1.0, 1.0, 1.0]), cov,
                          WRITE_DECODE_C, WRITE_DECODE_S)
    off = mean_fidelity(np.diag([-1.02, -1.02, 1.02, 1.02]), cov,
                        WRITE_DECODE_C, WRITE_DECODE_S)
    assert off < exact


def _mean_fidelity_loop(transfer, cov, decode_c, decode_s, amplitude=20.0, n_phases=256):
    """Phase-by-phase form of the ensemble fidelity, as a reference."""
    total = 0.0
    for block, decode in ((slice(0, 2), decode_c), (slice(2, 4), decode_s)):
        d_inv = np.linalg.inv(decode)
        sigma = d_inv @ cov[block, block] @ d_inv.T + 0.5 * np.eye(2)
        sigma_inv = np.linalg.inv(sigma)
        norm = 1.0 / math.sqrt(np.linalg.det(sigma))
        response = d_inv @ transfer[block, block] - np.eye(2)
        for j in range(n_phases):
            phi = 2.0 * math.pi * j / n_phases
            d = response @ (amplitude * np.array([math.cos(phi), math.sin(phi)]))
            total += norm * math.exp(-0.5 * float(d @ sigma_inv @ d))
    return total / (2.0 * n_phases)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_mean_fidelity_matches_phase_loop(seed):
    rng = np.random.default_rng(seed)
    transfer = np.diag([-1.0, -1.0, 1.0, 1.0]) + 0.05 * rng.normal(size=(4, 4))
    a = rng.normal(size=(4, 4))
    cov = 0.5 * np.eye(4) + 0.3 * a @ a.T
    for decode_c, decode_s in ((WRITE_DECODE_C, WRITE_DECODE_S),
                               (READ_DECODE_C, READ_DECODE_S)):
        for n_phases in (1, 7, 256):
            want = _mean_fidelity_loop(transfer, cov, decode_c, decode_s,
                                       n_phases=n_phases)
            got = mean_fidelity(transfer, cov, decode_c, decode_s, n_phases=n_phases)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_mean_fidelity_validation():
    with pytest.raises(ValueError):
        mean_fidelity(np.eye(3), np.eye(4), np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        mean_fidelity(np.eye(4), np.eye(4), np.eye(2), np.eye(2), n_phases=0)
    for decode_c, decode_s in ((np.eye(3), np.eye(3)), (np.eye(2), np.eye(3))):
        with pytest.raises(ValueError, match="decode matrices must be 2x2"):
            mean_fidelity(np.eye(4), np.eye(4), decode_c, decode_s)


def _poisoned(value):
    array = np.eye(4)
    array[1, 2] = value
    return array


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mean_fidelity_rejects_non_finite_arguments_by_name(bad):
    eye4, eye2 = 0.5 * np.eye(4), np.eye(2)
    cases = {
        "transfer_map": lambda: mean_fidelity(_poisoned(bad), eye4, eye2, eye2),
        "output_cov": lambda: mean_fidelity(np.eye(4), _poisoned(bad), eye2, eye2),
        "decode_c": lambda: mean_fidelity(np.eye(4), eye4, _poisoned(bad)[1:3, 1:3], eye2),
        "decode_s": lambda: mean_fidelity(np.eye(4), eye4, eye2, [[1.0, bad], [0.0, 1.0]]),
        "amplitude": lambda: mean_fidelity(np.eye(4), eye4, eye2, eye2, amplitude=bad),
    }
    # the check comes before any arithmetic, so no numpy warning fires
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for label, call in cases.items():
            with pytest.raises(ValueError, match=rf"^{label} must be finite$"):
                call()


@pytest.mark.parametrize("args, label", [
    ((np.eye(4), 1e300 * np.eye(4), np.eye(2), np.eye(2)), "output_cov"),
    ((np.eye(4), 0.5 * np.eye(4), 1e-200 * np.eye(2), np.eye(2)), "decode_c"),
    # a positive-definite noise block whose inverse has mixed signs turns the
    # overflowing displacement cost into inf - inf inside einsum
    ((1e200 * np.eye(4), np.array([[1.0, -1.0, 0.0, 0.0], [-1.0, 1.0000001, 0.0, 0.0],
                                   [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
      np.eye(2), np.eye(2)), "transfer_map"),
])
def test_mean_fidelity_names_an_argument_that_overflows(args, label):
    # finite but extreme: numpy would warn in det or matmul before any check,
    # or return NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{label} is out of range: "):
            mean_fidelity(*args)


def test_mean_fidelity_names_a_decode_matrix_without_finite_inverse():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^decode_s has no finite inverse$"):
            mean_fidelity(np.eye(4), 0.5 * np.eye(4), np.eye(2), 1e-310 * np.eye(2))


@pytest.mark.parametrize("n_phases", [2.5, 7.0, True, "7", None])
def test_mean_fidelity_rejects_a_non_integer_ring_by_name(n_phases):
    with pytest.raises(ValueError, match=r"^n_phases must be an integer, got "):
        mean_fidelity(np.eye(4), 0.5 * np.eye(4), np.eye(2), np.eye(2), n_phases=n_phases)


def test_mean_fidelity_takes_numpy_integer_rings():
    args = (np.diag([-1.0, -1.0, 1.0, 1.0]), np.diag([0.5, 1.0, 1.0, 0.5]),
            WRITE_DECODE_C, WRITE_DECODE_S)
    assert mean_fidelity(*args, n_phases=np.int64(7)) == mean_fidelity(*args, n_phases=7)


def _ring_fidelity_per_block(transfer, cov, undo_c, undo_s, ring):
    """The fidelity sum one channel block at a time."""
    total = 0.0
    for block, d_inv in ((slice(0, 2), undo_c), (slice(2, 4), undo_s)):
        sigma = d_inv @ cov[block, block] @ d_inv.T + 0.5 * np.eye(2)
        det = float(np.linalg.det(sigma))
        if not (sigma[0, 0] > 0.0 and 0.0 < det < math.inf):
            raise ValueError(f"output covariance is not positive definite: det {det!r}")
        d = (d_inv @ transfer[block, block] - np.eye(2)) @ ring
        exponent = np.einsum("in,ij,jn->n", d, np.linalg.inv(sigma), d)
        total += 1.0 / math.sqrt(det) * float(np.exp(-0.5 * exponent).sum())
    return total / (2.0 * ring.shape[1])


def test_ring_fidelity_matches_per_block_loop_bit_for_bit():
    rng = np.random.default_rng(20050913)
    ring = memory._RING
    for _ in range(50):
        transfer = rng.normal(size=(4, 4))
        a = rng.normal(size=(4, 4))
        cov = 0.5 * np.eye(4) + 0.3 * a @ a.T
        undos = (memory._WRITE_UNDO, memory._READ_UNDO, rng.normal(size=(2, 2, 2)))
        for undo in undos:
            want = _ring_fidelity_per_block(transfer, cov, undo[0], undo[1], ring)
            assert memory._ring_fidelity(transfer, cov, undo, ring) == want
        decode_c, decode_s = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        want = _ring_fidelity_per_block(transfer, cov, np.linalg.inv(decode_c),
                                        np.linalg.inv(decode_s), ring)
        assert mean_fidelity(transfer, cov, decode_c, decode_s) == want


def test_ring_fidelity_checks_channel_c_first():
    undo, ring = memory._WRITE_UNDO, memory._RING
    # both channels fail: the message is channel c's, as in the per-block loop
    cov = np.diag([-3.0, 1.0, -1.0, 5.0])
    for fidelity in (lambda: memory._ring_fidelity(np.eye(4), cov, undo, ring),
                     lambda: _ring_fidelity_per_block(np.eye(4), cov, *undo, ring)):
        with pytest.raises(ValueError,
                           match=r"^output covariance is not positive definite: det -3.75$"):
            fidelity()
    # only channel s fails
    with pytest.raises(ValueError, match=r"not positive definite: det -0.75$"):
        memory._ring_fidelity(np.eye(4), np.diag([1.0, 1.0, -1.0, 1.0]), undo, ring)


# ---------------------------------------------------------------------------
# write protocol


def test_write_canonical_transfer_and_noise():
    result = run_write(1.0)
    assert np.allclose(result.transfer_map, np.diag([-1.0, -1.0, 1.0, 1.0]),
                       atol=1e-12)
    assert np.allclose(result.added_noise, [0.0, 0.5, 0.5, 0.0], atol=1e-12)
    assert result.mean_fidelity == pytest.approx(CANONICAL_FID, rel=1e-12)
    assert set(result.measurements) == {"m_c", "m_s"}


def test_write_stores_the_input_means():
    state = displace(memory_vacuum(), LIGHT_C, 1.2, -0.4)
    state = displace(state, LIGHT_S, 0.9, 2.1)
    result = run_write(1.0, state=state)
    out = result.state
    assert out.mean(ATOM_PLUS, QUAD_X) == pytest.approx(-1.2, rel=1e-12)
    assert out.mean(ATOM_PLUS, QUAD_P) == pytest.approx(0.4, rel=1e-12)
    assert out.mean(ATOM_MINUS, QUAD_X) == pytest.approx(0.9, rel=1e-12)
    assert out.mean(ATOM_MINUS, QUAD_P) == pytest.approx(2.1, rel=1e-12)
    # the light register leaves the step empty
    assert np.allclose(out.means[0:4], 0.0, atol=1e-12)
    assert np.allclose(out.cov[0:4, 0:4], 0.5 * np.eye(4), atol=1e-12)


def test_write_stored_variances():
    out = run_write(1.0).state
    assert out.variance(ATOM_PLUS, QUAD_X) == pytest.approx(0.5, rel=1e-12)
    assert out.variance(ATOM_PLUS, QUAD_P) == pytest.approx(1.0, rel=1e-12)
    assert out.variance(ATOM_MINUS, QUAD_X) == pytest.approx(1.0, rel=1e-12)
    assert out.variance(ATOM_MINUS, QUAD_P) == pytest.approx(0.5, rel=1e-12)


def test_write_transfer_at_general_coupling():
    k = 1.7
    result = run_write(k)
    expected = np.diag([-1.0 / k, -k, k, 1.0 / k])
    assert np.allclose(result.transfer_map, expected, atol=1e-12)


def test_write_explicit_gain():
    result = run_write(2.0, gain=-0.5)
    assert result.transfer_map[0, 0] == pytest.approx(-0.5, rel=1e-12)
    # unity-gain default picks -1/k_eff
    default = run_write(2.0)
    assert default.transfer_map[0, 0] == pytest.approx(-0.5, rel=1e-12)


def test_write_sample_policy():
    state = displace(memory_vacuum(), LIGHT_C, 3.0, 0.0)
    mean_run = run_write(1.0, state=state)
    a = run_write(1.0, state=state, policy=POLICY_SAMPLE, seed=5)
    b = run_write(1.0, state=state, policy=POLICY_SAMPLE, seed=5)
    c = run_write(1.0, state=state, policy=POLICY_SAMPLE, seed=6)
    assert a.measurements == b.measurements
    assert np.array_equal(a.state.means, b.state.means)
    assert a.measurements != c.measurements
    # outcome randomness moves the means, never the ensemble covariance
    assert np.allclose(a.state.cov, mean_run.state.cov, atol=1e-12)
    with pytest.raises(ValueError, match="seed"):
        run_write(1.0, policy=POLICY_SAMPLE)
    with pytest.raises(ValueError, match="unknown outcome policy 'guess'"):
        run_write(1.0, policy="guess")


def test_write_validation():
    with pytest.raises(ValueError):
        run_write(0.0)
    with pytest.raises(ValueError, match="layout"):
        run_write(1.0, state=vacuum_state((LIGHT_C, LIGHT_S)))


def test_write_rejects_a_bad_seed_by_name():
    for seed in (-1, 1.5, "3"):
        with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got "):
            run_write(1.0, policy=POLICY_SAMPLE, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        run_read(1.0, seed=-2)
    assert run_write(1.0, policy=POLICY_SAMPLE, seed=np.int64(3)).measurements == \
        run_write(1.0, policy=POLICY_SAMPLE, seed=3).measurements


#: the four feedback stages of the write and the read
PROTOCOL_FEEDBACKS = [
    ("m_c", LIGHT_C, QUAD_X, ATOM_PLUS, QUAD_X),
    ("m_s", LIGHT_S, QUAD_P, ATOM_MINUS, QUAD_P),
    ("m_plus", ATOM_PLUS, QUAD_P, LIGHT_C, QUAD_P),
    ("m_minus", ATOM_MINUS, QUAD_X, LIGHT_S, QUAD_X),
]


@pytest.mark.parametrize("gain", [1.0, -1.0, 0.8, -0.8, 0.0, -0.0])
@pytest.mark.parametrize("stage", PROTOCOL_FEEDBACKS)
def test_feedback_matches_feed_then_reset_bit_for_bit(stage, gain):
    name, measured_mode, measured_quad, target_mode, target_quad = stage
    stage_name, channel, feedback = memory._feedback(*stage, gain)
    base = memory_vacuum()
    q_meas = base.quad_index(measured_mode, measured_quad)
    q_tgt = base.quad_index(target_mode, target_quad)
    feed = np.eye(8)
    feed[q_tgt, q_meas] = gain
    want = GaussianChannel(feed, np.zeros((8, 8))).then(memory._RESETS[measured_mode])
    for got, ref in ((channel.x, want.x), (channel.y, want.y)):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
        assert not got.flags.writeable
    assert stage_name == name
    assert feedback == (q_meas, q_tgt, gain)


def test_write_fidelity_degrades_with_spin_exchange():
    fids = [run_write(1.0, budget=DecoherenceBudget(eta=eta)).mean_fidelity
            for eta in (0.0, 0.0065, 0.05)]
    assert fids[0] > fids[1] > fids[2]


def test_write_loss_excess_doubles_with_crossings():
    for loss in (0.01, 0.02):
        two = run_write(1.0, budget=DecoherenceBudget(boundary_loss=loss,
                                                      n_boundaries=2))
        four = run_write(1.0, budget=DecoherenceBudget(boundary_loss=loss,
                                                       n_boundaries=4))
        # the clean quadratures pick up excess noise only through the loss
        ratio = four.added_noise[0] / two.added_noise[0]
        assert 1.9 < ratio < 2.0


# ---------------------------------------------------------------------------
# read protocol and the full cycle


def test_read_canonical_transfer():
    result = run_read(1.0)
    assert np.allclose(result.transfer_map, np.diag([1.0, 1.0, -1.0, -1.0]),
                       atol=1e-12)
    assert set(result.measurements) == {"m_plus", "m_minus"}


def test_read_of_vacuum_memory_bounded_noise():
    result = run_read(1.0)
    out = result.state
    for mode in (LIGHT_C, LIGHT_S):
        for quad in (QUAD_X, QUAD_P):
            assert out.variance(mode, quad) <= 1.5 + 1e-9
    assert np.allclose(out.means, 0.0, atol=1e-12)


def test_full_cycle_returns_negated_input():
    state = displace(memory_vacuum(), LIGHT_C, 1.7, -0.6)
    state = displace(state, LIGHT_S, -0.8, 1.1)
    written = run_write(1.0, state=state)
    read = run_read(1.0, state=written.state)
    out = read.state
    assert out.mean(LIGHT_C, QUAD_X) == pytest.approx(-1.7, rel=1e-12)
    assert out.mean(LIGHT_C, QUAD_P) == pytest.approx(0.6, rel=1e-12)
    assert out.mean(LIGHT_S, QUAD_X) == pytest.approx(0.8, rel=1e-12)
    assert out.mean(LIGHT_S, QUAD_P) == pytest.approx(-1.1, rel=1e-12)


def test_full_cycle_noise_budget():
    written = run_write(1.0)
    read = run_read(1.0, state=written.state)
    out = read.state
    variances = [out.variance(LIGHT_C, QUAD_X), out.variance(LIGHT_C, QUAD_P),
                 out.variance(LIGHT_S, QUAD_X), out.variance(LIGHT_S, QUAD_P)]
    assert variances == pytest.approx([0.5, 1.5, 1.5, 0.5], rel=1e-12)
    # each quadrature stays within two vacuum units of added noise
    for v in variances:
        assert v - 0.5 <= 1.0 + 1e-12


def test_read_validation():
    with pytest.raises(ValueError):
        run_read(0.0)
    with pytest.raises(ValueError, match="seed"):
        run_read(1.0, policy=POLICY_SAMPLE)


# ---------------------------------------------------------------------------
# the composed channel against the stage-by-stage run


def _random_memory_state(rng):
    """A physical four-mode state: a random thermal state under a random
    symplectic map, displaced."""
    h = rng.normal(size=(8, 8))
    s = hamiltonian_to_symplectic(0.3 * (h + h.T)).x
    nu = np.repeat(0.5 + rng.exponential(0.5, size=4), 2)
    base = memory_vacuum()
    return GaussianState(modes=base.modes, basis=base.basis,
                         means=rng.normal(scale=2.0, size=8), cov=s @ np.diag(nu) @ s.T)


def _stage_loop(stages, means, cov, policy, rng):
    """Stage by stage with ``propagate``, drawing each homodyne outcome
    just before its feedback stage, as a reference for the fold."""
    outcomes = {}
    for name, channel, feedback in stages:
        if feedback is not None:
            q_meas, q_tgt, gain = feedback
            mean = means[q_meas]
            outcomes[name] = gaussian.homodyne_outcome(mean, cov[q_meas, q_meas], policy, rng)
        means, cov = channel.propagate(means, cov)
        if feedback is not None:
            means[q_tgt] += gain * (outcomes[name] - mean)
    return means, cov, outcomes


def _assert_bit_equal(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_composed_channel_matches_stages(seed):
    rng = np.random.default_rng(seed)
    budget = DecoherenceBudget(eta=rng.uniform(0.0, 0.1), n_phot=rng.uniform(0.0, 0.1),
                               boundary_loss=rng.uniform(0.0, 0.1),
                               n_boundaries=int(rng.integers(0, 5)))
    k_eff = rng.uniform(0.3, 2.0)
    gain = -rng.uniform(0.5, 2.0) / k_eff
    state = _random_memory_state(rng)
    for builder, run in ((_write_stages, run_write), (_read_stages, run_read)):
        stages = builder(k_eff, gain, budget)
        means, cov = state.means, state.cov
        for _, channel, _ in stages:
            means, cov = channel.propagate(means, cov)
        composed = functools.reduce(GaussianChannel.then, (ch for _, ch, _ in stages))
        out = composed.apply(state)
        scale = max(1.0, float(np.max(np.abs(cov))))
        assert np.allclose(out.means, means, rtol=0.0, atol=1e-12 * scale)
        assert np.allclose(out.cov, cov, rtol=0.0, atol=1e-12 * scale)
        # the fold composes the channel and propagates the state with the
        # float operations of then and propagate, under both policies
        for policy, draw_seed in (("mean", None), (POLICY_SAMPLE, seed)):
            draws = [None if draw_seed is None else np.random.default_rng(draw_seed)
                     for _ in range(2)]
            fold_means, fold_cov, fold_outcomes, fold = _run_stages(
                stages, state.means, state.cov, policy, draws[0])
            want_means, want_cov, want_outcomes = _stage_loop(
                stages, state.means, state.cov, policy, draws[1])
            _assert_bit_equal(fold.x, composed.x)
            _assert_bit_equal(fold.y, composed.y)
            _assert_bit_equal(fold_means, want_means)
            _assert_bit_equal(fold_cov, want_cov)
            assert fold_outcomes == want_outcomes
            assert list(fold_outcomes) == [name for name, _, fb in stages if fb is not None]
            _assert_bit_equal(fold_cov, cov)
            if draw_seed is None:
                # mean-policy draws leave the means of the plain propagation
                assert np.allclose(fold_means, means, rtol=0.0, atol=1e-12 * scale)
        result = run(k_eff, state=state, gain=gain, budget=budget)
        assert np.allclose(result.state.cov, cov, rtol=0.0, atol=1e-12 * scale)
        assert np.allclose(result.state.means, means, rtol=0.0, atol=1e-12 * scale)


def test_stage_names_of_both_builders():
    budget = DecoherenceBudget()
    write = _write_stages(1.0, -1.0, budget)
    read = _read_stages(1.0, -1.0, budget)
    assert [name for name, _, _ in write] == [
        "entry_loss", "pass", "exit_loss", "m_c", "m_s", "collisions", "scattering"]
    assert [name for name, _, _ in read] == [
        "collisions", "scattering", "fresh_pulse", "quarter_turn", "pass", "m_plus",
        "m_minus", "exit_loss", "align"]
    # exactly the feedback stages carry a measurement, keyed by the stage name
    for stages, run, want in ((write, run_write, {"m_c", "m_s"}),
                              (read, run_read, {"m_plus", "m_minus"})):
        assert all(isinstance(ch, GaussianChannel) for _, ch, _ in stages)
        assert {name for name, _, fb in stages if fb is not None} == want
        assert set(run(1.0).measurements) == want


def _module_arrays(module) -> list[np.ndarray]:
    """Every array a module holds at top level, also inside channels,
    states, tuples and dicts."""
    found, stack = [], list(vars(module).values())
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, GaussianChannel):
            stack += [value.x, value.y]
        elif isinstance(value, GaussianState):
            stack += [value.means, value.cov]
        elif isinstance(value, (tuple, list)):
            stack += value
        elif isinstance(value, dict):
            stack += value.values()
    return found


def test_module_constants_are_read_only():
    # the fixed protocol stages, the fidelity ring, the decode matrices and
    # the shared vacua are built once at import and must stay unwritable
    arrays = _module_arrays(memory) + _module_arrays(gaussian)
    assert len(arrays) >= 25
    for array in arrays:
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 7.0
    # the pass generators, the batched fidelity's index and stacked
    # decode inverses are among the arrays checked
    checked = {id(array) for array in arrays}
    new = [*memory._PASS_GENERATORS.values(), *memory._CHANNEL_BLOCKS, memory._EYE8,
           memory._EYE2, memory._WRITE_UNDO, memory._READ_UNDO]
    assert all(id(array) in checked for array in new)
    fixed = {id(ch) for _, ch, _ in _read_stages(1.0, -1.0, DecoherenceBudget())}
    assert {id(memory._FRESH_PULSE), id(memory._QUARTER_TURN), id(memory._ALIGN)} <= fixed


def test_cached_constants_are_read_only_and_channels_own_their_x():
    # functools caches hold these, out of reach of the module walk above
    cached = [gaussian._identity(8), gaussian._half_i_omega(4),
              gaussian._target_diagonal(memory.MEMORY_MODES_PLUS_MINUS, (ATOM_PLUS, ATOM_MINUS))]
    assert memory._EYE8 is cached[0]
    for array in cached:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 7.0
    assert np.array_equal(cached[0], np.eye(8))
    assert np.array_equal(cached[1], 0.5j * symplectic_form(4))
    # channels built from the shared identity copy it: no two share an X
    modes = memory.MEMORY_MODES_PLUS_MINUS
    built = [gaussian.attenuation_channel(modes, (LIGHT_C,), 0.5),
             gaussian.attenuation_channel(modes, (LIGHT_C,), 0.5),
             memory.spin_exchange_channel(modes, 0.1),
             *(memory._feedback(*stage, 1.0)[1] for stage in PROTOCOL_FEEDBACKS),
             *(memory._feedback(*stage, 1.0)[1] for stage in PROTOCOL_FEEDBACKS)]
    buffers = [cached[0], *(channel.x for channel in built)]
    for i, a in enumerate(buffers):
        assert not any(np.shares_memory(a, b) for b in buffers[i + 1:])


def test_protocol_overflow_names_gain_and_k_eff():
    with pytest.raises(ValueError, match="gain=1e[+]300"):
        run_write(1.0, gain=1e300)
    with pytest.raises(ValueError, match="k_eff=1e[+]200"):
        run_read(1e200)
    # under the sample policy the overflow reaches a homodyne draw first
    for run in (run_write, run_read):
        with pytest.raises(ValueError, match=r"k_eff=1e\+200: homodyne variance must be "
                                             r"finite and non-negative, got (inf|nan)$"):
            run(1e200, policy=POLICY_SAMPLE, seed=1)


def test_protocol_degenerate_output_noise_names_gain_and_k_eff():
    # a finite read map whose ~1e80 output noise cancels in the 2x2
    # determinant; the write at the same gain still has a fidelity
    assert run_write(1.0, gain=1e40).mean_fidelity > 0.0
    with pytest.raises(ValueError, match=r"gain=1e\+40, k_eff=1\.0"):
        run_read(1.0, gain=1e40)
    with pytest.raises(ValueError, match=r"k_eff=1e\+100"):
        run_read(1e100)
    with pytest.raises(ValueError, match="not positive definite"):
        mean_fidelity(np.eye(4), -np.eye(4), -np.eye(2), np.eye(2))
