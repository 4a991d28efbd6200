"""QND pass maps, rotations, and the write/read protocol."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qmemcell import (
    DecoherenceBudget,
    GaussianChannel,
    GaussianState,
    InputError,
    boundary_transmission,
    collective_kappa,
    default_scenario,
    differential_rotation,
    displace,
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
    LIGHT_C,
    LIGHT_S,
    MEMORY_MODES_CLASS,
    MEMORY_MODES_PLUS_MINUS,
    POLICY_SAMPLE,
    QUAD_P,
    QUAD_X,
    rotation_2x2,
    symplectic_form,
)
from qmemcell.memory import (
    VARIANT_BOTH_CLASSES,
    VARIANT_CLASS_1,
    VARIANT_CLASS_2,
    VARIANT_TWO_CLASS,
    _fill,
    _run_stages,
    _stage_channels,
    atomic_basis_matrix,
)
from qmemcell.report import QUANTITIES

CANONICAL_FID = 2.0 / math.sqrt(6.0)


# ---------------------------------------------------------------------------
# microscopic couplings


def test_collective_kappa_frozen():
    coupling = collective_kappa(default_scenario())
    assert coupling.kappa_per_s == pytest.approx(-1077.6744450289114, rel=1e-12)
    assert coupling.kappa_tau == pytest.approx(-1.0776744450289114, rel=1e-12)
    assert coupling.k_eff == pytest.approx(-1.524061815982785, rel=1e-12)
    assert coupling.k_eff == pytest.approx(math.sqrt(2.0) * coupling.kappa_tau, rel=1e-12)


def test_collective_kappa_sign_follows_detuning():
    red = collective_kappa(scenario_with(default_scenario(), "probe_detuning_hz", -7.0e8))
    assert red.k_eff == pytest.approx(1.524061815982785, rel=1e-12)


def test_collective_kappa_scaling():
    cfg = default_scenario()
    base = collective_kappa(cfg).kappa_per_s
    quadrupled = scenario_with(cfg, "atom_number", 4.0e12)
    assert collective_kappa(quadrupled).kappa_per_s == pytest.approx(2.0 * base, rel=1e-12)


def test_collective_kappa_matches_its_formulas_bit_for_bit():
    species = default_scenario().species._replace(f_ground=3, lambda_d2=8.0e-7)
    for cfg in (default_scenario(), scenario_with(default_scenario(), "tau_s", 2.0e-3),
                default_scenario()._replace(species=species, probe_detuning=-1.0e9)):
        sp = cfg.species
        e0_sq = vacuum_field_squared(cfg.beam_area, cfg.pulse_duration, sp.lambda_d2)
        mu_sq = dipole_moment_squared(sp.gamma_d2, sp.lambda_d2)
        kappa = -(e0_sq * mu_sq * math.sqrt(cfg.photon_number * cfg.atom_number)
                  / (12.0 * CODATA.hbar**2 * cfg.probe_detuning))
        coupling = collective_kappa(cfg)
        assert coupling.kappa_per_s == kappa
        assert coupling.kappa_tau == kappa * cfg.pulse_duration
        assert coupling.k_eff == math.sqrt(2.0) * kappa * cfg.pulse_duration
        # each single-atom rate mu^2 E0^2 w / (48 hbar^2 Delta), w the ladder weight
        # sqrt(F(F + 1) - m(m + 1)), is the collective one over 4 sqrt(N n), times w
        for m in range(-sp.f_ground, sp.f_ground):
            weight = math.sqrt(sp.f_ground * (sp.f_ground + 1) - m * (m + 1))
            g = mu_sq * e0_sq * weight / (48.0 * CODATA.hbar**2 * cfg.probe_detuning)
            assert -4.0 * g * math.sqrt(cfg.photon_number * cfg.atom_number) / weight == (
                pytest.approx(kappa, rel=1e-12))
        # the registry's k_eff entry is the same arithmetic
        assert QUANTITIES["k_eff"][0](cfg) == coupling.k_eff


def test_collective_kappa_zero_detuning_is_a_value_error():
    # a hand-built config skips the scenario checks; the detuning check
    # still fires, for the full set and for the k_eff entry alone
    cfg = default_scenario()._replace(probe_detuning=0.0)
    for fn in (collective_kappa, QUANTITIES["k_eff"][0]):
        with pytest.raises(ValueError, match="^detuning must be nonzero$"):
            fn(cfg)


@pytest.mark.parametrize("field, value, message", [
    ("beam_area", 0.0, "^beam area must be positive, got 0.0$"),
    ("beam_area", -2.0e-4, "^beam area must be positive, got -0.0002$"),
    ("pulse_duration", 0.0, "^pulse duration must be positive, got 0.0$"),
])
def test_collective_kappa_non_positive_mode_is_a_value_error(field, value, message):
    # a hand-built config skips the scenario checks: the mode's own positivity
    # check fires before the subnormal-denominator refusal
    cfg = default_scenario()._replace(**{field: value})
    for fn in (collective_kappa, QUANTITIES["k_eff"][0]):
        with pytest.raises(ValueError, match=message) as refused:
            fn(cfg)
        assert not isinstance(refused.value, InputError)


def test_collective_kappa_refuses_a_subnormal_mode_denominator():
    cfg = default_scenario()._replace(beam_area=1e-310)
    with pytest.raises(InputError, match=r"^fields 'beam_area_m2' = 1e-310 m\^2 and 'tau_s' = "
                                         r"0\.001 s are out of range together: the mode "
                                         r"denominator 2 eps0 A c tau underflows$") as refused:
        collective_kappa(cfg)
    assert refused.value.keys == ("beam_area_m2", "tau_s")


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


def _sideband_cross(state):
    """2x2 covariance block between the two light sidebands."""
    c, s = 2 * state.mode_index(LIGHT_C), 2 * state.mode_index(LIGHT_S)
    return state.cov[c:c + 2, s:s + 2]


def test_two_class_leaves_cross_sideband_clean():
    state = qnd_transform(1.0).apply(memory_vacuum())
    cross = _sideband_cross(state)
    assert np.max(np.abs(cross)) < 1e-12


def test_single_class_mixes_sidebands():
    for variant, sign in ((VARIANT_CLASS_1, 1.0), (VARIANT_CLASS_2, -1.0)):
        state = qnd_transform(1.0, variant).apply(vacuum_state(MEMORY_MODES_CLASS))
        cross = _sideband_cross(state)
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
def test_qnd_transform_matches_hamiltonian(variant, k):
    # the terminating series against scipy's Pade exponential of the pass
    # Hamiltonian's generator Omega H: equal to rounding of the largest entry
    got = qnd_transform(k, variant).x
    want = expm(symplectic_form(4) @ _pass_hamiltonian(k, variant))
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


# both_classes is the collective pass in the class basis, so of index two
@pytest.mark.parametrize("variant, index", [(VARIANT_TWO_CLASS, 2), (VARIANT_CLASS_1, 3),
                                            (VARIANT_CLASS_2, 3), (VARIANT_BOTH_CLASSES, 2)])
def test_pass_generator_is_nilpotent_of_its_index(variant, index):
    # the series of exp(k G) terminates after the term of power index - 1,
    # and qnd_transform keeps no more than the second-order term
    gen = memory._PASS_GENERATORS[variant]
    power = np.linalg.matrix_power(gen, index - 1)
    assert power.any()
    assert np.array_equal(power @ gen, np.zeros((8, 8)))
    k = 0.83
    got = qnd_transform(k, variant).x
    if index == 2:
        # no square term is added, so the map is exactly I + k G
        assert np.array_equal(got, np.eye(8) + k * gen)
    else:
        series = sum(np.linalg.matrix_power(k * gen, j) / math.factorial(j)
                     for j in range(index))
        assert np.abs(got - series).max() <= 1e-16 * np.abs(series).max()


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


#: the ideal decode matrices of (channel c, channel s) as test data, with the
#: signs the protocol holds for them: a write stores (-I, +I) times the input
#: block, a read returns (+I, -I) times the stored block
DECODES = ((memory._WRITE.signs, (-np.eye(2), np.eye(2))),
           (memory._READ.signs, (np.eye(2), -np.eye(2))))


def test_mean_fidelity_of_exact_map():
    transfer = np.diag([-1.0, -1.0, 1.0, 1.0])
    cov = np.diag([0.5, 1.0, 1.0, 0.5])
    fid = memory._ring_fidelity(transfer, cov, memory._WRITE.signs, memory._RING_TERMS)
    assert fid == pytest.approx(CANONICAL_FID, rel=1e-12)


def test_mean_fidelity_of_identity_channel():
    signs = np.ones((2, 1, 1))
    fid = memory._ring_fidelity(np.eye(4), 0.5 * np.eye(4), signs, memory._RING_TERMS)
    assert fid == pytest.approx(1.0, rel=1e-12)


def test_mean_fidelity_penalizes_miscalibration():
    cov = np.diag([0.5, 1.0, 1.0, 0.5])
    signs, terms = memory._WRITE.signs, memory._RING_TERMS
    exact = memory._ring_fidelity(np.diag([-1.0, -1.0, 1.0, 1.0]), cov, signs, terms)
    off = memory._ring_fidelity(np.diag([-1.02, -1.02, 1.02, 1.02]), cov, signs, terms)
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
    for signs, (decode_c, decode_s) in DECODES:
        for n_phases in (1, 7, 256):
            want = _mean_fidelity_loop(transfer, cov, decode_c, decode_s,
                                       n_phases=n_phases)
            terms = memory._ring_terms(memory._phase_ring(20.0, n_phases))
            got = memory._ring_fidelity(transfer, cov, signs, terms)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


#: index gathering the two channels' diagonal 2x2 blocks of a 4x4 matrix
_BLOCKS = (np.array([[[0], [1]], [[2], [3]]]), np.array([[[0, 1]], [[2, 3]]]))


def _exponents_checked_against_phase_loop(transfer, cov):
    """Each decode's largest ring exponent where the closed form's F > 1e-10,
    after checking F against the per-phase loop to 1e-11 relative."""
    largest = []
    for signs, (decode_c, decode_s) in DECODES:
        got = memory._ring_fidelity(transfer, cov, signs, memory._RING_TERMS)
        if got > 1e-10:
            assert got == pytest.approx(_mean_fidelity_loop(transfer, cov, decode_c, decode_s),
                                        rel=1e-11)
            d = (signs * transfer[_BLOCKS] - np.eye(2)) @ memory._RING
            sigma_inv = np.linalg.inv(cov[_BLOCKS] + 0.5 * np.eye(2))
            largest.append(np.einsum("bin,bij,bjn->bn", d, sigma_inv, d).max())
    return largest


@pytest.mark.parametrize("scale", [0.05, 0.3, 1.0, 3.0])
def test_closed_form_matches_phase_loop_at_large_exponents(scale):
    rng = np.random.default_rng(20050913)
    largest = []
    for _ in range(6):
        transfer = np.diag([-1.0, -1.0, 1.0, 1.0]) + scale * rng.normal(size=(4, 4))
        a = rng.normal(size=(4, 4))
        largest += _exponents_checked_against_phase_loop(transfer, 0.5 * np.eye(4) + 0.3 * a @ a.T)
    assert len(largest) >= 3
    if scale == 3.0:  # exponents in the hundreds
        assert max(largest) > 100.0


def test_closed_form_matches_phase_loop_at_a_nearly_singular_sigma():
    # Sigma = V + I/2 with eigenvalues 100 and 0.01 in each channel
    rng = np.random.default_rng(20050913)
    checked = 0
    for _ in range(6):
        cov = np.zeros((4, 4))
        for block in (slice(0, 2), slice(2, 4)):
            rotation = rotation_2x2(rng.uniform(0.0, math.pi))
            cov[block, block] = rotation @ np.diag([100.0, 0.01]) @ rotation.T - 0.5 * np.eye(2)
        transfer = np.diag([-1.0, -1.0, 1.0, 1.0]) + 0.01 * rng.normal(size=(4, 4))
        checked += len(_exponents_checked_against_phase_loop(transfer, cov))
    assert checked >= 3


def test_ring_monomials_are_read_only_products_of_the_ring():
    terms = memory._RING_TERMS
    assert not terms.flags.writeable
    with pytest.raises(ValueError):
        terms[0, 0] = 7.0
    # (x^2, xp, px, p^2) of each phase, bit for bit
    ring = memory._RING
    assert terms.shape == (4, memory.FIDELITY_PHASES)
    _assert_bit_equal(terms, np.einsum("in,jn->ijn", ring, ring).reshape(4, -1))
    _assert_bit_equal(memory._ring_terms(ring), terms)


@pytest.mark.parametrize("n_phases", [1, 2, 7, 256])
def test_phase_ring_spreads_a_fixed_amplitude_uniformly(n_phases):
    ring = memory._phase_ring(20.0, n_phases)
    assert ring.shape == (2, n_phases)
    assert np.abs(np.hypot(*ring) - 20.0).max() <= 4e-15 * 20.0
    assert np.array_equal(ring[:, 0], [20.0, 0.0])
    if n_phases > 1:
        # equally spaced phases: the ring sums to zero
        assert np.abs(ring.sum(axis=1)).max() <= 1e-12 * 20.0 * n_phases
    # a numpy integer count gives the same ring bit for bit
    assert np.array_equal(memory._phase_ring(20.0, np.int64(n_phases)), ring)


def _ring_fidelity_per_block(transfer, cov, undo_c, undo_s, ring):
    """The fidelity sum one channel block at a time, each block decoded by the
    congruence with its inverted decode matrix, then scored in the closed
    form's arithmetic: Q = M^T Sigma^-1 M on floats, one product of both
    flattened forms with the ring's monomials, exp and sum per block."""
    forms, dets = [], []
    for block, d_inv in ((slice(0, 2), undo_c), (slice(2, 4), undo_s)):
        sigma = d_inv @ cov[block, block] @ d_inv.T + 0.5 * np.eye(2)
        (s00, s01), (s10, s11) = sigma.tolist()
        det = s00 * s11 - s01 * s10
        if not (s00 > 0.0 and 0.0 < det < math.inf):
            raise ValueError(f"output covariance is not positive definite: det {det!r}")
        (m00, m01), (m10, m11) = (d_inv @ transfer[block, block] - np.eye(2)).tolist()
        w00, w01 = (s11 * m00 - s01 * m10) / det, (s11 * m01 - s01 * m11) / det
        w10, w11 = (s00 * m10 - s10 * m00) / det, (s00 * m11 - s10 * m01) / det
        forms.append((m00 * w00 + m10 * w10, m00 * w01 + m10 * w11,
                      m01 * w00 + m11 * w10, m01 * w01 + m11 * w11))
        dets.append(det)
    exponent = np.array(forms) @ np.einsum("in,jn->ijn", ring, ring).reshape(4, -1)
    total = 0.0
    for det, row in zip(dets, exponent):
        total += 1.0 / math.sqrt(det) * float(np.exp(-0.5 * row).sum())
    return total / (2.0 * ring.shape[1])


def test_ring_fidelity_matches_per_block_loop_bit_for_bit():
    # the sign decode against the congruence by the inverted decode matrices
    rng = np.random.default_rng(20050913)
    ring = memory._RING
    for _ in range(50):
        transfer = rng.normal(size=(4, 4))
        a = rng.normal(size=(4, 4))
        cov = 0.5 * np.eye(4) + 0.3 * a @ a.T
        for signs, decodes in DECODES:
            want = _ring_fidelity_per_block(transfer, cov, *map(np.linalg.inv, decodes), ring)
            assert memory._ring_fidelity(transfer, cov, signs, memory._RING_TERMS) == want


def test_ring_fidelity_checks_channel_c_first():
    (signs, decodes), ring = DECODES[0], memory._RING
    # both channels fail: the message is channel c's, as in the per-block loop
    cov = np.diag([-3.0, 1.0, -1.0, 5.0])
    for fidelity in (lambda: memory._ring_fidelity(np.eye(4), cov, signs, memory._RING_TERMS),
                     lambda: _ring_fidelity_per_block(np.eye(4), cov, *decodes, ring)):
        with pytest.raises(ValueError,
                           match=r"^output covariance is not positive definite: det -3.75$"):
            fidelity()
    # only channel s fails
    with pytest.raises(ValueError, match=r"not positive definite: det -0.75$"):
        memory._ring_fidelity(np.eye(4), np.diag([1.0, 1.0, -1.0, 1.0]), signs,
                              memory._RING_TERMS)


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
    assert out.means[memory._quad(ATOM_PLUS, QUAD_X)] == pytest.approx(-1.2, rel=1e-12)
    assert out.means[memory._quad(ATOM_PLUS, QUAD_P)] == pytest.approx(0.4, rel=1e-12)
    assert out.means[memory._quad(ATOM_MINUS, QUAD_X)] == pytest.approx(0.9, rel=1e-12)
    assert out.means[memory._quad(ATOM_MINUS, QUAD_P)] == pytest.approx(2.1, rel=1e-12)
    # the light register leaves the step empty
    assert np.allclose(out.means[0:4], 0.0, atol=1e-12)
    assert np.allclose(out.cov[0:4, 0:4], 0.5 * np.eye(4), atol=1e-12)


def test_write_stored_variances():
    # X_plus, P_plus, X_minus, P_minus
    variances = np.diag(run_write(1.0).state.cov)[4:8]
    assert variances == pytest.approx([0.5, 1.0, 1.0, 0.5], rel=1e-12)


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


def test_protocol_checks_the_mode_labels_and_channels_keep_them():
    # the labels are the only record of the basis: a class-basis register is
    # rejected by both runs, and a change of basis leaves the labels as they are
    for run in (run_write, run_read):
        with pytest.raises(ValueError, match="layout"):
            run(1.0, state=vacuum_state(MEMORY_MODES_CLASS))
    state = displace(memory_vacuum(), LIGHT_C, 1.0, 0.0)
    assert atomic_basis_matrix().apply(state).modes == state.modes


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


def _feed_then_reset(stage, gain):
    """A feedback stage as (name, channel, feedback): the feedforward of the
    measured quadrature onto the target at ``gain``, then a reset of the
    measured mode to fresh vacuum."""
    name, measured_mode, measured_quad, target_mode, target_quad = stage
    q_meas = 2 * MEMORY_MODES_PLUS_MINUS.index(measured_mode) + (measured_quad == QUAD_P)
    q_tgt = 2 * MEMORY_MODES_PLUS_MINUS.index(target_mode) + (target_quad == QUAD_P)
    feed = np.eye(8)
    feed[q_tgt, q_meas] = gain
    reset = gaussian.attenuation_channel(MEMORY_MODES_PLUS_MINUS, (measured_mode,), 0.0)
    return name, GaussianChannel(feed, np.zeros((8, 8))).then(reset), (q_meas, q_tgt, gain)


def _filled(direction, k_eff, gain, budget):
    """A direction filled at (k_eff, gain, budget), stage by stage."""
    return _stage_channels(direction, *_fill(direction, k_eff, gain, budget), gain)


@pytest.mark.parametrize("gain", [1.0, -1.0, 0.8, -0.8, 0.0, -0.0])
@pytest.mark.parametrize("stage", PROTOCOL_FEEDBACKS)
def test_feedback_matches_feed_then_reset_bit_for_bit(stage, gain):
    direction = memory._WRITE if stage[0] in memory._WRITE.names else memory._READ
    index = direction.names.index(stage[0])
    stage_name, channel, feedback = _filled(direction, 1.0, gain, DecoherenceBudget())[index]
    sign = direction.feedback[index][2]
    # the stage's sign times the run's gain, each plus 0.0 as the fill writes it
    want_name, want, want_feedback = _feed_then_reset(stage, sign * gain + 0.0)
    for got, ref in ((channel.x, want.x), (channel.y, want.y)):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
        assert not got.flags.writeable
    assert stage_name == want_name
    assert feedback == want_feedback


def test_write_fidelity_degrades_with_spin_exchange():
    fids = [run_write(1.0, budget=DecoherenceBudget(eta=eta)).mean_fidelity
            for eta in (0.0, 0.0065, 0.05)]
    assert fids[0] > fids[1] > fids[2]


def test_write_loss_excess_doubles_with_crossings():
    for loss in (0.01, 0.02):
        two = run_write(1.0, budget=DecoherenceBudget(boundary_loss=loss))
        # four crossings: each of the two windows passes (1 - loss)^2
        four = run_write(1.0, budget=DecoherenceBudget(boundary_loss=1.0 - (1.0 - loss) ** 2))
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
    # every light quadrature
    assert np.diag(out.cov)[0:4].max() <= 1.5 + 1e-9
    assert np.allclose(out.means, 0.0, atol=1e-12)


def test_full_cycle_returns_negated_input():
    state = displace(memory_vacuum(), LIGHT_C, 1.7, -0.6)
    state = displace(state, LIGHT_S, -0.8, 1.1)
    written = run_write(1.0, state=state)
    read = run_read(1.0, state=written.state)
    out = read.state
    assert out.means[memory._quad(LIGHT_C, QUAD_X)] == pytest.approx(-1.7, rel=1e-12)
    assert out.means[memory._quad(LIGHT_C, QUAD_P)] == pytest.approx(0.6, rel=1e-12)
    assert out.means[memory._quad(LIGHT_S, QUAD_X)] == pytest.approx(0.8, rel=1e-12)
    assert out.means[memory._quad(LIGHT_S, QUAD_P)] == pytest.approx(-1.1, rel=1e-12)


def test_full_cycle_noise_budget():
    written = run_write(1.0)
    read = run_read(1.0, state=written.state)
    out = read.state
    variances = np.diag(out.cov)[0:4]   # X_c, P_c, X_s, P_s
    assert variances.tolist() == pytest.approx([0.5, 1.5, 1.5, 0.5], rel=1e-12)
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
    s = expm(symplectic_form(4) @ (0.3 * (h + h.T)))
    nu = np.repeat(0.5 + rng.exponential(0.5, size=4), 2)
    base = memory_vacuum()
    return GaussianState(modes=base.modes, means=rng.normal(scale=2.0, size=8),
                         cov=s @ np.diag(nu) @ s.T)


def _stage_loop(stages, means, cov, rng):
    """Stage by stage with ``propagate``, drawing each homodyne outcome
    with ``rng`` (the mean without one) just before its feedback stage, as
    a reference for the fold."""
    outcomes = {}
    for name, channel, feedback in stages:
        if feedback is not None:
            q_meas, q_tgt, gain = feedback
            mean = means[q_meas]
            outcomes[name] = gaussian.homodyne_outcome(mean, cov[q_meas, q_meas], rng)
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
                               boundary_loss=rng.uniform(0.0, 0.1))
    k_eff = rng.uniform(0.3, 2.0)
    gain = -rng.uniform(0.5, 2.0) / k_eff
    state = _random_memory_state(rng)
    for direction, run in ((memory._WRITE, run_write), (memory._READ, run_read)):
        x, y = _fill(direction, k_eff, gain, budget)
        channels = _stage_channels(direction, x, y, gain)
        means, cov = state.means, state.cov
        for _, channel, _ in channels:
            means, cov = channel.propagate(means, cov)
        composed = functools.reduce(GaussianChannel.then, (ch for _, ch, _ in channels))
        out = composed.apply(state)
        scale = max(1.0, float(np.max(np.abs(cov))))
        assert np.allclose(out.means, means, rtol=0.0, atol=1e-12 * scale)
        assert np.allclose(out.cov, cov, rtol=0.0, atol=1e-12 * scale)
        # the fold composes the channel and propagates the state with the
        # float operations of then and propagate, with outcomes at the mean
        # and drawn
        for draw_seed in (None, seed):
            draws = [None if draw_seed is None else np.random.default_rng(draw_seed)
                     for _ in range(2)]
            fold_means, fold_cov, fold_outcomes, fold = _run_stages(
                direction, x, y, gain, state.means, state.cov, draws[0])
            want_means, want_cov, want_outcomes = _stage_loop(
                channels, state.means, state.cov, draws[1])
            _assert_bit_equal(fold.x, composed.x)
            _assert_bit_equal(fold.y, composed.y)
            _assert_bit_equal(fold_means, want_means)
            _assert_bit_equal(fold_cov, want_cov)
            assert fold_outcomes == want_outcomes
            assert list(fold_outcomes) == [name for name, _, fb in channels if fb is not None]
            _assert_bit_equal(fold_cov, cov)
            if draw_seed is None:
                # outcomes at the mean leave the means of the plain propagation
                assert np.allclose(fold_means, means, rtol=0.0, atol=1e-12 * scale)
        result = run(k_eff, state=state, gain=gain, budget=budget)
        assert np.allclose(result.state.cov, cov, rtol=0.0, atol=1e-12 * scale)
        assert np.allclose(result.state.means, means, rtol=0.0, atol=1e-12 * scale)


def test_stage_names_of_both_builders():
    budget = DecoherenceBudget()
    write = _filled(memory._WRITE, 1.0, -1.0, budget)
    read = _filled(memory._READ, 1.0, -1.0, budget)
    assert [name for name, _, _ in write] == list(memory._WRITE.names) == [
        "entry_loss", "pass", "exit_loss", "m_c", "m_s", "collisions", "scattering"]
    assert [name for name, _, _ in read] == list(memory._READ.names) == [
        "collisions", "scattering", "fresh_pulse", "quarter_turn", "pass", "m_plus",
        "m_minus", "exit_loss", "align"]
    # exactly the feedback stages carry a measurement, keyed by the stage name
    for stages, run, want in ((write, run_write, {"m_c", "m_s"}),
                              (read, run_read, {"m_plus", "m_minus"})):
        assert all(isinstance(ch, GaussianChannel) for _, ch, _ in stages)
        assert {name for name, _, fb in stages if fb is not None} == want
        assert set(run(1.0).measurements) == want


def test_loss_stages_are_attenuation_channels_at_the_budget():
    # each window crossing is one window's transmission: the write crosses
    # one on the way in and one on the way out, the read one on the way out
    eta, n_phot, loss = 0.013, 0.021, 0.07
    budget = DecoherenceBudget(eta=eta, n_phot=n_phot, boundary_loss=loss)
    light, atoms = (LIGHT_C, LIGHT_S), (ATOM_PLUS, ATOM_MINUS)
    want = {"entry_loss": (light, boundary_transmission(loss, 1)),
            "exit_loss": (light, boundary_transmission(loss, 1)),
            "collisions": (atoms, (1.0 - eta) ** 2),
            "scattering": (atoms, (1.0 - n_phot) ** 2)}
    for direction, names in ((memory._WRITE, set(want)),
                             (memory._READ, set(want) - {"entry_loss"})):
        losses = {name: channel for name, channel, _ in _filled(direction, 1.0, -1.0, budget)
                  if name in want}
        assert set(losses) == names
        for name, channel in losses.items():
            expected = gaussian.attenuation_channel(MEMORY_MODES_PLUS_MINUS, *want[name])
            _assert_bit_equal(channel.x, expected.x)
            _assert_bit_equal(channel.y, expected.y)
    # the write's two crossings are the same window stage, bit for bit
    write = {name: channel for name, channel, _ in _filled(memory._WRITE, 1.0, -1.0, budget)}
    for got, ref in zip(write["entry_loss"], write["exit_loss"]):
        _assert_bit_equal(got, ref)


def _constructed_stages(k_eff, gain, budget):
    """Both stage lists as the constructors build them, (name, channel,
    feedback) in the directions' order, each feedback as feedforward then reset."""
    def loss(targets, transmission):
        return gaussian.attenuation_channel(MEMORY_MODES_PLUS_MINUS, targets, transmission)

    window = loss((LIGHT_C, LIGHT_S), boundary_transmission(budget.boundary_loss, 1))
    decay = [("collisions", loss((ATOM_PLUS, ATOM_MINUS), (1.0 - budget.eta) ** 2), None),
             ("scattering", loss((ATOM_PLUS, ATOM_MINUS), (1.0 - budget.n_phot) ** 2), None)]
    m_c, m_s, m_plus, m_minus = (_feed_then_reset(stage, g) for stage, g in
                                 zip(PROTOCOL_FEEDBACKS, (gain, -gain, -gain, gain)))
    write = [("entry_loss", window, None), ("pass", qnd_transform(k_eff), None),
             ("exit_loss", window, None), m_c, m_s, *decay]
    read = [*decay, ("fresh_pulse", memory._FRESH_PULSE, None),
            ("quarter_turn", memory._QUARTER_TURN, None), ("pass", qnd_transform(k_eff), None),
            m_plus, m_minus, ("exit_loss", window, None), ("align", memory._ALIGN, None)]
    return write, read


_LOSS = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True))


@settings(max_examples=200, deadline=None)
@given(k_eff=st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1e6, 1e6)),
       gain=st.one_of(st.sampled_from([0.0, -0.0, -1.0]),
                      st.floats(allow_nan=False, allow_infinity=False)),
       eta=_LOSS, n_phot=_LOSS, loss=_LOSS)
def test_filled_layouts_match_the_constructors_bit_for_bit(k_eff, gain, eta, n_phot, loss):
    budget = DecoherenceBudget(eta=eta, n_phot=n_phot, boundary_loss=loss)
    for direction, want in zip((memory._WRITE, memory._READ),
                               _constructed_stages(k_eff, gain, budget)):
        x, y = _fill(direction, k_eff, gain, budget)
        got = _stage_channels(direction, x, y, gain)
        assert [name for name, _, _ in got] == [name for name, _, _ in want]
        assert not x.flags.writeable and not y.flags.writeable
        for (name, channel, feedback), (_, ref, ref_feedback) in zip(got, want):
            _assert_bit_equal(channel.x, ref.x)
            _assert_bit_equal(channel.y, ref.y)
            assert (feedback is None) == (ref_feedback is None), name
            if feedback is not None:
                assert feedback[:2] == ref_feedback[:2]
                _assert_bit_equal(np.array(feedback[2:]), np.array(ref_feedback[2:]))


def test_filled_layouts_keep_the_constructors_refusals():
    budget = DecoherenceBudget()
    for direction in (memory._WRITE, memory._READ):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^pass strength must be finite, got k_eff="):
                _fill(direction, bad, -1.0, budget)
        # a budget that skips DecoherenceBudget's range checks still meets the
        # transmission check of attenuation_channel
        with pytest.raises(ValueError, match=r"^transmission must lie in \[0, 1\], got 4\.0$"):
            _fill(direction, 1.0, -1.0, tuple.__new__(DecoherenceBudget, (-1.0, 0.0, 0.0)))


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
    # the fixed protocol stages, the fidelity ring, the decode signs and
    # the shared vacua are built once at import and must stay unwritable
    arrays = _module_arrays(memory) + _module_arrays(gaussian)
    assert len(arrays) >= 25
    for array in arrays:
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 7.0
    # the pass generators, the ring's monomials and the decode signs are
    # among the arrays checked
    checked = {id(array) for array in arrays}
    new = [*memory._PASS_GENERATORS.values(), memory._RING_TERMS, memory._EYE8,
           memory._WRITE.signs, memory._READ.signs]
    assert all(id(array) in checked for array in new)
    # both stage templates are among them, and a run fills copies of them
    templates = [memory._WRITE.x, memory._WRITE.y, memory._WRITE.x_at, memory._WRITE.x_from,
                 memory._WRITE.y_at, memory._WRITE.y_from, memory._READ.x, memory._READ.y,
                 memory._READ.x_at, memory._READ.x_from, memory._READ.y_at,
                 memory._READ.y_from]
    assert all(id(array) in checked for array in templates)
    # the read's fixed stages are the module constants, bit for bit
    read = {name: ch for name, ch, _ in _filled(memory._READ, 1.0, -1.0, DecoherenceBudget())}
    for name, constant in (("fresh_pulse", memory._FRESH_PULSE),
                           ("quarter_turn", memory._QUARTER_TURN), ("align", memory._ALIGN)):
        for got, ref in zip(read[name], constant):
            _assert_bit_equal(got, ref)
            assert not got.flags.writeable


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
             *(memory._feedback(*stage, 1.0)[1] for stage in PROTOCOL_FEEDBACKS),
             *(memory._feedback(*stage, 1.0)[1] for stage in PROTOCOL_FEEDBACKS)]
    # each run fills its own copies of the templates' stacks
    budget = DecoherenceBudget(eta=0.1)
    runs = [_fill(direction, 1.0, -1.0, budget) for direction in (memory._WRITE, memory._WRITE,
                                                                   memory._READ, memory._READ)]
    buffers = [cached[0], *(channel.x for channel in built), memory._WRITE.x, memory._WRITE.y,
               memory._READ.x, memory._READ.y, *(a for run in runs for a in run)]
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("run", [run_write, run_read])
def test_protocol_names_a_non_finite_gain_and_k_eff(run, bad):
    with pytest.raises(InputError, match=rf"^the protocol fails at gain={bad!r}, k_eff=1\.0: "
                                         r"the protocol map is not finite$") as refused:
        run(1.0, gain=bad)
    assert refused.value.keys == ("gain", "k_eff")
    with pytest.raises(ValueError, match=rf"^pass strength must be finite, got k_eff={bad!r}$"):
        run(bad)


def test_protocol_degenerate_output_noise_names_gain_and_k_eff():
    # a finite read map whose ~1e80 output noise cancels in the 2x2
    # determinant; the write at the same gain still has a fidelity
    assert run_write(1.0, gain=1e40).mean_fidelity > 0.0
    with pytest.raises(ValueError, match=r"gain=1e\+40, k_eff=1\.0"):
        run_read(1.0, gain=1e40)
    with pytest.raises(ValueError, match=r"k_eff=1e\+100"):
        run_read(1e100)
    with pytest.raises(ValueError, match="not positive definite"):
        memory._ring_fidelity(np.eye(4), -np.eye(4), memory._WRITE.signs, memory._RING_TERMS)
