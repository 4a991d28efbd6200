"""Scattering rates, budgets, and the protocol's loss stages."""

import math

import numpy as np
import pytest

from qmemcell import (
    CESIUM,
    CODATA,
    DecoherenceBudget,
    InputError,
    attenuation_channel,
    boundary_transmission,
    default_scenario,
    displace,
    doppler_averaged_scattering,
    load_scenario,
    memory_vacuum,
    qnd_transform,
    residual_pump_occupation,
    saturation_intensity,
    scattered_photon_limit,
    scattering_rate,
    spin_exchange_probability,
    stark_compensation_intensity,
    stark_pi_scattered_photons,
)
from qmemcell.cli import main
from qmemcell.decoherence import WIDTH_HWHM, WIDTH_SIGMA, compensation_scattering_rate
from qmemcell.gaussian import ATOM_MINUS, ATOM_PLUS, LIGHT_C, LIGHT_S
from qmemcell.memory import _WRITE, _fill, _stage_channels
from qmemcell.scenario import DEFAULTS

TWO_PI = 2.0 * math.pi
OMEGA_B = TWO_PI * 3.0e5
DELTA_S = TWO_PI * 3.0e9
# mean detuning from the resonance of the edge-pumped atoms
CENTER = DELTA_S - CESIUM.delta2 / 2.0
I_SAT_D1 = saturation_intensity(CESIUM.gamma_d1, CESIUM.lambda_d1)
I_COMP = stark_compensation_intensity(OMEGA_B, DELTA_S)


# ---------------------------------------------------------------------------
# scattering rates


def test_scattering_rate_saturates_at_half_gamma():
    rate = scattering_rate(1.0e6 * I_SAT_D1, 0.0, CESIUM.gamma_d1, CESIUM.lambda_d1)
    assert rate == pytest.approx(CESIUM.gamma_d1 / 2.0, rel=2e-6)


def test_scattering_rate_far_detuned_approximation():
    detuning = 100.0 * CESIUM.gamma_d1
    exact = scattering_rate(I_SAT_D1, detuning, CESIUM.gamma_d1, CESIUM.lambda_d1)
    approx = (CESIUM.gamma_d1 / 2.0) * (CESIUM.gamma_d1 / (2.0 * detuning)) ** 2
    assert approx == pytest.approx(exact, rel=1e-2)


def test_scattering_rate_past_1e154_linewidths_is_its_limit_zero(tmp_path, capsys):
    # (2 detuning / gamma)^2 overflows: the rate is the s -> 0 limit, not an OverflowError
    assert scattering_rate(I_SAT_D1, 1e10, 1e-150, CESIUM.lambda_d1) == 0.0
    # paper-check reached it through the pi pulse's photon cost at a 1e-153 Hz Doppler width
    path = tmp_path / "cfg.json"
    path.write_text('{"species": {"gamma_d1_hz": 8.05e-145, "doppler_halfwidth_hz": 1.8e-153}}')
    assert main(["paper-check", "--format", "csv", "--config", str(path)]) == 1
    rows = capsys.readouterr().out.splitlines()[1:]
    assert all(math.isfinite(float(row.split(",")[1])) for row in rows)


def test_scattering_rate_validation():
    assert scattering_rate(0.0, 0.0, CESIUM.gamma_d1, CESIUM.lambda_d1) == 0.0
    with pytest.raises(ValueError):
        scattering_rate(-1.0, 0.0, CESIUM.gamma_d1, CESIUM.lambda_d1)


def test_doppler_zero_width_reduces_to_plain_rate():
    plain = scattering_rate(I_COMP, CENTER, CESIUM.gamma_d1, CESIUM.lambda_d1)
    assert doppler_averaged_scattering(I_COMP, CENTER, 0.0, CESIUM.gamma_d1,
                                       CESIUM.lambda_d1) == plain
    assert plain == pytest.approx(17.10567708718324, rel=1e-12)
    # the Faddeeva form overflows below a width of about 1e-146 rad/s; there the
    # average is the same exact limit
    for exponent in range(-320, 1):
        rate = doppler_averaged_scattering(I_COMP, CENTER, 10.0**exponent, CESIUM.gamma_d1,
                                           CESIUM.lambda_d1)
        assert rate == (plain if exponent < -150 else pytest.approx(plain, rel=1e-12))


def test_doppler_average_frozen_both_conventions():
    hwhm = doppler_averaged_scattering(I_COMP, CENTER, CESIUM.doppler_halfwidth,
                                       CESIUM.gamma_d1, CESIUM.lambda_d1,
                                       width_convention=WIDTH_HWHM)
    sigma = doppler_averaged_scattering(I_COMP, CENTER, CESIUM.doppler_halfwidth,
                                        CESIUM.gamma_d1, CESIUM.lambda_d1,
                                        width_convention=WIDTH_SIGMA)
    assert hwhm == pytest.approx(17.339887707386037, rel=1e-9)
    assert sigma == pytest.approx(17.433316542154696, rel=1e-9)
    # reading the width as a sigma broadens the profile, so more weight
    # reaches the near-resonant wing
    assert sigma > hwhm > scattering_rate(I_COMP, CENTER, CESIUM.gamma_d1, CESIUM.lambda_d1)


def _trapezoid_doppler(intensity, center, sigma, gamma):
    # dense uniform grid over +-12 sigma; the trapezoid rule converges
    # geometrically once the spacing is well below the Lorentzian width
    u, du = np.linspace(-12.0, 12.0, 1_200_001, retstep=True)
    f = (scattering_rate(intensity, center + sigma * u, gamma, CESIUM.lambda_d1)
         * np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi))
    return du * (f.sum() - 0.5 * (f[0] + f[-1]))


@pytest.mark.parametrize("center_over_sigma, gamma_over_sigma, s0", [
    (0.0, 0.05, 1.0),
    (1.3, 0.2, 0.3),
    (-2.5, 0.01, 30.0),
    # narrow line in the far wing: the Lorentzian peak sits 5.83 sigma out
    (5.83, 4.1e-4, 1e-3),
])
def test_doppler_average_matches_dense_trapezoid(center_over_sigma, gamma_over_sigma, s0):
    sigma = TWO_PI * 1.0e8
    gamma = gamma_over_sigma * sigma
    intensity = s0 * saturation_intensity(gamma, CESIUM.lambda_d1)
    center = center_over_sigma * sigma
    got = doppler_averaged_scattering(intensity, center, sigma, gamma=gamma,
                                      wavelength=CESIUM.lambda_d1,
                                      width_convention=WIDTH_SIGMA)
    ref = _trapezoid_doppler(intensity, center, sigma, gamma)
    assert got == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_doppler_average_of_default_point_matches_dense_trapezoid():
    sigma = CESIUM.doppler_halfwidth / math.sqrt(2.0 * math.log(2.0))
    ref = _trapezoid_doppler(I_COMP, CENTER, sigma, CESIUM.gamma_d1)
    assert doppler_averaged_scattering(I_COMP, CENTER, CESIUM.doppler_halfwidth,
                                       CESIUM.gamma_d1, CESIUM.lambda_d1) == \
        pytest.approx(ref, rel=1e-12, abs=0.0)


def test_doppler_average_rejects_bad_intensity():
    with pytest.raises(ValueError, match="intensity"):
        doppler_averaged_scattering(-1.0, CENTER, CESIUM.doppler_halfwidth,
                                    CESIUM.gamma_d1, CESIUM.lambda_d1)
    with pytest.raises(ArithmeticError, match="not finite"):
        doppler_averaged_scattering(math.nan, CENTER, CESIUM.doppler_halfwidth,
                                    CESIUM.gamma_d1, CESIUM.lambda_d1)


def test_doppler_width_convention_validation():
    with pytest.raises(ValueError, match="convention"):
        doppler_averaged_scattering(I_COMP, CENTER, 1.0, CESIUM.gamma_d1, CESIUM.lambda_d1,
                                    width_convention="fwhm")
    with pytest.raises(ValueError):
        doppler_averaged_scattering(I_COMP, CENTER, -1.0, CESIUM.gamma_d1, CESIUM.lambda_d1)


def test_scattered_photon_floor_frozen():
    floor = scattered_photon_limit()
    assert floor == pytest.approx(0.04205184686996905, rel=1e-12)
    assert floor == pytest.approx(24.0 * math.pi / 7.0 * CESIUM.gamma_d1 / CESIUM.delta2,
                                  rel=1e-12)


def test_pi_pulse_cost_approaches_floor_far_detuned():
    floor = scattered_photon_limit()
    far = stark_pi_scattered_photons(30.0e-6, 30.0 * CESIUM.delta2)
    assert far / floor == pytest.approx(1.0338617353770725, rel=1e-9)
    assert abs(far / floor - 1.0) < 0.1


RHO = DEFAULTS["atom_density_m3"]


def test_spin_exchange_probability_frozen():
    assert spin_exchange_probability(1.0e-3, CESIUM, RHO) == pytest.approx(6.5e-3, rel=1e-12)


def test_spin_exchange_probability_overrides():
    base = spin_exchange_probability(1.0e-3, CESIUM, RHO)
    assert spin_exchange_probability(1.0e-3, CESIUM, 5.0e16) == pytest.approx(
        2.0 * base, rel=1e-12)
    assert spin_exchange_probability(1.0e-3, CESIUM._replace(mean_speed=260.0),
                                     RHO) == pytest.approx(2.0 * base, rel=1e-12)
    with pytest.raises(ValueError):
        spin_exchange_probability(-1.0, CESIUM, RHO)
    with pytest.raises(ValueError):
        spin_exchange_probability(1.0e-3, CESIUM, -1.0)
    with pytest.raises(ValueError):
        spin_exchange_probability(1.0e-3, CESIUM._replace(mean_speed=-1.0), RHO)


def test_residual_pump_occupation_frozen():
    assert residual_pump_occupation() == pytest.approx(0.0006350863201351098, rel=1e-12)


def test_species_closed_forms_refuse_non_finite_results():
    # both printed inf: a D1 width of 1e300 Hz, and a hyperfine splitting of 1e-10 Hz
    wide = load_scenario('{"species": {"gamma_d1_hz": 1e300}}').species
    with pytest.raises(InputError, match=r"^fields 'gamma_d1_hz' = 1e\+300 Hz, .*inf$") as refused:
        residual_pump_occupation(wide)
    assert refused.value.keys == ("gamma_d1_hz", "doppler_halfwidth_hz", "delta2_hz")
    assert math.isfinite(scattered_photon_limit(wide))
    narrow = load_scenario('{"species": {"gamma_d1_hz": 1e300, "delta2_hz": 1e-10}}').species
    with pytest.raises(InputError, match=r"^fields 'gamma_d1_hz' = 1e\+300 Hz and 'delta2_hz' = "
                                         r"1e-10 Hz .* is inf$") as refused:
        scattered_photon_limit(narrow)
    assert refused.value.keys == ("gamma_d1_hz", "delta2_hz")


@pytest.mark.parametrize("doc, keys", [
    # eta = sigma v tau rho: the two species factors are named with the scenario's
    ('{"atom_density_m3": 1e19}', ("atom_density_m3", "tau_s",
                                   "spin_exchange_cross_section_m2", "mean_speed_m_s")),
    ('{"tau_s": 0.1}', ("tau_s", "omega_b_hz", "stark_detuning_hz")),
])
def test_refused_budgets_carry_their_keys(doc, keys):
    with pytest.raises(InputError) as refused:
        DecoherenceBudget.from_scenario(load_scenario(doc))
    assert refused.value.keys == keys


# ---------------------------------------------------------------------------
# boundary losses


def test_boundary_budget_arithmetic():
    assert boundary_transmission(0.01, 4) == pytest.approx(0.99**4, rel=1e-15)
    assert boundary_transmission(0.25, 0) == 1.0


def test_boundary_doubling_ratio_frozen():
    ratio = (1.0 - boundary_transmission(0.01, 4)) / (1.0 - boundary_transmission(0.01, 2))
    assert ratio == pytest.approx(1.9801, rel=1e-12)


def test_boundary_budget_validation():
    with pytest.raises(ValueError, match=r"loss per crossing must lie in \[0, 1\], got 1.5"):
        boundary_transmission(1.5, 2)
    with pytest.raises(ValueError, match="n_crossings must be non-negative, got -1"):
        boundary_transmission(0.01, -1)


# ---------------------------------------------------------------------------
# decoherence budget


def test_budget_defaults_and_validation():
    budget = DecoherenceBudget()
    assert budget == (0.0, 0.0, 0.0)
    assert budget._fields == ("eta", "n_phot", "boundary_loss")
    with pytest.raises(ValueError):
        DecoherenceBudget(eta=1.0)
    with pytest.raises(ValueError):
        DecoherenceBudget(n_phot=-0.1)
    with pytest.raises(ValueError):
        DecoherenceBudget(boundary_loss=1.0)
    # a scattering rate is no budget field: n_phot is what the protocol applies
    with pytest.raises(TypeError):
        DecoherenceBudget(gamma_ph=1e9, n_phot=0.0)
    # copies are checked too, and a positional budget reads in field order
    assert budget._replace(eta=0.5) == DecoherenceBudget(0.5) == (0.5, 0.0, 0.0)
    with pytest.raises(ValueError, match="eta must lie"):
        budget._replace(eta=1.0)
    with pytest.raises(ValueError, match="n_phot must lie"):
        DecoherenceBudget._make((0.0, 2.0, 0.0))


def test_budget_from_scenario():
    budget = DecoherenceBudget.from_scenario(default_scenario())
    assert budget.eta == pytest.approx(6.5e-3, rel=1e-12)
    gamma_ph = compensation_scattering_rate(default_scenario())
    assert gamma_ph == pytest.approx(17.339887707386037, rel=1e-9)
    assert budget.n_phot == pytest.approx(gamma_ph * 1.0e-3, rel=1e-12)
    assert budget.boundary_loss == 0.01


# ---------------------------------------------------------------------------
# the protocol's loss stages: attenuation channels at the budget's transmissions


def _correlated_state():
    state = memory_vacuum()
    state = displace(state, LIGHT_C, 1.5, -0.5)
    state = displace(state, ATOM_PLUS, 0.3, 2.0)
    return qnd_transform(1.0).apply(state)


def _mean(state, mode):
    """Means of one mode."""
    i = 2 * state.mode_index(mode)
    return state.means[i:i + 2]


def _block(state, mode, other=None):
    """2x2 covariance block between two modes, of one mode by default."""
    i, j = 2 * state.mode_index(mode), 2 * state.mode_index(other or mode)
    return state.cov[i:i + 2, j:j + 2]


def _loss_stages(budget):
    """The write's window, collision and scattering stages at ``budget``."""
    stages = _stage_channels(_WRITE, *_fill(_WRITE, 1.0, -1.0, budget), -1.0)
    return {name: channel for name, channel, _ in stages
            if name in ("exit_loss", "collisions", "scattering")}


def _loss_stage(budget, name):
    return _loss_stages(budget)[name]


def test_spin_exchange_channel_action():
    eta = 0.2
    state = _correlated_state()
    out = _loss_stage(DecoherenceBudget(eta=eta), "collisions").apply(state)
    t = 1.0 - eta
    for mode in (ATOM_PLUS, ATOM_MINUS):
        mean, block = _mean(state, mode), _block(state, mode)
        mean_out, block_out = _mean(out, mode), _block(out, mode)
        assert np.allclose(mean_out, t * mean, rtol=1e-12, atol=1e-12)
        expected = t * t * block + (1.0 - t * t) * 0.5 * np.eye(2)
        assert np.allclose(block_out, expected, rtol=1e-12, atol=1e-12)
    # light marginals untouched, cross covariances scale by the amplitude factor
    for mode in (LIGHT_C, LIGHT_S):
        assert np.allclose(_block(out, mode), _block(state, mode),
                           rtol=1e-12, atol=1e-12)
    assert np.allclose(_block(out, LIGHT_C, ATOM_PLUS),
                       t * _block(state, LIGHT_C, ATOM_PLUS),
                       rtol=1e-12, atol=1e-12)


def test_scattering_channel_matches_spin_exchange_form():
    state = _correlated_state()
    scattering = _loss_stage(DecoherenceBudget(n_phot=0.05), "scattering")
    collisions = _loss_stage(DecoherenceBudget(eta=0.05), "collisions")
    assert np.array_equal(scattering.x, collisions.x)
    assert np.array_equal(scattering.y, collisions.y)
    assert np.allclose(scattering.apply(state).cov, collisions.apply(state).cov,
                       rtol=1e-12, atol=1e-12)


def test_channels_at_zero_strength_are_identity():
    state = _correlated_state()
    budget = DecoherenceBudget()
    for channel in (*_loss_stages(budget).values(),
                    attenuation_channel(state.modes, (LIGHT_C, ATOM_PLUS), 1.0)):
        out = channel.apply(state)
        assert np.array_equal(out.means, state.means)
        assert np.array_equal(out.cov, state.cov)


def test_boundary_losses_touch_only_light():
    loss, n = 0.02, 2
    state = _correlated_state()
    window = _loss_stage(DecoherenceBudget(boundary_loss=loss), "exit_loss")
    out = window.apply(window.apply(state))
    amp = math.sqrt((1.0 - loss) ** n)
    for mode in (LIGHT_C, LIGHT_S):
        mean, block = _mean(state, mode), _block(state, mode)
        mean_out, block_out = _mean(out, mode), _block(out, mode)
        assert np.allclose(mean_out, amp * mean, rtol=1e-12, atol=1e-12)
        expected = amp * amp * block + (1.0 - amp * amp) * 0.5 * np.eye(2)
        assert np.allclose(block_out, expected, rtol=1e-12, atol=1e-12)
    for mode in (ATOM_PLUS, ATOM_MINUS):
        assert np.allclose(_block(out, mode), _block(state, mode),
                           rtol=1e-12, atol=1e-12)


def test_channels_preserve_physicality():
    # the GaussianState constructor enforces the uncertainty bound, so a
    # channel output that constructs at all is a valid state; push a
    # strongly correlated state through every loss stage at several strengths
    state = _correlated_state()
    for p in (0.0, 0.1, 0.5, 0.9):
        budget = DecoherenceBudget(eta=p, n_phot=p, boundary_loss=p)
        for channel in _loss_stages(budget).values():
            channel.apply(state)


def test_channel_custom_mode_selection():
    state = _correlated_state()
    out = attenuation_channel(state.modes, (ATOM_PLUS,), (1.0 - 0.3) ** 2).apply(state)
    assert np.allclose(_block(out, ATOM_MINUS), _block(state, ATOM_MINUS),
                       rtol=1e-12, atol=1e-12)
    assert not np.allclose(_block(out, ATOM_PLUS), _block(state, ATOM_PLUS))


def test_line_data_and_constants_have_no_cesium_defaults():
    # a forgotten argument fails loudly instead of meaning cesium
    with pytest.raises(TypeError):
        scattering_rate(I_COMP, CENTER)
    with pytest.raises(TypeError):
        doppler_averaged_scattering(I_COMP, CENTER, CESIUM.doppler_halfwidth)
    with pytest.raises(TypeError):
        DecoherenceBudget.from_scenario(default_scenario(), CODATA)
    # nor a density that means the packaged operating point
    with pytest.raises(TypeError):
        spin_exchange_probability(1.0e-3, CESIUM)
