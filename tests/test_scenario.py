"""Scenario documents: defaults, validation, round trips."""

import json
import math
import pathlib
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmemcell import CESIUM, InputError, default_scenario, load_scenario, load_scenario_file
from qmemcell.scenario import (_SCALAR_KEYS, _SPECIES_KEYS, DEFAULTS, F_GROUND_MAX,
                               DOCUMENT_KEYS, SCALAR_KEYS, ScenarioConfig, refusal,
                               scenario_to_document, scenario_with)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
TWO_PI = 2.0 * math.pi


def test_default_scenario_values():
    cfg = default_scenario()
    assert cfg.omega_b == pytest.approx(TWO_PI * 3.0e5, rel=1e-15)
    assert cfg.pulse_duration == 1.0e-3
    assert cfg.probe_detuning == pytest.approx(TWO_PI * 7.0e8, rel=1e-15)
    assert cfg.stark_detuning == pytest.approx(TWO_PI * 3.0e9, rel=1e-15)
    assert cfg.microwave_detuning == pytest.approx(TWO_PI * 3.6e7, rel=1e-15)
    assert cfg.atom_number == 1.0e12
    assert cfg.photon_number == 1.0e12
    assert cfg.beam_area == 2.0e-4
    assert cfg.atom_density == 2.5e16
    assert cfg.boundary_loss == 0.01
    assert cfg.feedback_gain == -1.0
    assert cfg.species == CESIUM


def test_empty_document_equals_defaults():
    assert load_scenario("{}") == default_scenario()


def test_repo_root_config_matches_packaged_default():
    cfg = load_scenario_file(str(REPO_ROOT / "cesium.json"))
    assert cfg == default_scenario()


def test_microwave_default_detuning_consistency():
    # the documented default detuning is 120 Omega_B
    assert DEFAULTS["microwave_detuning_hz"] == pytest.approx(
        120.0 * DEFAULTS["omega_b_hz"], rel=1e-15)


def test_partial_document_overrides():
    cfg = load_scenario('{"omega_b_hz": 2.0e5, "boundary_loss": 0.02}')
    assert cfg.omega_b == pytest.approx(TWO_PI * 2.0e5, rel=1e-15)
    assert cfg.boundary_loss == 0.02
    assert cfg.pulse_duration == 1.0e-3


def test_unknown_key_rejected():
    with pytest.raises(InputError, match="unknown scenario keys"):
        load_scenario('{"omega_b": 3.0e5}')


def test_unknown_species_key_rejected():
    with pytest.raises(InputError, match="unknown species keys"):
        load_scenario('{"species": {"lambda_d3_m": 1.0e-6}}')


def test_invalid_json_rejected():
    with pytest.raises(InputError, match="not valid JSON"):
        load_scenario("{")
    with pytest.raises(InputError, match="JSON object"):
        load_scenario("[1, 2]")


def test_non_numeric_value_rejected():
    with pytest.raises(InputError, match="must be a number"):
        load_scenario('{"omega_b_hz": "fast"}')
    with pytest.raises(InputError, match="must be a number"):
        load_scenario('{"boundary_loss": true}')


@pytest.mark.parametrize("doc, key", [
    ('{"tau_s": NaN}', "tau_s"),
    ('{"omega_b_hz": Infinity}', "omega_b_hz"),
    ('{"boundary_loss": -Infinity}', "boundary_loss"),
    ('{"species": {"doppler_halfwidth_hz": Infinity}}', "doppler_halfwidth_hz"),
    ('{"species": {"gamma_d1_hz": NaN}}', "gamma_d1_hz"),
])
def test_non_finite_value_rejected(doc, key):
    with pytest.raises(InputError, match=f"'{key}' must be finite"):
        load_scenario(doc)


def test_sign_validation():
    with pytest.raises(InputError, match="positive"):
        load_scenario('{"tau_s": 0.0}')
    with pytest.raises(InputError, match="non-negative"):
        load_scenario('{"omega_b_hz": -1.0}')
    with pytest.raises(InputError, match="nonzero"):
        load_scenario('{"probe_detuning_hz": 0.0}')
    with pytest.raises(InputError, match="boundary_loss"):
        load_scenario('{"boundary_loss": 1.0}')
    with pytest.raises(InputError, match="boundary_loss"):
        load_scenario('{"boundary_loss": -0.1}')


def test_negative_detuning_allowed():
    cfg = load_scenario('{"probe_detuning_hz": -7.0e8}')
    assert cfg.probe_detuning == pytest.approx(-TWO_PI * 7.0e8, rel=1e-15)


def test_species_override():
    cfg = load_scenario('{"species": {"gamma_d1_hz": 5.0e6, "f_ground": 3}}')
    assert cfg.species.gamma_d1 == pytest.approx(TWO_PI * 5.0e6, rel=1e-15)
    assert cfg.species.f_ground == 3
    # untouched fields keep the cesium values
    assert cfg.species.lambda_d1 == CESIUM.lambda_d1


def test_species_validation():
    with pytest.raises(InputError, match="f_ground"):
        load_scenario('{"species": {"f_ground": 2.5}}')
    with pytest.raises(InputError, match="f_ground"):
        load_scenario('{"species": {"f_ground": 0}}')
    with pytest.raises(InputError, match="positive"):
        load_scenario('{"species": {"mean_speed_m_s": -1.0}}')
    with pytest.raises(InputError, match="JSON object"):
        load_scenario('{"species": 3}')


def test_f_ground_is_capped_at_load():
    # the ladders hold 2 f_ground spacings per mechanism: 1e8 ran shifts out of memory
    with pytest.raises(InputError, match=rf"^field 'f_ground' must be <= {F_GROUND_MAX}, "
                                            r"got 100000000$") as refused:
        load_scenario('{"species": {"f_ground": 100000000}}')
    assert refused.value.keys == ("f_ground",)
    for f_ground in (3, F_GROUND_MAX):
        doc = json.dumps({"species": {"f_ground": f_ground}})
        assert load_scenario(doc).species.f_ground == f_ground


#: refused documents and the keys their error carries
REFUSED_DOCUMENTS = [
    ('{"omega_b_hz": "fast"}', ("omega_b_hz",)),
    ('{"tau_s": NaN}', ("tau_s",)),
    ('{"tau_s": 0.0}', ("tau_s",)),
    ('{"omega_b_hz": -1.0}', ("omega_b_hz",)),
    ('{"probe_detuning_hz": 0.0}', ("probe_detuning_hz",)),
    ('{"stark_detuning_hz": 1e300}', ("stark_detuning_hz",)),
    ('{"probe_detuning_hz": 1e-300}', ("probe_detuning_hz",)),
    ('{"microwave_detuning_hz": 1e-275}', ("microwave_detuning_hz",)),
    ('{"boundary_loss": 1.0}', ("boundary_loss",)),
    ('{"species": 3}', ("species",)),
    ('{"species": {"f_ground": 2.5}}', ("f_ground",)),
    ('{"species": {"f_ground": 0}}', ("f_ground",)),
    ('{"species": {"gamma_d1_hz": NaN}}', ("gamma_d1_hz",)),
    ('{"species": {"g_f": 1e-320}}', ("g_f",)),
    ('{"species": {"spin_exchange_cross_section_m2": -1e-18}}',
     ("spin_exchange_cross_section_m2",)),
    # the message names the species field, the keys the document key
    ('{"species": {"mean_speed_m_s": -1.0}}', ("mean_speed_m_s",)),
    ('{"species": {"delta2_hz": 0}}', ("delta2_hz",)),
    # the document's shape: no value to correct
    ("{", ()), ("[1, 2]", ()), ('{"omega_b": 3.0e5}', ()),
    ('{"species": {"lambda_d3_m": 1.0e-6}}', ()),
]


@pytest.mark.parametrize("doc, keys", REFUSED_DOCUMENTS)
def test_refused_documents_carry_their_keys(doc, keys):
    with pytest.raises(InputError) as refused:
        load_scenario(doc)
    assert refused.value.keys == keys


def test_scenario_with_refusals_carry_their_keys():
    with pytest.raises(InputError) as refused:
        scenario_with(default_scenario(), "tau_s", 0.0)
    assert refused.value.keys == ("tau_s",)
    with pytest.raises(InputError, match="unknown scenario key") as refused:
        scenario_with(default_scenario(), "tau", 1.0)
    assert refused.value.keys == ()


#: documents with two or more bad keys, and the refusal reported first: the
#: scalar values are read in document order, then checked (positivity first,
#: then declaration order); then the species block, whose f_ground, g_f and
#: cross section are checked as they are read, in document order, and whose
#: line data are checked for positivity last, in declaration order
FIRST_REFUSALS = [
    # scenario with scenario
    ('{"tau_s": 0, "omega_b_hz": -1}', "field 'tau_s' must be positive, got 0.0", ("tau_s",)),
    ('{"omega_b_hz": -1, "tau_s": 0}', "field 'tau_s' must be positive, got 0.0", ("tau_s",)),
    ('{"boundary_loss": 2, "omega_b_hz": "x"}',
     "field 'omega_b_hz' must be a number, got 'x'", ("omega_b_hz",)),
    ('{"omega_b_hz": "x", "tau_s": NaN}',
     "field 'omega_b_hz' must be a number, got 'x'", ("omega_b_hz",)),
    ('{"tau_s": NaN, "omega_b_hz": "x"}', "field 'tau_s' must be finite, got nan", ("tau_s",)),
    ('{"microwave_detuning_hz": 0, "probe_detuning_hz": 1e-300, "stark_detuning_hz": 1e300}',
     "field 'probe_detuning_hz' = 1e-300 is out of range: the coupling denominator hbar^2 "
     "Delta underflows to zero", ("probe_detuning_hz",)),
    ('{"boundary_loss": -1, "omega_b_hz": 1e300}',
     "field 'omega_b_hz' = 1e+300 is out of range: the quadratic Zeeman term omega_b^2 "
     "overflows", ("omega_b_hz",)),
    ('{"atom_density_m3": -1, "beam_area_m2": 0, "feedback_gain": true}',
     "field 'feedback_gain' must be a number, got True", ("feedback_gain",)),
    ('{"stark_detuning_hz": 0, "atom_number": -5}',
     "field 'atom_number' must be positive, got -5.0", ("atom_number",)),
    # species with species
    ('{"species": {"mean_speed_m_s": -1, "g_f": 0}}',
     "field 'g_f' = 0 is out of range: the field denominator g_F mu_B underflows", ("g_f",)),
    ('{"species": {"delta2_hz": -1, "lambda_d1_m": -1}}',
     "species field 'lambda_d1' must be positive", ("lambda_d1_m",)),
    ('{"species": {"f_ground": 0, "gamma_d1_hz": "x"}}',
     "field 'f_ground' must be >= 1, got 0", ("f_ground",)),
    ('{"species": {"gamma_d1_hz": -5, "f_ground": 2.5}}',
     "field 'f_ground' must be an integer, got 2.5", ("f_ground",)),
    ('{"species": {"spin_exchange_cross_section_m2": -1, "mean_speed_m_s": 0}}',
     "field 'spin_exchange_cross_section_m2' must be non-negative, got -1.0",
     ("spin_exchange_cross_section_m2",)),
    ('{"species": {"mean_speed_m_s": 0, "spin_exchange_cross_section_m2": -1}}',
     "field 'spin_exchange_cross_section_m2' must be non-negative, got -1.0",
     ("spin_exchange_cross_section_m2",)),
    ('{"species": {"doppler_halfwidth_hz": 0, "gamma_d2_hz": 0}}',
     "species field 'gamma_d2' must be positive", ("gamma_d2_hz",)),
    ('{"species": {"lambda_d2_m": -1, "f_ground": 11}}',
     "field 'f_ground' must be <= 10, got 11", ("f_ground",)),
    ('{"species": {"g_f": 0, "gamma_d1_hz": "x"}}',
     "field 'g_f' = 0 is out of range: the field denominator g_F mu_B underflows", ("g_f",)),
    ('{"species": {"gamma_d1_hz": NaN, "g_f": 1e-320}}',
     "field 'gamma_d1_hz' must be finite, got nan", ("gamma_d1_hz",)),
    # mixed
    ('{"species": {"g_f": 0}, "tau_s": 0}', "field 'tau_s' must be positive, got 0.0",
     ("tau_s",)),
    ('{"species": {"f_ground": 0}, "omega_b_hz": "x"}',
     "field 'omega_b_hz' must be a number, got 'x'", ("omega_b_hz",)),
    ('{"species": 3, "tau_s": 0}', "field 'tau_s' must be positive, got 0.0", ("tau_s",)),
    ('{"tau_s": 0, "unknown": 1}', "unknown scenario keys: ['unknown']", ()),
    ('{"species": {"lambda_d3_m": 1}, "boundary_loss": 1}',
     "field 'boundary_loss' must lie in [0, 1), got 1.0", ("boundary_loss",)),
    ('{"species": {"delta2_hz": 0}, "microwave_detuning_hz": 1e-275}',
     "field 'microwave_detuning_hz' = 1e-275 is out of range: the dressing denominator "
     "2 F^2 eps0 hbar^2 c^3 Delta_mu underflows", ("microwave_detuning_hz",)),
    ('{"omega_b_hz": 1e5, "species": {"mean_speed_m_s": -1}, "probe_detuning_hz": 0}',
     "field 'probe_detuning_hz' must be nonzero (it appears in denominators)",
     ("probe_detuning_hz",)),
]


@pytest.mark.parametrize("doc, message, keys", FIRST_REFUSALS)
def test_several_bad_keys_refuse_the_same_key_first(doc, message, keys):
    with pytest.raises(InputError) as refused:
        load_scenario(doc)
    assert (str(refused.value), refused.value.keys) == (message, keys)


def test_every_key_is_declared_once():
    assert not set(_SCALAR_KEYS) & set(_SPECIES_KEYS)
    assert [spec.field for spec in _SPECIES_KEYS.values()] == list(CESIUM._fields)
    assert DEFAULTS == {key: spec.default for key, spec in _SCALAR_KEYS.items()}
    assert SCALAR_KEYS == tuple(sorted(_SCALAR_KEYS))
    assert DOCUMENT_KEYS == {*_SCALAR_KEYS, "species", *_SPECIES_KEYS}
    assert not DOCUMENT_KEYS & {"omega_b", "tau", "dt", "pump_rate"}


def test_refusal_phrases_fields_in_document_keys_and_units():
    one = refusal("is bad", f_ground=3)
    assert (str(one), one.keys) == ("field 'f_ground' = 3 is bad", ("f_ground",))
    three = refusal("are bad", pulse_duration=2e-3, atom_density=1e16,
                    stark_detuning=TWO_PI * 3e9)
    assert str(three) == ("fields 'tau_s' = 0.002 s, 'atom_density_m3' = 1e+16 m^-3 and "
                          "'stark_detuning_hz' = 3e+09 Hz are bad")
    assert three.keys == ("tau_s", "atom_density_m3", "stark_detuning_hz")


@pytest.mark.parametrize("block, key", [
    ('{"g_f": 0}', "g_f"), ('{"g_f": 1e-320}', "g_f"), ('{"g_f": -1e-310}', "g_f"),
    ('{"spin_exchange_cross_section_m2": -1e-18}', "spin_exchange_cross_section_m2"),
])
def test_species_g_f_and_cross_section_ranges(block, key):
    with pytest.raises(InputError, match=f"^field '{key}' "):
        load_scenario(f'{{"species": {block}}}')


def test_species_g_f_of_either_sign_and_a_zero_cross_section_load():
    for g_f in (0.25, -0.25):
        assert load_scenario(f'{{"species": {{"g_f": {g_f}}}}}').species.g_f == g_f
    cfg = load_scenario('{"species": {"spin_exchange_cross_section_m2": 0}}')
    assert cfg.species.spin_exchange_cross_section == 0.0


def test_document_round_trip():
    cfg = default_scenario()
    doc = scenario_to_document(cfg)
    assert "species" not in doc
    for key, value in DEFAULTS.items():
        assert doc[key] == pytest.approx(value, rel=1e-12)
    assert load_scenario(json.dumps(doc)) == cfg


def test_document_round_trip_with_species():
    cfg = load_scenario('{"species": {"g_f": 0.5}}')
    doc = scenario_to_document(cfg)
    assert doc["species"]["g_f"] == 0.5
    assert load_scenario(json.dumps(doc)) == cfg


def test_scenario_with_replaces_one_key():
    cfg = default_scenario()
    tweaked = scenario_with(cfg, "stark_detuning_hz", -3.0e9)
    assert tweaked.stark_detuning == pytest.approx(-TWO_PI * 3.0e9, rel=1e-12)
    assert tweaked.omega_b == cfg.omega_b
    # the replacement passes through full validation
    with pytest.raises(InputError):
        scenario_with(cfg, "tau_s", -1.0)
    with pytest.raises(InputError, match="unknown scenario key"):
        scenario_with(cfg, "species", 1.0)
    for value in (math.nan, math.inf):
        with pytest.raises(InputError, match="'stark_detuning_hz' must be finite"):
            scenario_with(cfg, "stark_detuning_hz", value)


class _TaggedConfig(namedtuple("_TaggedConfig", (*ScenarioConfig._fields, "tag")),
                    ScenarioConfig):
    """A ScenarioConfig subclass with one more field."""

    __slots__ = ()


def test_scenario_with_equals_replace():
    # the document keys list the scalar fields in their order
    assert ScenarioConfig._fields == (*(spec.field for spec in _SCALAR_KEYS.values()), "species")
    base = load_scenario('{"species": {"gamma_d1_hz": 4.8e6}}')
    tagged = _TaggedConfig(*base, tag="cell B")
    for cfg in (base, tagged):
        for key, spec in _SCALAR_KEYS.items():
            value = 1.5 * DEFAULTS[key]
            field, angular = spec.field, (TWO_PI if spec.unit == "Hz" else 1.0) * value
            before = cfg._asdict()
            copy = scenario_with(cfg, key, value)
            assert type(copy) is type(cfg)
            assert copy == cfg._replace(**{field: angular})
            assert copy.species is cfg.species
            assert copy._asdict() == {**before, field: angular}
            assert cfg._asdict() == before
    with pytest.raises(AttributeError):
        scenario_with(tagged, "tau_s", 2.0e-3).pulse_duration = 1.0


def test_default_scenario_is_one_shared_instance():
    assert default_scenario() is default_scenario()
    assert default_scenario() == load_scenario("{}")


# operating points of the benchmark catalogue, one with a species override
CATALOGUE_DOCS = (
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

# invalid for at least one key each: sign, zero, non-finite, type, the
# boundary-loss range, and the overflow/underflow edges of the detunings
EDGE_VALUES = (0, 0.0, -0.0, -1.0, -3.0e9, 0.5, 1.0, 1.5, 7, math.nan, math.inf, -math.inf,
               True, False, "3e9", None, 1.0e300, -1.0e300, 2.2e153, 2.1e153, 1.0e-300,
               3.0e-258, 2.9e-258, 1.0e-320, 1.0e-270, 1.0e-250)


def _outcome(make):
    try:
        return make()
    except InputError as exc:
        return f"InputError: {exc}"


def _assert_same_as_round_trip(cfg, key, value):
    # the whole config through a document: what scenario_with has to match
    doc = json.dumps({**scenario_to_document(cfg), key: value})
    assert (_outcome(lambda: scenario_with(cfg, key, value))
            == _outcome(lambda: load_scenario(doc))), (key, value)


@pytest.mark.parametrize("doc", CATALOGUE_DOCS)
def test_scenario_with_matches_round_trip_at_edges(doc):
    cfg = load_scenario(json.dumps(doc))
    for key in _SCALAR_KEYS:
        for value in (*EDGE_VALUES, DEFAULTS[key], -DEFAULTS[key], 1.5 * DEFAULTS[key]):
            _assert_same_as_round_trip(cfg, key, value)


@pytest.mark.parametrize("doc", CATALOGUE_DOCS)
@settings(max_examples=80, deadline=None)
@given(key=st.sampled_from(sorted(_SCALAR_KEYS)),
       value=st.one_of(st.floats(), st.floats(-1.0, 2.0), st.floats(1.0e-12, 1.0e12),
                       st.integers(-10**9, 10**9), st.booleans(), st.text(max_size=4)))
def test_scenario_with_matches_round_trip(doc, key, value):
    _assert_same_as_round_trip(load_scenario(json.dumps(doc)), key, value)


@pytest.mark.parametrize("doc, key", [
    ('{"stark_detuning_hz": 1e300}', "stark_detuning_hz"),
    ('{"stark_detuning_hz": -2.2e153}', "stark_detuning_hz"),
    ('{"probe_detuning_hz": 1e-300}', "probe_detuning_hz"),
    ('{"probe_detuning_hz": -2.9e-258}', "probe_detuning_hz"),
    ('{"microwave_detuning_hz": 1e-275}', "microwave_detuning_hz"),
    ('{"microwave_detuning_hz": -1e-270}', "microwave_detuning_hz"),
])
def test_detuning_out_of_range_rejected(doc, key):
    with pytest.raises(InputError, match=f"'{key}' = .* is out of range"):
        load_scenario(doc)


def test_detunings_inside_range_kept():
    cfg = load_scenario('{"stark_detuning_hz": 2.1e153, "probe_detuning_hz": 3.0e-258, '
                        '"microwave_detuning_hz": -1e-250}')
    assert cfg.stark_detuning == TWO_PI * 2.1e153
    assert cfg.probe_detuning == TWO_PI * 3.0e-258
    assert cfg.microwave_detuning == TWO_PI * -1e-250


@pytest.mark.parametrize("doc", CATALOGUE_DOCS)
def test_catalogue_microwave_detunings_pass_the_underflow_guard(doc):
    for value in (doc.get("microwave_detuning_hz", DEFAULTS["microwave_detuning_hz"]),
                  1e-250):
        cfg = scenario_with(load_scenario(json.dumps(doc)), "microwave_detuning_hz", value)
        assert cfg.microwave_detuning == TWO_PI * value


def test_load_scenario_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"omega_b_hz": 1.0e5}')
    cfg = load_scenario_file(str(path))
    assert cfg.omega_b == pytest.approx(TWO_PI * 1.0e5, rel=1e-15)
