"""Gaussian-state registers and symplectic maps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qmemcell import (
    GaussianState,
    VACUUM_VARIANCE,
    attenuation_channel,
    displace,
    memory_vacuum,
    symplectic_form,
    vacuum_state,
)
from qmemcell.gaussian import (
    ATOM_MINUS,
    ATOM_PLUS,
    LIGHT_C,
    LIGHT_S,
    MEMORY_MODES_CLASS,
    MEMORY_MODES_PLUS_MINUS,
    GaussianChannel,
    homodyne_outcome,
    rotation_2x2,
)


def _hamiltonian_channel(h, t=1.0):
    """The noiseless channel of the quadratic Hamiltonian (1/2) r^T H r
    evolved for time t: S = exp(Omega H t)."""
    return GaussianChannel.symplectic(expm(symplectic_form(len(h) // 2) @ h * t))


def test_symplectic_form():
    omega = symplectic_form(3)
    assert omega.shape == (6, 6)
    assert np.array_equal(omega, -omega.T)
    assert np.array_equal(omega @ omega, -np.eye(6))
    assert omega[0, 1] == 1.0 and omega[1, 0] == -1.0
    with pytest.raises(ValueError):
        symplectic_form(0)


def test_rotation_convention():
    # a quarter turn rotates P into X and X into -P
    quarter = rotation_2x2(math.pi / 2.0)
    assert np.allclose(quarter, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)
    a, b = 0.7, -1.3
    assert np.allclose(rotation_2x2(a) @ rotation_2x2(b), rotation_2x2(a + b), atol=1e-15)


def test_symplectic_transform_validation():
    with pytest.raises(ValueError, match="not symplectic"):
        GaussianChannel.symplectic(2.0 * np.eye(2))
    with pytest.raises(ValueError, match="square"):
        GaussianChannel.symplectic(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="even"):
        GaussianChannel.symplectic(np.eye(3))


def test_symplectic_inverse_and_compose():
    h = np.array([[0.0, 0.0, 0.0, 1.3],
                  [0.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0],
                  [1.3, 0.0, 0.0, 0.0]])
    s = _hamiltonian_channel(h)
    omega = symplectic_form(2)
    inverse = GaussianChannel.symplectic(-omega @ s.x.T @ omega)
    assert np.allclose(inverse.then(s).x, np.eye(4), atol=1e-12)
    turn = _hamiltonian_channel(np.eye(4), t=0.4)
    assert np.allclose(s.then(s).x, s.x @ s.x, atol=1e-12)
    assert np.array_equal(s.then(turn).x, turn.x @ s.x)
    assert not s.then(turn).y.any()
    with pytest.raises(ValueError, match="^cannot compose channels of different mode number$"):
        s.then(GaussianChannel.symplectic(np.eye(2)))


def test_state_validation():
    with pytest.raises(ValueError, match="duplicate"):
        vacuum_state((LIGHT_C, LIGHT_C))
    with pytest.raises(ValueError, match="length"):
        GaussianState(modes=(LIGHT_C,), means=np.zeros(3), cov=0.5 * np.eye(2))
    with pytest.raises(ValueError, match="symmetric"):
        GaussianState(modes=(LIGHT_C,), means=np.zeros(2),
                      cov=np.array([[0.5, 0.1], [-0.1, 0.5]]))
    with pytest.raises(ValueError, match="uncertainty"):
        GaussianState(modes=(LIGHT_C,), means=np.zeros(2), cov=0.1 * np.eye(2))


NON_FINITE = [math.nan, math.inf, -math.inf]


def _spoiled(array, index, bad):
    out = np.array(array, dtype=float)
    out[index] = bad
    return out


@pytest.mark.parametrize("bad", NON_FINITE)
def test_state_rejects_non_finite_means_and_cov(bad):
    means, cov = np.zeros(4), 0.5 * np.eye(4)
    for i in range(4):
        with pytest.raises(ValueError, match="^means must be finite$"):
            GaussianState(modes=(LIGHT_C, LIGHT_S), means=_spoiled(means, i, bad), cov=cov)
    for index in np.ndindex(4, 4):
        for spoiled in (_spoiled(cov, index, bad),
                        _spoiled(_spoiled(cov, index, bad), index[::-1], bad)):
            with pytest.raises(ValueError, match="^cov must be finite$"):
                GaussianState(modes=(LIGHT_C, LIGHT_S), means=means, cov=spoiled)
    with pytest.raises(ValueError, match="^means must be finite$"):
        GaussianState(modes=(LIGHT_C,), means=[math.nan, 0.0], cov=np.full((2, 2), math.nan))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_symplectic_transform_rejects_non_finite_matrices(bad):
    start = _hamiltonian_channel(np.array([[0.0, 0.0, 0.0, 1.3],
                                           [0.0, 0.0, 0.0, 0.0],
                                           [0.0, 0.0, 0.0, 0.0],
                                           [1.3, 0.0, 0.0, 0.0]])).x
    for index in np.ndindex(4, 4):
        with pytest.raises(ValueError, match="^symplectic matrix must be finite$"):
            GaussianChannel.symplectic(_spoiled(start, index, bad))
    with pytest.raises(ValueError, match="^symplectic matrix must be finite$"):
        GaussianChannel.symplectic(np.full((2, 2), bad))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_channel_rejects_non_finite_x_and_y(bad):
    for index in np.ndindex(4, 4):
        with pytest.raises(ValueError, match="^channel X must be finite$"):
            GaussianChannel(_spoiled(np.eye(4), index, bad), np.zeros((4, 4)))
        with pytest.raises(ValueError, match="^channel Y must be finite$"):
            GaussianChannel(np.eye(4), _spoiled(np.zeros((4, 4)), index, bad))


def test_state_is_read_only():
    state = memory_vacuum()
    with pytest.raises(ValueError):
        state.means[0] = 1.0
    with pytest.raises(ValueError):
        state.cov[0, 0] = 2.0


def test_vacuum_and_lookup():
    state = memory_vacuum()
    assert state.modes == MEMORY_MODES_PLUS_MINUS
    assert np.array_equal(state.means, np.zeros(8))
    assert np.array_equal(state.cov, VACUUM_VARIANCE * np.eye(8))
    assert state.mode_index(LIGHT_S) == 1
    assert vacuum_state(MEMORY_MODES_CLASS).modes == MEMORY_MODES_CLASS
    with pytest.raises(ValueError, match="unknown mode"):
        state.mode_index("light_d")


def test_displace_touches_only_means():
    state = displace(memory_vacuum(), ATOM_PLUS, 1.0, -2.0)
    assert state.means.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0, -2.0, 0.0, 0.0]
    assert np.array_equal(state.cov, 0.5 * np.eye(8))


def test_hamiltonian_rotation_generator():
    # H = (omega/2)(X^2 + P^2) evolved for t is the quadrature rotation
    omega_t = 0.8
    s = _hamiltonian_channel(np.eye(2), t=omega_t)
    assert np.allclose(s.x, rotation_2x2(omega_t), atol=1e-12)


def test_channel_apply_congruence():
    state = displace(memory_vacuum(), LIGHT_C, 2.0, 0.0)
    h = np.zeros((8, 8))
    h[0, 5] = h[5, 0] = 0.6   # couple X of light_c to P of atom_plus
    s = _hamiltonian_channel(h)
    out = s.apply(state)
    assert np.allclose(out.means, s.x @ state.means, atol=1e-15)
    assert np.allclose(out.cov, s.x @ state.cov @ s.x.T, atol=1e-15)
    with pytest.raises(ValueError, match="modes"):
        s.apply(vacuum_state((LIGHT_C,)))


def _rotate(state, mode, theta):
    """Turn one mode of ``state`` by theta through a symplectic channel."""
    s = np.eye(2 * len(state.modes))
    j = state.mode_index(mode)
    s[2 * j:2 * j + 2, 2 * j:2 * j + 2] = rotation_2x2(theta)
    return GaussianChannel.symplectic(s).apply(state)


def test_one_mode_rotation():
    state = displace(memory_vacuum(), LIGHT_C, 1.0, 2.0)
    state = displace(state, LIGHT_S, -3.0, 4.0)
    out = _rotate(state, LIGHT_C, math.pi / 2.0)
    # quarter turn: the P mean moves into X, the X mean into -P
    assert out.means[0:2] == pytest.approx([2.0, -1.0], abs=1e-12)
    assert out.means[2] == -3.0
    full = _rotate(state, LIGHT_C, 2.0 * math.pi)
    assert np.allclose(full.means, state.means, atol=1e-12)
    assert np.allclose(full.cov, state.cov, atol=1e-12)


def test_attenuation_channel():
    state = displace(memory_vacuum(), LIGHT_C, 2.0, -1.0)

    def loss(transmission):
        return attenuation_channel(state.modes, (LIGHT_C,), transmission).apply(state)

    out = loss(0.64)
    assert out.means[0:2] == pytest.approx([1.6, -0.8], rel=1e-12)
    assert out.cov[0, 0] == pytest.approx(0.5, rel=1e-12)
    assert np.array_equal(loss(1.0).means, state.means)
    dark = loss(0.0)
    assert dark.means[0] == 0.0
    assert dark.cov[1, 1] == VACUUM_VARIANCE
    with pytest.raises(ValueError):
        loss(1.5)
    with pytest.raises(ValueError, match="unknown mode"):
        attenuation_channel(state.modes, ("light_x",), 0.5)


def _attenuation_by_items(modes, targets, transmission):
    """(X, Y) of an attenuation, written one diagonal item at a time."""
    x = np.eye(2 * len(modes))
    y = np.zeros_like(x)
    scale, refill = math.sqrt(transmission), (1.0 - transmission) * VACUUM_VARIANCE
    for label in targets:
        j = modes.index(label)
        x[2 * j, 2 * j] = x[2 * j + 1, 2 * j + 1] = scale
        y[2 * j, 2 * j] = y[2 * j + 1, 2 * j + 1] = refill
    return x, y


@pytest.mark.parametrize("transmission", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("targets", [(), (LIGHT_C,), (ATOM_MINUS, LIGHT_S),
                                     (ATOM_PLUS, ATOM_PLUS), MEMORY_MODES_PLUS_MINUS])
def test_attenuation_channel_matches_item_writes_bit_for_bit(transmission, targets):
    channel = attenuation_channel(MEMORY_MODES_PLUS_MINUS, targets, transmission)
    for got, want in zip((channel.x, channel.y),
                         _attenuation_by_items(MEMORY_MODES_PLUS_MINUS, targets, transmission)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert not got.flags.writeable


def test_attenuation_channel_unknown_label_and_range_errors():
    with pytest.raises(ValueError, match=r"unknown mode 'light_x'; register has \("):
        attenuation_channel(MEMORY_MODES_PLUS_MINUS, (LIGHT_C, "light_x"), 0.5)
    # the transmission is checked before any label
    with pytest.raises(ValueError, match=r"transmission must lie in \[0, 1\], got 1.5"):
        attenuation_channel(MEMORY_MODES_PLUS_MINUS, ("light_x",), 1.5)


def test_attenuation_channel_rejects_an_unknown_label_on_every_call():
    # the cached diagonal indices never cache a failed lookup
    for _ in range(2):
        with pytest.raises(ValueError, match=r"unknown mode 'light_x'"):
            attenuation_channel(MEMORY_MODES_PLUS_MINUS, ("light_x",), 0.5)
    # the same targets in a different register give that register's indices
    plus_minus = attenuation_channel(MEMORY_MODES_PLUS_MINUS, (LIGHT_S,), 0.0)
    two_mode = attenuation_channel((LIGHT_S, LIGHT_C), (LIGHT_S,), 0.0)
    assert np.array_equal(np.diag(plus_minus.x), [1, 1, 0, 0, 1, 1, 1, 1])
    assert np.array_equal(np.diag(two_mode.x), [0, 0, 1, 1])


@pytest.mark.parametrize("variance", [-5.0, -1e-300, math.nan, math.inf])
def test_homodyne_sample_rejects_a_negative_or_non_finite_variance(variance):
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match=r"^homodyne variance must be finite and "
                                         r"non-negative, got (-|nan|inf)"):
        homodyne_outcome(0.3, variance, rng)
    # without a generator nothing is drawn and no variance is read
    assert homodyne_outcome(0.3, variance, None) == 0.3


def test_homodyne_sample_of_zero_variance_is_the_mean():
    for zero in (0.0, -0.0):
        assert homodyne_outcome(0.3, zero, np.random.default_rng(1)) == 0.3


def test_channel_copies_caller_arrays_and_is_read_only():
    x, y = np.eye(8), np.zeros((8, 8))
    channel, noiseless = GaussianChannel(x, y), GaussianChannel.symplectic(x)
    x[0, 0], y[1, 1] = 5.0, 3.0
    assert np.array_equal(channel.x, np.eye(8)) and not channel.y.any()
    assert np.array_equal(noiseless.x, np.eye(8)) and not noiseless.y.any()
    lossy = attenuation_channel(MEMORY_MODES_PLUS_MINUS, (LIGHT_C,), 0.5)
    for built in (channel, noiseless, lossy, channel.then(lossy), lossy.then(channel)):
        for array in (built.x, built.y):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0


def test_shared_forms_and_vacua_are_read_only():
    omega = symplectic_form(4)
    assert symplectic_form(4) is omega
    with pytest.raises(ValueError):
        omega[0, 1] = 2.0
    vacuum = memory_vacuum()
    assert memory_vacuum() is vacuum
    for state in (vacuum, vacuum_state(MEMORY_MODES_CLASS)):
        with pytest.raises(ValueError):
            state.means[0] = 1.0
        with pytest.raises(ValueError):
            state.cov[0, 0] = 2.0
    assert np.array_equal(memory_vacuum().cov, VACUUM_VARIANCE * np.eye(8))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_random_hamiltonian_gives_symplectic(seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(8, 8))
    h = 0.2 * (h + h.T)
    s = _hamiltonian_channel(h)
    omega = symplectic_form(4)
    assert np.abs(s.x @ omega @ s.x.T - omega).max() < 1e-10
    state = s.apply(memory_vacuum())
    assert np.isfinite(state.cov).all()


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-10.0, max_value=10.0),
       st.floats(min_value=-10.0, max_value=10.0))
def test_rotation_preserves_vacuum(theta_1, theta_2):
    state = _rotate(_rotate(memory_vacuum(), LIGHT_C, theta_1), LIGHT_S, theta_2)
    assert np.allclose(state.cov, 0.5 * np.eye(8), atol=1e-12)
