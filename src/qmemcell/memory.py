"""Pass interactions and the write/read protocol of the memory cell.

The light pulse carries two sideband modes (cosine and sine components
at the level-splitting frequency); the atoms carry two collective
oscillators built from the two pumped edge classes.  A pass through the
cell applies a bilinear interaction between them; measurement of the
transmitted light plus feedback onto the atoms completes a write, a
second pass with the roles of the quadratures exchanged completes a
read.

All protocol maps act on four-mode :class:`~qmemcell.gaussian.GaussianState`
registers in the (light_c, light_s, atom_plus, atom_minus) layout.  A write
and a read are each one read-only direction record built at import from the
channel constructors: a fixed list of stages, each an affine
:class:`~qmemcell.gaussian.GaussianChannel` (X, Y) plus, for the feedback
stages, the homodyne measurement drawn just before it, held as X and Y
stacks with the positions of the few entries that depend on the run (the
window, the pass strength, the two feedback gains, collisions and
scattering), and the decode of the result.  A run copies the stacks and
fills those entries.  One fold over the stages gives the final state, the
outcomes and the composed channel, whose (X, Y) give the transfer map and
the added noise.  The fidelity scores each channel's block of the map and
of the output covariance as one 2x2 quadratic form, evaluated on a fixed
ring of coherent inputs through the ring's quadratic monomials.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .decoherence import DecoherenceBudget, boundary_transmission
from .gaussian import (ATOM_MINUS, ATOM_PLUS, LIGHT_C, LIGHT_S, MEMORY_MODES_PLUS_MINUS,
                       POLICY_MEAN, POLICY_SAMPLE, QUAD_P, QUAD_X, GaussianChannel,
                       GaussianState, _attenuation_entries, _check_symplectic, _identity,
                       _read_only, _target_diagonal, attenuation_channel, homodyne_outcome,
                       memory_vacuum, rotation_2x2, symplectic_form)
from .scenario import InputError

#: pass-interaction variants
VARIANT_TWO_CLASS = "two_class"
VARIANT_CLASS_1 = "class1"
VARIANT_CLASS_2 = "class2"
VARIANT_BOTH_CLASSES = "both_classes"


FIDELITY_AMPLITUDE = 20.0
FIDELITY_PHASES = 256

# quadrature index blocks of the four-mode layout
_LIGHT_SLICE = slice(0, 4)
_ATOM_SLICE = slice(4, 8)
_LIGHT_MODES = (LIGHT_C, LIGHT_S)
_ATOMIC_MODES = (ATOM_PLUS, ATOM_MINUS)


# ---------------------------------------------------------------------------
# pass interactions


# quadratures: 0 X_c, 1 P_c, 2 X_s, 3 P_s, 4/5 first atomic mode,
# 6/7 second atomic mode; each coupling is (quadrature, quadrature, sign)
_PASS_COUPLINGS = {
    VARIANT_TWO_CLASS: ((1, 4, 1.0),    # P_c with X_plus
                        (2, 7, 1.0)),   # X_s with P_minus
    VARIANT_CLASS_1: ((1, 4, 1.0),      # P_c with X_1
                      (2, 5, 1.0)),     # X_s with P_1
    VARIANT_CLASS_2: ((1, 6, 1.0),      # P_c with X_2
                      (2, 7, -1.0)),    # X_s with P_2, opposite orientation
    VARIANT_BOTH_CLASSES: ((1, 4, 1.0), (2, 5, 1.0), (1, 6, 1.0), (2, 7, -1.0)),
}


def _unit_generator(couplings: tuple) -> np.ndarray:
    """Omega H of a pass at unit strength; read-only."""
    h = np.zeros((8, 8))
    for qa, qb, sign in couplings:
        h[qa, qb] = h[qb, qa] = sign
    return _read_only(symplectic_form(4) @ h)


#: unit-strength generator of each pass variant, built once
_PASS_GENERATORS = {variant: _unit_generator(couplings)
                    for variant, couplings in _PASS_COUPLINGS.items()}
_EYE8 = _identity(8)


def _check_strength(k_eff: float) -> None:
    if not math.isfinite(k_eff):
        raise InputError(f"pass strength must be finite, got k_eff={k_eff!r}", "k_eff")


def qnd_transform(k_eff: float, variant: str = VARIANT_TWO_CLASS) -> GaussianChannel:
    """Noiseless channel of one pass through the cell.

    two_class    both edge classes driven, written in the (+, -)
                 collective basis: X_c picks up k X_plus while P_plus
                 picks up -k P_c, and X_s / P_minus couple the same way
                 with the roles of X and P exchanged.
    class1/2     a single driven class, written in the class basis; the
                 generator is then nilpotent of index 3 and the pass
                 mixes the two sidebands at second order in k.
    both_classes both classes in the class basis; equals the two_class
                 map at sqrt(2) larger k conjugated by the basis change.
                 Its generator, like two_class's, squares to zero.

    The map is exp(k G) = I + k G (+ (k G)^2 / 2 for class1/2) of the
    variant's unit generator G: the terminating series of exp(k G) for a
    nilpotent G.
    """
    try:
        unit = _PASS_GENERATORS[variant]
    except (KeyError, TypeError):
        raise ValueError(f"unknown interaction variant {variant!r}") from None
    _check_strength(k_eff)
    gen = k_eff * unit
    s = _EYE8 + gen
    if variant in (VARIANT_CLASS_1, VARIANT_CLASS_2):
        s = s + gen @ gen / 2.0
        if not np.isfinite(s).all():
            raise ArithmeticError(f"pass map overflows at k_eff={k_eff!r}")
    return GaussianChannel.symplectic(s)


def atomic_basis_matrix() -> GaussianChannel:
    """50:50 combination of the two atomic modes; its own inverse."""
    s = np.eye(8)
    r = 1.0 / math.sqrt(2.0)
    for q in (0, 1):
        s[4 + q, 4 + q] = r
        s[4 + q, 6 + q] = r
        s[6 + q, 4 + q] = r
        s[6 + q, 6 + q] = -r
    return GaussianChannel.symplectic(s)


def differential_rotation(phi_1: float, phi_2: float) -> GaussianChannel:
    """Atomic rotation by phi_1 (first class) and phi_2 (second class).

    The two classes precess in opposite senses, so in the class basis
    this is R(phi_1) on one mode and R(-phi_2) on the other; the
    returned map is its (+, -) basis form.  It is block diagonal in the
    collective modes exactly when phi_2 = -phi_1 (mod 2 pi).  At equal
    angles a quarter turn swaps the collective modes entirely.
    """
    s_class = np.eye(8)
    s_class[4:6, 4:6] = rotation_2x2(phi_1)
    s_class[6:8, 6:8] = rotation_2x2(-phi_2)
    basis = atomic_basis_matrix().x
    return GaussianChannel.symplectic(basis @ s_class @ basis)


# ---------------------------------------------------------------------------
# write / read protocol


# a dataclass: the benchmark self-tests call dataclasses.replace on it
@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of one protocol run.

    state         final four-mode state
    transfer_map  4x4 matrix from input means to stored (write) or
                  retrieved (read) means
    added_noise   per-quadrature excess variance of the output over the
                  transmitted vacuum level
    mean_fidelity coherent-state ensemble fidelity of the map
    measurements  homodyne outcomes fed back during the run
    """

    state: GaussianState
    transfer_map: np.ndarray
    added_noise: np.ndarray
    mean_fidelity: float
    measurements: dict[str, float]


def _require_memory_state(state: GaussianState):
    if state.modes != MEMORY_MODES_PLUS_MINUS:
        raise InputError(
            "protocol states must use the (light_c, light_s, atom_plus, "
            f"atom_minus) layout in the collective basis, got {state.modes}", "state")


def _quad(mode: str, quadrature: str) -> int:
    """Index of one quadrature in the four-mode protocol register."""
    return 2 * MEMORY_MODES_PLUS_MINUS.index(mode) + (quadrature == QUAD_P)


# stages that depend on no input, built once at import
# retrieval uses a fresh pulse; whatever light the register held is gone
_FRESH_PULSE = attenuation_channel(MEMORY_MODES_PLUS_MINUS, _LIGHT_MODES, 0.0)
# the read's quarter turn of the collective modes
_QUARTER_TURN = differential_rotation(math.pi / 2.0, -math.pi / 2.0)


def _sideband_turn(theta: float) -> GaussianChannel:
    """Rotate both light sidebands by theta; the atoms are untouched."""
    s = np.eye(8)
    s[0:2, 0:2] = s[2:4, 2:4] = rotation_2x2(theta)
    return GaussianChannel.symplectic(s)


_ALIGN = _sideband_turn(-math.pi / 2.0)


# ---------------------------------------------------------------------------
# the two directions, a write and a read
#
# Each direction is a fixed list of stages, held as one read-only record: the
# stage names, an (n, 8, 8) stack of X and one of Y, the feedback table, the
# flat positions of the few entries a run sets, and the decode of the result.
# A run copies both stacks and fills those entries from its values, one put
# per stack.  The entries a run sets are:
#   - the window crossing on the light modes, at the transmission (1 - A);
#   - the pass, I + k G, whose generator G has entries +-1: they hold +-k;
#   - the two feedback gains, g and -g, plus 0.0 (feed then reset turns -0.0 to +0.0);
#   - collisions and scattering on the atomic modes.  A colliding atom
#     leaves its class, shortening the collective means by eta and
#     admixing vacuum-level fluctuation of the fresh spins: an attenuation
#     of transmission (1 - eta)^2.  Each scattered photon randomizes one
#     atom's sublevel; for n_phot << 1 per atom the collective effect is
#     the same attenuation with n_phot in place of eta.

#: slots of a run's values: an X entry takes the amplitude of the window,
#: collision or scattering transmission, k, -k, the gain or minus the gain;
#: a Y entry takes the vacuum refill of one of the three transmissions
_WINDOW, _COLLISIONS, _SCATTERING, _K, _MINUS_K, _GAIN, _MINUS_GAIN = range(7)

#: a direction: stage names, X and Y stacks, per stage the feedback (q_meas,
#: q_tgt, gain sign) or None, the index of the pass, the flat positions a run
#: fills (x_at, y_at) with the slot of each (x_from, y_from), and the decode:
#: the transfer map's input and output blocks and the 2x1x1 stack of the
#: ideal decode's signs of channels c and s (stored block = sign * input
#: block for a write, output light block = sign * stored block for a read)
_Direction = namedtuple("_Direction", ("names", "x", "y", "feedback", "pass_index", "x_at",
                                       "x_from", "y_at", "y_from", "inputs", "outputs",
                                       "signs"))


def _loss(name: str, targets: tuple, slot: int) -> tuple:
    """Stage declaration of an attenuation of ``targets`` at a run's transmission."""
    fills = [(int(p), slot) for p in _target_diagonal(MEMORY_MODES_PLUS_MINUS, targets)]
    return name, attenuation_channel(MEMORY_MODES_PLUS_MINUS, targets, 1.0), None, fills, fills


def _pass() -> tuple:
    """Stage declaration of the two-class pass at a run's k_eff."""
    unit = _PASS_GENERATORS[VARIANT_TWO_CLASS]
    fills = [(int(p), _K if unit.flat[p] > 0.0 else _MINUS_K) for p in np.flatnonzero(unit)]
    return "pass", qnd_transform(1.0, VARIANT_TWO_CLASS), None, fills, ()


def _feedback(name: str, measured_mode: str, measured_quad: str,
              target_mode: str, target_quad: str, sign: float) -> tuple:
    """Stage declaration of a feedback at ``sign`` times a run's gain g: it
    homodynes one quadrature, feeds the outcome onto another mode, and
    replaces the consumed measured mode by fresh vacuum.

    The channel is the unconditional one: the feedforward r -> r + g
    * r_measured keeps the outcome spread inside the driven quadrature,
    then the measured mode is reset (the pulse, or the spent collective
    coherence, is gone).  The fold adds g * (outcome - mean) to the
    target, so the means follow the drawn outcome.
    """
    q_meas, q_tgt = _quad(measured_mode, measured_quad), _quad(target_mode, target_quad)
    # the feedforward composed with the reset: X is the feedforward with the
    # measured mode's rows zeroed, Y is the reset's vacuum refill
    x = _EYE8.copy()
    x[q_tgt, q_meas] = sign
    first = q_meas - q_meas % 2
    x[first:first + 2] = 0.0
    reset = attenuation_channel(MEMORY_MODES_PLUS_MINUS, (measured_mode,), 0.0)
    fills = [(8 * q_tgt + q_meas, _GAIN if sign > 0.0 else _MINUS_GAIN)]
    return name, GaussianChannel._wrap(x, reset.y), (q_meas, q_tgt, sign), fills, ()


def _fixed(name: str, channel: GaussianChannel) -> tuple:
    return name, channel, None, (), ()


def _direction(stages: tuple, inputs: slice, outputs: slice, signs: tuple) -> _Direction:
    """The record of stage declarations (name, channel, feedback, X fills,
    Y fills), a fill being (flat position in its stage, slot), and of the
    decode: input and output blocks and the signs of channels c and s."""
    names, channels, feedback, x_fills, y_fills = zip(*stages)

    def flat(per_stage):
        at = [64 * i + p for i, fills in enumerate(per_stage) for p, _ in fills]
        slots = [slot for fills in per_stage for _, slot in fills]
        return (_read_only(np.array(at, dtype=np.intp)),
                _read_only(np.array(slots, dtype=np.intp)))

    return _Direction(names, _read_only(np.array([ch.x for ch in channels])),
                      _read_only(np.array([ch.y for ch in channels])), feedback,
                      names.index("pass"), *flat(x_fills), *flat(y_fills), inputs, outputs,
                      _read_only(np.array(signs).reshape(2, 1, 1)))


# one pass between the cell's two windows (the same window on the way in and
# out), homodyne feedback of X_c and P_s onto X_plus and P_minus, then
# collisions and scattering
_WRITE = _direction((
    _loss("entry_loss", _LIGHT_MODES, _WINDOW),
    _pass(),
    _loss("exit_loss", _LIGHT_MODES, _WINDOW),
    _feedback("m_c", LIGHT_C, QUAD_X, ATOM_PLUS, QUAD_X, 1.0),
    _feedback("m_s", LIGHT_S, QUAD_P, ATOM_MINUS, QUAD_P, -1.0),
    _loss("collisions", _ATOMIC_MODES, _COLLISIONS),
    _loss("scattering", _ATOMIC_MODES, _SCATTERING),
), _LIGHT_SLICE, _ATOM_SLICE, (-1.0, 1.0))
# collisions and scattering of the stored state, a fresh pulse, a quarter
# turn of the collective modes, a second pass, homodyne feedback of P_plus
# and X_minus onto the light, one window crossing on the way out and a
# final quarter turn of both sidebands
_READ = _direction((
    _loss("collisions", _ATOMIC_MODES, _COLLISIONS),
    _loss("scattering", _ATOMIC_MODES, _SCATTERING),
    _fixed("fresh_pulse", _FRESH_PULSE),
    _fixed("quarter_turn", _QUARTER_TURN),
    _pass(),
    _feedback("m_plus", ATOM_PLUS, QUAD_P, LIGHT_C, QUAD_P, -1.0),
    _feedback("m_minus", ATOM_MINUS, QUAD_X, LIGHT_S, QUAD_X, 1.0),
    _loss("exit_loss", _LIGHT_MODES, _WINDOW),
    _fixed("align", _ALIGN),
), _ATOM_SLICE, _LIGHT_SLICE, (1.0, -1.0))


def _fill(direction: _Direction, k_eff: float, gain: float,
          budget: DecoherenceBudget) -> tuple[np.ndarray, np.ndarray]:
    """One run's read-only (X, Y) stacks: copies of the direction's with the
    run's entries put in, the pass checked for symplecticity as a built one is."""
    _check_strength(k_eff)
    (x_window, y_window), (x_coll, y_coll), (x_scat, y_scat) = (
        _attenuation_entries(t) for t in (boundary_transmission(budget.boundary_loss, 1),
                                          (1.0 - budget.eta) ** 2, (1.0 - budget.n_phot) ** 2))
    x, y = direction.x.copy(), direction.y.copy()
    x.put(direction.x_at, np.array((x_window, x_coll, x_scat, k_eff + 0.0, -k_eff + 0.0,
                                    gain + 0.0, -gain + 0.0))[direction.x_from])
    y.put(direction.y_at, np.array((y_window, y_coll, y_scat))[direction.y_from])
    _check_symplectic(x[direction.pass_index])
    return _read_only(x), _read_only(y)


def _stage_channels(direction: _Direction, x: np.ndarray, y: np.ndarray, gain: float) -> list:
    """Each stage of a filled direction as (name, channel, feedback), the
    channel a read-only view into the stacks and the feedback (q_meas,
    q_tgt, signed gain) or None: the stage list as the fold walks it."""
    return [(name, GaussianChannel._wrap(stage_x, stage_y),
             None if fb is None else (fb[0], fb[1], fb[2] * gain))
            for name, stage_x, stage_y, fb in zip(direction.names, x, y, direction.feedback)]


def _run_stages(direction: _Direction, x: np.ndarray, y: np.ndarray, gain: float,
                means: np.ndarray, cov: np.ndarray, rng: np.random.Generator | None
                ) -> tuple[np.ndarray, np.ndarray, dict[str, float], GaussianChannel]:
    """One fold over the filled stacks: raw (means, covariance) after them,
    the homodyne outcomes, each drawn just before its feedback stage, and the
    composed channel, chained from the first stage's (X, Y) as ``then``
    does.  The covariance and the composed Y obey the same V -> X V X^T + Y,
    so one batched product per stage advances both, bit for bit."""
    outcomes, xc = {}, None
    for name, stage_x, stage_y, feedback in zip(direction.names, x, y, direction.feedback):
        if feedback is not None:
            q_meas, q_tgt, sign = feedback
            mean = means[q_meas]
            outcomes[name] = homodyne_outcome(mean, cov[q_meas, q_meas], rng)
        means = stage_x @ means
        if xc is None:
            xc, stack = stage_x, np.array((stage_x @ cov @ stage_x.T + stage_y, stage_y))
        else:
            xc, stack = stage_x @ xc, stage_x @ stack @ stage_x.T + stage_y
        cov = stack[0]
        if feedback is not None:
            means[q_tgt] += sign * gain * (outcomes[name] - mean)
    return means, cov, outcomes, GaussianChannel._wrap(xc, stack[1])


def _phase_ring(amplitude: float, n_phases: int) -> np.ndarray:
    """2 x n input quadratures of fixed amplitude, uniformly spread phase."""
    phases = 2.0 * math.pi * np.arange(n_phases) / n_phases
    return amplitude * np.stack([np.cos(phases), np.sin(phases)])


def _ring_terms(ring: np.ndarray) -> np.ndarray:
    """4 x n quadratic monomials (x^2, xp, px, p^2) of the 2 x n ring."""
    x, p = ring
    return np.stack((x * x, x * p, p * x, p * p))


_RING = _read_only(_phase_ring(FIDELITY_AMPLITUDE, FIDELITY_PHASES))
#: the monomials of ``_RING``, built once: a channel's exponent at every
#: phase is its 2x2 quadratic form, flattened, times these
_RING_TERMS = _read_only(_ring_terms(_RING))


def _ring_fidelity(transfer_map: np.ndarray, output_cov: np.ndarray,
                   signs: np.ndarray, terms: np.ndarray) -> float:
    """Coherent-state ensemble fidelity of a stored or retrieved map.

    The n inputs r of a ring (fixed quadrature amplitude, uniformly
    spread phase), given as its 4 x n quadratic monomials ``terms``
    (``_ring_terms``), are pushed through the 4x4 mean transfer map; the
    matching output block is decoded with the ideal decode of the
    protocol, one sign s per channel given as the 2x1x1 stack ``signs``,
    and compared to the input against the output covariance, which a
    sign leaves as it is.  Per channel, with Sigma = V + I/2 and
    M = s T - I, the exponent at input r is r^T Q r with
    Q = M^T Sigma^-1 M: the 2x2 algebra runs on Python floats, and one
    product of the two flattened forms with the ring's monomials gives
    every exponent of both channels, which are averaged.  An output
    covariance that is not positive definite in double precision (noise
    so large that its determinant cancels) raises ValueError, channel c
    checked first.
    """
    v, t = output_cov.tolist(), transfer_map.tolist()
    forms, dets = [], []
    for i, sign in zip((0, 2), signs.ravel().tolist()):
        (s00, s01), (s10, s11) = v[i][i:i + 2], v[i + 1][i:i + 2]
        s00, s11 = s00 + 0.5, s11 + 0.5
        det = s00 * s11 - s01 * s10
        if not (s00 > 0.0 and 0.0 < det < math.inf):
            raise ValueError(f"output covariance is not positive definite: det {det!r}")
        # decoded-minus-ideal response M, then W = Sigma^-1 M = adj(Sigma) M / det
        (m00, m01), (m10, m11) = t[i][i:i + 2], t[i + 1][i:i + 2]
        m00, m01, m10, m11 = sign * m00 - 1.0, sign * m01, sign * m10, sign * m11 - 1.0
        w00, w01 = (s11 * m00 - s01 * m10) / det, (s11 * m01 - s01 * m11) / det
        w10, w11 = (s00 * m10 - s10 * m00) / det, (s00 * m11 - s10 * m01) / det
        forms.append((m00 * w00 + m10 * w10, m00 * w01 + m10 * w11,
                      m01 * w00 + m11 * w10, m01 * w01 + m11 * w11))
        dets.append(det)
    exponent = np.array(forms) @ terms
    total = 0.0
    for det, weight in zip(dets, np.exp(-0.5 * exponent).sum(axis=1).tolist()):
        total += 1.0 / math.sqrt(det) * weight
    return total / (2.0 * terms.shape[1])


def _run(direction: _Direction, k_eff: float, state: GaussianState | None,
         gain: float | None, budget: DecoherenceBudget | None, policy: str,
         seed: int | None) -> ProtocolResult:
    """One protocol run: the final state and the composed channel from one
    fold over the direction's filled stages, and the transfer map, added
    noise and fidelity.

    The composed channel (X, Y) is exact: the mean map has zero offset,
    so the transfer map is the block X[out, in], and a vacuum input
    leaves the covariance X X^T / 2 + Y.
    """
    if k_eff == 0.0:
        raise InputError("k_eff must be nonzero", "k_eff")
    if state is None:
        state = memory_vacuum()
    _require_memory_state(state)
    if gain is None:
        gain = -1.0 / k_eff
    if budget is None:
        budget = DecoherenceBudget()
    if seed is not None and (not isinstance(seed, (int, np.integer)) or seed < 0):
        raise InputError(f"seed must be a non-negative integer, got {seed!r}", "seed")
    if policy not in (POLICY_MEAN, POLICY_SAMPLE):
        raise InputError(f"unknown outcome policy {policy!r}", "policy")
    if policy == POLICY_SAMPLE and seed is None:
        raise InputError("policy 'sample' requires a seed", "policy", "seed")
    rng = np.random.default_rng(seed) if policy == POLICY_SAMPLE else None
    # an extreme gain or k_eff overflows: a homodyne draw, the map, the
    # fidelity or the final state refuses it, and the run reports it once
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = _fill(direction, k_eff, gain, budget)
        try:
            means, cov, outcomes, channel = _run_stages(direction, x, y, gain, state.means,
                                                        state.cov, rng)
            vacuum_out = 0.5 * channel.x @ channel.x.T + channel.y
            if not all(np.isfinite(a).all() for a in (vacuum_out, means, cov)):
                raise ValueError("the protocol map is not finite")
            transfer = channel.x[direction.outputs, direction.inputs]
            out_cov = vacuum_out[direction.outputs, direction.outputs]
            added = np.diag(out_cov) - 0.5 * (transfer**2).sum(axis=1)
            fidelity = _ring_fidelity(transfer, out_cov, direction.signs, _RING_TERMS)
            final = GaussianState(modes=state.modes, means=means, cov=cov)
        except ValueError as exc:
            raise InputError(f"the protocol fails at gain={gain!r}, k_eff={k_eff!r}: {exc}",
                             "gain", "k_eff") from None
    return ProtocolResult(state=final, transfer_map=transfer, added_noise=added,
                          mean_fidelity=fidelity, measurements=outcomes)


def run_write(k_eff: float, state: GaussianState | None = None,
              gain: float | None = None,
              budget: DecoherenceBudget | None = None,
              policy: str = POLICY_MEAN, seed: int | None = None) -> ProtocolResult:
    """Store the light sidebands of ``state`` in the atomic modes.

    One pass, homodyne detection of the transmitted X_c and P_s, and
    feedback of the outcomes onto X_plus and P_minus.  The default gain
    -1/k_eff makes the stored means reproduce the input exactly; at
    k_eff = 1 each channel then adds half a vacuum unit to one stored
    quadrature and none to the other.
    """
    return _run(_WRITE, k_eff, state, gain, budget, policy, seed)


def run_read(k_eff: float, state: GaussianState | None = None,
             gain: float | None = None,
             budget: DecoherenceBudget | None = None,
             policy: str = POLICY_MEAN, seed: int | None = None) -> ProtocolResult:
    """Map the atomic modes of ``state`` back onto a fresh light pulse.

    The collective modes are rotated a quarter turn, a second pass
    imprints them on the new pulse, homodyne detection of the atomic
    P_plus and X_minus with feedback onto the light closes the loop, and
    a final quarter turn of both sidebands aligns the output so that
    reading a written state returns the input with an overall sign flip.
    """
    return _run(_READ, k_eff, state, gain, budget, policy, seed)
