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
or a read is a fixed list of stages, each an affine
:class:`~qmemcell.gaussian.GaussianChannel` (X, Y) plus, for the feedback
stages, the homodyne measurement drawn just before it.  Each direction's
stages are one layout built at import from the channel constructors: X and
Y stacks and the positions of the few entries that depend on the run (the
window, the pass strength, the two feedback gains, collisions and
scattering).  A run copies the stacks and fills those entries.  One fold
over the stages gives the final state, the outcomes and the composed
channel, whose (X, Y) give the transfer map and the added noise.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .decoherence import DecoherenceBudget, boundary_transmission
from .gaussian import (ATOM_MINUS, ATOM_PLUS, LIGHT_C, LIGHT_S, MEMORY_MODES_PLUS_MINUS,
                       POLICY_MEAN, QUAD_P, QUAD_X, GaussianChannel, GaussianState,
                       _attenuation_entries, _check_symplectic, _identity, _read_only,
                       _target_diagonal, attenuation_channel, homodyne_outcome,
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
        raise ValueError(f"pass strength must be finite, got k_eff={k_eff!r}")


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
        raise ValueError(
            "protocol states must use the (light_c, light_s, atom_plus, "
            f"atom_minus) layout in the collective basis, got {state.modes}")


def _quad(mode: str, quadrature: str) -> int:
    """Index of one quadrature in the four-mode protocol register."""
    return 2 * MEMORY_MODES_PLUS_MINUS.index(mode) + (quadrature == QUAD_P)


# stages that depend on no input, built once at import
#: fresh vacuum in place of one measured mode, for each mode
_RESETS = {mode: attenuation_channel(MEMORY_MODES_PLUS_MINUS, (mode,), 0.0)
           for mode in MEMORY_MODES_PLUS_MINUS}
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


def _feedback(name: str, measured_mode: str, measured_quad: str,
              target_mode: str, target_quad: str, gain: float) -> tuple:
    """Stage that homodynes one quadrature, feeds the outcome onto another
    mode, and replaces the consumed measured mode by fresh vacuum.

    The channel is the unconditional one: the feedforward r -> r + gain
    * r_measured keeps the outcome spread inside the driven quadrature,
    then the measured mode is reset (the pulse, or the spent collective
    coherence, is gone).  The stage loop adds gain * (outcome - mean) to
    the target, so the means follow the drawn outcome.
    """
    q_meas, q_tgt = _quad(measured_mode, measured_quad), _quad(target_mode, target_quad)
    # the feedforward composed with the reset: X is the feedforward with the
    # measured mode's rows zeroed, Y is the reset's vacuum refill; adding
    # 0.0 turns a gain of -0.0 into the +0.0 that the matrix product gives
    x = _EYE8.copy()
    x[q_tgt, q_meas] = gain + 0.0
    first = q_meas - q_meas % 2
    x[first:first + 2] = 0.0
    return name, GaussianChannel._wrap(x, _RESETS[measured_mode].y), (q_meas, q_tgt, gain)


# ---------------------------------------------------------------------------
# the stage layouts of a write and a read
#
# Each direction is a fixed list of stages, held as one template: the stage
# names, an (n, 8, 8) stack of X and one of Y, the feedback table and the
# flat positions of the few entries a run sets.  A run copies both stacks
# and fills those entries from its values, one put per stack.  The entries
# a run sets are:
#   - the window crossing on the light modes, at the transmission (1 - A);
#   - the pass, I + k G, whose generator G has entries +-1: they hold +-k;
#   - the two feedback gains, g and -g (plus 0.0, as _feedback writes them);
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

#: a direction's read-only template: stage names, X and Y stacks, per stage
#: the feedback (q_meas, q_tgt, gain sign) or None, the index of the pass, and
#: the flat positions a run fills (x_at, y_at) with the slot of each (x_from, y_from)
_StageLayout = namedtuple("_StageLayout", ("names", "x", "y", "feedback", "pass_index",
                                           "x_at", "x_from", "y_at", "y_from"))
#: one run's filled layout: the template's names and feedback table, read-only
#: X and Y stacks, and the gain that the feedback signs multiply
_Stages = namedtuple("_Stages", ("names", "x", "y", "feedback", "gain"))


def _loss(name: str, targets: tuple, slot: int) -> tuple:
    """Stage declaration of an attenuation of ``targets`` at a run's transmission."""
    fills = [(int(p), slot) for p in _target_diagonal(MEMORY_MODES_PLUS_MINUS, targets)]
    return name, attenuation_channel(MEMORY_MODES_PLUS_MINUS, targets, 1.0), None, fills, fills


def _pass() -> tuple:
    """Stage declaration of the two-class pass at a run's k_eff."""
    unit = _PASS_GENERATORS[VARIANT_TWO_CLASS]
    fills = [(int(p), _K if unit.flat[p] > 0.0 else _MINUS_K) for p in np.flatnonzero(unit)]
    return "pass", qnd_transform(1.0, VARIANT_TWO_CLASS), None, fills, ()


def _feedback_stage(name: str, measured_mode: str, measured_quad: str, target_mode: str,
                    target_quad: str, sign: float) -> tuple:
    """Stage declaration of a feedback at ``sign`` times a run's gain."""
    name, channel, (q_meas, q_tgt, _) = _feedback(name, measured_mode, measured_quad,
                                                  target_mode, target_quad, sign)
    fills = [(8 * q_tgt + q_meas, _GAIN if sign > 0.0 else _MINUS_GAIN)]
    return name, channel, (q_meas, q_tgt, sign), fills, ()


def _fixed(name: str, channel: GaussianChannel) -> tuple:
    return name, channel, None, (), ()


def _layout(*stages: tuple) -> _StageLayout:
    """The template of stage declarations (name, channel, feedback, X fills,
    Y fills), a fill being (flat position in its stage, slot)."""
    names, channels, feedback, x_fills, y_fills = zip(*stages)

    def flat(per_stage):
        at = [64 * i + p for i, fills in enumerate(per_stage) for p, _ in fills]
        slots = [slot for fills in per_stage for _, slot in fills]
        return (_read_only(np.array(at, dtype=np.intp)),
                _read_only(np.array(slots, dtype=np.intp)))

    return _StageLayout(names, _read_only(np.array([ch.x for ch in channels])),
                        _read_only(np.array([ch.y for ch in channels])), feedback,
                        names.index("pass"), *flat(x_fills), *flat(y_fills))


# one pass between the cell's two windows (the same window on the way in and
# out), homodyne feedback of X_c and P_s onto X_plus and P_minus, then
# collisions and scattering
_WRITE = _layout(
    _loss("entry_loss", _LIGHT_MODES, _WINDOW),
    _pass(),
    _loss("exit_loss", _LIGHT_MODES, _WINDOW),
    _feedback_stage("m_c", LIGHT_C, QUAD_X, ATOM_PLUS, QUAD_X, 1.0),
    _feedback_stage("m_s", LIGHT_S, QUAD_P, ATOM_MINUS, QUAD_P, -1.0),
    _loss("collisions", _ATOMIC_MODES, _COLLISIONS),
    _loss("scattering", _ATOMIC_MODES, _SCATTERING),
)
# collisions and scattering of the stored state, a fresh pulse, a quarter
# turn of the collective modes, a second pass, homodyne feedback of P_plus
# and X_minus onto the light, one window crossing on the way out and a
# final quarter turn of both sidebands
_READ = _layout(
    _loss("collisions", _ATOMIC_MODES, _COLLISIONS),
    _loss("scattering", _ATOMIC_MODES, _SCATTERING),
    _fixed("fresh_pulse", _FRESH_PULSE),
    _fixed("quarter_turn", _QUARTER_TURN),
    _pass(),
    _feedback_stage("m_plus", ATOM_PLUS, QUAD_P, LIGHT_C, QUAD_P, -1.0),
    _feedback_stage("m_minus", ATOM_MINUS, QUAD_X, LIGHT_S, QUAD_X, 1.0),
    _loss("exit_loss", _LIGHT_MODES, _WINDOW),
    _fixed("align", _ALIGN),
)


def _fill(layout: _StageLayout, k_eff: float, gain: float,
          budget: DecoherenceBudget) -> _Stages:
    """One run's stages: copies of the template's stacks with the run's
    entries put in, the pass checked for symplecticity as a built one is."""
    _check_strength(k_eff)
    (x_window, y_window), (x_coll, y_coll), (x_scat, y_scat) = (
        _attenuation_entries(t) for t in (boundary_transmission(budget.boundary_loss, 1),
                                          (1.0 - budget.eta) ** 2, (1.0 - budget.n_phot) ** 2))
    x, y = layout.x.copy(), layout.y.copy()
    x.put(layout.x_at, np.array((x_window, x_coll, x_scat, k_eff + 0.0, -k_eff + 0.0,
                                 gain + 0.0, -gain + 0.0))[layout.x_from])
    y.put(layout.y_at, np.array((y_window, y_coll, y_scat))[layout.y_from])
    _check_symplectic(x[layout.pass_index])
    x.setflags(write=False)
    y.setflags(write=False)
    return _Stages(layout.names, x, y, layout.feedback, gain)


def _write_stages(k_eff: float, gain: float, budget: DecoherenceBudget) -> _Stages:
    """The write's layout filled at (k_eff, gain, budget)."""
    return _fill(_WRITE, k_eff, gain, budget)


def _read_stages(k_eff: float, gain: float, budget: DecoherenceBudget) -> _Stages:
    """The read's layout filled at (k_eff, gain, budget)."""
    return _fill(_READ, k_eff, gain, budget)


def _stage_channels(stages: _Stages) -> list:
    """Each stage of a filled layout as (name, channel, feedback), the
    channel a read-only view into the stacks and the feedback (q_meas,
    q_tgt, signed gain) or None: the stage list as the fold walks it."""
    return [(name, GaussianChannel._wrap(x, y),
             None if fb is None else (fb[0], fb[1], fb[2] * stages.gain))
            for name, x, y, fb in zip(stages.names, stages.x, stages.y, stages.feedback)]


def _run_stages(stages: _Stages, means: np.ndarray, cov: np.ndarray, policy: str,
                rng: np.random.Generator | None
                ) -> tuple[np.ndarray, np.ndarray, dict[str, float], GaussianChannel]:
    """One fold over the stages: raw (means, covariance) after them, the
    homodyne outcomes, each drawn just before its feedback stage, and the
    composed channel, chained from the first stage's (X, Y) as ``then``
    does.  The covariance and the composed Y obey the same V -> X V X^T + Y,
    so one batched product per stage advances both, bit for bit."""
    outcomes, xc, gain = {}, None, stages.gain
    for name, x, y, feedback in zip(stages.names, stages.x, stages.y, stages.feedback):
        if feedback is not None:
            q_meas, q_tgt, sign = feedback
            mean = means[q_meas]
            outcomes[name] = homodyne_outcome(mean, cov[q_meas, q_meas], policy, rng)
        means = x @ means
        if xc is None:
            xc, stack = x, np.array((x @ cov @ x.T + y, y))
        else:
            xc, stack = x @ xc, x @ stack @ x.T + y
        cov = stack[0]
        if feedback is not None:
            means[q_tgt] += sign * gain * (outcomes[name] - mean)
    return means, cov, outcomes, GaussianChannel._wrap(xc, stack[1])


def _phase_ring(amplitude: float, n_phases: int) -> np.ndarray:
    """2 x n input quadratures of fixed amplitude, uniformly spread phase."""
    phases = 2.0 * math.pi * np.arange(n_phases) / n_phases
    return amplitude * np.stack([np.cos(phases), np.sin(phases)])


_RING = _read_only(_phase_ring(FIDELITY_AMPLITUDE, FIDELITY_PHASES))
#: ideal decode of (channel c, channel s): stored block = sign * input block
#: for a write, output light block = sign * stored block for a read
_WRITE_SIGNS = _read_only(np.array([-1.0, 1.0]).reshape(2, 1, 1))
_READ_SIGNS = _read_only(np.array([1.0, -1.0]).reshape(2, 1, 1))
#: index gathering the (channel c, channel s) diagonal 2x2 blocks of a 4x4
#: matrix into one 2x2x2 stack
_CHANNEL_BLOCKS = (_read_only(np.array([[[0], [1]], [[2], [3]]])),
                   _read_only(np.array([[[0, 1]], [[2, 3]]])))
_EYE2 = _read_only(np.eye(2))


def _ring_fidelity(transfer_map: np.ndarray, output_cov: np.ndarray,
                   signs: np.ndarray, ring: np.ndarray) -> float:
    """Coherent-state ensemble fidelity of a stored or retrieved map.

    The 2 x n inputs of ``ring`` (fixed quadrature amplitude, uniformly
    spread phase) are pushed through the 4x4 mean transfer map; the
    matching output block is decoded with the ideal decode of the
    protocol, one sign per channel given as the 2x1x1 stack ``signs``,
    and compared to the input against the output covariance, which a
    sign leaves as it is.  The two channels go through one batched pass
    and are averaged.  An output covariance that is not positive
    definite in double precision (noise so large that its determinant
    cancels) raises ValueError.
    """
    sigma = output_cov[_CHANNEL_BLOCKS] + 0.5 * _EYE2
    dets = np.linalg.det(sigma).tolist()
    for block, det in zip(sigma, dets):
        if not (block[0, 0] > 0.0 and 0.0 < det < math.inf):
            raise ValueError(f"output covariance is not positive definite: det {det!r}")
    # decoded-minus-ideal response of each channel to each input
    d = (signs * transfer_map[_CHANNEL_BLOCKS] - _EYE2) @ ring
    exponent = np.einsum("bin,bij,bjn->bn", d, np.linalg.inv(sigma), d)
    total = 0.0
    for det, weight in zip(dets, np.exp(-0.5 * exponent).sum(axis=1).tolist()):
        total += 1.0 / math.sqrt(det) * weight
    return total / (2.0 * ring.shape[1])


def _run(stage_builder, k_eff: float, state: GaussianState | None,
         gain: float | None, budget: DecoherenceBudget | None, policy: str,
         seed: int | None, in_block: slice, out_block: slice,
         signs: np.ndarray) -> ProtocolResult:
    """One protocol run: the final state and the composed channel from one
    fold over the stages, and the transfer map, added noise and fidelity.

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
    rng = None if seed is None else np.random.default_rng(seed)
    # an extreme gain or k_eff overflows: a homodyne draw, the map, the
    # fidelity or the final state refuses it, and the run reports it once
    with np.errstate(over="ignore", invalid="ignore"):
        stages = stage_builder(k_eff, gain, budget)
        try:
            means, cov, outcomes, channel = _run_stages(stages, state.means, state.cov,
                                                        policy, rng)
            vacuum_out = 0.5 * channel.x @ channel.x.T + channel.y
            if not all(np.isfinite(a).all() for a in (vacuum_out, means, cov)):
                raise ValueError("the protocol map is not finite")
            transfer = channel.x[out_block, in_block]
            out_cov = vacuum_out[out_block, out_block]
            added = np.diag(out_cov) - 0.5 * (transfer**2).sum(axis=1)
            fidelity = _ring_fidelity(transfer, out_cov, signs, _RING)
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
    return _run(_write_stages, k_eff, state, gain, budget, policy, seed,
                _LIGHT_SLICE, _ATOM_SLICE, _WRITE_SIGNS)


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
    return _run(_read_stages, k_eff, state, gain, budget, policy, seed,
                _ATOM_SLICE, _LIGHT_SLICE, _READ_SIGNS)
