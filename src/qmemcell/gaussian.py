"""Gaussian states over labeled bosonic modes and their linear maps.

Conventions (fixed throughout the package):

* quadrature ordering (X1, P1, X2, P2, ...) over the labeled modes,
* hbar = 1, [X, P] = i, vacuum variance 1/2 per quadrature,
* phase rotation by theta maps (X, P) -> (X cos + P sin, -X sin + P cos),
  so a quarter turn sends P into X and X into -P.

States are immutable; every operation returns a new state.  Linear
steps are affine Gaussian channels (X, Y), which compose before they
touch a state, so a chain of steps validates its result once.  The light
sidebands and the two collective atomic modes of the memory carry fixed
labels so protocol code can address them by name.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace as _dc_replace

import numpy as np

from .numerics import expm

VACUUM_VARIANCE = 0.5

#: tolerances for state and transform validation
SYMMETRY_TOL = 1e-12
UNCERTAINTY_TOL = 1e-10
SYMPLECTIC_TOL = 1e-10

# mode labels of the memory layout
LIGHT_C = "light_c"      # cosine (upper/lower symmetric) sideband mode
LIGHT_S = "light_s"      # sine sideband mode
ATOM_PLUS = "atom_plus"  # symmetric combination of the two pumped classes
ATOM_MINUS = "atom_minus"
ATOM_1 = "atom_1"        # class pumped to m = -F
ATOM_2 = "atom_2"        # class pumped to m = +F

BASIS_PLUS_MINUS = "plus_minus"
BASIS_CLASS = "class"

MEMORY_MODES_PLUS_MINUS = (LIGHT_C, LIGHT_S, ATOM_PLUS, ATOM_MINUS)
MEMORY_MODES_CLASS = (LIGHT_C, LIGHT_S, ATOM_1, ATOM_2)

QUAD_X = "x"
QUAD_P = "p"

POLICY_MEAN = "mean"
POLICY_SAMPLE = "sample"

RESET_VACUUM = "vacuum"
RESET_REMOVE = "remove"

#: measured variances below this use the pseudo-inverse (no conditioning)
SINGULAR_VARIANCE = 1e-12


@functools.cache
def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form for (X, P) interleaved ordering.

    Built once per size and shared, so the returned array is read-only.
    """
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for j in range(n_modes):
        omega[2 * j, 2 * j + 1] = 1.0
        omega[2 * j + 1, 2 * j] = -1.0
    omega.setflags(write=False)
    return omega


def rotation_2x2(theta: float) -> np.ndarray:
    """Single-mode quadrature rotation, P -> X at theta = pi/2."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


@dataclass(frozen=True)
class SymplecticTransform:
    """A linear map of quadratures that preserves the commutators.

    Validates S Omega S^T = Omega on construction: composing and
    inverting therefore cannot silently produce an unphysical map.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError(f"symplectic matrix must be square of even size, got {m.shape}")
        object.__setattr__(self, "matrix", m.copy())
        self.matrix.setflags(write=False)
        res = self.symplectic_residual()
        if not res <= SYMPLECTIC_TOL:
            # a NaN or inf entry makes the residual NaN, so a non-finite
            # matrix is always caught here; only then is it looked for
            if not np.isfinite(m).all():
                raise ValueError("symplectic matrix must be finite")
            raise ValueError(
                f"matrix is not symplectic: |S Omega S^T - Omega| = {res:.3e}")

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2

    def symplectic_residual(self) -> float:
        omega = symplectic_form(self.n_modes)
        return float(np.abs(self.matrix @ omega @ self.matrix.T - omega).max())

    def compose(self, other: "SymplecticTransform") -> "SymplecticTransform":
        """The map applying ``other`` first, then this one."""
        if self.n_modes != other.n_modes:
            raise ValueError("cannot compose transforms of different mode number")
        return SymplecticTransform(self.matrix @ other.matrix)

    def __matmul__(self, other: "SymplecticTransform") -> "SymplecticTransform":
        return self.compose(other)

    def inverse(self) -> "SymplecticTransform":
        omega = symplectic_form(self.n_modes)
        return SymplecticTransform(-omega @ self.matrix.T @ omega)

    @classmethod
    def identity(cls, n_modes: int) -> "SymplecticTransform":
        return cls(np.eye(2 * n_modes))


@dataclass(frozen=True)
class GaussianChannel:
    """Affine Gaussian channel: means r -> X r, covariance V -> X V X^T + Y.

    Every step of the memory protocol (a pass, a lossy crossing, homodyne
    feedback with reset, a collision or scattering admixture) has this
    form, so a chain of steps composes into one (X, Y) pair (Weedbrook
    et al., Rev. Mod. Phys. 84, 621 (2012)).
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        y = np.array(self.y, dtype=float)
        if x.ndim != 2 or x.shape[0] != x.shape[1] or y.shape != x.shape:
            raise ValueError(
                f"channel needs square X and Y of one shape, got {x.shape} and {y.shape}")
        for label, a in (("X", x), ("Y", y)):
            if not np.isfinite(a).all():
                raise ValueError(f"channel {label} must be finite")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def _wrap(cls, x: np.ndarray, y: np.ndarray) -> "GaussianChannel":
        """A channel owning two float arrays this module has just made.

        No copy and no checks: only for fresh products and builds whose
        shapes are right by construction.  The arrays become read-only.
        """
        x.setflags(write=False)
        y.setflags(write=False)
        channel = object.__new__(cls)
        object.__setattr__(channel, "x", x)
        object.__setattr__(channel, "y", y)
        return channel

    def then(self, other: "GaussianChannel") -> "GaussianChannel":
        """The channel applying this one first, then ``other``."""
        return GaussianChannel._wrap(other.x @ self.x,
                                     other.x @ self.y @ other.x.T + other.y)

    def propagate(self, means: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Raw (means, covariance) after the channel, without validation."""
        return self.x @ means, self.x @ cov @ self.x.T + self.y

    def apply(self, state: "GaussianState") -> "GaussianState":
        if self.x.shape[0] != 2 * state.n_modes:
            raise ValueError(
                f"channel acts on {self.x.shape[0] // 2} modes, state has {state.n_modes}")
        means, cov = self.propagate(state.means, state.cov)
        return _dc_replace(state, means=means, cov=cov)


def symplectic_channel(transform: SymplecticTransform) -> GaussianChannel:
    """The noiseless channel of a symplectic map (shares its read-only matrix)."""
    return GaussianChannel._wrap(transform.matrix, np.zeros_like(transform.matrix))


def attenuation_channel(modes: tuple[str, ...], targets: tuple[str, ...],
                        transmission: float) -> GaussianChannel:
    """Mix each target mode with vacuum on a beamsplitter of given transmission.

    Means of the targets scale by sqrt(transmission), their covariance
    rows and columns likewise, and (1 - transmission) of vacuum variance
    refills each target quadrature.  transmission = 1 is the identity;
    transmission = 0 replaces the targets by fresh vacuum (a consumed or
    renewed light pulse, a measured mode).
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {transmission}")
    modes = tuple(modes)
    n = 2 * len(modes)
    diagonal = []  # flat indices of the targets' diagonal entries
    for label in targets:
        try:
            j = modes.index(label)
        except ValueError:
            raise ValueError(f"unknown mode {label!r}; register has {modes}") from None
        diagonal += ((n + 1) * 2 * j, (n + 1) * (2 * j + 1))
    x = np.eye(n)
    y = np.zeros((n, n))
    x.put(diagonal, math.sqrt(transmission))
    y.put(diagonal, (1.0 - transmission) * VACUUM_VARIANCE)
    return GaussianChannel._wrap(x, y)


@dataclass(frozen=True)
class GaussianState:
    """Means vector and covariance matrix over labeled modes.

    ``basis`` records whether the atomic modes are the (+, -) collective
    pair or the raw class pair; protocol operations check it so that a
    map derived in one basis is never applied in the other by accident.
    """

    modes: tuple[str, ...]
    means: np.ndarray
    cov: np.ndarray
    basis: str = BASIS_PLUS_MINUS

    def __post_init__(self):
        modes = tuple(self.modes)
        if len(set(modes)) != len(modes):
            raise ValueError(f"duplicate mode labels: {modes}")
        n = len(modes)
        means = np.asarray(self.means, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        if means.shape != (2 * n,):
            raise ValueError(f"means must have length {2 * n}, got {means.shape}")
        if cov.shape != (2 * n, 2 * n):
            raise ValueError(f"cov must be {2 * n}x{2 * n}, got {cov.shape}")
        if not np.isfinite(means).all():
            raise ValueError("means must be finite")
        scale = float(np.abs(cov).max())
        if not math.isfinite(scale):
            raise ValueError("cov must be finite")
        scale = max(1.0, scale)
        asym = float(np.abs(cov - cov.T).max())
        if not asym <= SYMMETRY_TOL * scale:
            raise ValueError(f"covariance is not symmetric: asymmetry {asym:.3e}")
        cov = 0.5 * (cov + cov.T)
        herm = cov + 0.5j * symplectic_form(n)
        min_eig = float(np.linalg.eigvalsh(herm).min())
        if not min_eig >= -UNCERTAINTY_TOL * scale:
            raise ValueError(
                f"covariance violates the uncertainty bound: min eig {min_eig:.3e}")
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "means", means.copy())
        object.__setattr__(self, "cov", cov)
        self.means.setflags(write=False)
        self.cov.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def mode_index(self, label: str) -> int:
        try:
            return self.modes.index(label)
        except ValueError:
            raise ValueError(f"unknown mode {label!r}; state has {self.modes}") from None

    def quad_index(self, label: str, quadrature: str) -> int:
        j = self.mode_index(label)
        if quadrature == QUAD_X:
            return 2 * j
        if quadrature == QUAD_P:
            return 2 * j + 1
        raise ValueError(f"quadrature must be 'x' or 'p', got {quadrature!r}")

    def mean(self, label: str, quadrature: str) -> float:
        return float(self.means[self.quad_index(label, quadrature)])

    def variance(self, label: str, quadrature: str) -> float:
        q = self.quad_index(label, quadrature)
        return float(self.cov[q, q])

    def mode_block(self, label: str) -> tuple[np.ndarray, np.ndarray]:
        """(means, 2x2 covariance) of one mode."""
        j = self.mode_index(label)
        sl = slice(2 * j, 2 * j + 2)
        return self.means[sl].copy(), self.cov[sl, sl].copy()

    def cross_block(self, label_a: str, label_b: str) -> np.ndarray:
        """2x2 covariance block between two modes."""
        ja, jb = self.mode_index(label_a), self.mode_index(label_b)
        return self.cov[2 * ja:2 * ja + 2, 2 * jb:2 * jb + 2].copy()


def vacuum_state(modes: tuple[str, ...], basis: str = BASIS_PLUS_MINUS) -> GaussianState:
    n = len(modes)
    return GaussianState(modes=tuple(modes), basis=basis,
                         means=np.zeros(2 * n),
                         cov=VACUUM_VARIANCE * np.eye(2 * n))


#: vacuum of the four-mode memory layout in each basis, built once; states
#: are immutable, so every caller can share them
_MEMORY_VACUA = {BASIS_PLUS_MINUS: vacuum_state(MEMORY_MODES_PLUS_MINUS, BASIS_PLUS_MINUS),
                 BASIS_CLASS: vacuum_state(MEMORY_MODES_CLASS, BASIS_CLASS)}


def memory_vacuum(basis: str = BASIS_PLUS_MINUS) -> GaussianState:
    """The standard four-mode layout (two sidebands, two atomic modes)."""
    try:
        return _MEMORY_VACUA[basis]
    except (KeyError, TypeError):
        raise ValueError(f"unknown basis {basis!r}") from None


def displace(state: GaussianState, mode: str, dx: float, dp: float) -> GaussianState:
    """Shift the means of one mode; the covariance is untouched."""
    j = state.mode_index(mode)
    means = state.means.copy()
    means[2 * j] += dx
    means[2 * j + 1] += dp
    return _dc_replace(state, means=means)


def hamiltonian_to_symplectic(h: np.ndarray, t: float = 1.0) -> SymplecticTransform:
    """Quadratic Hamiltonian (1/2) r^T H r evolved for time t.

    S = exp(Omega H t).  The bilinear pass interactions have nilpotent
    generators, for which the power series terminates after a few terms
    and is evaluated exactly; anything else falls back to the Pade
    scaling-and-squaring exponential of ``qmemcell.numerics``.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] % 2:
        raise ValueError(f"hamiltonian matrix must be square of even size, got {h.shape}")
    scale = float(np.abs(h).max())
    if not math.isfinite(scale):
        raise ValueError("hamiltonian matrix must be finite")
    scale = max(1.0, scale)
    if not math.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    if not float(np.abs(h - h.T).max()) <= SYMMETRY_TOL * scale:
        raise ValueError("hamiltonian matrix must be symmetric")
    n = h.shape[0] // 2
    gen = symplectic_form(n) @ h * t
    # terminating power series for nilpotent generators; no array is
    # written in place, so the first term may share the identity
    total = term = np.eye(2 * n)
    for k in range(1, 2 * n + 1):
        term = term @ gen / k
        if not term.any():
            return SymplecticTransform(total)
        total = total + term
    return SymplecticTransform(expm(gen))


def apply_symplectic(state: GaussianState, transform: SymplecticTransform) -> GaussianState:
    return symplectic_channel(transform).apply(state)


def embed_single_mode(state_modes: tuple[str, ...], mode: str,
                      block: np.ndarray) -> SymplecticTransform:
    """Lift a 2x2 map of one labeled mode to the full register."""
    n = len(state_modes)
    j = state_modes.index(mode)
    s = np.eye(2 * n)
    s[2 * j:2 * j + 2, 2 * j:2 * j + 2] = block
    return SymplecticTransform(s)


def rotate_mode(state: GaussianState, mode: str, theta: float) -> GaussianState:
    """Phase-space rotation of one mode (P -> X at theta = pi/2)."""
    return apply_symplectic(state, embed_single_mode(state.modes, mode,
                                                     rotation_2x2(theta)))


def homodyne_outcome(mean: float, variance: float, policy: str,
                     rng: np.random.Generator | None) -> float:
    """Outcome of a homodyne measurement of one quadrature.

    policy 'mean' takes the current mean (the deterministic branch used
    for transfer-map extraction); 'sample' draws from the marginal with
    ``rng``, which must then be given.
    """
    if policy == POLICY_MEAN:
        return float(mean)
    if policy == POLICY_SAMPLE:
        if rng is None:
            raise ValueError("policy 'sample' requires a seed")
        return float(rng.normal(mean, math.sqrt(max(variance, 0.0))))
    raise ValueError(f"unknown outcome policy {policy!r}")


def homodyne_condition(state: GaussianState, mode: str, quadrature: str = QUAD_X,
                       policy: str = POLICY_MEAN, seed: int | None = None,
                       reset: str = RESET_VACUUM) -> tuple[GaussianState, float]:
    """Measure one quadrature; return the conditioned state and outcome.

    The outcome follows ``policy`` (see :func:`homodyne_outcome`; 'sample'
    draws with the given seed).  The measured mode is consumed: depending
    on ``reset`` it is replaced by vacuum or dropped from the register.
    """
    q = state.quad_index(mode, quadrature)
    variance = float(state.cov[q, q])
    rng = None if seed is None else np.random.default_rng(seed)
    outcome = homodyne_outcome(state.means[q], variance, policy, rng)

    # conditioning on the measured row; a (near-)deterministic quadrature
    # forces zero cross covariance, so the pseudo-inverse update is zero
    inv = 1.0 / variance if variance >= SINGULAR_VARIANCE else 0.0
    col = state.cov[:, q]
    means = state.means + col * inv * (outcome - state.means[q])
    cov = state.cov - np.outer(col, col) * inv
    cov = 0.5 * (cov + cov.T)

    if reset == RESET_VACUUM:
        means, cov = attenuation_channel(state.modes, (mode,), 0.0).propagate(means, cov)
        new_state = GaussianState(modes=state.modes, basis=state.basis,
                                  means=means, cov=cov)
    elif reset == RESET_REMOVE:
        j = state.mode_index(mode)
        keep = [i for i in range(2 * state.n_modes) if i not in (2 * j, 2 * j + 1)]
        new_modes = tuple(m for m in state.modes if m != mode)
        new_state = GaussianState(modes=new_modes, basis=state.basis,
                                  means=means[keep], cov=cov[np.ix_(keep, keep)])
    else:
        raise ValueError(f"unknown reset handling {reset!r}")
    return new_state, outcome


# ---------------------------------------------------------------------------
# serialization


def state_to_dict(state: GaussianState) -> dict:
    return {
        "modes": list(state.modes),
        "basis": state.basis,
        "means": state.means.tolist(),
        "cov": state.cov.tolist(),
    }


def state_from_dict(doc: dict) -> GaussianState:
    try:
        return GaussianState(modes=tuple(doc["modes"]), basis=doc["basis"],
                             means=np.array(doc["means"], dtype=float),
                             cov=np.array(doc["cov"], dtype=float))
    except KeyError as exc:
        raise ValueError(f"state document missing key {exc}") from exc


def state_to_json(state: GaussianState) -> str:
    return json.dumps(state_to_dict(state))


def state_from_json(text: str) -> GaussianState:
    return state_from_dict(json.loads(text))
