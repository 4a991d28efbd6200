"""Gaussian states over labeled bosonic modes and their linear maps.

Conventions (fixed throughout the package):

* quadrature ordering (X1, P1, X2, P2, ...) over the labeled modes,
* hbar = 1, [X, P] = i, vacuum variance 1/2 per quadrature,
* phase rotation by theta maps (X, P) -> (X cos + P sin, -X sin + P cos),
  so a quarter turn sends P into X and X into -P.

States are immutable; every operation returns a new state.  Every
linear step is an affine Gaussian channel (X, Y); a symplectic map S is
the noiseless channel (S, 0), checked for S Omega S^T = Omega when it is
built.  Channels compose before they touch a state, so a chain of steps
validates its result once.  The light sidebands and the two collective
atomic modes of the memory carry fixed labels so protocol code can
address them by name.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, replace as _dc_replace

import numpy as np

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

MEMORY_MODES_PLUS_MINUS = (LIGHT_C, LIGHT_S, ATOM_PLUS, ATOM_MINUS)
MEMORY_MODES_CLASS = (LIGHT_C, LIGHT_S, ATOM_1, ATOM_2)

QUAD_X = "x"
QUAD_P = "p"

POLICY_MEAN = "mean"
POLICY_SAMPLE = "sample"


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


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
    return _read_only(omega)


@functools.cache
def _identity(n: int) -> np.ndarray:
    """Read-only n x n identity, built once per size; callers copy it."""
    return _read_only(np.eye(n))


@functools.cache
def _half_i_omega(n_modes: int) -> np.ndarray:
    """Read-only 0.5j Omega of the uncertainty bound V + i Omega / 2 >= 0."""
    return _read_only(0.5j * symplectic_form(n_modes))


def rotation_2x2(theta: float) -> np.ndarray:
    """Single-mode quadrature rotation, P -> X at theta = pi/2."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


class GaussianChannel(namedtuple("GaussianChannel", ("x", "y"))):
    """Affine Gaussian channel: means r -> X r, covariance V -> X V X^T + Y.

    Every step of the memory protocol (a pass, a lossy crossing, homodyne
    feedback with reset, a collision or scattering admixture) has this
    form, so a chain of steps composes into one (X, Y) pair (Weedbrook
    et al., Rev. Mod. Phys. 84, 621 (2012)).  A channel maps the means
    and the covariance but never relabels modes: a change of basis such
    as :func:`~qmemcell.memory.atomic_basis_matrix` keeps the labels.
    X and Y are copied into read-only arrays; the checks run on
    construction, ``_make`` and ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, x: np.ndarray, y: np.ndarray):
        x = np.array(x, dtype=float)
        y = np.array(y, dtype=float)
        if x.ndim != 2 or x.shape[0] != x.shape[1] or y.shape != x.shape:
            raise ValueError(
                f"channel needs square X and Y of one shape, got {x.shape} and {y.shape}")
        for label, a in (("X", x), ("Y", y)):
            if not np.isfinite(a).all():
                raise ValueError(f"channel {label} must be finite")
        return cls._wrap(x, y)

    @classmethod
    def _make(cls, iterable) -> "GaussianChannel":
        return cls(*iterable)

    @classmethod
    def symplectic(cls, s: np.ndarray) -> "GaussianChannel":
        """The noiseless channel (S, 0) of a symplectic map S.

        Validates S Omega S^T = Omega on a copy of S: a channel built here
        preserves the commutators, so composing such channels cannot
        silently produce an unphysical map.
        """
        s = np.array(s, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
            raise ValueError(f"symplectic matrix must be square of even size, got {s.shape}")
        if not np.isfinite(s).all():
            raise ValueError("symplectic matrix must be finite")
        _check_symplectic(s)
        return cls._wrap(s, np.zeros(s.shape))

    @classmethod
    def _wrap(cls, x: np.ndarray, y: np.ndarray) -> "GaussianChannel":
        """A channel owning two float arrays this module has just made.

        No copy and no checks: only for fresh products and builds whose
        shapes are right by construction.  The arrays become read-only.
        """
        x.setflags(write=False)
        y.setflags(write=False)
        return tuple.__new__(cls, (x, y))

    def then(self, other: "GaussianChannel") -> "GaussianChannel":
        """The channel applying this one first, then ``other``."""
        if self.x.shape != other.x.shape:
            raise ValueError("cannot compose channels of different mode number")
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


def _check_symplectic(s: np.ndarray) -> None:
    """Refuses a finite square S of even size unless |S Omega S^T - Omega|
    is within SYMPLECTIC_TOL."""
    omega = symplectic_form(s.shape[0] // 2)
    res = float(np.abs(s @ omega @ s.T - omega).max())
    if not res <= SYMPLECTIC_TOL:
        raise ValueError(f"matrix is not symplectic: |S Omega S^T - Omega| = {res:.3e}")


def _attenuation_entries(transmission: float) -> tuple[float, float]:
    """The X and Y diagonal entries of an attenuated quadrature: sqrt(T) and
    (1 - T) of vacuum variance; a transmission outside [0, 1] is refused."""
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {transmission}")
    return math.sqrt(transmission), (1.0 - transmission) * VACUUM_VARIANCE


def attenuation_channel(modes: tuple[str, ...], targets: tuple[str, ...],
                        transmission: float) -> GaussianChannel:
    """Mix each target mode with vacuum on a beamsplitter of given transmission.

    Means of the targets scale by sqrt(transmission), their covariance
    rows and columns likewise, and (1 - transmission) of vacuum variance
    refills each target quadrature.  transmission = 1 is the identity;
    transmission = 0 replaces the targets by fresh vacuum (a consumed or
    renewed light pulse, a measured mode).
    """
    amplitude, refill = _attenuation_entries(transmission)
    modes = tuple(modes)
    n = 2 * len(modes)
    diagonal = _target_diagonal(modes, tuple(targets))
    x = _identity(n).copy()
    y = np.zeros((n, n))
    x.put(diagonal, amplitude)
    y.put(diagonal, refill)
    return GaussianChannel._wrap(x, y)


@functools.cache
def _target_diagonal(modes: tuple[str, ...], targets: tuple[str, ...]) -> np.ndarray:
    """Flat indices of the targets' diagonal entries, cached per label tuple."""
    n, diagonal = 2 * len(modes), []
    for label in targets:
        try:
            j = modes.index(label)
        except ValueError:
            raise ValueError(f"unknown mode {label!r}; register has {modes}") from None
        diagonal += ((n + 1) * 2 * j, (n + 1) * (2 * j + 1))
    return _read_only(np.array(diagonal, dtype=np.intp))


# a dataclass: the benchmark tracer (bench/tracing.py) hooks __post_init__
@dataclass(frozen=True)
class GaussianState:
    """Means vector and covariance matrix over labeled modes.

    The labels are the only record of the atomic basis: (atom_plus,
    atom_minus) for the collective pair, (atom_1, atom_2) for the raw
    classes.  No channel changes them.
    """

    modes: tuple[str, ...]
    means: np.ndarray
    cov: np.ndarray

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
        # entries of half the float maximum overflow the symmetrization below
        if not math.isfinite(2.0 * scale):
            raise ValueError("cov must be finite")
        scale = max(1.0, scale)
        asym = float(np.abs(cov - cov.T).max())
        if not asym <= SYMMETRY_TOL * scale:
            raise ValueError(f"covariance is not symmetric: asymmetry {asym:.3e}")
        cov = 0.5 * (cov + cov.T)
        herm = cov + _half_i_omega(n)
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


def vacuum_state(modes: tuple[str, ...]) -> GaussianState:
    n = len(modes)
    return GaussianState(modes=tuple(modes), means=np.zeros(2 * n),
                         cov=VACUUM_VARIANCE * np.eye(2 * n))


#: vacuum of the four-mode memory layout, built once; states are
#: immutable, so every caller can share it
_MEMORY_VACUUM = vacuum_state(MEMORY_MODES_PLUS_MINUS)


def memory_vacuum() -> GaussianState:
    """The standard four-mode layout (two sidebands, two atomic modes)."""
    return _MEMORY_VACUUM


def displace(state: GaussianState, mode: str, dx: float, dp: float) -> GaussianState:
    """Shift the means of one mode; the covariance is untouched."""
    j = state.mode_index(mode)
    means = state.means.copy()
    means[2 * j] += dx
    means[2 * j + 1] += dp
    return _dc_replace(state, means=means)


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
        if not 0.0 <= variance < math.inf:
            raise ValueError(f"homodyne variance must be finite and non-negative, got {variance}")
        # abs only turns -0.0, which numpy rejects as a scale, into 0.0
        return float(rng.normal(mean, math.sqrt(abs(variance))))
    raise ValueError(f"unknown outcome policy {policy!r}")
