"""Numerical kernels in plain numpy: matrix exponential, Faddeeva function.

Both replace library routines that would otherwise pull a heavy import
into every run: the Pade scaling-and-squaring exponential of Higham
(SIAM J. Matrix Anal. Appl. 26, 1179, 2005) and the rational
approximation of the Faddeeva function by Weideman (SIAM J. Numer.
Anal. 31, 1497, 1994).
"""

from __future__ import annotations

import math

import numpy as np

# Pade (13, 13) coefficients and the 1-norm up to which they need no scaling
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade-13 scaling and squaring."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expm needs a square matrix, got shape {a.shape}")
    norm = float(np.max(np.sum(np.abs(a), axis=0), initial=0.0))
    if not math.isfinite(norm):
        raise ValueError(f"expm needs a finite matrix, got 1-norm {norm}")
    squarings = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0**squarings
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    # (v - u)^-1 (v + u) written so that a zero column of a stays exact
    result = ident + 2.0 * np.linalg.solve(v - u, u)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            result = result @ result
    if not np.all(np.isfinite(result)):
        raise ArithmeticError(f"expm overflowed for a matrix of 1-norm {norm:.3g}")
    return result


# Weideman's rational approximation: w(z) = 2 p(Z)/(L - iz)^2
# + 1/(sqrt(pi) (L - iz)) with Z = (L + iz)/(L - iz) and p of degree
# N - 1, its coefficients the cosine transform of exp(-t^2)(L^2 + t^2)
# sampled at t = L tan(theta/2).
_N_TERMS = 64
_L = math.sqrt(_N_TERMS / math.sqrt(2.0))


def _weideman_coefficients() -> tuple[float, ...]:
    m = 2 * _N_TERMS
    k = np.arange(-m + 1, m)
    t = _L * np.tan(k * math.pi / (2 * m))
    f = np.exp(-t * t) * (_L * _L + t * t)
    a = np.cos(np.outer(np.arange(1, _N_TERMS + 1), k) * math.pi / m) @ f / (2 * m)
    return tuple(float(c) for c in a[::-1])    # highest degree first


_WEIDEMAN = _weideman_coefficients()
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def faddeeva(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz) for Im z >= 0.

    Accepts a complex scalar or array.  Against a reference
    implementation the real part is within 1e-9 relative for
    Im z >= 1e-5 and |Re z| <= 1e7.  Closer to the real axis the
    approximation keeps an absolute error near 1e-18, so in the far
    wing, where Re w(z) is itself that small, the relative error grows:
    1e-8 at Im z = 1e-6, 1e-5 at Im z = 1e-9.
    """
    iz = 1j * z
    denom = _L - iz
    zz = (_L + iz) / denom
    p = 0.0
    for c in _WEIDEMAN:
        p = p * zz + c
    return 2.0 * p / (denom * denom) + _INV_SQRT_PI / denom
