"""Plain-numpy kernels against scipy, and the scipy-free runtime."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm
from scipy.special import wofz

import qmemcell
from qmemcell import symplectic_form
from qmemcell.numerics import expm, faddeeva


@pytest.mark.parametrize("scale", [0.0, 1e-3, 0.5, 4.0, 30.0, 200.0])
def test_expm_matches_scipy_on_dense_matrices(scale):
    rng = np.random.default_rng(11)
    for size in (1, 2, 5, 16):
        a = scale * rng.normal(size=(size, size)) / np.sqrt(size)
        ref = scipy_expm(a)
        assert np.max(np.abs(expm(a) - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("t", [0.3, 3.0, 40.0])
def test_expm_matches_scipy_on_symplectic_generators(t):
    # Omega H with H symmetric: a rotation part keeps the exponential
    # bounded while the 1-norm of the generator needs squaring
    rng = np.random.default_rng(5)
    n = 4
    omega = symplectic_form(n)
    h = rng.normal(size=(2 * n, 2 * n))
    h = 0.05 * (h + h.T) + np.eye(2 * n)
    gen = omega @ h * t
    assert np.any(np.linalg.matrix_power(gen, 2 * n + 1))   # not nilpotent
    s = expm(gen)
    ref = scipy_expm(gen)
    assert np.max(np.abs(s - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
    assert np.max(np.abs(s @ omega @ s.T - omega)) <= 1e-10


def test_expm_keeps_zero_columns_exact():
    # an absorbing state of a rate matrix stays exactly absorbing
    a = np.array([[0.0, 2.0e5], [0.0, -2.0e5]])
    out = expm(a)
    assert np.array_equal(out[:, 0], [1.0, 0.0])
    assert out[0, 1] + out[1, 1] == pytest.approx(1.0, abs=1e-15)


def test_expm_validation():
    with pytest.raises(ValueError, match="square"):
        expm(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        expm(np.array([[np.nan]]))
    with pytest.raises(ArithmeticError, match="overflow"):
        expm(np.array([[1.0e3]]))


def test_faddeeva_matches_scipy():
    rng = np.random.default_rng(2)
    y = 10.0 ** rng.uniform(-5.0, 7.0, size=4000)
    x = rng.choice([-1.0, 1.0], size=4000) * 10.0 ** rng.uniform(-8.0, 7.0, size=4000)
    z = x + 1j * y
    ref = wofz(z)
    got = faddeeva(z)
    assert np.max(np.abs(got.real - ref.real) / np.abs(ref.real)) <= 2e-9
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 2e-9
    # scalar input gives the same value as the array path
    assert faddeeva(complex(z[0])) == pytest.approx(got[0], rel=1e-15)


def test_import_does_not_load_scipy():
    code = ("import sys, qmemcell, qmemcell.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(qmemcell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
