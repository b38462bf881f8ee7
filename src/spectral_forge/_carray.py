# spectral_forge/_carray.py
"""
Complex float arithmetic over numpy arrays, bit for bit equal to CPython's.

The per-sample path (sheet values, lattice reduction, fibre classes) runs
over all samples at once.  Its values travel as complex128 arrays, but every
kernel here computes on their float64 real and imaginary parts with the
operations CPython's ``complex`` uses, in the same order:

- ``mul`` is ``_Py_c_prod``, ``quot`` is ``_Py_c_quot`` (scale by the
  larger component of the divisor), ``powi`` is ``z ** n`` for a small int
  n, ``sqrt`` is ``z ** 0.5`` through ``_Py_c_pow``, and ``absolute`` is
  ``abs(z)``, a hypot;
- only + - * /, floor, rint and hypot run in numpy.  log, atan2, pow, cos
  and sin are taken from ``math`` one element at a time: numpy's vectorised
  versions round differently on some inputs.

The kernels never raise.  Where the scalar operation would raise, or lose
its meaning (a zero divisor, an overflow), they return whatever the float
arithmetic gives, and the callers flag such samples as *odd*: odd samples
take the scalar route of the single-point methods, in sample order, so they
raise or return exactly what the scalar loop did.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Callable

import numpy as np

Array = np.ndarray


def pack(re: Array, im: Array) -> Array:
    """The complex128 array with these parts (no arithmetic on the way);
    ``re`` has the shape of the result."""
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def mul(a: "Array | complex", b: "Array | complex") -> Array:
    with np.errstate(all="ignore"):
        return pack(a.real * b.real - a.imag * b.imag,
                    a.real * b.imag + a.imag * b.real)


def quot(a: "Array | complex", b: "Array | complex") -> Array:
    """a / b as ``_Py_c_quot``: zero divisors give no error here."""
    b = np.asarray(b)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    with np.errstate(all="ignore"):
        by_re = np.abs(br) >= np.abs(bi)
        by_im = np.abs(bi) >= np.abs(br)
        r1 = bi / br
        d1 = br + bi * r1
        r2 = br / bi
        d2 = br * r2 + bi
        # a NaN part in b fails both comparisons: the quotient is NaN
        re = np.where(by_im, (ar * r2 + ai) / d2, math.nan)
        im = np.where(by_im, (ai * r2 - ar) / d2, math.nan)
        return pack(np.where(by_re, (ar + ai * r1) / d1, re),
                    np.where(by_re, (ai - ar * r1) / d1, im))


def powi(a: Array, n: int) -> Array:
    """a ** n for an int n as CPython computes it for |n| <= 100 (``c_powi``):
    square and multiply by ``_Py_c_prod`` from 1 (``c_powu``), and 1 / a ** -n
    for n <= 0, so n = 0 gives 1 everywhere.  A larger |n| takes
    ``_Py_c_pow`` there; it reads NaN here, which makes every sample odd."""
    if abs(n) > 100:
        return np.full(a.shape, complex(math.nan, math.nan))
    out, p, m = np.ones(a.shape, dtype=complex), a, abs(n)
    while m:
        if m & 1:
            out = mul(out, p)
        m >>= 1
        p = mul(p, p) if m else p
    return out if n > 0 else quot(1.0, out)


def absolute(a: Array) -> Array:
    with np.errstate(all="ignore"):
        return np.hypot(a.real, a.imag)


def each(fn: Callable[..., float], *args: "Array | float") -> Array:
    """fn applied element by element (a ``math`` function, for parity) over
    1-d arrays; a float argument is the same at every element."""
    lists = (x.tolist() if isinstance(x, np.ndarray) else repeat(x) for x in args)
    return np.fromiter(map(fn, *lists), dtype=float, count=len(args[0]))


def sqrt(a: Array) -> Array:
    """a ** 0.5 as CPython computes it (``_Py_c_pow`` with exponent 0.5):
    hypot, C pow, atan2, then length times cos and sin of the half phase;
    0 gives 0.  An overflow (an infinite part) raises in CPython."""
    length = each(math.pow, absolute(a), 0.5)
    phase = each(math.atan2, a.imag, a.real) * 0.5
    with np.errstate(all="ignore"):
        out = pack(length * each(math.cos, phase), length * each(math.sin, phase))
    out[a == 0] = 0j
    return out


def nearest(b: Array, centres: "list[complex]") -> Array:
    """Distance ``abs(c - b)`` from each sample to the nearest centre c
    (infinite without centres)."""
    out = np.full(np.shape(b), math.inf)
    for c in centres:
        out = np.minimum(out, np.hypot(c.real - b.real, c.imag - b.imag))
    return out


def first_failure(ok: Array, odd: Array,
                  check: Callable[[int], bool]) -> "int | None":
    """Index of the first sample that fails, as a scalar loop stopping there
    would find it: odd samples are decided by ``check(i)``, which may raise,
    and only those before the first regular failure are looked at."""
    for i in np.flatnonzero(~ok | odd).tolist():
        if not odd[i] or not check(i):
            return i
    return None


def fill_odd(values: Array, odd: Array, scalar: Callable[[int], object]) -> Array:
    """``values`` with each odd sample replaced by ``scalar(i)``, in order."""
    for i in np.flatnonzero(odd).tolist():
        values[i] = scalar(i)
    return values
