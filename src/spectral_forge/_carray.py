# spectral_forge/_carray.py
"""
Complex float arithmetic over numpy arrays, bit for bit equal to CPython's,
and the package's one numpy boundary.

No other module imports numpy: they take ``np`` from here.  ``np`` is
numpy, loaded lazily (``importlib.util.LazyLoader``): the real import runs
on the first attribute read, so code that never touches an array (the
exact layer, the journal, ``modify`` and ``classify``) never loads numpy.
After that read ``np`` is the plain numpy module, with no cost per call.
A process that imported numpy first keeps its module.

The per-sample path (sheet values, lattice reduction, fibre classes) runs
over all samples at once, in arrays that a report's frame
(``spectral._Frame``) builds once per owner.  They travel as complex128, but
every kernel here computes on their float64 real and imaginary parts with
the operations CPython's ``complex`` uses, in the same order:

- ``mul`` is ``_Py_c_prod``, ``quot`` is ``_Py_c_quot`` (scale by the
  larger component of the divisor), and ``absolute`` is ``abs(z)``, a hypot;
- only + - * /, floor, rint, hypot and log run in numpy.  ``sqrt`` is
  CPython's own ``z ** 0.5``, and cos and sin come from ``math``, one
  element at a time: numpy's vectorised versions round differently on some
  inputs.  ``log`` only picks integers, by ``math.log`` at rounding edges.

The kernels never raise.  Where the scalar operation would raise, or lose
its meaning (a zero divisor, an overflow), they return whatever the float
arithmetic gives, and the callers flag such samples as *odd*: odd samples
take the scalar route of the single-point methods, in sample order, so they
raise or return exactly what the scalar loop did.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from types import ModuleType
from typing import Callable


def _lazy(name: str) -> ModuleType:
    """The module ``name``, imported on the first read of an attribute."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")


def pack(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex128 array with these parts (no arithmetic on the way);
    ``re`` has the shape of the result."""
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def mul(a: "np.ndarray | complex", b: "np.ndarray | complex") -> np.ndarray:
    with np.errstate(all="ignore"):
        return pack(a.real * b.real - a.imag * b.imag,
                    a.real * b.imag + a.imag * b.real)


def quot(a: "np.ndarray | complex", b: "np.ndarray | complex") -> np.ndarray:
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


def absolute(a: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        return np.hypot(a.real, a.imag)


def each(fn: Callable[[float], float], a: np.ndarray) -> np.ndarray:
    """fn applied element by element (a ``math`` function, for parity) over
    a 1-d array."""
    return np.fromiter(map(fn, a.tolist()), dtype=float, count=len(a))


def log(a: np.ndarray) -> np.ndarray:
    """numpy's log, which may differ from ``math.log`` in the last bit."""
    return np.log(a)


def _pow_half(z: complex) -> complex:
    try:
        return z ** 0.5
    except OverflowError:
        return complex(math.inf, math.inf)


def sqrt(a: np.ndarray) -> np.ndarray:
    """``z ** 0.5``, CPython's own power, at each element of a 1-d array;
    where that power overflows (and raises) the element reads inf+infj."""
    return np.fromiter(map(_pow_half, a.tolist()), dtype=complex, count=len(a))


def nearest(b: np.ndarray, centres: "list[complex]") -> np.ndarray:
    """Distance ``abs(c - b)`` from each sample to the nearest centre c
    (infinite without centres)."""
    out = np.full(np.shape(b), math.inf)
    with np.errstate(all="ignore"):
        for c in centres:
            out = np.minimum(out, np.hypot(c.real - b.real, c.imag - b.imag))
    return out


def first_failure(ok: np.ndarray, odd: np.ndarray,
                  check: Callable[[int], bool]) -> "int | None":
    """Index of the first sample that fails, as a scalar loop stopping there
    would find it: odd samples are decided by ``check(i)``, which may raise,
    and only those before the first regular failure are looked at."""
    for i in np.flatnonzero(~ok | odd).tolist():
        if not odd[i] or not check(i):
            return i
    return None


def fill_odd(values: np.ndarray, odd: np.ndarray,
             scalar: Callable[[int], object]) -> np.ndarray:
    """``values`` with each odd sample replaced by ``scalar(i)``, in order."""
    for i in np.flatnonzero(odd).tolist():
        values[i] = scalar(i)
    return values
