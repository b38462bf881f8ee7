# tests/test_sample_path.py
"""
The array sample path against the scalar single-point methods, bit for bit.

The kernels (Horner, sheets, Pell sheet values, canonical representatives,
lattice distances) are compared with the scalar methods on 60,000 seeded
random points and on edge sets; the report-level checks are compared with
the former scalar loops kept in ``oracles``, errors included.  Two negative
controls show that the comparison sees a change of one ulp.  At the
rounding edges of the lattice exponents the kernels are also compared with
their log 16 ulps off, which only the ``math.log`` recheck absorbs.  The descent
residual is the frame identity the former closure loop reduces to; it is
compared with that loop within 8 ulps, and bit for bit at tau = 2.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from spectral_forge import (QI, BasePoint, DescentTwist, FamilySpec,
                            HyperCover, LineBundleOnX, MultipleFibre, PellMap,
                            Poly, PunctureError, SpectralCover,
                            SurfaceSpec, TateCurve, TwoSections, UnsupportedError,
                            allowable_mod, attach_generic_jumps, build_regular_family,
                            cover_from_family, default_sample_points,
                            descent_divisor, elem_mod, fm_transform,
                            invariance_residual, parse_scenario, roundtrip_check,
                            sample_circle, torsion_roundtrip_check)
from spectral_forge import _carray, cli, fourier
from spectral_forge.cli import run_command
from spectral_forge.fourier import _has_trivial_sub, _roundtrip_report
from spectral_forge.spectral import _cover_points, _Frame

import oracles
from conftest import (TAU_DYADIC, TAU_GENERIC, TAU_WIDE, count_calls, cover_g0,
                      cover_g1, cover_g2, cover_g3, pell_g0, pell_g1, pell_g2,
                      pell_g3, perturbed, push_family, split_family, surf_m23,
                      surf_plain)
from test_cli import pell_cover_doc, pushforward_doc, split_doc, write
from test_spectral import tiny_pell_g0

N = 60_000
# near 1 the exponents k of a value set span more than the dense table of
# TateCurve._tau_powers (4,096 powers), so its np.unique route is taken
TAU_NEAR_ONE = 1 + 1e-4 + 0j
TAUS = (TAU_DYADIC, TAU_GENERIC, TAU_WIDE, 1.05 + 0j, -3 + 0.1j, TAU_NEAR_ONE)


def bits(values) -> np.ndarray:
    """Bit patterns of the real and imaginary parts: signed zeros differ."""
    a = np.asarray(values, dtype=complex)
    return np.stack([a.real, a.imag]).view(np.uint64)


def mismatches(array_values, scalar_values) -> int:
    """Elements whose real or imaginary bits differ."""
    return int((bits(array_values) != bits(scalar_values)).any(axis=0).sum())


def random_points(seed: int, n: int = N, scale: float = 2.0) -> np.ndarray:
    """Points over many radii around ``scale`` and all angles."""
    rng = np.random.default_rng(seed)
    r = scale * np.exp(rng.uniform(-3.0, 3.0, n))
    return r * np.exp(1j * rng.uniform(-math.pi, math.pi, n))


def random_values(seed: int, n: int = N) -> np.ndarray:
    """Nonzero values over 80 orders of magnitude."""
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(-90.0, 90.0, n))
    return r * np.exp(1j * rng.uniform(-math.pi, math.pi, n))


def gaussian_poly() -> Poly:
    return Poly((QI(Fraction(1, 3), Fraction(-2, 7)), QI(Fraction(5, 11)),
                 QI(0, Fraction(-13, 17)), QI(Fraction(19, 23), Fraction(1, 2))))


POLYS = (cover_g1().f, cover_g2().f, cover_g3().f, pell_g1().u_part,
         pell_g2().v_part, pell_g3().r_part, gaussian_poly(), Poly(()))
COVERS = (cover_g0(), cover_g1(), cover_g2(), cover_g3())


def pell_maps() -> list[PellMap]:
    out = []
    for m in (pell_g0(), pell_g1(), pell_g2(), pell_g3()):
        out += [m, m.inverse(), m.sheet_flip()]
    out.append(pell_g1(QI(Fraction(3, 2), Fraction(-1, 5))))
    return out


# ============================================================
# Kernels on random points
# ============================================================

def test_horner_matches_eval_complex():
    b = random_points(1)
    for p in POLYS:
        assert mismatches(p._eval_array(b),
                          [p.eval_complex(x) for x in b.tolist()]) == 0, p


def test_sheets_match_the_complex_power():
    b = random_points(2)
    for cov in COVERS:
        w = cov._sheets_array(b)
        scalar = [cov.sheets(x) for x in b.tolist()]
        assert mismatches(w, [s[0] for s in scalar]) == 0
        assert mismatches(-w, [s[1] for s in scalar]) == 0


def test_sheet_values_match_and_odd_samples_raise():
    """The last sample, b = 1e160 + 1e159j, overflows f(b) on every cover of
    genus >= 1: it is odd there and raises as unsupported, not as a pole."""
    huge = 1e160 + 1e159j
    b = np.append(random_points(3, N // 10), huge)
    for m in pell_maps():
        v0, v1, odd = m._values_array(b)
        for i in np.flatnonzero(odd[:-1]).tolist():
            with pytest.raises(PunctureError):
                m.sheet_values(complex(b[i]))
        assert odd[-1] == (m.cover.genus >= 1)
        if odd[-1]:
            with pytest.raises(UnsupportedError, match=r"overflows at b=\(1e\+160"):
                m.sheet_values(huge)
        regular = [m.sheet_values(x) for x in b[~odd].tolist()]
        assert mismatches(v0[~odd], [v[0] for v in regular]) == 0
        assert mismatches(v1[~odd], [v[1] for v in regular]) == 0


def test_two_sections_match():
    b = random_points(4, 2_000)
    bis = TwoSections(0.7 + 0.1j, 1.3 - 0.2j)
    v0, v1, odd = bis._values_array(b)
    assert not odd.any()
    scalar = [bis.sheet_values(x) for x in b.tolist()]
    assert mismatches(v0, [s[0] for s in scalar]) == 0
    assert mismatches(v1, [s[1] for s in scalar]) == 0


@pytest.mark.parametrize("tau", TAUS)
def test_canonical_rep_and_lattice_distance_match(tau):
    curve = TateCurve(tau)
    z = random_values(5)
    v, odd = curve._canonical_array(z)
    assert not odd.any()
    if tau == TAU_NEAR_ONE:
        assert np.ptp(np.rint(np.log(np.abs(z)) / math.log(abs(tau)))) > 4096
    assert mismatches(v, [curve.canonical_rep(x).value for x in z.tolist()]) == 0
    k, d, odd = curve._lattice_distance_array(z)
    assert not odd.any()
    scalar = [curve.lattice_distance(x) for x in z.tolist()]
    assert k.tolist() == [float(s[0]) for s in scalar]
    assert bits(d).tobytes() == bits([s[1] for s in scalar]).tobytes()


def test_sample_circles_match_the_exponential_loop():
    rng = np.random.default_rng(8)
    total = 0
    for count in (1, 2, 7, 256, 2048, 20_000):
        for radius, center, phase in ((2.0, 0j, 0.0), (1.58 * 1.91, 0j, 0.35),
                                      (abs(TAU_GENERIC), 0.25, -0.05),
                                      (rng.uniform(0, 9), complex(*rng.normal(size=2)),
                                       rng.uniform(-7, 7))):
            pts = sample_circle(count, radius, center, phase)
            assert mismatches(pts, oracles.reference_sample_circle(
                count, radius, center, phase)) == 0
            total += count
    assert total >= 60_000


# ============================================================
# Edge sets
# ============================================================

def test_square_root_of_negative_reals_keeps_the_signed_zero():
    xs = [0.0, 1e-310, 0.5, 1.0, 2.0, 3.0, 1e300]
    z = np.array([complex(-x, s) for x in xs for s in (0.0, -0.0)]
                 + [complex(x, s) for x in xs for s in (0.0, -0.0)])
    assert mismatches(_carray.sqrt(z), [x ** 0.5 for x in z.tolist()]) == 0
    # through a cover: f(b) = b on the negative real axis
    b = np.array([complex(-x, s) for x in xs[1:] for s in (0.0, -0.0)])
    cov = cover_g0()
    assert mismatches(cov._sheets_array(b),
                      [cov.sheets(x)[0] for x in b.tolist()]) == 0


def edge_values(tau: complex) -> np.ndarray:
    """|v| exactly 1 and |tau|, exact powers of tau, and values within
    about 1e-12 of a rounding edge of canonical_rep (integer log) and of
    lattice_distance (half-integer log), near |v| = 1 and near 1e+-300."""
    r = abs(tau)
    far = int(300 / math.log10(r))
    units = [1, -1, 1j, -1j, tau, -tau, 1j * tau, -1j * tau,
             tau.conjugate(), r, -r, 1j * r]
    powers = [tau ** k for k in range(-30, 31)]
    edges = []
    for n in (*range(-12, 13), -far, far):
        for m in range(-40, 41):
            edges.append(r ** n * (1 + m * 2.5e-14))
            edges.append(r ** (n + 0.5) * (1 + m * 2.5e-14) * 1j)
    near_powers = [p * (1 + m * 1e-13) for p in powers[20:41] for m in (-10, -1, 1, 10)]
    return np.array(units + powers + edges + near_powers, dtype=complex)


@pytest.mark.parametrize("tau", TAUS)
def test_lattice_edges_match(tau):
    curve = TateCurve(tau)
    z = edge_values(complex(tau))
    v, odd = curve._canonical_array(z)
    assert not odd.any()
    if abs(tau) < 1.1:
        assert np.ptp(np.rint(np.log(np.abs(z)) / math.log(abs(tau)))) > 4096
    assert mismatches(v, [curve.canonical_rep(x).value for x in z.tolist()]) == 0
    k, d, odd = curve._lattice_distance_array(z)
    assert not odd.any()
    scalar = [curve.lattice_distance(x) for x in z.tolist()]
    assert k.tolist() == [float(s[0]) for s in scalar]
    assert bits(d).tobytes() == bits([s[1] for s in scalar]).tobytes()


# the four tau of the rounding-edge tests: dyadic, generic, near 1, wide
EDGE_TAUS = (TAU_DYADIC, TAU_GENERIC, 1.05 + 0j, 7.3 - 2j)
PHASES = (1, -1, 1j, cmath.exp(0.7j))


def rounding_edge_values(tau: complex) -> np.ndarray:
    """Moduli |tau|^t at the rounding edges of the two exponents: t = n
    (an exact power), n + 1/2 (lattice_distance's round) and n - 1e-12
    (canonical_rep's floor), for n near 0 and over the float range, each
    moved by up to 8 ulps either way, at four phases; then zero, subnormal
    and non-finite values."""
    r = abs(tau)
    top = math.log(1.7e308) / math.log(r)
    ns = np.unique(np.concatenate([np.arange(-20, 21), np.linspace(-top, top, 160).round(),
                                   [-math.floor(top), math.floor(top)]]))
    t = np.concatenate([ns, ns + 0.5, ns - 1e-12])
    with np.errstate(over="ignore"):
        moduli = r ** t
    moduli = moduli[np.isfinite(moduli) & (moduli > 0)]
    steps = np.arange(-8, 9)
    moduli = (moduli[:, None] + steps * np.spacing(moduli)[:, None]).ravel()
    specials = [0j, complex(-0.0, 0.0), 5e-324 + 0j, 1e-310 + 1e-310j,
                complex(math.inf, 1.0), complex(1.0, math.nan), complex(math.nan, math.inf),
                1.7e308 + 1.7e308j, 1e308 + 1e308j]
    return np.concatenate([(moduli[:, None] * np.array(PHASES)).ravel(), specials])


@functools.lru_cache(maxsize=None)
def scalar_reductions(tau: complex) -> tuple:
    """The edge values at tau with the scalar canonical_rep and
    lattice_distance outcomes at each."""
    curve = TateCurve(tau)
    z = rounding_edge_values(tau)
    return (z, [outcome(lambda x: curve.canonical_rep(x).value, x) for x in z.tolist()],
            [outcome(curve.lattice_distance, x) for x in z.tolist()])


def shifted_log(monkeypatch, ulps: int) -> None:
    """Make the array log kernel return results ``ulps`` ulps off."""
    plain = _carray.log

    def log(a):
        out = plain(a)
        for _ in range(abs(ulps)):
            out = np.nextafter(out, math.copysign(math.inf, ulps))
        return out

    monkeypatch.setattr(_carray, "log", log)


@pytest.mark.parametrize("ulps", [0, -16, 16], ids=["numpy", "16-below", "16-above"])
@pytest.mark.parametrize("tau", EDGE_TAUS)
def test_lattice_exponents_match_at_rounding_edges(monkeypatch, tau, ulps):
    """The array exponents take numpy's log and recheck by math.log near a
    rounding edge: on values at those edges they match the scalar methods
    bit for bit, odd masks included, and still do with the log kernel 16
    ulps off, which without the recheck moves exponents."""
    z, canonical, lattice = scalar_reductions(complex(tau))
    shifted_log(monkeypatch, ulps)
    curve = TateCurve(tau)
    v, odd = curve._canonical_array(z)
    assert odd.tolist() == [kind != "value" for kind, _ in canonical]
    assert mismatches(v[~odd], [value for kind, value in canonical if kind == "value"]) == 0
    k, d, odd = curve._lattice_distance_array(z)
    assert odd.tolist() == [kind != "value" for kind, _ in lattice]
    regular = [value for kind, value in lattice if kind == "value"]
    assert k[~odd].tolist() == [float(k) for k, _ in regular]
    assert bits(d[~odd]).tobytes() == bits([d for _, d in regular]).tobytes()


def test_same_pair_matches_in_order_and_crossed():
    """Pairs equal in order, crossed (each side moved by a power of tau),
    half equal, and apart."""
    curve = TateCurve(TAU_GENERIC)
    a0, a1 = random_values(9, 4_000), random_values(10, 4_000)
    t = TAU_GENERIC
    cases = [(a0 * t ** 2, a1 / t), (a1 * t, a0 * t ** -3), (a0, a0 * 1.5),
             (a1, a0 * (1 + 1e-12)), (a1 * (1 + 1e-7), a0)]
    for b0, b1 in cases:
        match, odd = curve._same_pair_array(a0, a1, b0, b1)
        assert not odd.any()
        assert match.tolist() == [curve.same_pair(p, q) for p, q in zip(
            zip(a0.tolist(), a1.tolist()), zip(b0.tolist(), b1.tolist()))]
    assert curve._same_pair_array(a0, a1, *cases[1])[0].all()


def test_zero_and_extreme_values_are_odd_exactly_where_the_scalar_raises():
    """Zero, non-finite values, a modulus that overflows, and 1e308(1 + i),
    whose lattice power tau^1024 overflows while its canonical power
    tau^-1024 is subnormal."""
    curve = TateCurve(TAU_DYADIC)
    z = np.array([0j, complex(-0.0, 0.0), complex(math.inf, 1.0),
                  complex(1.0, math.nan), 1.7e308 + 1.7e308j, 1e308 + 1e308j,
                  2 + 0j])
    v, odd = curve._canonical_array(z)
    assert [outcome(curve.canonical_rep, x)[0] != "value" for x in z.tolist()] == (
        odd.tolist()) == [True] * 5 + [False] * 2
    assert mismatches(v[~odd], [curve.canonical_rep(x).value
                                for x in z[~odd].tolist()]) == 0
    _, d, odd = curve._lattice_distance_array(z)
    assert [outcome(curve.lattice_distance, x)[0] != "value" for x in z.tolist()] == (
        odd.tolist()) == [True] * 6 + [False]
    assert d[-1] == curve.lattice_distance(2 + 0j)[1]


def outcome(fn, *args):
    """The value of fn, or the type and message of what it raised."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return (type(exc).__name__, str(exc))


def max_product_defect(fam, pts) -> float:
    """The ``props`` fibre-product defect of ``fam`` on a frame at ``pts``."""
    return cli._max_product_defect(fam, _Frame(pts))


def has_trivial_sub(fam, pts) -> bool:
    return _has_trivial_sub(fam, _Frame(pts))


def test_poles_and_zeros_raise_as_the_scalar_loop():
    """A pole of pell_g0 at b = 1, of pell_g1 at b = 2, a pole of the tiny
    map where 0 < |R| < 1e-300 (its value would be finite) and a zero of it
    at 1 - 1e-6 (reached through underflow), each placed after ordinary
    samples; the first failing b is named."""
    s = surf_plain()
    cases = [(pell_g0(), [0.5 + 0.5j, 1 + 0j, 3 + 0j]),
             (pell_g1(), [1j, 2 + 0j, -1 + 1j]),
             (tiny_pell_g0(), [0.5 + 0j, 1 - 1e-12 + 0j]),
             (tiny_pell_g0(), [0.5 + 0j, 1 - 1e-6 + 0j]),
             (pell_g1().inverse(), [1j, 2 + 0j])]
    for m, pts in cases:
        cover = SpectralCover(s, (), m)
        delta = LineBundleOnX(s, 0, m.norm_value())
        got = outcome(invariance_residual, cover, delta, pts)
        assert got[0] == "PunctureError"
        assert got == outcome(oracles.reference_invariance_residual, cover, delta, pts)
    fam = push_family(s, cover_g1(), pell_g1())
    pts = [1j, 0.5 + 0j, 2 + 0j]
    got = outcome(cover_from_family, fam, pts)
    assert got == ("PunctureError", "pole of bisection map at b=(2+0j)")
    assert got == outcome(oracles.reference_cover_check, fam,
                          fam.data.factor_map.inverse(), pts)
    assert outcome(max_product_defect, fam, pts) == outcome(
        oracles.reference_max_product_defect, fam, pts)
    # the pole first: an odd sample before the trivial-sub loop can stop
    pole_first = pts[::-1]
    got = outcome(has_trivial_sub, fam, pole_first)
    assert got == ("PunctureError", "pole of bisection map at b=(2+0j)")
    assert got == outcome(oracles.reference_has_trivial_sub, fam, pole_first)


# ============================================================
# Report-level loops against the former scalar loops
# ============================================================

def families() -> list[FamilySpec]:
    out = [split_family(surf_plain(TAU_DYADIC), 0.7 + 0.1j, 1.3 - 0.2j),
           split_family(surf_plain(TAU_GENERIC), 1.25j, 0.8 - 0.44j),
           split_family(surf_plain(TAU_DYADIC), 4.0 + 0j, 0.3 + 0j),
           push_family(surf_plain(TAU_DYADIC), cover_g1(), pell_g1()),
           push_family(surf_plain(TAU_DYADIC), cover_g2(), pell_g2()),
           push_family(surf_plain(TAU_GENERIC), cover_g0(), pell_g0()),
           push_family(surf_m23(TAU_WIDE), cover_g1(), pell_g1(QI.of(2, 1)))]
    jumped = attach_generic_jumps(out[3], [(BasePoint.of(3), 2)])
    return out + [jumped, attach_generic_jumps(out[0], [(BasePoint.of(3), 1)])]


def family_points(seed: int) -> list[complex]:
    """Random points, the journal point b = 3 and the multiple fibres of
    surf_m23 appended at the end."""
    return random_points(seed, 3_000, 1.5).tolist() + [3 + 0j, 5 + 0j, -7 + 0j]


@pytest.mark.parametrize("index", range(9))
def test_family_checks_match_the_scalar_loops(index):
    fam = families()[index]
    pts = family_points(10 + index)
    bis = cover_from_family(fam, 16).bisection

    def check_cover(sample):
        cover_from_family(fam, sample)

    for sample in (pts, pts[:-2]):
        assert outcome(max_product_defect, fam, sample) == outcome(
            oracles.reference_max_product_defect, fam, sample)
        assert outcome(check_cover, sample) == outcome(
            oracles.reference_cover_check, fam, bis, sample)
        assert outcome(has_trivial_sub, fam, sample) == outcome(
            oracles.reference_has_trivial_sub, fam, sample)
        if not fam.has_jumps():
            sheaf = fm_transform(fam, 16)
            delta = fam.involution_bundle()
            assert outcome(invariance_residual, sheaf.support, delta, sample) == outcome(
                oracles.reference_invariance_residual, sheaf.support, delta, sample)
            detail = outcome(oracles.reference_fibre_mismatch, fam,
                             fourier.fm_inverse(sheaf), sample)
            frame = _Frame(sample)
            assert outcome(lambda: _roundtrip_report(fam, frame, sheaf).checks[0][2]) == detail


def test_scalar_fallbacks_at_a_huge_tau_match_the_scalar_loops(monkeypatch):
    """At tau = 1e160 a power of tau next to a value's exponent overflows or
    vanishes, so the arrays leave samples odd that the scalar route decides
    without raising.  ``_has_trivial_sub`` gives the scalar loop's result on
    split factors 1e-300 and 1, and 1e-300 and 0.5 (where the loop stops at
    the second sample) without one ``fiber_factors_at`` call: every sample
    is regular for the value arrays, and the loop reduces the values itself.
    Two scalar fallbacks are taken, each with the scalar loop's result: the
    agreement check of ``cover_from_family`` past its vertical-point return,
    and the lattice branch of ``_max_fibre_defect``, on pushforwards whose two
    factors straddle |f| = 1 and on two sections whose product is 1e-100
    against a factor 1."""
    s = surf_plain(1e160 + 0j)
    split = split_family(s, 1e-300 + 0j, 1 + 0j)
    pts = sample_circle(16, 2.0)
    factors = count_calls(monkeypatch, FamilySpec, "fiber_factors_at")
    assert has_trivial_sub(split, pts) is True
    assert factors[0] == 0
    assert oracles.reference_has_trivial_sub(split, pts) is True
    split = split_family(s, 1e-300 + 0j, 0.5 + 0j)
    factors[0] = 0
    assert has_trivial_sub(split, pts) is False
    assert factors[0] == 0
    assert oracles.reference_has_trivial_sub(split, pts) is False

    def check_cover(fam, sample):
        cover_from_family(fam, sample)

    pts = sample_circle(64, 1.5, center=0.25)
    pairs = count_calls(monkeypatch, TateCurve, "same_pair")
    lattice = count_calls(monkeypatch, TateCurve, "lattice_distance")
    for cov, pell, kind in [(cover_g0(), pell_g0(), "value"),
                            (cover_g1(), pell_g1(), "value"),
                            (cover_g2(), pell_g2(), "value")]:
        fam = push_family(s, cov, pell)
        pairs[0] = lattice[0] = 0
        got = outcome(check_cover, fam, pts)
        assert pairs[0] > 0 and got[0] == kind
        assert got == outcome(oracles.reference_cover_check, fam,
                              fam.data.factor_map.inverse(), pts)
        lattice[0] = 0
        got = outcome(max_product_defect, fam, pts)
        assert lattice[0] > 0 and got[0] == kind
        assert got == outcome(oracles.reference_max_product_defect, fam, pts)
    cover = SpectralCover(s, (), TwoSections(1e-50 + 0j, 1e-50 + 0j))
    delta = LineBundleOnX(s, 0, 1 + 0j)
    pts = sample_circle(8, 2.0)
    lattice[0] = 0
    got = invariance_residual(cover, delta, pts)
    assert lattice[0] == 8 and got == 1.0
    assert got == oracles.reference_invariance_residual(cover, delta, pts)


def test_journal_points_take_the_unstable_route():
    """At a jumped fibre the product defect is 0: the scalar route reads the
    unstable class, not the presentation's."""
    for fam in families()[7:]:
        assert max_product_defect(fam, [3 + 0j]) == 0.0
        assert oracles.reference_max_product_defect(fam, [3 + 0j]) == 0.0
        assert max_product_defect(fam, [1.5 + 0.5j]) > 0.0


@pytest.mark.parametrize("cmd", ["cover", "fm", "roundtrip", "props", "sample"])
def test_a_pole_among_explicit_points_exits_64_naming_it(tmp_path, capsys, cmd):
    docs = [pushforward_doc()]
    if cmd in ("cover", "sample"):
        docs.append(pell_cover_doc())
    for doc in docs:
        doc["run"]["points"] = [[1.0, 1.0], [0.5, 0.0], [2.0, 0.0], [-1.5, 0.5]]
        assert run_command([cmd, "--scenario", write(tmp_path, doc)]) == 64
        assert capsys.readouterr().err == (
            "unsupported: pole of bisection map at b=(2+0j)\n")


def test_cover_check_names_the_first_disagreeing_sample(monkeypatch):
    """A family whose inverse map's scale is moved by 1e-6 disagrees with its
    cover at every sample: both routes name the first one."""
    fam = families()[3]
    pts = family_points(20)[:50]
    bis = fam.data.factor_map.inverse()
    moved = perturbed(bis, 1e-6)
    monkeypatch.setattr(PellMap, "inverse", lambda self: moved)
    got = outcome(cover_from_family, fam, pts)
    assert got == ("VerificationError",
                   f"declared and recomputed covers disagree at b={pts[0]}")
    assert got == outcome(oracles.reference_cover_check, fam, moved, pts)


@pytest.mark.parametrize("nudge", [0.0, 1e-6], ids=["same", "moved"])
def test_roundtrip_fibres_match_the_scalar_loop(monkeypatch, nudge):
    plain = fourier.fm_inverse

    def nudged(sheaf):
        data = plain(sheaf).data
        moved = LineBundleOnX(data.l1.surface, data.l1.base_class,
                              data.l1.constant_factor * (1 + nudge))
        return FamilySpec.split(moved.surface, moved, data.l2)

    monkeypatch.setattr(fourier, "fm_inverse", nudged)
    fam = families()[0]
    pts = family_points(21)[:200]
    sheaf = fm_transform(fam, pts)
    report = _roundtrip_report(fam, _Frame(pts), sheaf)
    detail = oracles.reference_fibre_mismatch(fam, nudged(sheaf), pts)
    assert report.checks[0] == ("fiberwise_classes", detail == "", detail)
    assert (detail == "") == (nudge == 0.0)


@pytest.mark.parametrize("nudge", [0.0, 1e-6], ids=["same", "moved"])
def test_torsion_support_check_matches_the_scalar_loop(monkeypatch, nudge):
    plain = fourier.fm_inverse

    def nudged(sheaf):
        data = plain(sheaf).data
        moved = LineBundleOnX(data.l1.surface, data.l1.base_class,
                              data.l1.constant_factor * (1 + nudge))
        return FamilySpec.split(moved.surface, moved, data.l2)

    sheaf = fm_transform(families()[1], 16)
    pts = family_points(23)[:300]
    monkeypatch.setattr(fourier, "fm_inverse", nudged)
    detail = oracles.reference_support_mismatch(
        sheaf, fm_transform(nudged(sheaf), pts), pts)
    assert (detail == "") == (nudge == 0.0)
    report = fourier.torsion_roundtrip_check(sheaf, pts)
    assert report.checks[1] == ("support_bisection", detail == "", detail)


def test_sample_rows_match_the_scalar_loop(tmp_path, capsys):
    doc = pushforward_doc()
    pts = random_points(22, 500, 1.5).tolist()
    doc["run"]["points"] = [[b.real, b.imag] for b in pts]
    assert run_command(["sample", "--scenario", write(tmp_path, doc)]) == 0
    lines = capsys.readouterr().out.splitlines()
    cover = cover_from_family(parse_scenario(doc).family, pts)
    assert lines[1:] == oracles.reference_sample_rows(cover, pts)


# ============================================================
# The descent residual: the frame identity against the scalar loop
# ============================================================

EPS = 2.0 ** -52


@pytest.fixture(scope="module")
def reduction_corpus(descent_corpus) -> list[tuple[FamilySpec, BasePoint]]:
    """The descent corpus plus both presentations at tau = 1.5 + 0.5i and
    1.2, degrees 1 to 3 (a |tau| < 2 circle around each base point)."""
    out = list(descent_corpus)
    for tau in (TAU_GENERIC, 1.2 + 0j):
        for d in (1, 2, 3):
            s = surf_plain(tau, d)
            out.append((split_family(s, 0.7 + 0.1j, 1.3 - 0.2j), BasePoint.of(0)))
            out.append((push_family(s, cover_g1(), pell_g1()),
                        BasePoint.of(Fraction(1, 4))))
    return out


def assert_reduces(fam, twist, samples) -> None:
    """``z_action_residual`` is the scalar closure loop of ``oracles`` with
    the sheet values cancelled: the same decisions at 1e-9 and 0.1; with
    the twist on 0.0 where the loop reads at most 8 ulps of rounding; with
    it off within 8 ulps relative; and every bit the same at tau = 2, where
    the loop's powers of tau are exact."""
    got = fourier.z_action_residual(fam, twist, samples)
    want = oracles.reference_z_action_residual(fam, twist, samples)
    for threshold in (1e-9, 0.1):
        assert (got <= threshold) == (want <= threshold)
    if twist.enabled:
        assert got == 0.0 and want <= 8 * EPS
    else:
        assert abs(got - want) <= 8 * EPS * want
    if fam.curve.tau == 2:
        assert got.hex() == want.hex()


@pytest.mark.parametrize("count", [20, 256, 2048])
def test_descent_residual_matches_the_scalar_loop(reduction_corpus, count):
    for fam, b0 in reduction_corpus:
        twist = descent_divisor(fam, b0)
        for tw in (twist, twist.disabled()):
            assert_reduces(fam, tw, count)


def test_descent_residual_matches_on_explicit_points(reduction_corpus):
    """Random points over many radii, the base point itself (a zero frame
    with the twist off) and an integer sample."""
    for index, (fam, b0) in enumerate(reduction_corpus):
        twist = descent_divisor(fam, b0)
        pts = random_points(30 + index, 300, 1.5).tolist() + [b0.to_complex(), 3]
        for tw in (twist, twist.disabled()):
            assert_reduces(fam, tw, pts)


def test_descent_residual_edges_match_the_scalar_loop():
    """The frame's own edges: a frame that overflows (|b - b0| = 1e200 at
    degree 2, twist off) and a finite frame whose distance from 1 does not
    fit a float are unsupported, where the scalar loop raised
    OverflowError; 0 to a negative power raises ZeroDivisionError, as
    CPython does; frame exponents of 100 and 101 (either side of CPython's
    small-integer cutoff) read the loop's value; a NaN sample is skipped,
    as the builtin max skips it; no samples read 0.0.  The family's own
    edges, where the loop raised, are not seen: a pole of the factor map at
    b = 2, tau = 1e160 (whose square overflows) and a level value that
    overflows on the second sheet only (factor 1e308)."""
    origin = BasePoint.of(0)
    push = push_family(surf_plain(), cover_g1(), pell_g1())
    push_twist = descent_divisor(push, BasePoint.of(Fraction(1, 4)))
    split = split_family(surf_plain(TAU_DYADIC, 2), 0.7 + 0.1j, 1.3 - 0.2j)
    split_twist = descent_divisor(split, origin)
    plain = split_family(surf_plain(), 0.7 + 0.1j, 1.3 - 0.2j)
    plain_twist = descent_divisor(plain, origin)
    for fam, twist, pts, message in [
            (split, split_twist.disabled(), [1 + 1j, 1e200 + 0j, 3j],
             "descent frame (x - b0)^2 overflows at x=(1e+200+0j)"),
            (plain, plain_twist.disabled(), [1j, 1.7e308 + 1.7e308j],
             "descent frame (x - b0)^1 overflows at x=(1.7e+308+1.7e+308j)")]:
        assert outcome(oracles.reference_z_action_residual, fam, twist,
                       pts)[0] == "OverflowError"
        assert outcome(fourier.z_action_residual, fam, twist, pts) == (
            "UnsupportedError", message)
    zero = DescentTwist(origin, (1, 1), 102)
    assert (outcome(fourier.z_action_residual, split, zero, [1j, 0j])
            == outcome(oracles.reference_z_action_residual, split, zero, [1j, 0j])
            == ("ZeroDivisionError", "0.0 to a negative or complex power"))
    near_one = [1 + 0.01j, 0.999j, -1.001 + 0j]
    for degree in (-98, -99):
        twist = DescentTwist(origin, (1, 1), degree)
        got = fourier.z_action_residual(split, twist, near_one)
        want = oracles.reference_z_action_residual(split, twist, near_one)
        assert abs(got - want) <= 8 * EPS * want
    nan = complex(math.nan, 0.0)
    for tw in (split_twist, split_twist.disabled()):
        # the largest defect comes first: a NaN must not replace it
        got = fourier.z_action_residual(split, tw, [2j, nan, 1 + 1j])
        assert got == fourier.z_action_residual(split, tw, [2j, 1 + 1j])
        assert got.hex() == oracles.reference_z_action_residual(
            split, tw, [2j, 1 + 1j]).hex()
    for fam, twist, pts in [(split, split_twist, []), (split, split_twist, 0),
                            (push, push_twist, [])]:
        assert fourier.z_action_residual(fam, twist, pts) == 0.0
    huge = split_family(surf_plain(1e160 + 0j), 0.7 + 0.1j, 1.3 - 0.2j)
    lopsided = split_family(surf_plain(), 0.7 + 0.1j, 1e308 + 0j)
    for fam, twist, pts, kind in [
            (push, push_twist, [1j, 0.5 + 0j, 2 + 0j, -1 + 1j], "PunctureError"),
            (huge, descent_divisor(huge, origin), [1 + 1j, 2j], "ValueError"),
            (lopsided, descent_divisor(lopsided, origin), [1 + 1j, 2j],
             "UnsupportedError")]:
        assert outcome(oracles.reference_z_action_residual, fam, twist,
                       pts)[0] == kind
        assert fourier.z_action_residual(fam, twist, pts) == 0.0
        d = fam.surface.theta_degree
        frame = max(abs((x - twist.b0.to_complex()) ** d - 1.0) for x in pts)
        assert fourier.z_action_residual(fam, twist.disabled(), pts) == frame


def test_descent_residual_makes_no_scalar_calls_on_regular_samples(
        descent_corpus, monkeypatch):
    """The residual reads no family value and no lattice distance, on any
    input, NaN included: a split family and a pushforward family on one
    surface give the same float at the same samples."""
    pairs = [(split, push, descent_divisor(push, b0)) for (split, _), (push, b0)
             in zip(descent_corpus[0::2], descent_corpus[1::2])]
    assert len(pairs) == 6
    calls = [count_calls(monkeypatch, FamilySpec, "spectral_values_at"),
             count_calls(monkeypatch, FamilySpec, "fiber_factors_at"),
             count_calls(monkeypatch, TateCurve, "lattice_distance")]
    for cls in (PellMap, TwoSections):
        calls += [count_calls(monkeypatch, cls, "sheet_values"),
                  count_calls(monkeypatch, cls, "_values_array")]
    inputs = [20, 256, random_points(40, 100).tolist(),
              [1 + 1j, complex(math.nan, 0.0), 2j, complex(math.nan, math.nan)]]
    for split, push, twist in pairs:
        assert split.surface == push.surface
        for tw in (twist, twist.disabled()):
            for samples in inputs:
                got = fourier.z_action_residual(split, tw, samples)
                assert got.hex() == fourier.z_action_residual(push, tw, samples).hex()
    assert all(c == [0] for c in calls)


# ============================================================
# Negative controls: one ulp is seen
# ============================================================

def test_a_one_ulp_coefficient_change_is_seen():
    p = cover_g2().f
    nudged = Poly(p.coeffs)
    first, *rest = p._horner_complex
    nudged.__dict__["_horner_complex"] = (
        complex(np.nextafter(first.real, math.inf), first.imag), *rest)
    b = random_points(6)
    scalar = [p.eval_complex(x) for x in b.tolist()]
    assert mismatches(p._eval_array(b), scalar) == 0
    assert mismatches(nudged._eval_array(b), scalar) > 0


def test_cmath_sqrt_in_the_square_root_is_seen(monkeypatch):
    """``cmath.sqrt`` rounds differently from ``z ** 0.5`` on most inputs:
    a square root taken that way is caught by the parity check."""
    b = random_points(7)
    cov = cover_g2()
    scalar = [cov.sheets(x)[0] for x in b.tolist()]
    assert mismatches(cov._sheets_array(b), scalar) == 0
    monkeypatch.setattr(_carray, "sqrt", lambda a: np.array(
        [cmath.sqrt(z) for z in a.tolist()], dtype=complex))
    assert mismatches(cov._sheets_array(b), scalar) > 0


# ============================================================
# Count guards: no per-sample scalar route on regular samples
# ============================================================

def test_reports_make_no_per_sample_scalar_calls(tmp_path, monkeypatch):
    values_at = count_calls(monkeypatch, PellMap, "sheet_values")
    canonical = count_calls(monkeypatch, TateCurve, "canonical_rep")
    path = write(tmp_path, pushforward_doc())
    for cmd in ("cover", "fm", "roundtrip", "props", "sample"):
        assert run_command([cmd, "--scenario", path, "--samples", "2048",
                            "--seed", "1", "--json", str(tmp_path / "r.json"),
                            *(["--csv", str(tmp_path / "s.csv")]
                              if cmd == "sample" else [])]) == 0
        assert (cmd, values_at[0], canonical[0]) == (cmd, 0, 0)


def sweep_docs() -> list[dict]:
    """The split, genus-1 and genus-2 scenarios of the sample sweep."""
    push_g2 = pushforward_doc()
    push_g2["surface"]["tau"] = [1.5, 0.5]
    push_g2["family"]["presentation"].update(
        cover={"f": [[1, 1, 0, 1], [-1, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1],
                     [0, 1, 0, 1], [1, 1, 0, 1]]},
        map={"p": [[0, 1, 0, 1], [1, 1, 0, 1]], "q": [[1, 1, 0, 1]],
             "s": [1, 1, 0, 1]})
    return [split_doc(), pushforward_doc(), push_g2]


def sweep_families() -> list[FamilySpec]:
    return [parse_scenario(doc).family for doc in sweep_docs()]


# the most value arrays a report builds: each report's frame holds the
# factor map's and the inverse map's values once, and fm and roundtrip add
# the factor values of the family their inverse transform rebuilds
VALUE_ARRAYS = {"cover": 2, "fm": 3, "roundtrip": 3, "props": 2, "sample": 2}
# the most canonical-representative arrays: two per pair of values a report
# reduces (the fibre factors, spectral values and support values of its
# frame, and for fm and roundtrip the rebuilt family's fibre factors), so
# sample's CSV rows reuse the support values its cover check reduced
CANONICAL_ARRAYS = {"cover": 6, "fm": 8, "roundtrip": 8, "props": 6, "sample": 6}


@pytest.mark.parametrize("index", range(3), ids=["split", "push-g1", "push-g2"])
def test_reports_build_each_value_array_once(tmp_path, monkeypatch, index):
    """On the sample-sweep scenarios at 2,048 samples, seed 1: the value
    arrays of ``PellMap`` and ``TwoSections`` together, and the sheet arrays
    of the double cover, stay within VALUE_ARRAYS per report, and the
    canonical-representative arrays within CANONICAL_ARRAYS."""
    values = [count_calls(monkeypatch, cls, "_values_array")
              for cls in (PellMap, TwoSections)]
    sheets = count_calls(monkeypatch, HyperCover, "_sheets_array")
    canonical = count_calls(monkeypatch, TateCurve, "_canonical_array")
    path = write(tmp_path, sweep_docs()[index])
    for cmd, most in VALUE_ARRAYS.items():
        for calls in (*values, sheets, canonical):
            calls[0] = 0
        assert run_command([cmd, "--scenario", path, "--samples", "2048",
                            "--seed", "1", "--json", str(tmp_path / "r.json"),
                            *(["--csv", str(tmp_path / "s.csv")]
                              if cmd == "sample" else [])]) == 0
        built = (values[0][0] + values[1][0], sheets[0])
        assert built[0] <= most and built[1] <= most, (cmd, built)
        assert (built[1] > 0) == (index > 0)
        assert canonical[0] <= CANONICAL_ARRAYS[cmd], (cmd, canonical[0])


def exact(result):
    """``outcome`` with a float result as its bits (``float.hex``)."""
    kind, value = result
    return (kind, value.hex()) if isinstance(value, float) else result


@pytest.mark.parametrize("index", range(3), ids=["split", "push-g1", "push-g2"])
def test_sampled_checks_read_a_report_frame_as_its_points(index):
    """On the sample-sweep scenarios at 256 samples, seed 1, every public
    sampled check gives the same result, bit for bit, with the ``cover``
    report's frame as with that frame's points.  A cover of another
    bisection (the inverse map moved by 1e-6) is measured on its own values,
    not on the frame's: its residual exceeds 1e-7."""
    scn = parse_scenario(sweep_docs()[index], samples=256, seed=1)
    fam, delta = scn.family, scn.family.involution_bundle()
    cover, frame = cli._cover_and_frame(scn)
    pts = list(frame.pts)
    sheaf = fm_transform(fam, frame)
    assert cover == cover_from_family(fam, pts)
    assert sheaf == fm_transform(fam, pts)
    assert roundtrip_check(fam, frame) == roundtrip_check(fam, pts)
    assert torsion_roundtrip_check(sheaf, frame) == torsion_roundtrip_check(sheaf, pts)
    moved = SpectralCover(cover.surface, (), perturbed(cover.bisection, 1e-6))
    for spectral_cover in (cover, sheaf.support, moved):
        for check in (invariance_residual, build_regular_family):
            assert exact(outcome(check, spectral_cover, delta, frame)) == exact(
                outcome(check, spectral_cover, delta, pts))
    assert invariance_residual(cover, delta, frame) <= scn.tol
    assert invariance_residual(moved, delta, frame) > 1e-7


@pytest.mark.parametrize("reverse", [False, True], ids=["declared-first", "rebuilt-first"])
def test_one_frame_serves_a_declared_cover_the_family_and_a_rebuilt_family(
        monkeypatch, reverse):
    """One frame, read for a declared bisection (the family's inverse map,
    its scale moved by 1e-6), for the family and for the family its inverse
    transform rebuilds, in either order and twice over, gives each the
    arrays a fresh frame gives it, bit for bit.  It builds one value array
    per owning map and the two canonical-representative arrays of each pair
    of values it reduces, once.  The family's cover and transform on that
    frame are those on its points, checked against the family's own map."""
    fam = sweep_families()[1]
    pts = default_sample_points(fam, 64)
    own = cover_from_family(fam, pts)
    declared = perturbed(own.bisection, 1e-6)
    rebuilt = fourier.fm_inverse(fm_transform(fam, pts))
    reads = [lambda frame: frame.reps(declared, fam.curve),
             lambda frame: frame.spectral(fam),
             lambda frame: frame.fibre(rebuilt)]
    if reverse:
        reads.reverse()
    owners = []
    plain = PellMap._values_array
    monkeypatch.setattr(PellMap, "_values_array",
                        lambda self, b: owners.append(self) or plain(self, b))
    canonical = count_calls(monkeypatch, TateCurve, "_canonical_array")
    frame = _Frame(pts)
    shared = [read(frame) for read in reads * 2]
    assert [id(m) for m in owners] == [id(m) for m in (
        declared, fam.data.factor_map, rebuilt.data.factor_map)[::-1 if reverse else 1]]
    # reps: 2 for the declared values; spectral: 2 for the factor values'
    # classes and 2 for the spectral values; fibre: 2 for the rebuilt factors
    assert canonical[0] == 8
    for got, read in zip(shared, reads * 2):
        for have, want in zip(got, read(_Frame(pts))):
            assert have.dtype == want.dtype and have.tobytes() == want.tobytes()
    assert cover_from_family(fam, frame) == own
    assert fm_transform(fam, frame) == fm_transform(fam, pts)


@pytest.mark.parametrize("seed", [1, 5, 11])
def test_trivial_sub_reduces_no_lattice_array(monkeypatch, seed):
    """``_has_trivial_sub`` is the scalar loop over the value arrays: on the
    sweep families it stops at the first sample, after at most two scalar
    lattice distances, and builds no lattice array."""
    arrays = count_calls(monkeypatch, TateCurve, "_lattice_distance_array")
    lattice = count_calls(monkeypatch, TateCurve, "lattice_distance")
    for fam in sweep_families():
        pts = default_sample_points(fam, 2048, phase=0.05 * seed)
        lattice[0] = 0
        assert has_trivial_sub(fam, pts) is False
        assert (arrays[0], lattice[0] <= 2) == (0, True)
        assert oracles.reference_has_trivial_sub(fam, pts) is False


def count_logs(monkeypatch) -> dict[str, int]:
    """Elements passed to the array log kernel ("numpy") and to a
    per-element ``math.log`` through ``_carray.each`` ("math")."""
    seen = {"numpy": 0, "math": 0}
    each, log = _carray.each, _carray.log

    def counted_each(fn, a):
        seen["math"] += len(a) if fn is math.log else 0
        return each(fn, a)

    def counted_log(a):
        seen["numpy"] += len(a)
        return log(a)

    monkeypatch.setattr(_carray, "each", counted_each)
    monkeypatch.setattr(_carray, "log", counted_log)
    return seen


@pytest.mark.parametrize("seed", [1, 5, 11])
def test_reports_take_no_per_element_log_on_the_sweep(tmp_path, monkeypatch, seed):
    """On the sample-sweep scenarios at 2,048 samples, every report reduces
    its values mod tau^Z by numpy's log alone: no element is near enough to
    a rounding edge to be rechecked by ``math.log``.  The count does see
    rechecks: 1 and 2 sit on edges of both exponents, and 2^0.5 on one."""
    seen = count_logs(monkeypatch)
    for doc in sweep_docs():
        path = write(tmp_path, doc)
        for cmd in ("cover", "fm", "roundtrip", "props", "sample"):
            seen["numpy"] = 0
            assert run_command([cmd, "--scenario", path, "--samples", "2048",
                                "--seed", str(seed), "--json", str(tmp_path / "r.json"),
                                *(["--csv", str(tmp_path / "s.csv")]
                                  if cmd == "sample" else [])]) == 0
            assert (cmd, seen["math"]) == (cmd, 0) and seen["numpy"] >= 2 * 2048
    curve = TateCurve(TAU_DYADIC)
    curve._canonical_array(np.array([1, 2, 2 ** 0.5], dtype=complex))
    curve._lattice_distance_array(np.array([1, 2, 2 ** 0.5], dtype=complex))
    assert seen["math"] == 2 + 1


def test_declared_cover_is_evaluated_once(tmp_path, monkeypatch):
    values_at = count_calls(monkeypatch, PellMap, "sheet_values")
    arrays = count_calls(monkeypatch, PellMap, "_values_array")
    doc = pell_cover_doc()
    doc["determinant"] = {"factor": [1.0, 0.0]}
    path = write(tmp_path, doc)
    assert run_command(["cover", "--scenario", path, "--samples", "100",
                        "--json", str(tmp_path / "r.json")]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["invariance"]["checked"]
    assert (values_at[0], arrays[0]) == (0, 1)


# ============================================================
# The sample ladder: array tests, then the scalar map test
# ============================================================

def near_point(b: complex, offset: complex) -> BasePoint:
    """A base point at b + offset, to six decimals."""
    z = b + offset
    return BasePoint(QI.from_pair(round(z.real * 1e6), 10**6, round(z.imag * 1e6), 10**6))


def journal_near_circle() -> FamilySpec:
    """The genus-1 sweep family with jumps 5e-4 off a sample of the first
    256- and 2,048-sample rungs at phase 0 and of the second 256-sample
    rung, and one 5e-3 off (not rejected)."""
    fam = sweep_families()[1]
    for b, offset in ((sample_circle(256, 2.0)[7], 5e-4),
                      (sample_circle(256, 2.26, 0j, phase=0.05)[100], 5e-4j),
                      (sample_circle(2048, 2.0)[1500], -5e-4),
                      (sample_circle(256, 2.0)[200], 5e-3)):
        fam = elem_mod(fam, near_point(b, offset), 1, 1.7)
    return fam


def multiple_fibre_near_sample(k: int) -> FamilySpec:
    """The genus-1 pushforward on a surface with a double fibre 1e-4 off
    sample k of the 32-sample circle at tau = 2."""
    near = near_point(sample_circle(32, 2.0)[k], 1e-4)
    surface = SurfaceSpec(TateCurve(TAU_DYADIC), 1, (MultipleFibre(near, 2),))
    return push_family(surface, cover_g1(), pell_g1())


def declared_cover(fam: FamilySpec) -> SpectralCover:
    """The family's spectral cover as a document declares it: its jumps as
    verticals, its inverse factor map as the bisection."""
    verticals = tuple((p, sum(s.degree for s in stack))
                      for p, stack in fam._stacks.items() if stack)
    return SpectralCover(fam.surface, verticals, fam.data.factor_map.inverse())


def assert_same_ladder(fam: FamilySpec, count: int, phase: float) -> int:
    """The family's rung, after checking its points against the scalar loop
    and, where every journal point carries a jump, against the ladder of
    its declared cover."""
    rung, want = oracles.reference_sample_ladder(fam, count, phase)
    got = default_sample_points(fam, count, phase=phase)
    radius = abs(fam.curve.tau) * (1.0 + 0.13 * rung)
    assert mismatches(got, want) == 0
    assert got == sample_circle(count, radius, 0j, phase=phase + 0.05 * rung)
    if all(fam._stacks.values()):
        assert _cover_points(declared_cover(fam), count, phase) == got
    return rung


@pytest.mark.parametrize("count", [256, 2048])
def test_sample_ladder_matches_the_scalar_loop(count):
    """The sweep families at seeds 0-15 pick the oracle's rung and points,
    bit for bit."""
    for fam in sweep_families():
        for seed in range(16):
            assert_same_ladder(fam, count, 0.05 * seed)


def test_sample_ladder_matches_near_journal_points_and_multiple_fibres():
    fam = journal_near_circle()
    rungs = [assert_same_ladder(fam, 256, 0.05 * seed) for seed in range(16)]
    rungs += [assert_same_ladder(fam, 2048, 0.05 * seed) for seed in range(4)]
    assert (rungs[0], rungs[16], max(rungs)) == (2, 1, 2)
    near = BasePoint(QI.from_pair(499, 250, 78, 625))
    split = split_family(SurfaceSpec(TateCurve(TAU_DYADIC), 1, (MultipleFibre(near, 2),)),
                         0.7 + 0.1j, 1.3 - 0.2j)
    assert assert_same_ladder(split, 32, 0.0) == 1
    assert assert_same_ladder(multiple_fibre_near_sample(10), 32, 0.0) == 1
    # w^2 = b^3 - 8 branches at b = 2; at this phase the first sample is
    # 1e-8 from it, where |f| is about 1.2e-7
    cover = HyperCover(Poly.of(-8, 0, 0, 1))
    branched = push_family(surf_plain(), cover,
                           PellMap.from_pell_pair(cover, Poly.of(3), Poly.of(1), QI.of(1)))
    phase = -2.0 * math.pi * 0.318 / 32 + 5e-9
    assert 1e-9 < cover.branch_distance(sample_circle(32, 2.0, 0j, phase=phase)[0]) < 1e-6
    assert assert_same_ladder(branched, 32, phase) == 1


def test_a_family_avoids_journal_points_whose_stacks_are_emptied():
    """A push and its pop 5e-4 off a sample of the first 32-sample rung
    leave the family jump-free with the point in its journal: its ladder
    steps past the point, as the scalar loop's does.  Its cover has no
    vertical there and keeps the first rung."""
    at = near_point(sample_circle(32, 2.0)[7], 5e-4)
    fam = allowable_mod(elem_mod(sweep_families()[1], at, 1, 1.7), at)
    assert not fam.has_jumps()
    assert assert_same_ladder(fam, 32, 0.0) == 1
    cover = declared_cover(fam)
    assert cover.verticals == ()
    assert _cover_points(cover, 32) == sample_circle(32, 2.0)


def test_a_special_point_past_the_float_range_from_the_circle_is_far():
    """A journal point about 2.1e308 from every sample: the scalar loop's
    ``abs(b - s)`` raised OverflowError there, the array distance reads
    inf, so the ladder keeps its first rung (the oracle still raises)."""
    big = int(1.5e308)
    fam = elem_mod(sweep_families()[0], BasePoint.of(big, big), 1, 1.7)
    assert default_sample_points(fam, 16) == sample_circle(16, 2.0)
    with pytest.raises(OverflowError):
        oracles.reference_sample_ladder(fam, 16)


@pytest.mark.parametrize("puncture", [4, 20, None])
def test_map_test_sees_the_scalar_loops_samples_in_order(monkeypatch, puncture):
    """On a rung holding a multiple fibre by sample 10 and a puncture at
    ``puncture``, the map test is called at the samples the scalar loop
    reaches, in its order: up to the puncture, or up to the flagged sample
    when that comes first; a raising map test raises the same error after
    the same calls."""
    fam = multiple_fibre_near_sample(10)
    rung0 = sample_circle(32, 2.0)

    def recorder(calls, boom=None):
        def punctures_near(pell, b, margin=1e-6):
            calls.append(b)
            if b == boom:
                raise PunctureError(f"map test failed at b={b}")
            return (puncture is not None and b == rung0[puncture]
                    or oracles.reference_punctures_near(pell, b))
        return punctures_near

    for boom in (None, sample_circle(32, 2.26, 0j, phase=0.05)[3]):
        got, want = [], []
        monkeypatch.setattr(PellMap, "punctures_near", recorder(got, boom))
        try:
            outcome = default_sample_points(fam, 32)
        except PunctureError as exc:
            outcome = str(exc)
        try:
            expected = oracles.reference_sample_ladder(fam, 32, 0.0, recorder(want, boom))[1]
        except PunctureError as exc:
            expected = str(exc)
        assert got == want and outcome == expected
        stop = puncture if puncture == 4 else 9
        assert got[:stop + 1] == rung0[:stop + 1] and got[stop + 1] != rung0[stop + 1]


def test_map_test_makes_four_scalar_evaluations_per_sample(monkeypatch):
    """``Poly.eval_complex`` calls per ladder sample that reaches the map
    test: 4 on a pushforward (R, U, V and f in ``punctures_near``; the
    branch test runs in arrays), none on a split family.  perfbench's trace
    test pins more than 256 of these calls in a 256-sample ``props`` report,
    which 4 per sample keeps; that pin is what keeps the map test scalar."""
    evals = count_calls(monkeypatch, Poly, "eval_complex")
    tests = count_calls(monkeypatch, PellMap, "punctures_near")
    split, *pushforwards = sweep_families()
    for fam in pushforwards:
        evals[0] = tests[0] = 0
        default_sample_points(fam, 256, phase=0.05)
        assert tests[0] == 256 and evals[0] == 4 * tests[0]
    evals[0] = 0
    default_sample_points(split, 256, phase=0.05)
    assert (evals[0], tests[0]) == (0, 256)
