# tests/oracles.py
"""
Independent engines used to verify library outputs.

Everything here recomputes a quantity from first principles (coefficient
recursions, truncated functional-equation matrices, Smith normal forms,
linear journal replays, uncached float evaluation) without touching the library's closed forms, so
each test compares two genuinely different computation routes.
"""

from __future__ import annotations

import numpy as np

from spectral_forge import LineBundleOnX, PopStep, PunctureError, PushStep

# ============================================================
# Rank-1 cohomology: Laurent seed counting
# ============================================================

def laurent_h0(tau: complex, d: int, alpha: complex,
               window: int = 40, eps: float = 1e-9) -> int:
    """Count independent Laurent solutions of s(tau*z) = alpha * z^d * s(z).

    The coefficient recursion is a_n = alpha * tau^(-n) * a_(n-d).  Each
    residue class mod |d| carries one orbit; a seed contributes a section
    exactly when the orbit decays to zero in both directions, which is
    decided numerically on a two-sided window.
    """
    if d == 0:
        # a_n * (tau^n - alpha) = 0: a single surviving index, if any
        for n in range(-window, window + 1):
            t = tau ** n
            if abs(t - alpha) <= eps * max(1.0, abs(t)):
                return 1
        return 0
    step = abs(d)
    count = 0
    for seed in range(step):
        mags = [1.0]
        a = 1.0 + 0j
        n = seed
        # march towards +infinity: a_{n+step} from a_n
        while n + step <= window:
            if d > 0:
                a = alpha * tau ** (-(n + step)) * a
            else:
                a = tau ** n / alpha * a
            n += step
            mags.append(abs(a))
        up_edge = mags[-1]
        peak = max(mags)
        a = 1.0 + 0j
        n = seed
        mags = [1.0]
        # march towards -infinity: a_{n-step} from a_n
        while n - step >= -window:
            if d > 0:
                a = tau ** n / alpha * a
            else:
                a = alpha * tau ** (step - n) * a
            n -= step
            mags.append(abs(a))
        down_edge = mags[-1]
        peak = max(peak, max(mags))
        if up_edge <= eps * peak and down_edge <= eps * peak:
            count += 1
    return count


def laurent_h1(tau: complex, d: int, alpha: complex,
               window: int = 40, eps: float = 1e-9) -> int:
    """h^1 through duality: the canonical bundle is trivial, so
    h^1(L(d, alpha)) = h^0 of the dual automorphy (degree -d, factor 1/alpha)."""
    return laurent_h0(tau, -d, 1.0 / alpha, window, eps)


# ============================================================
# Any-rank cohomology: functional-equation nullity
# ============================================================

Entries = "list[list[dict[int, complex]]]"


def automorphy_nullity(tau: complex, entries: Entries,
                       n_max: int | None = None, eps: float = 1e-8) -> int:
    """dim of the Laurent solution space of s(tau*z) = A(z) * s(z).

    A is a rank x rank matrix of finite Laurent polynomials, each given as
    {power: coefficient}.  Unknowns are the coefficients c[i, n], |n| <= n_max;
    matching the coefficient of z^m for |m| <= n_max + S (S the largest
    entry degree) gives the linear system.  Out-of-window coefficients are
    dropped: true solutions decay like |tau|^(-n^2 / (2 S)), so the window
    grows with S to keep the truncation error far below the SVD threshold.
    Rows are sup-normalized to keep the huge tau^m diagonal from swamping
    the spectrum.
    """
    rank = len(entries)
    spread = max((abs(k) for row in entries for e in row for k in e),
                 default=0)
    if n_max is None:
        n_max = max(16, 12 * spread)
    m_max = n_max + spread
    width = 2 * n_max + 1
    n_unk = rank * width
    rows = []
    for m in range(-m_max, m_max + 1):
        for i in range(rank):
            row = np.zeros(n_unk, dtype=complex)
            if abs(m) <= n_max:
                row[i * width + (m + n_max)] += tau ** m
            for j in range(rank):
                for k, coeff in entries[i][j].items():
                    n = m - k
                    if abs(n) <= n_max:
                        row[j * width + (n + n_max)] -= coeff
            top = np.max(np.abs(row))
            if top > 0:
                rows.append(row / top)
    if not rows:
        return n_unk
    mat = np.array(rows)
    sigma = np.linalg.svd(mat, compute_uv=False)
    cut = eps * max(1.0, float(sigma[0]))
    # nullity is unknowns minus rank; dropped all-zero rows leave unknowns
    # that never appear in the singular value list
    rank = int(np.sum(sigma >= cut))
    return n_unk - rank


def line_entries(d: int, alpha: complex) -> list:
    return [[{d: alpha}]]


def dual_line_entries(d: int, alpha: complex) -> list:
    return [[{-d: 1.0 / alpha}]]


def extension_entries(c: complex, p: complex, q: complex,
                      g: complex = 1.0 + 0j) -> list:
    """Automorphy of the (p, q) extension of L(1, 1/c) by L(-1, c), twisted
    by the degree-0 bundle of factor g: upper triangular with the cocycle
    p + q*z in the corner."""
    return [
        [{-1: c * g}, {0: p * g, 1: q * g}],
        [{}, {1: g / c}],
    ]


def dual_extension_entries(c: complex, p: complex, q: complex,
                           g: complex = 1.0 + 0j) -> list:
    """Inverse transpose of ``extension_entries``; the diagonal product is 1
    (trivial determinant), so the corner is just the negated cocycle."""
    return [
        [{1: 1.0 / (c * g)}, {}],
        [{0: -p / g, 1: -q / g}, {-1: c / g}],
    ]


def extension_h0(tau: complex, c: complex, p: complex, q: complex,
                 g: complex = 1.0 + 0j) -> int:
    return automorphy_nullity(tau, extension_entries(c, p, q, g))


def extension_h1(tau: complex, c: complex, p: complex, q: complex,
                 g: complex = 1.0 + 0j) -> int:
    return automorphy_nullity(tau, dual_extension_entries(c, p, q, g))


# ============================================================
# Abelian group shapes: Smith normal form via sympy
# ============================================================

def smith_invariant_factors(orders: "list[int]") -> "list[int]":
    """Nontrivial invariant factors of sum_i Z/orders[i], via sympy's SNF of
    the diagonal relation matrix."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form
    if not orders:
        return []
    mat = Matrix.diag(*orders)
    snf = smith_normal_form(mat, domain=ZZ)
    out = [int(snf[i, i]) for i in range(min(snf.shape))]
    return [x for x in out if x not in (0, 1)]


# ============================================================
# Modification journals: linear replay
# ============================================================

def replay_jump_stack(steps, at) -> list:
    """The push stack at `at`, by scanning the whole journal."""
    stack: list = []
    for step in steps:
        if step.at == at:
            if isinstance(step, PushStep):
                stack.append(step)
            else:
                if not stack:
                    raise ValueError("pop without a jump in journal")
                stack.pop()
    return stack


def replay_jump_points(steps) -> list:
    """Points with a nonempty stack, in order of first appearance."""
    pts: list = []
    for step in steps:
        if not any(step.at == p for p in pts):
            pts.append(step.at)
    return [p for p in pts if replay_jump_stack(steps, p)]


def replay_jumping_sequence(steps, at) -> tuple[int, ...]:
    """Heights peeled off by repeated pops at `at`, each read from a fresh
    replay of the lengthened journal."""
    steps = list(steps)
    heights: list[int] = []
    while stack := replay_jump_stack(steps, at):
        heights.append(stack[-1].degree)
        steps.append(PopStep(at))
    return tuple(heights)


def replay_c2(base_c2: int, steps) -> int:
    """Second Chern number: a push adds its degree, a pop removes the degree
    of the push it cancels (points matched by linear search)."""
    c2 = base_c2
    keys: list = []
    stacks: list[list[int]] = []
    for step in steps:
        i = next((j for j, k in enumerate(keys) if k == step.at), None)
        if i is None:
            keys.append(step.at)
            stacks.append([])
            i = len(keys) - 1
        if isinstance(step, PushStep):
            stacks[i].append(step.degree)
            c2 += step.degree
        else:
            c2 -= stacks[i].pop()
    return c2


def replay_determinant(family):
    """The presentation determinant twisted, step by step, by the dual of
    each step's fibre: a residue at a multiple fibre, else the base class."""
    surface = family.surface
    det = family.presentation_determinant()
    for step in family.steps:
        parts = tuple(int(mf.at == step.at) for mf in surface.multiple_fibres)
        twist = LineBundleOnX(surface, 0 if any(parts) else 1, 1.0 + 0j, parts)
        det = det.tensor(twist.dual())
    return det


# ============================================================
# Float image of exact data: uncached evaluation
# ============================================================

def reference_eval_complex(poly, b: complex) -> complex:
    """Horner's rule with every coefficient converted to float afresh."""
    acc = 0j
    for c in reversed(poly.coeffs):
        acc = acc * b + c.to_complex()
    return acc


def reference_sheets(cover, b: complex) -> tuple[complex, complex]:
    w = complex(reference_eval_complex(cover.f, b)) ** 0.5
    return (w, -w)


def reference_evaluate_at(pell, b: complex, w: complex) -> complex:
    """s (U + V w) / R at one (b, w), evaluating R, U, V and s for this w
    alone; the pole is checked before the zero."""
    den = reference_eval_complex(pell.r_part, b)
    if abs(den) < 1e-300:
        raise PunctureError(f"pole of bisection map at b={b}")
    num = (reference_eval_complex(pell.u_part, b)
           + reference_eval_complex(pell.v_part, b) * w)
    if abs(num) < 1e-300:
        raise PunctureError(f"zero of bisection map at b={b}")
    return pell.scale.to_complex() * num / den


def reference_sheet_values(pell, b: complex) -> tuple[complex, complex]:
    """One full evaluation per sheet, sheet 0 first."""
    w0, w1 = reference_sheets(pell.cover, b)
    return (reference_evaluate_at(pell, b, w0),
            reference_evaluate_at(pell, b, w1))


def reference_punctures_near(pell, b: complex, margin: float = 1e-6) -> bool:
    den = abs(reference_eval_complex(pell.r_part, b))
    num = min(abs(reference_eval_complex(pell.u_part, b)
                  + reference_eval_complex(pell.v_part, b) * w)
              for w in reference_sheets(pell.cover, b))
    return den < margin or num < margin
