"""Workload inputs and tasks.

A workload turns the benchmark seed into rounds of tasks.  Every round of a
workload has the same mix of task kinds, so percentiles over any number of
whole rounds describe the same distribution; the seed only moves the inputs
inside that mix (sampling phase, push/pop pattern, points and multiples).
Each input is drawn from a finite pool so that every task has a reference
recorded in ``references/<workload>.json``.

A task runs in two steps: ``execute`` is the timed call into the program,
``digest`` turns its raw result into the plain data the gate compares.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import spectral_forge as sf
from spectral_forge import cli

ROOT = Path(__file__).resolve().parent.parent
# Relative to ROOT, which is the working directory of every run: reports
# embed the CSV path, so it must be the same string in every checkout.
WORK = Path("perfbench") / "_work"
OUT_JSON = str(WORK / "out" / "report.json")
OUT_CSV = str(WORK / "out" / "rows.csv")


@dataclass(frozen=True)
class Task:
    key: str            # reference key, unique within the workload
    kind: str           # cli | chain | equal | solve | chart | theta
    units: int          # work units the task completes when it succeeds
    spec: tuple         # kind-specific parameters
    cls: str            # task class: the key without the seed-drawn inputs
    journal_steps: int = 0


@dataclass
class Outcome:
    exit: int           # CLI exit code; 0 or 1 (raised) for library jobs
    data: dict = field(default_factory=dict)
    error: str = ""


def _rng(*parts: Any) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


# ============================================================
# CLI tasks (sample-sweep, journal-replay)
# ============================================================

def make_out_dir() -> None:
    Path(OUT_JSON).parent.mkdir(parents=True, exist_ok=True)


def run_cli(argv: list[str]) -> Outcome:
    """One in-process CLI report; output files are removed first so a failed
    run never leaves an older report to be hashed."""
    for path in (OUT_JSON, OUT_CSV):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = cli.run_command(argv)
    return Outcome(code, {}, err.getvalue().strip())


def digest_cli(task: Task, raw: Outcome) -> Outcome:
    data = {"report_sha256": _sha256(OUT_JSON)}
    if task.spec[0] == "sample":
        data["csv_sha256"] = _sha256(OUT_CSV)
    return Outcome(raw.exit, data, raw.error)


F_G1 = [[1, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1], [1, 1, 0, 1]]          # b^3 + 1
F_G2 = [[1, 1, 0, 1], [-1, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1],
        [0, 1, 0, 1], [1, 1, 0, 1]]                                       # b^5 - b + 1


def _split_doc() -> dict:
    return {"surface": {"tau": [2.0, 0.0], "theta_degree": 1},
            "family": {"presentation": {
                "type": "split", "factors": [[0.7, 0.1], [1.3, -0.2]]}}}


def _push_g1_doc() -> dict:
    return {"surface": {"tau": [2.0, 0.0], "theta_degree": 1},
            "family": {"presentation": {
                "type": "pushforward", "cover": {"f": F_G1},
                "map": {"p": [[3, 1, 0, 1]], "q": [[1, 1, 0, 1]],
                        "s": [1, 1, 0, 1]}}}}


def _push_g2_doc() -> dict:
    return {"surface": {"tau": [1.5, 0.5], "theta_degree": 1},
            "family": {"presentation": {
                "type": "pushforward", "cover": {"f": F_G2},
                "map": {"p": [[0, 1, 0, 1], [1, 1, 0, 1]],
                        "q": [[1, 1, 0, 1]], "s": [1, 1, 0, 1]}}}}


class SampleSweep:
    """cover/fm/roundtrip/props/sample at 256 and 2048 samples on three
    jump-free scenarios, plus classify on the two pushforwards (the only
    command that reaches ``surface.fibre_component_groups``).

    Round 0 runs at the first CLI seed of ``cli_seeds``; later rounds draw
    the others from the benchmark seed.  CLI seeds 0, 2, 3, 4 and 9 are left
    out: at those phases a sample of the genus-1 pushforward lands next to a
    pole of its map and the reports exit 1 (see the README).  The split
    scenario carries the descent point, so ``props`` reaches
    ``z_action_residual``; on the pushforwards that check costs 3-9 s per
    2048-sample report and would swamp the round.
    """

    name = "sample-sweep"
    unit = "samples"
    min_rounds = 3
    cli_seeds = (1, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15)
    sizes = (256, 2048)
    commands = ("cover", "fm", "roundtrip", "props", "sample")

    def __init__(self, seed: int):
        self.seed = seed
        make_out_dir()
        split = _split_doc()
        split["descent"] = {"b0": [0, 1, 0, 1]}
        self.docs = {"split-t2": split, "push-g1-t2": _push_g1_doc(),
                     "push-g2-t1.5+0.5i": _push_g2_doc()}
        self.paths = {}
        for name, doc in self.docs.items():
            path = WORK / "scenarios" / f"{self.name}-{name}.json"
            _write_json(path, doc)
            self.paths[name] = str(path)

    def cli_seed(self, rnd: int) -> int:
        if rnd == 0:
            return self.cli_seeds[0]
        return _rng(self.name, self.seed, rnd).choice(self.cli_seeds[1:])

    def tasks_for(self, cli_seed: int) -> list[Task]:
        out = []
        for scn, path in self.paths.items():
            for n in self.sizes:
                for cmd in self.commands:
                    argv = [cmd, "--scenario", path, "--samples", str(n),
                            "--seed", str(cli_seed), "--json", OUT_JSON]
                    if cmd == "sample":
                        argv += ["--csv", OUT_CSV]
                    out.append(Task(f"{scn}/{cmd}/n{n}/s{cli_seed}", "cli", n,
                                    (cmd, tuple(argv)), f"{scn}/{cmd}/n{n}"))
            if scn.startswith("push"):
                argv = ["classify", "--scenario", path, "--samples", "256",
                        "--seed", str(cli_seed), "--json", OUT_JSON]
                out.append(Task(f"{scn}/classify/s{cli_seed}", "cli", 0,
                                ("classify", tuple(argv)), f"{scn}/classify"))
        return out

    def round_tasks(self, rnd: int) -> list[Task]:
        return self.tasks_for(self.cli_seed(rnd))

    def pool(self) -> list[Task]:
        return [t for s in self.cli_seeds for t in self.tasks_for(s)]

    def execute(self, task: Task) -> Outcome:
        return run_cli(list(task.spec[1]))

    def digest(self, task: Task, raw: Outcome) -> Outcome:
        return digest_cli(task, raw)


# Journal base points: away from the sample circle |b| = 2, the branch points
# of b^3 + 1 and the poles b^3 = 8 of the genus-1 map.
JOURNAL_POINTS = ([3, 1, 0, 1], [-3, 1, 0, 1], [0, 1, 3, 1], [0, 1, -3, 1],
                  [5, 2, 1, 1], [-5, 2, -1, 1], [7, 3, 0, 1], [1, 2, 5, 2])


def make_journal(variant: int, length: int) -> list[dict]:
    """A valid push/pop journal with a fixed shape: every point gets the same
    number of steps and ends at the same stack height, so all variants of a
    length cost about the same; the variant only moves the interleaving of
    points, the order of pushes and pops at each point and the degrees.
    Pushes never go below the current height (equal height reuses the line
    point) and pops only hit jumped fibres."""
    rng = _rng("journal", variant, length)
    per_point = length // len(JOURNAL_POINTS)
    order = [i for i in range(len(JOURNAL_POINTS)) for _ in range(per_point)]
    rng.shuffle(order)
    pops_left = [per_point * 2 // 5] * len(JOURNAL_POINTS)
    pushes_left = [per_point - q for q in pops_left]
    stacks: list[list[int]] = [[] for _ in JOURNAL_POINTS]
    steps: list[dict] = []
    for i in order:
        stack, at = stacks[i], JOURNAL_POINTS[i]
        p, q = pushes_left[i], pops_left[i]
        if stack and q and (not p or rng.random() < q / (p + q)):
            pops_left[i] -= 1
            stack.pop()
            steps.append({"op": "pop", "at": at})
            continue
        pushes_left[i] -= 1
        degree = stack[-1] + rng.randrange(2) if stack else 1 + rng.randrange(2)
        stack.append(degree)
        steps.append({"op": "push", "at": at, "degree": degree,
                      "line_point": [1.7, 0.0]})
    return steps


class JournalReplay:
    """modify/props/cover at 32 samples on split and genus-1 pushforward
    families whose journals have 200, 400 and 800 steps over 8 points."""

    name = "journal-replay"
    unit = "steps"
    min_rounds = 2
    variants = 16
    lengths = (200, 400, 800)
    commands = ("modify", "props", "cover")

    def __init__(self, seed: int):
        self.seed = seed
        make_out_dir()
        self.bases = {"split-t2": _split_doc(), "push-g1-t2": _push_g1_doc()}

    def variant(self, rnd: int) -> int:
        return _rng(self.name, self.seed, rnd).randrange(self.variants)

    def tasks_for(self, variant: int, write: bool) -> list[Task]:
        out = []
        for length in self.lengths:
            steps = make_journal(variant, length)
            for base, doc in self.bases.items():
                path = WORK / "scenarios" / f"{self.name}-{base}-{length}.json"
                if write:
                    full = json.loads(json.dumps(doc))
                    full["family"]["modifications"] = steps
                    _write_json(path, full)
                for cmd in self.commands:
                    argv = (cmd, "--scenario", str(path), "--samples", "32",
                            "--json", OUT_JSON)
                    out.append(Task(f"{base}/{cmd}/len{length}/v{variant}",
                                    "cli", length, (cmd, argv),
                                    f"{base}/{cmd}/len{length}", length))
        return out

    def round_tasks(self, rnd: int) -> list[Task]:
        return self.tasks_for(self.variant(rnd), write=True)

    def pool(self) -> Iterator[Task]:
        """Every task any seed can draw.  A variant's scenario files are
        written just before its tasks, so run each task before the next."""
        for v in range(self.variants):
            yield from self.tasks_for(v, write=True)

    def execute(self, task: Task) -> Outcome:
        return run_cli(list(task.spec[1]))

    def digest(self, task: Task, raw: Outcome) -> Outcome:
        return digest_cli(task, raw)


# ============================================================
# Library jobs: exact Cantor arithmetic
# ============================================================

def _qi(re: int, im: int = 0) -> sf.QI:
    return sf.QI.of(re, im)


# Curves w^2 = f(b), non-branch rational points (x, w), and the pair (p, q)
# of the family's map (p + q w)^2 / (p^2 - q^2 f) (``PellMap.from_pell_pair``).
CANTOR_COVERS = {
    1: ((1, 0, 0, 1), [(0, 1), (2, 3)], (3,), (1,)),
    2: ((1, -1, 0, 0, 0, 1), [(0, 1), (1, 1), (-1, 1), ((0, 1), 1)], (0, 1), (1,)),
    3: ((1, -1, 0, 0, 0, 0, 0, 1), [(0, 1), (1, 1), (-1, 1)], (0, 1), (1,)),
}
# Chain targets: genus 3 at 61*P reaches about 3,200-bit coefficients; the
# genus-1 points are torsion, so that chain stays at low height throughout.
CHAIN_TARGET = {1: 60, 2: 40, 3: 61}
EQUAL_KS = (1, 2, 3)            # k = genus + 1 .. genus + 3
EQUAL_PER_K = 3


def _as_qi(x: Any) -> sf.QI:
    return _qi(*x) if isinstance(x, tuple) else _qi(x)


def encode_class(d: sf.DivisorClass) -> dict:
    def poly(p: sf.Poly) -> list[list[int]]:
        return [[c.re.numerator, c.re.denominator, c.im.numerator,
                 c.im.denominator] for c in p.coeffs]
    return {"u": poly(d.u), "v": poly(d.v), "inf": d.inf_mult}


def coeff_bits(d: sf.DivisorClass) -> int:
    return max((max(abs(c.re.numerator).bit_length(), c.re.denominator.bit_length(),
                    abs(c.im.numerator).bit_length(), c.im.denominator.bit_length())
                for p in (d.u, d.v) for c in p.coeffs), default=0)


class CantorChain:
    """n*P chains by repeated class_add on genus 1-3 covers with the
    aP + bP = (a+b)P cross-check, in_prym and FamilySpec.twisted, plus
    low-height class_equal / classes_equal_by_search jobs."""

    name = "cantor-chain"
    unit = "class_add"
    min_rounds = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.covers: dict[int, sf.HyperCover] = {}
        self.families: dict[int, sf.FamilySpec] = {}
        surface = sf.SurfaceSpec(sf.TateCurve(2.0 + 0j), 1, ())
        for g, (f, pts, p, q) in CANTOR_COVERS.items():
            cov = sf.HyperCover(sf.Poly.of(*f))
            self.covers[g] = cov
            fmap = sf.PellMap.from_pell_pair(cov, sf.Poly.of(*p), sf.Poly.of(*q),
                                             _qi(1))
            x, w = _as_qi(pts[0][0]), _as_qi(pts[0][1])
            base = sf.class_add(sf.point_class(cov, x, w),
                                sf.class_neg(sf.point_class(cov, x, -w)))
            self.families[g] = sf.FamilySpec.pushforward(surface, cov, fmap,
                                                         twist=base)

    def point(self, g: int, i: int, sign: int) -> sf.DivisorClass:
        x, w = CANTOR_COVERS[g][1][i]
        w = _as_qi(w)
        return sf.point_class(self.covers[g], _as_qi(x), w if sign > 0 else -w)

    @staticmethod
    def _chain_task(g: int, i: int, sign: int, a: int) -> Task:
        target = CHAIN_TARGET[g]
        return Task(f"chain/g{g}/p{i}/{'+' if sign > 0 else '-'}", "chain",
                    target + 3, (g, i, sign, target, a), f"chain/g{g}/p{i}")

    @staticmethod
    def _equal_task(g: int, i: int, sign: int, k: int, j: int) -> Task:
        return Task(f"equal/g{g}/p{i}/{'+' if sign > 0 else '-'}/k{k}/q{j}",
                    "equal", k + 1, (g, i, sign, k, j), f"equal/g{g}/k{k}")

    @staticmethod
    def _equal_pool(g: int, k: int) -> list[tuple]:
        n = len(CANTOR_COVERS[g][1])
        return [(g, i, sign, k, j) for i in range(n) for sign in (1, -1)
                for j in range(n) if j != i]

    def round_tasks(self, rnd: int) -> list[Task]:
        rng = _rng(self.name, self.seed, rnd)
        tasks = []
        for g in CANTOR_COVERS:
            for i in range(len(CANTOR_COVERS[g][1])):
                sign = rng.choice((1, -1))
                tasks.append(self._chain_task(g, i, sign,
                                              rng.randrange(2, CHAIN_TARGET[g] - 1)))
            for k in EQUAL_KS:
                tasks += [self._equal_task(*spec) for spec in
                          rng.sample(self._equal_pool(g, g + k), EQUAL_PER_K)]
        return tasks

    def pool(self) -> list[Task]:
        tasks = []
        for g in CANTOR_COVERS:
            tasks += [self._chain_task(g, i, sign, 2)
                      for i in range(len(CANTOR_COVERS[g][1])) for sign in (1, -1)]
            tasks += [self._equal_task(*spec)
                      for k in EQUAL_KS for spec in self._equal_pool(g, g + k)]
        return tasks

    def execute(self, task: Task) -> Outcome:
        try:
            if task.kind == "chain":
                return Outcome(0, self._chain(*task.spec))
            return Outcome(0, self._equal(*task.spec))
        except Exception as exc:  # a raising job is a failed task
            return Outcome(1, {}, f"{type(exc).__name__}: {exc}")

    def _chain(self, g: int, i: int, sign: int, target: int, a: int) -> dict:
        p = self.point(g, i, sign)
        b = target - a
        d, kept = p, {}
        for n in range(2, target + 1):
            d = sf.class_add(d, p)
            if n in (a, b):
                kept[n] = d
        total = sf.class_add(kept[a], kept[b])
        return {"NP": d, "aP+bP": total,
                "class_equal": sf.class_equal(total, d),
                "in_prym": sf.in_prym(d),
                "twist": self.families[g].twisted(d).data.twist}

    def _equal(self, g: int, i: int, sign: int, k: int, j: int) -> dict:
        p, q = self.point(g, i, sign), self.point(g, j, 1)
        reduced, composed = p, p
        for _ in range(k - 1):
            reduced = sf.class_add(reduced, p)
            composed = sf.covers.mumford_compose(composed, p)
        checks = [sf.class_equal(composed, reduced), sf.class_equal(p, q),
                  sf.classes_equal_by_search(p, q)]
        # the search route needs disjoint supports; skip it otherwise
        if composed.u.gcd(reduced.u).degree == 0:
            checks.append(sf.classes_equal_by_search(composed, reduced))
        return {"kP": reduced, "checks": checks}

    def digest(self, task: Task, raw: Outcome) -> Outcome:
        data = {k: encode_class(v) if isinstance(v, sf.DivisorClass) else v
                for k, v in raw.data.items()}
        return Outcome(raw.exit, data, raw.error)


# ============================================================
# Library jobs: theta obstruction solves
# ============================================================

# |tau| near 1 is left out: the solver returns wrong pairs there (README).
FIBRE_TAUS = (2.0 + 0j, 1.5 + 0.5j)
FIBRE_RHOS = (0.2, 0.7)        # g0 = |tau|^rho e^(i theta), away from 2-torsion
FIBRE_ANGLES = 16
CHART_SCALES = ((1, 0), (2, 0), (1, 1), (3, -1), (0, 1), (-2, 1), (1, -2), (5, 3))
THETA_DEGREES = (1, 2, 3)
THETA_FACTORS = (0.8 + 0.3j, 1.2 - 0.5j, -0.6 + 0.9j, 1.0 + 0j,
                 0.3 + 1.1j, -1.3 - 0.2j, 0.95 + 0.05j, 1.6 + 0.4j)
THETA_POINTS = (1.1 + 0.2j, -0.7 + 0.9j, 0.2 - 1.05j)
SOLVES_PER_TAU = 4


def fibre_g0(t: int, r: int, a: int) -> complex:
    tau = FIBRE_TAUS[t]
    return abs(tau) ** FIBRE_RHOS[r] * cmath.exp(
        2j * math.pi * (a + 0.37) / FIBRE_ANGLES)


class FibreSolve:
    """extension_from_pair -> make_extension round trips over a grid of g0,
    regular charts at a branch point of the genus-1 cover, and theta-section
    functional-equation residuals, at tau = 2 and 1.5+0.5i."""

    name = "fibre-solve"
    unit = "solves"
    min_rounds = 7

    def __init__(self, seed: int):
        self.seed = seed
        self.curves = [sf.TateCurve(tau) for tau in FIBRE_TAUS]
        cover = sf.HyperCover(sf.Poly.of(*CANTOR_COVERS[1][0]))
        self.branch_values = []
        for s in CHART_SCALES:
            fmap = sf.PellMap.from_pell_pair(cover, sf.Poly.of(3), sf.Poly.of(1),
                                             _qi(*s))
            # b = -1 is a branch point of w^2 = b^3 + 1: both sheets agree
            self.branch_values.append(fmap.inverse().sheet_values(-1.0 + 0j)[0])

    @staticmethod
    def _solve_task(t: int, r: int, a: int) -> Task:
        return Task(f"solve/t{t}/r{r}/a{a}", "solve", 1, (t, r, a), f"solve/t{t}")

    @staticmethod
    def _chart_task(t: int, s: int) -> Task:
        return Task(f"chart/t{t}/s{s}", "chart", 1, (t, s), f"chart/t{t}")

    @staticmethod
    def _theta_task(t: int, d: int, f: int) -> Task:
        return Task(f"theta/t{t}/d{d}/f{f}", "theta", 0, (t, d, f), f"theta/t{t}/d{d}")

    def round_tasks(self, rnd: int) -> list[Task]:
        rng = _rng(self.name, self.seed, rnd)
        tasks = []
        grid = [(r, a) for r in range(len(FIBRE_RHOS)) for a in range(FIBRE_ANGLES)]
        for t in range(len(FIBRE_TAUS)):
            tasks += [self._solve_task(t, r, a)
                      for r, a in rng.sample(grid, SOLVES_PER_TAU)]
            tasks.append(self._chart_task(t, rng.randrange(len(CHART_SCALES))))
            f = rng.randrange(len(THETA_FACTORS))
            tasks += [self._theta_task(t, d, f) for d in THETA_DEGREES]
        return tasks

    def pool(self) -> list[Task]:
        tasks = []
        for t in range(len(FIBRE_TAUS)):
            tasks += [self._solve_task(t, r, a)
                      for r in range(len(FIBRE_RHOS)) for a in range(FIBRE_ANGLES)]
            tasks += [self._chart_task(t, s) for s in range(len(CHART_SCALES))]
            tasks += [self._theta_task(t, d, f)
                      for d in THETA_DEGREES for f in range(len(THETA_FACTORS))]
        return tasks

    def execute(self, task: Task) -> Outcome:
        try:
            return Outcome(0, getattr(self, "_" + task.kind)(*task.spec))
        except Exception as exc:  # a raising job is a failed task
            return Outcome(1, {}, f"{type(exc).__name__}: {exc}")

    def _solve(self, t: int, r: int, a: int) -> dict:
        curve = self.curves[t]
        p, q = sf.extension_from_pair(curve, 1.0 + 0j, fibre_g0(t, r, a))
        fc = sf.make_extension(curve, 1.0 + 0j, p, q)
        if not isinstance(fc, sf.SplitFiber):
            return {"kind": type(fc).__name__}
        return {"kind": "SplitFiber", "pair": [fc.l1.factor, fc.l2.factor]}

    def _chart(self, t: int, s: int) -> dict:
        curve = self.curves[t]
        value = self.branch_values[s]
        chart = sf.regular_chart(curve, value, value)
        fc = sf.make_extension(curve, 1.0 + 0j, chart.p, chart.q)
        if not isinstance(fc, sf.AtiyahRegular):
            return {"kind": type(fc).__name__}
        return {"kind": "AtiyahRegular", "line": fc.line.factor * chart.scale}

    def _theta(self, t: int, d: int, f: int) -> dict:
        lb = sf.TateLineBundle(self.curves[t], d, THETA_FACTORS[f])
        basis = sf.theta_sections(lb, n_terms=64 * d)
        worst = max(basis.residual(j, z) for j in range(d) for z in THETA_POINTS)
        return {"max_residual": worst}

    def digest(self, task: Task, raw: Outcome) -> Outcome:
        data = {}
        for k, v in raw.data.items():
            if k == "pair":
                v = [[z.real, z.imag] for z in v]
            elif k == "line":
                v = [v.real, v.imag]
            data[k] = v
        return Outcome(raw.exit, data, raw.error)


def task_lattice(task: Task) -> complex | None:
    """The tau of a fibre task, which the gate needs to compare points."""
    return FIBRE_TAUS[task.spec[0]] if task.kind in ("solve", "chart") else None


WORKLOADS = {cls.name: cls for cls in (SampleSweep, JournalReplay, CantorChain,
                                       FibreSolve)}
