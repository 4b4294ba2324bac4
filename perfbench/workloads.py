"""The three benchmark workloads: job catalogue, seeded job stream, runners
and known answers.

Every workload is a stream of rounds of blocks.  A block holds one job per
slot of the workload's slot table, in an order the run seed shuffles, so
every block has the same job-class mix and a held-out seed keeps that mix.
The jobs come from a fixed catalogue (``variants`` specs per slot, drawn
once from ``CATALOGUE_SEED``); the run seed deals each slot's specs from a
shuffled deck, so a round of ``variants`` blocks runs every spec once and
every run of a workload times the same multiset of jobs.  The fixed
catalogue is also what lets every exact output be checked against a
solution-JSON sha256 recorded in ``reference_sha256.json``; the float jobs
of ``cli-roundtrip`` are checked by verdict only.

Each runner returns the program's outputs; the checks that compare them
with the known answer run outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from paradirac import (AlgebraContext, Multivector, TimeFunction, ZetaElement,
                       build_generalized, build_helmholtz,
                       build_parabolic_closed, build_parabolic_recurrence,
                       check_component_conditions, cross_check,
                       dirac_residual, harmonic_basis, monogenic_basis,
                       perturb_component)
from paradirac import cli
from paradirac.scalars import GaussianRational
from paradirac.serialize import solution_from_dict, solution_to_dict

CATALOGUE_SEED = 191101744
POINTS_PER_FILE = 200
POINT_FILES_PER_M = 4

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference_sha256.json")


# -- scalar specs ----------------------------------------------------------
# Specs are plain JSON: a rational is "p/q", a Gaussian rational [re, im].


def _q(rng: random.Random, top: int = 4, den: int = 4) -> Fraction:
    return Fraction(rng.choice((1, -1)) * rng.randint(1, top),
                    rng.randint(1, den))


def _enc(v) -> object:
    if isinstance(v, GaussianRational):
        return [str(v.re), str(v.im)]
    return str(Fraction(v))


def _dec(raw):
    if isinstance(raw, list):
        return GaussianRational(Fraction(raw[0]), Fraction(raw[1]))
    v = Fraction(raw)
    return int(v) if v.denominator == 1 else v


def zeta_spec(kind: str, rng: random.Random) -> List[object]:
    """Exact quadruple (a, b, c, d) of the named kind."""
    if kind == "rational":
        entries = [_q(rng) for _ in range(4)]
    elif kind == "integer":
        entries = [0] * 4
        while entries[0] * entries[3] == entries[1] * entries[2]:
            entries = [rng.randint(-3, 3) for _ in range(4)]
    elif kind == "gaussian":
        entries = [GaussianRational(_q(rng), _q(rng, 2, 3)
                                    if rng.random() < 0.6 else 0)
                   for _ in range(4)]
        if all(not e.im for e in entries):
            entries[rng.randrange(4)] = GaussianRational(_q(rng), 1)
    elif kind == "defective":
        # xi = [[lam+u, v], [w, lam-u]] with u^2 + v w = 0: one repeated
        # eigenvalue lam, not diagonalizable; det(zeta) = -lam^2
        lam, u, v = _q(rng), _q(rng), _q(rng)
        w = -u * u / v
        entries = [lam + u, v, -w, u - lam]
    elif kind == "det0":
        a, b, c = _q(rng), _q(rng), _q(rng)
        entries = [a, b, c, b * c / a]
    else:
        raise ValueError(kind)
    return [_enc(e) for e in entries]


def make_zeta(spec) -> ZetaElement:
    return ZetaElement(*(_dec(v) for v in spec))


def solution_digest(sol) -> str:
    """sha256 of the solution JSON exactly as ``save_solution`` writes it."""
    text = json.dumps(solution_to_dict(sol), indent=1) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def spec_key(spec: dict) -> str:
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()
                          ).hexdigest()[:16]


def head_count(m: int, k: int) -> int:
    """Dimension of degree-k spherical harmonics in m variables, which is
    also the size of the monogenic basis the package builds for m <= 4."""
    if k == 0:
        return 1
    return math.comb(k + m - 1, m - 1) - math.comb(k + m - 3, m - 1)


def coeff_bits(v) -> int:
    """Bit height of an exact scalar: the larger of numerator/denominator."""
    if isinstance(v, GaussianRational):
        return max(coeff_bits(v.re), coeff_bits(v.im))
    if isinstance(v, Fraction):
        return max(v.numerator.bit_length(), v.denominator.bit_length())
    return int(v).bit_length()


@dataclass
class Counts:
    """Output counters, summed over jobs; they repeat exactly per seed."""

    terms: int = 0
    blades: int = 0
    bits_max: int = 0
    bits_sum: int = 0
    bits_n: int = 0
    residual_terms: int = 0
    bytes: int = 0

    def add_bits(self, bits: int) -> None:
        self.bits_sum += bits
        self.bits_n += 1
        self.bits_max = max(self.bits_max, bits)

    def add_body(self, body) -> None:
        self.terms += len(body.terms)
        for mv in body.terms.values():
            self.blades += len(mv.terms)
            for v in mv.terms.values():
                if not isinstance(v, (float, complex)):
                    self.add_bits(coeff_bits(v))


@dataclass
class Job:
    ident: str
    spec: dict
    digest: Optional[str] = None        # expected sha256, exact jobs only
    data: Dict[str, object] = field(default_factory=dict)


class Workload:
    """A slot table, its catalogue, and the runner for one job kind."""

    name: str
    slots: tuple
    variants: int       # catalogue specs per slot; one round deals them all
    round_s: float      # nominal seconds of one round on the reference host

    def __init__(self, root: str):
        self.root = root

    def slot_variants(self, slot) -> int:
        return self.variants

    # -- catalogue and stream -------------------------------------------

    def catalogue(self) -> Dict[str, List[dict]]:
        rng = random.Random(f"{CATALOGUE_SEED}:{self.name}")
        return {slot[0]: [self.make_spec(slot, rng, i)
                          for i in range(self.slot_variants(slot))]
                for slot in self.slots}

    def make_spec(self, slot, rng: random.Random, variant: int) -> dict:
        raise NotImplementedError

    def setup(self, seed: int, references: Dict[str, dict]) -> None:
        """Contexts, head bases and the seeded job stream."""
        self.cat = self.catalogue()
        self.refs = references.get(self.name, {})
        self.stream_rng = random.Random(f"{seed}:{self.name}:stream")
        self.decks: Dict[str, List[int]] = {}

    def draw(self, slot: str) -> Job:
        """Next catalogue job of a slot, dealt from a seeded shuffled deck."""
        deck = self.decks.get(slot)
        if not deck:
            deck = self.decks[slot] = list(range(len(self.cat[slot])))
            self.stream_rng.shuffle(deck)
        variant = deck.pop()
        spec = self.cat[slot][variant]
        ident = f"{slot}/{variant}"
        return Job(ident, spec, self.reference(ident, spec))

    def next_round(self) -> List[List[Job]]:
        """``variants`` blocks that run every catalogue spec exactly once.

        Block b holds the slots with more than b specs, in shuffled order,
        so every block has the same mix apart from once-per-round slots."""
        blocks = []
        for b in range(self.variants):
            jobs = [self.draw(slot[0]) for slot in self.slots
                    if len(self.cat[slot[0]]) > b]
            self.stream_rng.shuffle(jobs)
            blocks.append(jobs)
        return blocks

    def warm_up(self) -> None:
        """Fill every per-context blade-product table the jobs will use."""
        for ctx in self.contexts.values():
            for left in range(1 << ctx.n_gen):
                ctx.mul_row(left)

    def close(self) -> None:
        pass

    # -- per job ---------------------------------------------------------

    def run(self, job: Job) -> dict:
        raise NotImplementedError

    def verdict(self, job: Job, out: dict,
                counts: Optional[Counts]) -> Optional[str]:
        """None when the verdicts match the known answer, else a message."""
        raise NotImplementedError

    def exact(self, job: Job) -> bool:
        return True

    def digest(self, out: dict) -> str:
        return solution_digest(out["sol"])

    def check(self, job: Job, out: dict,
              counts: Optional[Counts]) -> Optional[str]:
        """Known verdicts, then the exact output's sha256 against the
        reference recorded for its catalogue spec."""
        problem = self.verdict(job, out, counts)
        if problem or not self.exact(job):
            return problem
        if job.digest is None:
            return "no reference digest recorded for this spec"
        got = self.digest(out)
        if got != job.digest:
            return f"solution sha256 {got[:12]} != reference {job.digest[:12]}"
        return None

    def reference(self, ident: str, spec: dict) -> Optional[str]:
        entry = self.refs.get(ident)
        if entry is None or entry["spec"] != spec_key(spec):
            return None
        return entry["sha256"]


# -- series-exact -------------------------------------------------------


OTHER_FORMS = {"monogenic": ("factored", "invertible"),
               "factored": ("monogenic", "invertible"),
               "invertible": ("monogenic", "factored")}


class SeriesExact(Workload):
    """Truncated generalized and Helmholtz series on exact zeta quadruples."""

    name = "series-exact"
    variants = 4
    round_s = 13.5
    # (slot, form, m, head degrees, L range, zeta kind)
    slots = (
        ("m2-mono-q", "monogenic", 2, (0, 1, 2, 3), (3, 8), "rational"),
        ("m2-mono-int", "monogenic", 2, (0, 1, 2, 3), (3, 8), "integer"),
        ("m2-mono-g", "monogenic", 2, (0, 1, 2, 3), (3, 8), "gaussian"),
        ("m2-fact-q", "factored", 2, (0, 1, 2, 3), (3, 8), "rational"),
        ("m2-fact-det0", "factored", 2, (0, 1, 2, 3), (3, 8), "det0"),
        ("m2-inv-defective", "invertible", 2, (0, 1, 2, 3), (3, 8), "defective"),
        ("m2-helm-q", "helmholtz", 2, (0, 1, 2, 3), (3, 8), "rational"),
        ("m2-helm-g", "helmholtz", 2, (0, 1, 2, 3), (3, 8), "gaussian"),
        ("m3-mono-q", "monogenic", 3, (0, 1, 2), (3, 6), "rational"),
        ("m3-fact-q", "factored", 3, (0, 1, 2), (3, 6), "rational"),
        ("m3-inv-int", "invertible", 3, (0, 1, 2), (3, 6), "integer"),
        ("m3-mono-g", "monogenic", 3, (0, 1), (3, 4), "gaussian"),
        ("m3-inv-g", "invertible", 3, (0, 1), (3, 4), "gaussian"),
        ("m3-fact-defective", "factored", 3, (0, 1), (3, 5), "defective"),
        ("m3-helm-q", "helmholtz", 3, (0, 1, 2, 3), (3, 8), "rational"),
        ("m3-helm-det0", "helmholtz", 3, (0, 1, 2), (3, 8), "det0"),
        ("m4-mono-q", "monogenic", 4, (0, 1), (3, 4), "rational"),
        ("m4-fact-det0", "factored", 4, (0, 1), (3, 4), "det0"),
        ("m4-helm-g", "helmholtz", 4, (0, 1, 2, 3), (3, 8), "gaussian"),
        # the m=4 k=2 L=8 gen-monogenic row that ROADMAP item 3 targets, on
        # one fixed off-diagonal quadruple, once per round
        ("m4-k2-L8-mono", "monogenic", 4, (2,), (8, 8), "fixed"),
    )

    def slot_variants(self, slot):
        return 1 if slot[5] == "fixed" else self.variants

    def make_spec(self, slot, rng, variant):
        _, form, m, ks, (lo, hi), kind = slot
        if kind == "fixed":
            return {"form": form, "m": m, "k": ks[0], "head": 0, "L": hi,
                    "zeta": ["0", "1/2", "-1", "0"], "cross": None}
        spec = {"form": form, "m": m, "k": rng.choice(ks),
                "head": rng.randrange(16), "L": rng.randint(lo, hi),
                "zeta": zeta_spec(kind, rng), "cross": None}
        invertible = bool(make_zeta(spec["zeta"]).det())
        while form == "invertible" and not invertible:
            # the invertible form is defined for det(zeta) != 0 only
            spec["zeta"] = zeta_spec(kind, rng)
            invertible = bool(make_zeta(spec["zeta"]).det())
        # half the variants of each generalized slot build a second form
        if form != "helmholtz" and variant % 2 == 0:
            others = [f for f in OTHER_FORMS[form]
                      if invertible or f != "invertible"]
            spec["cross"] = rng.choice(others)
        return spec

    def setup(self, seed, references):
        super().setup(seed, references)
        self.contexts = {m: AlgebraContext(m) for m in (2, 3, 4)}
        self.mono = {}
        self.harm = {}
        for _, form, m, ks, _, _ in self.slots:
            for k in ks:
                ctx = self.contexts[m]
                if form == "helmholtz":
                    self.harm.setdefault((m, k), harmonic_basis(ctx, k))
                else:
                    self.mono.setdefault((m, k), monogenic_basis(ctx, k))

    def _head(self, spec):
        table = self.harm if spec["form"] == "helmholtz" else self.mono
        basis = table[(spec["m"], spec["k"])]
        return basis[spec["head"] % len(basis)]

    def _build(self, form, head, z, L):
        if form == "helmholtz":
            return build_helmholtz(head, z, L=L, radial="direct")
        return build_generalized(head, z, L=L, form=form)

    def run(self, job):
        spec = job.spec
        z = make_zeta(spec["zeta"])
        head = self._head(spec)
        sol = self._build(spec["form"], head, z, spec["L"])
        rep = dirac_residual(sol)
        out = {"sol": sol, "rep": rep}
        if spec["cross"]:
            other = self._build(spec["cross"], head, z, spec["L"])
            out["cross"] = cross_check(sol, other)
        return out

    def verdict(self, job, out, counts):
        if counts is not None:
            counts.add_body(out["sol"].body)
            counts.residual_terms += len(out["rep"].residual_poly.terms)
        if not out["rep"].passed:
            return "residual check FAIL on a built solution"
        if out.get("cross") is False:
            return f"cross_check against the {job.spec['cross']} form FAIL"
        return None


# -- parabolic-exact ------------------------------------------------------


SUBALGEBRA_MASKS = {m: [mask for mask in range(1 << (m + 1)) if not mask & 1]
                    for m in (2, 3, 4)}


class ParabolicExact(Workload):
    """Closed-form and recurrence parabolic builds on polynomial profiles,
    a third of them single-coefficient mutants."""

    name = "parabolic-exact"
    variants = 8
    round_s = 6.5
    # (slot, builder, m, head degrees, profile degree range, mutant)
    slots = (
        ("m2-closed", "closed", 2, (0, 1, 2, 3), (0, 5), False),
        ("m2-rec", "recurrence", 2, (0, 1, 2, 3), (0, 5), False),
        ("m2-closed-mut", "closed", 2, (0, 1, 2, 3), (0, 5), True),
        ("m3-closed", "closed", 3, (0, 1, 2, 3), (0, 5), False),
        ("m3-rec", "recurrence", 3, (0, 1, 2), (0, 4), False),
        ("m3-rec-mut", "recurrence", 3, (0, 1, 2), (0, 4), True),
        ("m4-closed", "closed", 4, (0, 1, 2), (0, 4), False),
        ("m4-rec", "recurrence", 4, (0, 1, 2), (0, 3), False),
        ("m4-closed-mut", "closed", 4, (0, 1, 2), (0, 4), True),
    )

    def make_spec(self, slot, rng, variant):
        _, builder, m, ks, (lo, hi), mutant = slot
        deg = rng.randint(lo, hi)
        coeffs = [rng.randint(-3, 3) for _ in range(deg)]
        coeffs.append(rng.choice((1, -1)) * rng.randint(1, 3))
        spec = {"builder": builder, "m": m, "k": rng.choice(ks),
                "head": rng.randrange(16), "profile": coeffs, "mutant": None}
        if mutant:
            exps = [0] * m
            for _ in range(rng.randint(1, 3)):     # spatial degree >= 1
                exps[rng.randrange(m)] += 1
            spec["mutant"] = {
                "slot": rng.randrange(4), "exps": exps,
                "mask": rng.choice(SUBALGEBRA_MASKS[m]),
                "coeff": rng.choice((1, -1)) * rng.randint(1, 3)}
        return spec

    def setup(self, seed, references):
        super().setup(seed, references)
        self.contexts = {m: AlgebraContext(m) for m in (2, 3, 4)}
        self.mono = {(m, k): monogenic_basis(self.contexts[m], k)
                     for _, _, m, ks, _, _ in self.slots for k in ks}

    def run(self, job):
        spec = job.spec
        m, k = spec["m"], spec["k"]
        ctx = self.contexts[m]
        basis = self.mono[(m, k)]
        M = basis[spec["head"] % len(basis)]
        a = TimeFunction.polynomial(ctx, spec["profile"])
        out = {}
        if spec["builder"] == "closed":
            sol = build_parabolic_closed(M, a)
        else:
            seeds = {"a0": a, "b2": a.scale(Fraction(-1, 2 * k + m))}
            sol = build_parabolic_recurrence(M, seeds)
            if spec["mutant"] is None:
                out["same_as_closed"] = cross_check(
                    sol, build_parabolic_closed(M, a))
        mut = spec["mutant"]
        if mut is not None:
            coeff = Multivector(ctx, {mut["mask"]: mut["coeff"]})
            sol = perturb_component(sol, mut["slot"], tuple(mut["exps"]),
                                    coeff)
        out["sol"] = sol
        out["res"] = dirac_residual(sol)
        out["comp"] = check_component_conditions(sol)
        return out

    def verdict(self, job, out, counts):
        res, comp = out["res"], out["comp"]
        if counts is not None:
            counts.add_body(out["sol"].body)
            counts.residual_terms += len(res.residual_poly.terms)
        if not comp.detail["equivalent"]:
            return "component conditions and D F = 0 disagree"
        if job.spec["mutant"] is not None:
            if res.passed or comp.passed:
                return (f"mutant passed (residual {res.passed}, "
                        f"components {comp.passed})")
        elif not (res.passed and res.exact_zero and comp.passed):
            return (f"exact build failed (residual {res.passed}, "
                    f"components {comp.passed})")
        if out.get("same_as_closed") is False:
            return "recurrence build differs from the closed form"
        return None


# -- cli-roundtrip --------------------------------------------------------


def _shell(argv: List[str]) -> int:
    """Exit code of ``paradirac <argv>``, as the console script returns it."""
    try:
        return cli.main(argv)
    except SystemExit as exc:           # argparse rejects a malformed flag
        return exc.code if isinstance(exc.code, int) else 1


class CliRoundtrip(Workload):
    """``build --out``, ``verify --solution``, ``eval --points`` through
    ``paradirac.cli.main``, as a shell user runs them."""

    name = "cli-roundtrip"
    variants = 8
    round_s = 12.0
    # (slot, mode, m, head degrees, L range, kind); only the "exact" slots
    # have reference digests, the float ones are checked by verdict
    slots = (
        ("gen-mono-2", "gen-monogenic", 2, (0, 1, 2), (3, 6), "float"),
        ("gen-mono-3", "gen-monogenic", 3, (0, 1), (3, 5), "float"),
        ("gen-fact", "gen-factored", 2, (0, 1, 2), (3, 6), "float"),
        ("gen-inv", "gen-invertible", 3, (0, 1), (3, 4), "float"),
        ("helm-syl-2", "helmholtz", 2, (0, 1, 2, 3), (3, 8), "float"),
        ("helm-syl-3", "helmholtz", 3, (0, 1, 2), (3, 6), "float"),
        ("par-exp-real", "parabolic-closed", 2, (0, 1, 2), (3, 6), "exp:-1"),
        ("par-exp-imag", "parabolic-closed", 3, (0, 1), (3, 5), "exp:0:1"),
        ("par-exact-closed", "parabolic-closed", 3, (0, 1, 2), (0, 4), "exact"),
        ("par-exact-rec", "parabolic-recurrence", 2, (0, 1, 2), (0, 4), "exact"),
    )

    def make_spec(self, slot, rng, variant):
        _, mode, m, ks, (lo, hi), kind = slot
        k = rng.choice(ks)
        argv = ["--mode", mode, "--m", str(m), "--k", str(k),
                "--basis-index", str(rng.randrange(head_count(m, k)))]
        if kind == "exact":
            deg = rng.randint(lo, hi)
            coeffs = [rng.randint(-3, 3) for _ in range(deg)]
            coeffs.append(rng.choice((1, -1)) * rng.randint(1, 3))
            argv += ["--profile", "poly:" + ",".join(map(str, coeffs))]
        else:
            argv += ["--trunc", str(rng.randint(lo, hi)), "--backend", "float"]
            if kind == "float":
                values = (rng.choice((1, -1)) * rng.randint(1, 200) / 100
                          for _ in range(4))
                # "=" keeps a leading minus from reading as a flag
                argv.append("--zeta=" + ",".join(f"{v:g}" for v in values))
                if mode == "helmholtz":
                    argv += ["--radial", "sylvester"]
            else:
                argv += ["--profile", kind]
        return {"argv": argv, "m": m, "kind": kind}

    def setup(self, seed, references):
        super().setup(seed, references)
        self.work = os.path.join(self.root, ".perfbench_work",
                                 f"{self.name}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.points: Dict[tuple, tuple] = {}
        rng = random.Random(f"{seed}:{self.name}:points")
        for m in sorted({slot[2] for slot in self.slots}):
            for i in range(POINT_FILES_PER_M):
                path = os.path.join(self.work, f"points-m{m}-{i}.csv")
                rows = []
                for _ in range(POINTS_PER_FILE):
                    v = [rng.gauss(0.0, 1.0) for _ in range(m)]
                    r = rng.random() ** (1.0 / m) / math.sqrt(sum(c * c for c in v))
                    rows.append([round(c * r, 6) for c in v] + [round(rng.random(), 6)])
                with open(path, "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow([f"x{j}" for j in range(1, m + 1)] + ["t"])
                    writer.writerows(rows)
                self.points[(m, i)] = (path, rows)
        self.sol_path = os.path.join(self.work, "solution.json")
        self.rep_path = os.path.join(self.work, "report.json")
        self.val_path = os.path.join(self.work, "values.csv")

    def next_round(self):
        blocks = super().next_round()
        for job in (job for block in blocks for job in block):
            job.data["points"] = self.stream_rng.randrange(POINT_FILES_PER_M)
        return blocks

    def warm_up(self) -> None:
        """None: every CLI invocation starts from a fresh context."""

    def close(self):
        for name in os.listdir(self.work):
            os.unlink(os.path.join(self.work, name))
        os.rmdir(self.work)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(self.work))

    def run(self, job):
        pts_path, _ = self.points[(job.spec["m"], job.data["points"])]
        sink_out, sink_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(sink_out), \
                contextlib.redirect_stderr(sink_err):
            codes = (
                _shell(["build"] + job.spec["argv"] + ["--out", self.sol_path]),
                _shell(["verify", "--solution", self.sol_path,
                        "--out", self.rep_path]),
                _shell(["eval", "--solution", self.sol_path,
                        "--points", pts_path, "--out", self.val_path]),
            )
        return {"codes": codes, "stderr": sink_err.getvalue()}

    def exact(self, job):
        return job.spec["kind"] == "exact"

    def digest(self, out):
        return hashlib.sha256(out["sol_bytes"]).hexdigest()

    def verdict(self, job, out, counts):
        if out["codes"] != (0, 0, 0):
            return f"exit codes {out['codes']}: {out['stderr'].strip()[:200]}"
        with open(self.sol_path, "rb") as fh:
            sol_bytes = out["sol_bytes"] = fh.read()
        with open(self.rep_path) as fh:
            report = json.load(fh)
        with open(self.val_path, newline="") as fh:
            rows = list(csv.reader(fh))
        if counts is not None:
            data = json.loads(sol_bytes)
            counts.terms += len(data["terms"])
            for row in data["terms"]:
                counts.blades += len(row["blades"])
                for _, pair in row["blades"]:
                    if not any(isinstance(p, float) for p in pair):
                        counts.add_bits(max(coeff_bits(Fraction(p))
                                            for p in pair))
            counts.residual_terms += report["residual_poly"]["n_terms"]
            counts.bytes += (len(sol_bytes) + os.path.getsize(self.rep_path)
                             + os.path.getsize(self.val_path))
        if report.get("passed") is not True:
            return "verify report does not say passed"
        _, points = self.points[(job.spec["m"], job.data["points"])]
        if len(rows) != len(points) + 1:
            return f"eval wrote {len(rows) - 1} rows for {len(points)} points"
        values = [float(v) for row in rows[1:] for v in row]
        if not all(math.isfinite(v) for v in values):
            return "eval wrote a non-finite value"
        return self._first_row_check(sol_bytes, rows, points)

    @staticmethod
    def _first_row_check(sol_bytes, rows, points) -> Optional[str]:
        """Eval's first row against the library's own evaluate."""
        sol = solution_from_dict(json.loads(sol_bytes))
        m = sol.m
        head = rows[0][m + 1:]
        want = sol.body.evaluate(tuple(points[0][:m]), points[0][m])
        scale = max(1.0, want.max_abs())
        for i in range(0, len(head), 2):
            label = head[i][:-3]
            mask = sol.ctx.blade_from_label(label)
            got = complex(float(rows[1][m + 1 + i]), float(rows[1][m + 2 + i]))
            if abs(got - complex(want.terms.get(mask, 0))) > 1e-9 * scale:
                return f"eval value for blade {label} disagrees with evaluate"
        return None


WORKLOADS = {cls.name: cls for cls in (SeriesExact, ParabolicExact,
                                       CliRoundtrip)}


def load_references() -> Dict[str, Dict[str, dict]]:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
