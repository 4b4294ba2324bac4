"""paradirac benchmark: one workload, one process, one thread, one closed loop.

    python3 perfbench/run.py --workload series-exact --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload cli-roundtrip --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --record-reference

Run from the repository root; the package is imported from ``src/``.

``--trace 0`` runs the seeded job stream for a fixed number of whole
rounds, sized so that they take about ``--seconds`` on the reference host,
and reports the end-to-end metrics.  ``--trace 1`` wraps the ten modules
(see ``tracer.py``), runs set-up and one round traced, then the same round
untraced, and reports the per-layer metrics plus the tracing overhead.
Every job's outputs are checked against the known answer outside the
timed region.  The last line of standard output is the JSON result; the
line before it holds the run metadata.  ``--record-reference`` rewrites
``reference_sha256.json`` from the current code.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 7           # the run's own set-up plus six fresh processes
MIN_JOBS = 100              # p90 needs ten samples above it

# Host-speed reference.  A shared host's speed can drift by a third within
# minutes, for reasons outside the process (CPU time follows wall time).
# So runs are taken with a fixed pure-Python burst, which shares no code
# with paradirac, interleaved between the jobs: one per BURST_EVERY_S of
# job time.  Every reported time is multiplied by REFERENCE_BURST_S /
# (mean burst time of the same phase), so it reads as seconds on a host
# that runs one burst in REFERENCE_BURST_S.  Raw values stay in the run
# metadata.
REFERENCE_BURST_S = 0.01
BURST_EVERY_S = 0.2
SETUP_BURSTS = 10           # before and after each set-up sample

# public entry points each workload is defined by: a traced run in which
# one of them records no call is a failed run
EXPECTED_CALLS = {
    "series-exact": (
        "builders.build_generalized", "builders.build_helmholtz",
        "verify.dirac_residual", "verify.cross_check",
        "harmonics.monogenic_basis", "harmonics.harmonic_basis"),
    "parabolic-exact": (
        "builders.build_parabolic_closed", "builders.build_parabolic_recurrence",
        "verify.dirac_residual", "verify.check_component_conditions",
        "verify.perturb_component", "verify.cross_check",
        "timefn.apply_0F1", "harmonics.monogenic_basis"),
    "cli-roundtrip": (
        "cli.main", "cli.cmd_build", "cli.cmd_verify", "cli.cmd_eval",
        "serialize.save_solution", "serialize.load_solution",
        "serialize.save_report", "serialize.read_points_csv",
        "serialize.write_eval_csv", "builders.build_generalized",
        "builders.build_helmholtz", "builders.build_parabolic_closed",
        "builders.build_parabolic_recurrence", "zeta.sylvester_eval",
        "harmonics.monogenic_basis", "harmonics.harmonic_basis"),
}

# per-layer metric -> the traced function it reads
SELF_TIMES = {
    "algebra.mv_mul.self_s": "algebra.Multivector.__mul__",
    "algebra.split.self_s": "algebra.split",
    "poly.mul.self_s": "poly.CliffordPoly.__mul__",
    "poly.dirac.self_s": "poly.CliffordPoly.dirac",
    "timefn.stf_dirac.self_s": "timefn.SpaceTimeFunction.dirac",
    "timefn.apply_0F1.self_s": "timefn.apply_0F1",
    "timefn.evaluate.self_s": "timefn.SpaceTimeFunction.evaluate",
}
CALLS = {
    "algebra.mv_mul.calls": "algebra.Multivector.__mul__",
    "algebra.blade_mul.calls": "algebra.AlgebraContext.blade_mul",
    "timefn.evaluate.calls": "timefn.SpaceTimeFunction.evaluate",
}


def metric(value, unit):
    return {"value": value, "unit": unit}


def reference_burst() -> float:
    """Wall time of a fixed mix of Fraction, dict and tuple work."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 2000):
        acc += Fraction(i % 7 + 1, i % 13 + 1)
        key = (i % 17, i & 3)
        table[key] = table.get(key, 0) + i * i
    return time.perf_counter() - t0


def host_factor(bursts) -> float:
    return REFERENCE_BURST_S / statistics.fmean(bursts)


def timed_setup(workload: str, seed: int):
    """Import, contexts, head bases, seeded inputs and warm-up, timed.

    Returns the raw time, its host-scaled value and the workload."""
    bursts = [reference_burst() for _ in range(SETUP_BURSTS)]
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload](ROOT)
    wl.setup(seed, workloads.load_references())
    wl.warm_up()
    raw = time.perf_counter() - t0
    bursts += [reference_burst() for _ in range(SETUP_BURSTS)]
    return raw, raw * host_factor(bursts), wl


def setup_sample(workload: str, seed: int) -> list:
    """Raw and host-scaled set-up time of a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rounds_for(wl, seconds: float) -> int:
    """Whole rounds that take about ``seconds`` on the reference host and
    hold at least MIN_JOBS jobs.  A fixed count, so that every run of a
    workload does the same work."""
    per_round = sum(len(specs) for specs in wl.cat.values())
    return max(round(seconds / wl.round_s), -(-MIN_JOBS // per_round), 1)


def run_jobs(wl, blocks, counts=None, tracer=None):
    """Run blocks of jobs in a closed loop; check each job untimed, and run
    a reference burst after every BURST_EVERY_S of job time."""
    latencies, failures = [], []
    bursts = [reference_burst()]
    since_burst = 0.0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for block in blocks:
        for job in block:
            if tracer is not None:
                tracer.job = job.ident
                tracer.on = True
            t0 = time.perf_counter()
            try:
                out = wl.run(job)
                problem = None
            except Exception:              # a crash is a failed job
                out, problem = None, traceback.format_exc(limit=6)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.on = False
            if out is not None:
                try:
                    problem = wl.check(job, out, counts)
                except Exception:
                    problem = traceback.format_exc(limit=6)
            if problem is not None:
                failures.append((job.ident, job.spec, problem))
            latencies.append(dt)
            since_burst += dt
            if since_burst >= BURST_EVERY_S:
                bursts.append(reference_burst())
                since_burst = 0.0
    return {"latencies": latencies, "failures": failures, "bursts": bursts,
            "blocks": len(blocks), "wall_s": time.perf_counter() - wall0,
            "cpu_s": time.process_time() - cpu0}


def end_to_end(loop, setup_s, scale=1.0):
    """The timing metrics, each time multiplied by ``scale``."""
    lat = loop["latencies"]
    return {
        "setup_s": metric(setup_s, "s"),
        "jobs_per_s": metric(len(lat) / (sum(lat) * scale), "1/s"),
        "job_s_p50": metric(statistics.median(lat) * scale, "s"),
        "job_s_p90": metric(statistics.quantiles(lat, n=10)[-1] * scale, "s"),
        "max_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tr, counts, overhead, scale):
    """Layer metrics; every time is multiplied by ``scale``."""
    out = {}
    for short in ("algebra", "scalars", "poly", "timefn", "zeta", "verify",
                  "builders", "cli"):
        out[f"{short}.self_s"] = metric(tr.module_self_s(short), "s")
    for short in ("algebra", "scalars", "poly", "timefn", "zeta",
                  "harmonics"):
        out[f"{short}.calls"] = metric(tr.module_calls(short), "count")
    for short in ("verify", "builders", "harmonics", "cli"):
        out[f"{short}.busy_s"] = metric(tr.busy_s(short), "s")
    for key, name in SELF_TIMES.items():
        out[key] = metric(tr.self_s(name), "s")
    for key, name in CALLS.items():
        out[key] = metric(tr.calls(name), "count")
    out["algebra.blade_mul.hit_ratio"] = metric(tr.blade_hit_ratio(), "ratio")
    out["serialize.write_s"] = metric(tr.busy_s("serialize.write"), "s")
    out["serialize.read_s"] = metric(tr.busy_s("serialize.read"), "s")
    out["serialize.bytes"] = metric(counts.bytes, "count")
    out["builders.terms"] = metric(counts.terms, "count")
    out["algebra.blades_per_term"] = metric(
        counts.blades / counts.terms if counts.terms else 0.0, "count")
    out["scalars.coeff_bits_max"] = metric(counts.bits_max, "bits")
    out["scalars.coeff_bits_mean"] = metric(
        counts.bits_sum / counts.bits_n if counts.bits_n else 0.0, "bits")
    out["verify.residual_terms"] = metric(counts.residual_terms, "count")
    for m in out.values():
        if m["unit"] == "s":
            m["value"] *= scale
    out["trace.overhead_ratio"] = metric(overhead, "ratio")
    return dict(sorted(out.items()))


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_lines() -> int:
    pkg = os.path.join(SRC, "paradirac")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def run_plain(args):
    raw, scaled, wl = timed_setup(args.workload, args.seed)
    samples = [[raw, scaled]] + [setup_sample(args.workload, args.seed)
                                 for _ in range(SETUP_SAMPLES - 1)]
    try:
        blocks = [block for _ in range(rounds_for(wl, args.seconds))
                  for block in wl.next_round()]
        loop = run_jobs(wl, blocks)
    finally:
        wl.close()
    factor = host_factor(loop["bursts"])
    metrics = end_to_end(loop, statistics.median(s for _, s in samples),
                         factor)
    unscaled = end_to_end(loop, statistics.median(r for r, _ in samples))
    return loop, metrics, {
        "host_factor": factor, "bursts": len(loop["bursts"]),
        "setup_samples_s": samples,
        "unscaled": {k: v["value"] for k, v in unscaled.items()}}


def run_traced(args):
    import paradirac  # noqa: F401  (the tracer wraps the imported modules)
    from tracer import Tracer

    tr = Tracer()
    tr.install()
    from workloads import Counts    # binds the package's names once wrapped

    tr.on = True
    tr.job = "setup"
    _, _, wl = timed_setup(args.workload, args.seed)
    tr.on = False
    try:
        # one round: every catalogue spec once, so counts repeat exactly
        blocks = wl.next_round()
        counts = Counts()
        loop = run_jobs(wl, blocks, counts=counts, tracer=tr)
        tr.uninstall()
        plain = run_jobs(wl, blocks)
        loop["failures"] += plain["failures"]
    finally:
        tr.uninstall()
        wl.close()
    # both phases host-scaled, each by the bursts taken beside it
    traced_f = host_factor(loop["bursts"])
    overhead = (sum(loop["latencies"]) * traced_f) / (
        sum(plain["latencies"]) * host_factor(plain["bursts"]))
    metrics = per_layer(tr, counts, overhead, traced_f)
    silent = [n for n in EXPECTED_CALLS[args.workload] if not tr.calls(n)]
    for name in silent:
        loop["failures"].append((name, None, "traced layer recorded no call"))
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    tr.dump(path, {"workload": args.workload, "seed": args.seed,
                   "blocks": len(blocks)})
    return loop, metrics, {"trace_file": os.path.relpath(path, ROOT),
                           "untraced_wall_s": plain["wall_s"]}


def record_reference() -> int:
    """Run every catalogue spec once and store its solution sha256."""
    import workloads

    refs, bad = {}, 0
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(ROOT)
        wl.setup(0, {})
        wl.warm_up()
        table = refs[name] = {}
        try:
            for slot, specs in wl.cat.items():
                for variant, spec in enumerate(specs):
                    job = workloads.Job(f"{slot}/{variant}", spec,
                                        data={"points": 0})
                    if not wl.exact(job):
                        continue
                    try:
                        out = wl.run(job)
                        problem = wl.verdict(job, out, None)
                    except Exception:
                        problem = traceback.format_exc(limit=6)
                    if problem:
                        print(f"{name} {job.ident}: {problem}", file=sys.stderr)
                        bad += 1
                        continue
                    table[job.ident] = {"spec": workloads.spec_key(spec),
                                        "sha256": wl.digest(out)}
        finally:
            wl.close()
        print(f"{name}: {len(table)} reference digests")
    if bad:
        return 1
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(EXPECTED_CALLS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "paradirac", "__init__.py")):
        print(f"error: no paradirac sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        raw, scaled, wl = timed_setup(args.workload, args.seed)
        wl.close()
        print(json.dumps([raw, scaled]))
        return 0

    loop, metrics, extra = (run_traced if args.trace else run_plain)(args)
    lat = loop["latencies"]
    failures = loop["failures"]
    if failures:
        ident, spec, problem = failures[0]
        print(f"first failing job {ident} {json.dumps(spec)}:\n{problem}",
              file=sys.stderr)
    attempted = len(lat) + (len(lat) if args.trace else 0)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "commit": git_commit(),
        "src_lines": source_lines(), "blocks": loop["blocks"],
        "jobs": len(lat), "wall_s": loop["wall_s"], "cpu_s": loop["cpu_s"],
        **extra,
    }
    print(json.dumps({"meta": meta}))
    if not args.trace:
        for name, m in metrics.items():
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
        print(f"{args.workload} failed_frac = {len(failures) / attempted:.6g} ratio")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
