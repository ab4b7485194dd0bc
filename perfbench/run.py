"""Benchmark of entrate: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload rate_points --seed 1 --seconds 15 --trace 0

With --trace 0 the run times the workload with nothing patched and reports
the end-to-end metrics; with --trace 1 it runs one untraced and one traced
pass, checks that their outputs are equal, and reports the per-layer
metrics.  Every run checks the outputs (see workloads.py).  Human-readable
lines come first; the last line of stdout is the JSON result.  A fuller
record, with the run's metadata, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# fresh imports for setup_s, before the passes and again after the checks:
# one import's time swings by ~30 % with the machine's state, so the
# median takes samples some tens of seconds apart
SETUP_REPEATS = 2
MIN_PASSES = 2     # so that a call's time is a median over passes


def fresh_import_seconds() -> float:
    """Wall time of `import entrate` in a new interpreter."""
    code = ("import time; t = time.perf_counter(); import entrate; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def import_breakdown() -> dict[str, float]:
    """Self import time by top-level package, from `python -X importtime`."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import entrate"],
                          cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    by_pkg = {"numpy": 0.0, "scipy": 0.0, "mpmath": 0.0, "entrate": 0.0, "other": 0.0}
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = (f.strip() for f in line[len("import time:"):].split("|"))
        top = name.split(".")[0]
        by_pkg[top if top in by_pkg else "other"] += int(self_us) * 1e-6
    return {"import.numpy_s": by_pkg["numpy"], "import.scipy_s": by_pkg["scipy"],
            "import.mpmath_s": by_pkg["mpmath"], "import.entrate_self_s": by_pkg["entrate"],
            "import.other_s": by_pkg["other"]}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def git_commit() -> str | None:
    """HEAD of the checkout, if it is a git work tree (parents are not searched)."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata(args) -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "entrate").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        **{pkg: importlib.metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_at_start": Path("/proc/loadavg").read_text().split()[:3],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(wl, seconds: float):
    """MIN_PASSES passes, then more while the next would end within `seconds`.
    Only the first pass runs the pooled map sweep and keeps its outputs for
    the checks; later passes keep a digest of theirs."""
    passes = []
    start = time.perf_counter()
    while True:
        ps = wl.run_pass(pooled=not passes)
        ps.digest = digest(ps.outputs)
        if passes:
            ps.outputs = ps.extra = None
        passes.append(ps)
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start + ps.wall > seconds):
            return passes


def digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def record_checks(wl, passes, ledger) -> None:
    """Check the first pass; a later pass with equal outputs has the same
    outcomes, and one with different outputs is an error."""
    ops, errors = wl.check(passes[0])
    for e in errors:
        ledger.error(e)
    for k, ps in enumerate(passes):
        if k and ps.digest != passes[0].digest:
            ledger.error(f"pass {k} outputs differ from pass 0")
        for op in ops:
            if k == 0 or op.every_pass:
                ledger.op(op.reasons, op.detail)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "entrate" / "__init__.py").is_file():
        print(f"error: no entrate package under {SRC}", file=sys.stderr)
        return 2
    meta = metadata(args)
    setup = [] if args.trace else [fresh_import_seconds() for _ in range(SETUP_REPEATS)]

    sys.path.insert(0, str(SRC))
    import entrate
    import entrate.cli  # noqa: F401  (not imported by the package itself)

    OUT.mkdir(exist_ok=True)
    ledger = workloads.Ledger()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = workloads.WORKLOADS[args.workload](entrate, args.seed, Path(tmp))
        if not args.trace:
            passes = run_untraced(wl, args.seconds)
            rss = peak_rss_mb()
            record_checks(wl, passes, ledger)
            setup += [fresh_import_seconds() for _ in range(SETUP_REPEATS)]
            e2e, report = wl.metrics(passes)
            report["calls_wall_s (raw)"] = (
                sum(workloads.wall(w) for ps in passes for ws in ps.walls.values() for w in ws), "s")
            report["probe_s.p50"] = (statistics.median(p for _, p in wl.meter.probes), "s")
            metrics = {"setup_s": (statistics.median(setup), "s"),
                       "peak_rss_mb": (rss, "MB"),
                       "items_per_s": (e2e["items_per_s"], "1/ref_s"),
                       "op_s": (e2e["op_s"], "ref_s")}
            extra = {"setup_runs_s": setup, "passes": len(passes)}
        else:
            ref = wl.run_pass()
            with tracing.Tracer() as tr:
                tracing.instrument(tr, entrate)
                traced = wl.run_pass(tracer=tr, pooled=False)
            ref.digest = digest(ref.outputs)
            if digest(traced.outputs) != ref.digest:
                ledger.error("traced outputs differ from untraced outputs")
            record_checks(wl, [ref], ledger)
            _, report = wl.metrics([ref])
            metrics, layer_report = layer_metrics(tr, ref, traced, wl, workloads.TOL)
            report.update(layer_report)
            metrics.update({k: (v, "s") for k, v in import_breakdown().items()})
            tr.write(str(OUT / f"{stem}.spans.jsonl"))
            if not tr.restored():
                ledger.error("tracer left a patched function behind")
            extra = {}

    correct = not ledger.errors
    full = {"meta": meta, "correct": correct, "attempted": ledger.attempted,
            "failed": ledger.failed, "failed_by_reason": dict(ledger.by_reason),
            "fail_frac": ledger.failed / ledger.attempted,
            "errors": ledger.errors[:20], "failure_examples": ledger.examples,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
            **extra}
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"commit={meta['git_commit']} src={meta['src_sha256'][:12]} "
          f"nproc={meta['nproc']} load={' '.join(meta['loadavg_at_start'])}")
    for k, (v, u) in {**report, **metrics}.items():
        print(f"{k:44s} {v:14.6g} {u}")
    print(f"{'fail_frac':44s} {full['fail_frac']:14.6g} ratio  "
          f"({ledger.failed} of {ledger.attempted}: "
          + ", ".join(f"{r}={n}" for r, n in ledger.by_reason.items()) + ")")
    for e in ledger.errors[:5]:
        print(f"ERROR {e}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": full["metrics"]}))
    return 0


def layer_metrics(tr, ref, traced, wl, tol: float,
                  ) -> tuple[dict[str, tuple[float, str]], dict[str, tuple[float, str]]]:
    """Per-layer metrics from the spans of one traced pass, and report-only
    figures."""
    spans = tr.spans
    self_s = tr.self_times()

    def named(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def self_sum(name):
        return sum(self_s[i] for i in named(name))

    def ratio(a, b):
        return a / b if b else 0.0

    kernel = named("scattering.kernel")
    points = sum(spans[i].attrs["points"] for i in kernel)
    gk, bis = named("quadutil.gk"), named("quadutil.bisect")
    rate = named("rates.entanglement_rate")
    returned = [i for i in rate if "raised" not in spans[i].attrs]
    peak = [i for i in named("rates.peak_search")
            if spans[i].parent is None or spans[spans[i].parent].name != "rates.peak_search"]
    anchor = [i for i in named("bench.op") if spans[i].attrs.get("label") == "anchor"]
    sweep_pts = named("sweep.point")
    status = [spans[i].attrs.get("status", "raised") for i in sweep_pts]
    stable_pt = [spans[i].duration for i, st in zip(sweep_pts, status) if st != "unstable"]
    serial = sum(map(workloads.wall, ref.walls.get("strip", [])))
    pooled = [workloads.wall(w) for w in ref.walls.get("pooled", [])]
    cli_bytes = sum(p.stat().st_size for p in getattr(wl, "paths", {}).values() if p.exists())

    m = {
        "scattering.kernel_calls": (len(kernel), "count"),
        "scattering.kernel_points": (points, "count"),
        "scattering.kernel_self_s": (self_sum("scattering.kernel"), "s"),
        "scattering.kernel_ns_per_point": (ratio(self_sum("scattering.kernel"), points) * 1e9,
                                           "ns"),
        "scattering.kernel_bytes_computed": (sum(spans[i].attrs["bytes"] for i in kernel),
                                             "B"),
        "scattering.output_spectrum_calls": (len(named("scattering.output_spectrum")), "count"),
        "scattering.output_spectrum_self_s": (self_sum("scattering.output_spectrum"), "s"),
        "models.stability_calls": (len(named("models.stability")), "count"),
        "models.stability_self_s": (self_sum("models.stability"), "s"),
        "quadutil.gk_calls": (len(gk), "count"),
        "quadutil.gk_sweeps": (sum(spans[i].kernel_calls for i in gk), "count"),
        "quadutil.gk_points": (sum(spans[i].kernel_points for i in gk), "count"),
        "quadutil.gk_self_s": (self_sum("quadutil.gk"), "s"),
        "quadutil.gk_tol_met_ratio": (ratio(sum(
            spans[i].attrs["quadrature_error"] <= tol for i in returned), len(returned)),
            "ratio"),
        # each bisection step is one kernel call; the two bracket ends are two more
        "quadutil.bisect_iters.interval": (sum(
            spans[i].kernel_calls - 2 for i in bis if spans[i].attrs["caller"] == "interval"),
            "count"),
        "quadutil.bisect_iters.fwhm": (sum(
            spans[i].kernel_calls - 2 for i in bis if spans[i].attrs["caller"] == "fwhm"),
            "count"),
        "quadutil.bisect_self_s": (self_sum("quadutil.bisect"), "s"),
        "rates.points_per_rate": (ratio(sum(spans[i].kernel_points for i in rate), len(rate)),
                                  "count"),
        "rates.kernel_calls_per_rate": (ratio(sum(spans[i].kernel_calls for i in rate),
                                              len(rate)), "count"),
        "rates.rate_self_s": (self_sum("rates.entanglement_rate"), "s"),
        "rates.interval_search_s": (sum(spans[i].duration
                                        for i in named("rates.interval_search")), "s"),
        "rates.peak_search_s": (sum(spans[i].duration for i in peak), "s"),
        "rates.anchor_kernel_points": (sum(spans[i].kernel_points for i in anchor), "count"),
        "rates.anchor_kernel_calls": (sum(spans[i].kernel_calls for i in anchor), "count"),
        "sweep.rows_ok": (status.count("ok"), "count"),
        "sweep.rows_failed": (sum(st.startswith("failed") for st in status), "count"),
        "sweep.stable_point_s.p50": (statistics.median(stable_pt) if stable_pt else 0.0, "s"),
        "sweep.parallel_efficiency": (
            ratio(serial, wl.nproc * pooled[0]) if pooled else 0.0, "ratio"),
        "cli.format_s": (self_sum("cli.main"), "s"),
        "cli.bytes_written": (cli_bytes, "B"),
        "trace.wall_s": (traced.wall, "s"),
        "trace.overhead_frac": (_calls_wall(traced, traced) / _calls_wall(ref, traced) - 1.0,
                                "ratio"),
        "trace.spans": (len(spans), "count"),
        "trace.residual_s": (traced.wall - sum(self_s), "s"),
    }
    return m, {"sweep.rows_unstable": (status.count("unstable"), "count")}


def _calls_wall(ps, traced) -> float:
    """Wall time of `ps` in the kinds of call that the traced pass made."""
    return sum(workloads.wall(w) for k, ws in traced.walls.items() if ws for w in ps.walls[k])


if __name__ == "__main__":
    sys.exit(main())
