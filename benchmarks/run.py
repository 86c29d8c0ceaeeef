#!/usr/bin/env python3
"""adrlab benchmark runner.

    python3 benchmarks/run.py --workload {map,packet,pks} --seed N \
        --seconds S --trace {0,1}

Run from a checkout of the repository; the program is used from source
(``src/`` on PYTHONPATH), nothing is installed.

``--trace 0`` measures end to end. Each invocation of the workload is a
fresh ``python -m adrlab.cli`` process, run one after another by a single
client that waits for each (a closed loop with one client: this is a batch
tool with no arrival rate). Set-up time is taken first, from fresh processes
that make only the set-up calls, three times. Then whole passes over the
invocations repeat until ``--seconds`` have passed, and at least twice so
that every output can be compared byte for byte with its repeat.

``--trace 1`` replays the same invocations in this process through
``adrlab.cli.main``, once with the span wrappers of ``spans.py`` installed
and once without, and reports per-layer metrics from the traced replay.

Every invocation's outputs are checked; see ``workloads.check_outputs``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record with
provenance goes to ``benchmarks/results/``.
"""

import os

# Fixed BLAS thread count, set before anything can load numpy. Two threads on
# the two shared cores of the reference box would time the scheduler.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 3
SETUP_MIN_S = 5.0  # short set-ups repeat more, until this much time is spent
MIN_PASSES = 2
HOST_PROBE_REPEATS = 5

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

NO_TUNING = ("no CPU pinning, no cache dropping and no machine tuning; "
             "steadiness comes from medians over repeats")


# ------------------------------------------------------------ per-layer spans

def _grid_points(*args, **kwargs):
    return (args[0] if args else kwargs["grid"]).n_points


def _time_steps(prefix):
    """on_return hook: time ``step`` on the stepper object make_stepper built,
    named by its scheme/variant id (not by class, so merged classes keep it)."""
    def hook(tracer, stepper, args, kwargs):
        kind = args[0] if args else kwargs.get("scheme", kwargs.get("variant"))
        spans.time_method(tracer, stepper, "step", f"{prefix}.{getattr(kind, 'value', kind)}")
    return hook


BUILDERS = ("build_cd2_first", "build_cd2_second", "build_oucs3", "build_lele_second",
            "build_nccd")
H = spans.Hook
HOOKS = (
    [H("adrlab.operators", b, f"operators.{b}", key=_grid_points) for b in BUILDERS]
    + [
        H("adrlab.operators.DerivativeOperator", "row_symbol", "operators.row_symbol"),
        H("adrlab.linalg", "solve_dense", "linalg.solve_dense"),
        H("adrlab.adr1d", "make_stepper", "adr1d.make_stepper",
          on_return=_time_steps("adr1d.step")),
        H("adrlab.adr1d", "run", "adr1d.run"),
        H("adrlab.spectral", "sweep", "spectral.sweep"),
        H("adrlab.spectral", "dispersion_point", "spectral.dispersion_point"),
        H("adrlab.spectral", "g_num", "spectral.g_num"),
        H("adrlab.spectral", "group_velocity_ratio", "spectral.group_velocity_ratio"),
        H("adrlab.spectral", "write_map_csv", "spectral.write_map_csv"),
        H("adrlab.wavepacket", "run_experiment", "wavepacket.run_experiment"),
        H("adrlab.wavepacket", "point_diagnostics", "wavepacket.point_diagnostics"),
        H("adrlab.wavepacket", "write_snapshot_csv", "wavepacket.write_csv"),
        H("adrlab.wavepacket", "write_spectrum_csv", "wavepacket.write_csv"),
        H("adrlab.pks2d", "make_stepper", "pks2d.make_stepper",
          on_return=_time_steps("pks2d.step")),
        H("adrlab.pks2d", "edge_fluxes", "pks2d.edge_fluxes"),
        # the NCCD kernel alone, the one the IMEX stepper calls (directly,
        # not through `laplacian`); pooling it with the CD2 kernel would give
        # a median of two distributions
        H("adrlab.pks2d", "_lap_nccd", "pks2d.laplacian"),
        H("adrlab.pks2d", "diagnostics", "pks2d.diagnostics"),
        H("adrlab.pks2d", "write_snapshot_csv", "pks2d.write_csv"),
        H("adrlab.pks2d", "write_radial_csv", "pks2d.write_csv"),
        H("adrlab.pks2d", "write_metadata", "pks2d.write_csv"),
    ]
)

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile."""
    data = sorted(samples)
    rank = max(1, -(-len(data) * pct // 100))
    return data[int(rank) - 1]


def tail(samples):
    """(percentile, value) for the highest percentile with >= 10 samples
    beyond it; (None, 0.0) without samples."""
    n = len(samples)
    if n == 0:
        return None, 0.0
    for pct in TAIL_LADDER:
        if n - -(-n * pct // 100) >= 10:
            return pct, percentile(samples, pct)
    return 50.0, percentile(samples, 50.0)


def per_layer_metrics(tr: spans.Tracer, overhead_s: float):
    """Metric name -> (value, unit), plus the tail percentile used per metric.

    A layer the workload never reaches reads 0 (no calls, no time)."""
    m = {}
    tails = {}

    def total(name):
        return tr.stat(name).total_s

    def p50(name, scale):
        d = tr.stat(name).durations
        return scale * statistics.median(d) if d else 0.0

    for b in ("build_oucs3", "build_cd2_second", "build_lele_second", "build_nccd"):
        m[f"operators.{b}.s"] = (total(f"operators.{b}"), "s")
    m["linalg.solve_dense.calls"] = (tr.stat("linalg.solve_dense").calls, "count")
    m["linalg.solve_dense.s"] = (total("linalg.solve_dense"), "s")
    # (invocation, builder, N): a repeat within one invocation is wasted work,
    # a repeat in another invocation (another process) is not
    builds = [(b, k) for b in BUILDERS for k in tr.stat(f"operators.{b}").keys]
    m["operators.build.calls"] = (len(builds), "count")
    m["operators.build.distinct_ratio"] = (len(set(builds)) / len(builds) if builds else 0.0,
                                           "ratio")
    m["operators.row_symbol.calls"] = (tr.stat("operators.row_symbol").calls, "count")
    m["operators.row_symbol.us_p50"] = (p50("operators.row_symbol", 1e6), "us")
    m["spectral.sweep.s"] = (total("spectral.sweep"), "s")
    g_calls = tr.stat("spectral.g_num").calls
    m["spectral.g_num.calls"] = (g_calls, "count")
    m["spectral.g_num.us_p50"] = (p50("spectral.g_num", 1e6), "us")
    m["spectral.group_velocity_ratio.s"] = (total("spectral.group_velocity_ratio"), "s")
    points = (tr.stat("spectral.dispersion_point").calls
              + tr.stat("wavepacket.point_diagnostics").calls)
    m["spectral.points_per_g_num"] = (points / g_calls if g_calls else 0.0, "ratio")
    m["adr1d.make_stepper.self_s"] = (tr.stat("adr1d.make_stepper").self_s, "s")
    m["adr1d.step.calls"] = (sum(tr.stat(f"adr1d.step.{s}").calls
                                 for s in workloads.SCHEMES), "count")
    for s in workloads.SCHEMES:
        name = f"adr1d.step.{s}"
        m[f"{name}.us_p50"] = (p50(name, 1e6), "us")
        tails[f"{name}.us_tail"], v = tail(tr.stat(name).durations)
        m[f"{name}.us_tail"] = (1e6 * v, "us")
    m["adr1d.run.self_s"] = (tr.stat("adr1d.run").self_s, "s")
    m["wavepacket.run_experiment.self_s"] = (tr.stat("wavepacket.run_experiment").self_s, "s")
    m["wavepacket.point_diagnostics.s"] = (total("wavepacket.point_diagnostics"), "s")
    m["wavepacket.write_csv.s"] = (total("wavepacket.write_csv"), "s")
    m["pks2d.make_stepper.s"] = (total("pks2d.make_stepper"), "s")
    for v in workloads.VARIANTS:
        name = f"pks2d.step.{v}"
        m[f"{name}.ms_p50"] = (p50(name, 1e3), "ms")
        tails[f"{name}.ms_tail"], val = tail(tr.stat(name).durations)
        m[f"{name}.ms_tail"] = (1e3 * val, "ms")
    m["pks2d.edge_fluxes.calls"] = (tr.stat("pks2d.edge_fluxes").calls, "count")
    m["pks2d.edge_fluxes.ms_p50"] = (p50("pks2d.edge_fluxes", 1e3), "ms")
    m["pks2d.laplacian.ms_p50"] = (p50("pks2d.laplacian", 1e3), "ms")
    m["pks2d.diagnostics.s"] = (total("pks2d.diagnostics"), "s")
    m["spectral.write_map_csv.s"] = (total("spectral.write_map_csv"), "s")
    m["pks2d.write_csv.s"] = (total("pks2d.write_csv"), "s")
    m["cli.main.s"] = (total("cli.main"), "s")
    m["cli.self_s"] = (tr.stat("cli.main").self_s, "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m, tails


# ------------------------------------------------------------ running

@dataclass
class Outcome:
    label: str
    wall_s: float
    code: int
    rss_mb: float
    outdir: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def spawn(argv, env, log_path) -> tuple:
    """Run a child to completion: (wall seconds, exit code, peak RSS in MB)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=str(ROOT), stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def measure_setup(wl, env, work: Path, probe: list) -> list:
    samples = []
    while len(samples) < SETUP_REPEATS or sum(samples) < SETUP_MIN_S:
        rep = len(samples)
        total = 0.0
        for inv in wl.invocations:
            log = work / f"setup_{rep}_{inv.label}.log"
            wall, code, _ = spawn([sys.executable, str(HERE / "setup_probe.py"),
                                   json.dumps(inv.setup)], env, log)
            if code != 0:
                raise RuntimeError(f"set-up probe for {inv.label} exited {code}:\n"
                                   + log.read_text(errors="replace")[-2000:])
            total += wall
        samples.append(total)
        probe.append(host_probe_s())
    return samples


def run_pass(wl, index: int, env, work: Path) -> list:
    out = []
    for inv in wl.invocations:
        outdir = work / f"pass{index}" / inv.label
        outdir.mkdir(parents=True)
        argv = [sys.executable, "-m", "adrlab.cli", *inv.args, "--out", str(outdir)]
        wall, code, rss = spawn(argv, env, outdir / "cli.log")
        out.append(Outcome(inv.label, wall, code, rss, str(outdir)))
    return out


def replay(wl, cli, work: Path, tag: str, index: int, tracer=None) -> Outcome:
    """One invocation in this process through adrlab.cli.main."""
    inv = wl.invocations[index]
    outdir = work / tag / inv.label
    outdir.mkdir(parents=True)
    # Each CLI invocation is a fresh process; start the replay as cold.
    pks2d = sys.modules.get("adrlab.pks2d")
    if pks2d is not None and isinstance(getattr(pks2d, "_LINE_OPS", None), dict):
        pks2d._LINE_OPS.clear()
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    argv = [*inv.args, "--out", str(outdir)]
    with open(outdir / "cli.log", "w") as log, contextlib.redirect_stdout(log):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash is a failed invocation, not a crashed benchmark
            traceback.print_exc(file=log)
            code = -1
        wall = time.perf_counter() - t0
    return Outcome(inv.label, wall, code, 0.0, str(outdir))


def check(wl, passes) -> tuple:
    """(attempted, failures, digests of the first pass per label)."""
    attempted = 0
    failures = []
    digests = {}
    for k, outcomes in enumerate(passes):
        for oc, inv in zip(outcomes, wl.invocations):
            attempted += 1
            if oc.code != 0:
                problems = [f"exit code {oc.code}"]
            else:
                problems = workloads.check_outputs(wl, inv, oc.outdir)
                d = workloads.csv_digests(oc.outdir)
                if oc.label in digests and d != digests[oc.label]:
                    problems.append("CSV bytes differ from the first pass")
                digests.setdefault(oc.label, d)
            if problems:
                failures.append({"pass": k, "invocation": oc.label, "problems": problems})
    return attempted, failures, digests


def summary(samples) -> dict:
    n = len(samples)
    med = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if n >= 2 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": n, "samples": list(samples)}


def run_end_to_end(wl, seconds: float, work: Path, probe: list) -> dict:
    env = child_env()
    setup = measure_setup(wl, env, work, probe)
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(wl, len(passes), env, work))
        probe.append(host_probe_s())
    attempted, failures, digests = check(wl, passes)
    per_invocation = {inv.label: summary([p[i].wall_s for p in passes])
                      for i, inv in enumerate(wl.invocations)}
    stats = {
        "setup_s": summary(setup),
        "peak_rss_mb": summary([max(o.rss_mb for o in p) for p in passes]),
    }
    # Sum of per-invocation medians: a slow outlier in one invocation of one
    # pass does not move it, as it would move the median of pass totals.
    metrics = {"wall_s": (sum(s["median"] for s in per_invocation.values()), "s"),
               **{k: (stats[k]["median"], END_TO_END[k]) for k in stats}}
    extra = {"failed_frac": len(failures) / attempted}
    if wl.name == "packet" and not failures:
        # outside the timed region; deterministic for a given seed
        sys.path.insert(0, str(SRC))
        extra.update(workloads.l2_errors(wl, {o.label: o.outdir for o in passes[0]}))
    return {"metrics": metrics, "stats": stats, "extra": extra,
            "wall_s_per_invocation": per_invocation, "attempted": attempted,
            "failures": failures, "sha256": digests}


def run_traced(wl, work: Path, probe: list) -> dict:
    sys.path.insert(0, str(SRC))
    import adrlab.cli as cli
    for mod in ("linalg", "operators", "adr1d", "spectral", "wavepacket", "pks2d"):
        importlib.import_module(f"adrlab.{mod}")  # so every hook resolves
    tracer = spans.Tracer()
    plain, traced = [], []
    # interleaved, so both replays of an invocation see the same warm state
    for i in range(len(wl.invocations)):
        plain.append(replay(wl, cli, work, "plain", i))
        tracer.unit = i
        tracer.install(HOOKS)
        try:
            traced.append(replay(wl, cli, work, "traced", i, tracer))
        finally:
            tracer.uninstall()
        probe.append(host_probe_s())
    attempted, failures, digests = check(wl, [plain, traced])
    overhead = sum(o.wall_s for o in traced) - sum(o.wall_s for o in plain)
    metrics, tails = per_layer_metrics(tracer, overhead)
    spans_out = {name: {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s}
                 for name, st in sorted(tracer.stats.items())}
    return {"metrics": metrics, "tail_percentiles": tails, "spans": spans_out,
            "missing_hooks": sorted(set(tracer.missing)),
            "untraced_s": sum(o.wall_s for o in plain),
            "traced_s": sum(o.wall_s for o in traced),
            "attempted": attempted, "failures": failures, "sha256": digests}


# ------------------------------------------------------------ provenance

def host_probe_s() -> float:
    """Median time of a fixed kernel that uses no adrlab code: an interpreter
    loop and dense products in numpy, the two kinds of work the workloads do.
    A run takes it at its start and after every set-up repeat and pass, so
    the samples follow the host's speed through the run; the program's
    changes do not move it."""
    import numpy as np

    a = np.random.default_rng(0).random((300, 300))

    def once():
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        for _ in range(10):
            a @ a
        return time.perf_counter() - t0

    return statistics.median(once() for _ in range(HOST_PROBE_REPEATS))


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _llc_bytes():
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=30)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "adrlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(wl, probe: list) -> dict:
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "llc_bytes": _llc_bytes(),
        "seed": wl.seed,
        "machine": NO_TUNING,
        "host_probe_s": probe,
    }


# ------------------------------------------------------------ entry point

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time of an end-to-end run (at least two passes)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes; the figures mean nothing")
    args = ap.parse_args(argv)

    if not (SRC / "adrlab" / "cli.py").is_file():
        print(f"error: {SRC / 'adrlab' / 'cli.py'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    wl = workloads.build(args.workload, args.seed, "tiny" if args.tiny else "full")
    work = HERE / ".work" / str(os.getpid())
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    probe = [host_probe_s()]
    try:
        if args.trace:
            res = run_traced(wl, work, probe)
        else:
            res = run_end_to_end(wl, args.seconds, work, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(res["failures"])
    record = {"workload": wl.name, "seed": wl.seed, "trace": args.trace,
              "size": "tiny" if args.tiny else "full", "params": wl.params,
              "invocations": [["adrlab", *inv.args] for inv in wl.invocations],
              "provenance": provenance(wl, probe),
              **{k: v for k, v in res.items() if k != "metrics"},
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}}
    RESULTS.mkdir(exist_ok=True)
    tag = "-tiny" if args.tiny else ""
    path = RESULTS / f"{wl.name}-seed{wl.seed}-trace{args.trace}{tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    _report(res, probe, path)
    line = {"correct": failed == 0, "attempted": res["attempted"], "failed": failed,
            "metrics": record["metrics"]}
    print(json.dumps(line))
    return 0 if failed == 0 else 1


def _report(res, probe: list, path: Path) -> None:
    for fail in res["failures"]:
        print(f"FAILED pass {fail['pass']} {fail['invocation']}: {'; '.join(fail['problems'])}")
    def line(name, unit, s):
        print(f"{name:<40} {unit:<6} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  n {s['n']}")

    for label, s in res.get("wall_s_per_invocation", {}).items():
        line(f"wall_s[{label}]", "s", s)
    stats = res.get("stats", {})
    for name, (value, unit) in res["metrics"].items():
        if name in stats:
            line(name, unit, stats[name])
        else:
            print(f"{name:<40} {unit:<6} {value:.6g}")
    for name, value in res.get("extra", {}).items():
        print(f"{name:<40} ratio  {value:.6g}")
    for name in res.get("missing_hooks", ()):
        print(f"missing hook (function not found): {name}")
    print(f"host probe mean {1e3 * statistics.fmean(probe):.2f} ms over {len(probe)} samples, "
          f"min {1e3 * min(probe):.2f}, max {1e3 * max(probe):.2f}")
    for label, files in res["sha256"].items():
        for fname, digest in files.items():
            print(f"sha256 {digest}  {label}/{fname}")
    print(f"record: {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
