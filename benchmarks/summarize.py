#!/usr/bin/env python3
"""Print every benchmark metric per workload, across runs of several seeds.

    python3 benchmarks/summarize.py                  # records in benchmarks/results/
    python3 benchmarks/summarize.py --run 10         # first run seeds 1..10 on
                                                     # every workload, plus one
                                                     # traced run each
    python3 benchmarks/summarize.py SET_A SET_B      # two directories of records,
                                                     # and B compared with A

For each end-to-end metric of each workload it prints the median, the
quartiles and the sample count over runs, the spread (q3 - q1) / median and
that spread as a share of the metric's bound in BENCHMARK.json, and the mean
host probe over every sample the runs took. ``failed_frac`` and the packet
``l2_err.*`` values are printed alongside; traced runs add the per-layer
medians.

Given two sets, it compares each end-to-end median of the second with the
first against the metric's bound. A pair that differs by more than the
bound is a disagreement, or unresolved when the host probe moved by more
than HOST_DRIFT_LIMIT between the sets: then the host, not the program, may
have changed speed.

The exit code is 0 only when every set is steady (every end-to-end spread,
``setup_s`` included, below a third of its bound, and no failed output
check) and, given two sets, every pair agrees within its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
# The probe holds within about 5% while the host keeps its speed.
HOST_DRIFT_LIMIT = 0.05


def _quartiles(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def run_seeds(seeds) -> list:
    paths = []
    for w in (spec["name"] for spec in SPEC["workloads"]):
        for trace in (0, 1):
            for seed in (seeds if trace == 0 else seeds[:1]):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                       "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
                out = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True)
                last = out.stdout.strip().splitlines()[-1:] or [""]
                print(f"{w} seed {seed} trace {trace}: exit {out.returncode} {last[0][:120]}",
                      flush=True)
                if out.returncode != 0:
                    print(out.stdout[-3000:] + out.stderr[-3000:], file=sys.stderr)
                paths.append(RESULTS / f"{w}-seed{seed}-trace{trace}.json")
    return [p for p in paths if p.exists()]


def load(paths) -> dict:
    """(workload, trace) -> list of full-size records."""
    out = {}
    for path in paths:
        rec = json.loads(Path(path).read_text())
        if rec.get("size") == "full":
            out.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return out


def host_probe_ms(recs) -> float:
    return 1e3 * statistics.fmean(x for r in recs for x in r["provenance"]["host_probe_s"])


def report(groups) -> bool:
    steady = True
    for (workload, trace), recs in sorted(groups.items()):
        seeds = sorted(r["seed"] for r in recs)
        print(f"\n== {workload}  trace {trace}  runs {len(recs)}  seeds {seeds}  "
              f"host probe mean {host_probe_ms(recs):.2f} ms")
        print(f"{'metric':<40} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}"
              + ("  spread  spread/bound" if trace == 0 else ""))
        names = list(recs[0]["metrics"])
        if trace == 0:
            names += [k for k in recs[0]["extra"]]
        for name in names:
            if name in recs[0]["metrics"]:
                unit = recs[0]["metrics"][name]["unit"]
                vals = [r["metrics"][name]["value"] for r in recs]
            else:
                unit = "ratio"
                vals = [r["extra"][name] for r in recs if name in r["extra"]]
            med, q1, q3 = _quartiles(vals)
            line = f"{name:<40} {unit:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {len(vals):>3}"
            if name in BOUNDS:
                spread = (q3 - q1) / med
                share = spread / BOUNDS[name]
                line += f"  {spread:6.4f}  {share:6.3f}"
                if share >= 1 / 3:
                    line += "  NOT STEADY"
                    steady = False
            print(line)
        for r in recs:
            if r.get("missing_hooks"):
                print(f"seed {r['seed']}: missing hooks {r['missing_hooks']}")
            for fail in r["failures"]:
                print(f"seed {r['seed']} FAILED {fail}")
                steady = False
    return steady


def compare(first, second) -> bool:
    """Second set's end-to-end medians against the first's; True when all agree."""
    agree = True
    print(f"\n== second set against the first (host drift limit {HOST_DRIFT_LIMIT:.0%})")
    print(f"{'workload':<8} {'metric':<12} {'first':>10} {'second':>10} {'change':>8} "
          f"{'bound':>6} {'host':>7}  verdict")
    for workload, trace in sorted(first):
        if trace != 0 or (workload, trace) not in second:
            continue
        a, b = first[(workload, trace)], second[(workload, trace)]
        host = host_probe_ms(b) / host_probe_ms(a) - 1.0
        for name, bound in BOUNDS.items():
            m1 = statistics.median(r["metrics"][name]["value"] for r in a)
            m2 = statistics.median(r["metrics"][name]["value"] for r in b)
            change = m2 / m1 - 1.0
            if abs(change) <= bound:
                verdict = "agree"
            else:
                agree = False
                verdict = ("UNRESOLVED: the host changed speed" if abs(host) > HOST_DRIFT_LIMIT
                           else "DISAGREE")
            print(f"{workload:<8} {name:<12} {m1:>10.5g} {m2:>10.5g} {change:>+8.3f} "
                  f"{bound:>6.2f} {host:>+7.3f}  {verdict}")
    return agree


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--run", type=int, default=0, help="seeds to run per workload first")
    ap.add_argument("sets", nargs="*", type=Path, help="directories of records (default: "
                    "benchmarks/results); with two, the second is compared with the first")
    args = ap.parse_args()
    if len(args.sets) > 2 or (args.run and args.sets):
        ap.error("give at most two directories, and none with --run")
    if args.run:
        sets = [load(run_seeds(list(range(1, args.run + 1))))]
    else:
        sets = [load(sorted(d.glob("*.json"))) for d in (args.sets or [RESULTS])]
    ok = True
    for k, groups in enumerate(sets):
        if len(sets) > 1:
            print(f"\n######## set {k + 1}: {args.sets[k]}")
        ok &= report(groups)
    print("\nsteady: every spread below a third of its bound" if ok
          else "\nNOT steady: see the rows marked above")
    if len(sets) == 2:
        ok &= compare(*sets)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
