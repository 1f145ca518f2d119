#!/usr/bin/env python3
"""Record the benchmark of one or more checkouts in BENCH_<label>.json files.

    python3 scripts/bench.py LABEL[=CHECKOUT] ... [--out-dir DIR]

Runs ``perfbench/run.py`` of each checkout (default: this repository) for
the run length BENCHMARK.json sets, on fixed seeds: one untraced run
(``--trace 0``) per workload and seed in SEEDS, and one traced run
(``--trace 1``) per workload on TRACE_SEED.  With two or more labels the
untraced runs alternate between the checkouts, in reversed order on every
other seed, so that a drift of the machine's speed falls on both sides
alike.  Standard library only.

Each BENCH_<label>.json holds, per workload, every run's end-to-end
metrics, failure counts, known-defect outcomes and wall time, the median
of each metric and of the wall time over the runs, and the traced run's
per-layer counts and self times; plus the environment block perfbench
prints (Python, exact scalar type, nproc, git revision), and the
checkout's source size, src_lines (``cat src/sepidem/*.py | wc -l``).  At
the end one line per workload compares the labels' median wall times,
each against the first label's, and one line their src_lines.  Then one
line per workload and end-to-end metric of BENCHMARK.json gives the
acceptance arithmetic against the first label (acceptance_lines).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("twist-exact", "dense-basis", "float64", "cli-documents")
SEEDS = (71, 72, 73, 74, 75)
TRACE_SEED = 901
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = BENCHMARK["run_seconds"]


def perfbench(checkout, workload, seed, trace):
    """One run of perfbench/run.py in checkout: its result, environment,
    known-defect lines and wall time."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"bench: {' '.join(argv[1:])} in {checkout} exited "
                         f"{done.returncode}: {done.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    env = json.loads(lines[-2])["environment"]
    defects = [json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("KNOWN-DEFECT ")]
    return result, env, defects, wall


def untraced_record(seed, result, defects, wall):
    return {
        "seed": seed,
        "wall_s": round(wall, 2),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "known_defects": [d["status"] for d in defects],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def traced_record(seed, result, wall):
    metrics = result["metrics"]
    return {
        "seed": seed,
        "wall_s": round(wall, 2),
        "failed": result["failed"],
        "calls": {name[:-len(".calls")]: m["value"] for name, m in metrics.items()
                  if name.endswith(".calls")},
        "self_s": {name[:-len(".self_s")]: m["value"] for name, m in metrics.items()
                   if name.endswith(".self_s")},
        "other": {name: m["value"] for name, m in metrics.items()
                  if not name.endswith((".calls", ".self_s"))},
    }


def medians(runs):
    names = runs[0]["metrics"]
    return {name: statistics.median(r["metrics"][name] for r in runs) for name in names}


def src_lines(checkout):
    """Newlines in src/sepidem/*.py, what ``cat src/sepidem/*.py | wc -l``
    prints."""
    return sum(p.read_bytes().count(b"\n")
               for p in (Path(checkout) / "src" / "sepidem").glob("*.py"))


def parse_target(text):
    label, _, checkout = text.partition("=")
    path = Path(checkout).resolve() if checkout else ROOT
    if not (path / "perfbench" / "run.py").is_file():
        raise SystemExit(f"bench: no perfbench/run.py in the checkout of {label!r}")
    return label, path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("targets", nargs="+", metavar="LABEL[=CHECKOUT]")
    ap.add_argument("--out-dir", default=str(ROOT))
    args = ap.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # before the runs, not after them

    targets = [parse_target(t) for t in args.targets]
    docs = {label: {"label": label, "seconds": SECONDS, "seeds": list(SEEDS),
                    "trace_seed": TRACE_SEED, "environment": None, "workloads": {},
                    "src_lines": src_lines(path)}
            for label, path in targets}
    for workload in WORKLOADS:
        runs = {label: [] for label, _ in targets}
        for i, seed in enumerate(SEEDS):
            for label, path in (targets if i % 2 == 0 else targets[::-1]):
                result, env, defects, wall = perfbench(path, workload, seed, 0)
                runs[label].append(untraced_record(seed, result, defects, wall))
                if docs[label]["environment"] is None:
                    docs[label]["environment"] = {k: env[k] for k in (
                        "python", "implementation", "gmpy2", "exact_type", "nproc", "git_rev")}
                print(f"{label} {workload} seed {seed}: {wall:.1f} s, "
                      f"failed {result['failed']}", file=sys.stderr)
        for label, path in targets:
            result, _, _, wall = perfbench(path, workload, TRACE_SEED, 1)
            docs[label]["workloads"][workload] = {
                "runs": runs[label],
                "median": medians(runs[label]),
                "median_wall_s": round(statistics.median(r["wall_s"] for r in runs[label]), 2),
                "traced": traced_record(TRACE_SEED, result, wall),
            }
    for label, doc in docs.items():
        out = out_dir / f"BENCH_{label}.json"
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    for workload in WORKLOADS:
        print(wall_line(workload, [(label, docs[label]) for label, _ in targets]))
    print(lines_line([(label, docs[label]["src_lines"]) for label, _ in targets]))
    for line in acceptance_lines([(label, docs[label]) for label, _ in targets],
                                 BENCHMARK["end_to_end"]):
        print(line)
    return 0


def wall_line(workload, docs):
    """'<workload> median wall_s: <label> <s>, <label> <s> (+x.x %), ...',
    each percentage against the first label."""
    walls = [(label, doc["workloads"][workload]["median_wall_s"]) for label, doc in docs]
    base = walls[0][1]
    parts = [f"{walls[0][0]} {base:.2f}"]
    parts += [f"{label} {wall:.2f} ({100 * (wall - base) / base:+.1f} %)"
              for label, wall in walls[1:]]
    return f"{workload} median wall_s: " + ", ".join(parts)


def acceptance_lines(docs, end_to_end):
    """One line per workload and end-to-end metric, each label against the
    first label (the base):

        <workload> <metric>: <base> <median> [<q1>, <q3>]; <label> <median>
        [<q1>, <q3>] (+x.x %), better on k of n seeds, gap <g> > base IQR <i>:
        yes|no, worse: no | within bound <b>: yes|no

    Quartiles are statistics.quantiles' (exclusive method) over the runs.
    A seed counts as better when the label's run on it beats the base's in
    the metric's `better` direction.  The gap is the absolute difference of
    the medians.  A worse median is within bound when its change relative
    to the base's median is at most the metric's `bound`."""
    out = []
    base_label, base = docs[0]
    for workload in base["workloads"]:
        for metric in end_to_end:
            name, higher = metric["name"], metric["better"] == "higher"
            series = [(label, {r["seed"]: r["metrics"][name]
                               for r in doc["workloads"][workload]["runs"]})
                      for label, doc in docs]
            base_vals = series[0][1]
            b_med, (b_q1, b_q3) = _median_quartiles(base_vals.values())
            parts = [f"{base_label} {b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}]"]
            for label, vals in series[1:]:
                med, (q1, q3) = _median_quartiles(vals.values())
                seeds = [seed for seed in vals if seed in base_vals]
                wins = sum((vals[s] > base_vals[s]) if higher else (vals[s] < base_vals[s])
                           for s in seeds)
                change = (med - b_med) / b_med if b_med else 0.0
                worse = -change if higher else change
                gap, iqr = abs(med - b_med), b_q3 - b_q1
                verdict = (f"within bound {metric['bound']}: "
                           f"{'yes' if worse <= metric['bound'] else 'no'}"
                           if worse > 0 else "no")
                parts.append(f"{label} {med:.4g} [{q1:.4g}, {q3:.4g}] ({100 * change:+.1f} %), "
                             f"better on {wins} of {len(seeds)} seeds, gap {gap:.4g} > "
                             f"{base_label} IQR {iqr:.4g}: {'yes' if gap > iqr else 'no'}, "
                             f"worse: {verdict}")
            out.append(f"{workload} {name}: " + "; ".join(parts))
    return out


def _median_quartiles(values):
    """(median, (first quartile, third quartile)) of two or more values."""
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q1, q3)


def lines_line(counts):
    """'src_lines: <label> <n>, <label> <n> (+k), ...', each difference
    against the first label."""
    base = counts[0][1]
    parts = [f"{counts[0][0]} {base}"]
    parts += [f"{label} {n} ({n - base:+d})" for label, n in counts[1:]]
    return "src_lines: " + ", ".join(parts)


if __name__ == "__main__":
    sys.exit(main())
