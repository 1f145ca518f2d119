"""Benchmark of sepidem: time to a verdict and time to derived data.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads: twist-exact, dense-basis, float64, cli-documents (see
``workloads.py``).  One process, one thread, closed loop: each operation
starts when the previous one returns.

--trace 0 runs whole cycles of the workload until S seconds of timed
phase have passed and ten samples lie beyond each of the workload's fixed
tail percentiles, and reports the end-to-end metrics, at the reference
speed of ``Speedometer``.  --trace 1 runs one cycle untraced, then the
same inputs again with span wrappers installed on sepidem's public
functions (``tracer.py``), and reports per-layer call counts and self
times plus the tracing overhead.  Every output is checked against the
oracles as soon as its operation returns, outside the timers; failures
are listed with their witness.  After the timed loop, every run probes
its workload's pinned known-defect inputs once, untimed and untraced, and
lists each outcome on a KNOWN-DEFECT line.  The last line of stdout is
the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

from oracle import max_bits  # noqa: E402
from tracer import BOUNDARY_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, Recorder, build_cycle  # noqa: E402

SETUP_REPEATS = 9
# Time of one Speedometer burst on the reference machine (2 vCPUs,
# CPython 3.11.7) at its typical speed.
CALIBRATION_REFERENCE_S = 0.005
TAIL_SAMPLES = 10

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import sepidem\n"
    "print(time.perf_counter() - t)\n"
)


def percentile(sorted_values, p):
    """Linear interpolation between closest ranks (inclusive method)."""
    pos = (len(sorted_values) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def summarize(samples_ms, tail):
    values = sorted(samples_ms)
    return {"p50": percentile(values, 50), "tail": percentile(values, tail),
            "tail_percentile": tail, "samples": len(values)}


def tails_filled(ops, tails):
    """Whether every kind of operation in `tails` has at least TAIL_SAMPLES
    samples beyond its tail percentile."""
    return all(sum(op.kind == kind for op in ops) * (100 - p) / 100 >= TAIL_SAMPLES
               for kind, p in tails.items())


# -- set-up -------------------------------------------------------------------------


def import_seconds():
    """Time of `import sepidem` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def load_program():
    sys.path.insert(0, str(SRC))
    import sepidem

    if Path(sepidem.__file__).resolve().parent != SRC / "sepidem":
        raise ImportError(f"sepidem imported from {sepidem.__file__}, not from {SRC}")
    return sepidem


def setup(build, speed):
    """Median over SETUP_REPEATS set-ups, each at the reference speed of the
    three bursts just before and the three just after it: `import sepidem`
    in a fresh interpreter, then building the first cycle.  Returns
    (seconds, first cycle)."""
    times = []
    for _ in range(SETUP_REPEATS):
        for _ in range(3):
            speed.burst()
        import_s = import_seconds()
        t0 = perf_counter()
        first = build(0)
        seconds = import_s + perf_counter() - t0
        for _ in range(3):
            speed.burst()
        times.append(seconds * speed.factor(around=len(speed.bursts) - 3, width=3))
    return statistics.median(times), first


def environment(sd, args, bits, muladd):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "exact_type": f"{type(sd.EXACT.one).__module__}.{type(sd.EXACT.one).__qualname__}",
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scalars.max_bits": bits,
        "scalars.muladd_ns": muladd,
    }


def git_rev():
    """HEAD of the checkout, or None when it is not a git repository (git
    is kept from looking above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def oracle_values(cycle):
    """The oracle's E, S, S', phi, psi, sigma, sigma' of a cycle's instances."""
    return [x for inst in cycle for x in inst.oracle_values()]


def muladd_ns(sd, cycle, seed):
    """Time of one exact multiply-add on operands drawn from the oracle
    matrices of a cycle."""
    values = oracle_values(cycle)
    operands = [sd.EXACT.coerce(x) for x in values if x]
    rng = random.Random(seed)
    triples = [(rng.choice(operands), rng.choice(operands), rng.choice(operands))
               for _ in range(2000)]
    times = []
    for _ in range(5):
        t0 = perf_counter()
        for a, b, c in triples:
            c + a * b
        times.append(perf_counter() - t0)
    return statistics.median(times) / len(triples) * 1e9


# -- running and checking -----------------------------------------------------------


class Speedometer:
    """Times a fixed burst of stdlib Fraction arithmetic after every
    instance of a run.  On a shared host the machine's speed drifts by tens
    of percent over seconds to minutes, and the program's timings follow
    the burst's closely, so end-to-end timings are reported at the
    reference speed: an operation's time is scaled by
    CALIBRATION_REFERENCE_S / (median of the bursts around it), and whole-
    run quantities by the same ratio with the median burst of the run."""

    def __init__(self):
        self.bursts = []

    def burst(self):
        t0 = perf_counter()
        acc = Fraction(0)
        for i in range(1, 41):
            for j in range(1, 21):
                acc += Fraction(i, j + 1) * Fraction(j, i + 2)
        seconds = perf_counter() - t0
        self.bursts.append(seconds)
        return seconds

    def factor(self, around=None, width=2):
        """Reference over median burst time: of the whole run, or of the
        bursts within `width` of burst number `around`."""
        bursts = self.bursts
        if around is not None:
            bursts = bursts[max(0, around - width):around + width + 1]
        return CALIBRATION_REFERENCE_S / statistics.median(bursts)


def run_cycles(sd, build, recorder, seconds=0.0, first=None, speed=None, tails=None):
    """Whole cycles, closed loop, until `seconds` of timed phase have passed
    and, for each kind of operation in `tails`, at least TAIL_SAMPLES samples
    lie beyond its tail percentile.  Cycle c comes from build(c), except that `first`
    stands in for cycle 0.  Building a cycle, checking outputs and the
    speedometer burst after each instance are left out of the timed phase.
    Returns (completed instances, phase seconds, cycles run, scalars.max_bits
    over their oracle data); a cycle is dropped once it has run."""
    n_cycles = bits = 0
    completed = 0
    outside = 0.0
    check0 = recorder.check_seconds
    t0 = perf_counter()
    while True:
        b0 = perf_counter()
        cycle = first if first is not None and not n_cycles else build(n_cycles)
        n_cycles += 1
        bits = max(bits, max_bits(oracle_values(cycle)))
        quiet_heap()
        outside += perf_counter() - b0
        for inst in cycle:
            before = len(recorder.ops)
            inst.run(sd, recorder)
            completed += all(op.error is None for op in recorder.ops[before:])
            if speed is not None:
                for op in recorder.ops[before:]:
                    op.burst = len(speed.bursts)
                outside += speed.burst()
        phase = perf_counter() - t0 - outside - (recorder.check_seconds - check0)
        if phase >= seconds and tails_filled(recorder.ops, tails or {}):
            return completed, phase, n_cycles, bits


def quiet_heap():
    """Collect, then move everything alive (program, inputs, oracle answers)
    out of the collector's reach, so collections in the timed phase only
    walk what the operations allocate."""
    gc.collect()
    gc.freeze()


def witness_line(workload, op):
    return "FAIL " + json.dumps({
        "workload": workload, "instance": op.label, "operation": op.what,
        "reason": op.reason, "known_defect": op.defect,
    })


def probe_known_defects(sd, workload, scratch):
    """Runs the workload's pinned known-defect inputs once.  Each outcome
    is "reproduced" (the failure matches the defect's signature), "fixed"
    (the output agrees with the oracle) or "wrong" (any other failure).
    Returns (outcomes, ops that went wrong); only the latter count as
    failed operations."""
    rec = Recorder()
    for inst in workload.probes(sd, scratch):
        inst.run(sd, rec)
    outcomes = [{
        "instance": op.label, "operation": op.what,
        "status": "fixed" if not op.reason else "reproduced" if op.defect else "wrong",
        "known_defect": op.defect, "reason": op.reason,
    } for op in rec.ops]
    return outcomes, [op for op in rec.ops if op.reason and not op.defect]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sepidem" / "__init__.py").is_file():
        print(f"perfbench: no sepidem sources under {SRC}", file=sys.stderr)
        return 2
    try:
        sd = load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import sepidem: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    scratch = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)

    def build(index):
        return build_cycle(workload, sd, args.seed, index, str(scratch))

    speed = Speedometer()
    try:
        if args.trace:
            first = build(0)
            lines, metrics, ops, bits = traced_run(sd, build, first, args)
        else:
            setup_s, first = setup(build, speed)
            lines, metrics, ops, bits = untraced_run(sd, workload, build, first, args,
                                                     setup_s, speed)
        muladd = muladd_ns(sd, first, args.seed)
        probes, wrong = probe_known_defects(sd, workload, str(scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        metrics["scalars.max_bits"] = {"value": bits, "unit": "bits"}
        metrics["scalars.muladd_ns"] = {"value": muladd, "unit": "ns"}
    ops = ops + wrong
    failures = [op for op in ops if op.reason]
    known = sum(1 for op in failures if op.defect)
    print(f"# failed_share {len(failures) / len(ops):.6f} ratio "
          f"({len(failures)} failed of {len(ops)} attempted operations; "
          f"{known} match a known defect)")
    for line in lines:
        print("# " + line)
    for op in failures:
        print(witness_line(args.workload, op))
    for outcome in probes:
        print("KNOWN-DEFECT " + json.dumps(dict(workload=args.workload, **outcome)))
    env = environment(sd, args, bits, muladd)
    env["known_defects"] = [{k: o[k] for k in ("status", "known_defect", "instance")}
                            for o in probes]
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": all(op.defect is not None for op in failures),
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def untraced_run(sd, workload, build, first, args, setup_s, speed):
    rec = Recorder()
    completed, elapsed, n_cycles, bits = run_cycles(sd, build, rec, args.seconds, first,
                                                    speed, workload.tails)
    f = speed.factor()
    scaled = {"verdict": [], "derived": [], "setup": []}
    for op in rec.ops:
        scaled[op.kind].append(op.seconds * speed.factor(op.burst))
    # the timed phase at the reference speed: each operation by its own
    # factor, the loop around them by the run's
    in_ops = sum(op.seconds for op in rec.ops)
    phase = sum(sum(v) for v in scaled.values()) + (elapsed - in_ops) * f
    tails = workload.tails
    verdict = summarize([x * 1e3 for x in scaled["verdict"]], tails["verdict"])
    derived = summarize([x * 1e3 for x in scaled["derived"]], tails["derived"])
    raw = {kind: summarize([op.seconds * 1e3 for op in rec.ops if op.kind == kind],
                           tails[kind])
           for kind in ("verdict", "derived")}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "instances_per_s": {"value": completed / phase, "unit": "1/s"},
        "verdict_ms.p50": {"value": verdict["p50"], "unit": "ms"},
        "verdict_ms.tail": {"value": verdict["tail"], "unit": "ms"},
        "derived_ms.p50": {"value": derived["p50"], "unit": "ms"},
        "derived_ms.tail": {"value": derived["tail"], "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    lines = [
        f"timed phase {elapsed:.3f} s, {n_cycles} cycles, {completed} instances completed",
        f"speed factor {f:.4f} (median of {len(speed.bursts)} bursts "
        f"{statistics.median(speed.bursts) * 1e3:.3f} ms against "
        f"{CALIBRATION_REFERENCE_S * 1e3:.3f} ms); timings below are at the reference speed",
        f"verdict_ms tail is p{verdict['tail_percentile']} of {verdict['samples']} samples; "
        f"unscaled p50 {raw['verdict']['p50']:.6g} ms, tail {raw['verdict']['tail']:.6g} ms",
        f"derived_ms tail is p{derived['tail_percentile']} of {derived['samples']} samples; "
        f"unscaled p50 {raw['derived']['p50']:.6g} ms, tail {raw['derived']['tail']:.6g} ms",
    ] + [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return lines, metrics, rec.ops, bits


def traced_run(sd, build, first, args):
    """Cycle 0 untraced, then built again and run with spans recorded.  The
    operations returned, and so the failures reported, are the traced pass's."""
    plain = Recorder()
    _, untraced_s, _, bits = run_cycles(sd, build, plain, first=first)

    tracer = Tracer()
    tracer.install()
    try:
        traced = Recorder(tracer)
        first_t = tracer.call(-1, "bench.setup", build, 0)
        _, traced_s, _, _ = run_cycles(sd, build, traced, first=first_t)
    finally:
        tracer.uninstall()

    totals = tracer.totals()
    metrics = {}
    for name in BOUNDARY_NAMES:
        calls, own = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": own, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"trace-{args.workload}-{args.seed}.tsv"
    tracer.write(span_file)
    lines = [
        f"one cycle: untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, "
        f"{len(tracer.start)} spans written to {span_file}",
    ]
    return lines, metrics, traced.ops, bits


if __name__ == "__main__":
    sys.exit(main())
