"""Negative controls and self-checks of the benchmark.

    python3 -m pytest perfbench/tests -q

The oracles are cross-checked once against the program's own closed
forms; everything else shows that a wrong answer is caught and that
traced call counts repeat exactly.
"""

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle as O  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import BOUNDARY_NAMES  # noqa: E402

import sepidem as sd  # noqa: E402

SMALL_CYCLE = [("twist", 2, None), ("twist", 2, "k"), ("dense", "C4", None),
               ("dense", "E0(2)", "corrupt")]


def small_cycle(seed=1):
    return W.build_cycle(W.Workload("small", W._library(SMALL_CYCLE, True)), sd, seed, 0, "")


def run_once(cycle):
    rec = W.Recorder()
    run.run_cycles(sd, None, rec, first=cycle)
    return rec.ops, [op for op in rec.ops if op.reason]


def test_oracle_matches_program_closed_forms():
    rng = random.Random(5)
    for n in (2, 3):
        r, s = O.random_twist_pair(n, rng)
        a = sd.matrix_algebra(n, with_star=True)
        cf = sd.twisted_closed_forms(sd.element_from_matrix(a, r), sd.element_from_matrix(a, s))
        bo = O.BlockOracle([(r, s)])
        assert [list(x) for x in cf.antipode.rows] == bo.data["S"]
        assert [list(x) for x in cf.reverse_antipode.rows] == bo.data["S_prime"]
        assert list(cf.left_integral.covector) == bo.data["phi"]
        assert list(cf.right_integral.covector) == bo.data["psi"]
        assert [list(x) for x in cf.modular.rows] == bo.data["sigma"]
        assert [list(x) for x in cf.reverse_modular.rows] == bo.data["sigma_prime"]


def test_clean_run_has_no_failures():
    ops, failures = run_once(small_cycle())
    assert len(ops) == 6  # four verdicts, two derivations
    assert failures == []


def test_wrong_oracle_answer_raises_failed_share():
    cycle = small_cycle()
    cycle[0].known["phi"][0] += 1
    cycle[2].known["S"][0][0] += 1
    ops, failures = run_once(cycle)
    reasons = [op.reason for op in failures]
    assert len(failures) == 3  # S in the certificate and in derive_all, phi in derive_all
    assert any(r.startswith("phi ") for r in reasons)
    assert all(op.defect is None for op in failures)


def test_corrupted_derived_map_is_caught(monkeypatch):
    real = sd.derive_all

    def corrupted(e, mode=None):
        data = real(e, mode)
        rows = [list(r) for r in data.modular.rows]
        rows[0][0] += 1
        bad = sd.LinearMap(data.modular.source, data.modular.target, rows)
        return dataclasses.replace(data, modular=bad)

    monkeypatch.setattr(sd, "derive_all", corrupted)
    ops, failures = run_once(small_cycle())
    assert [op.what for op in failures] == ["derive_all"] * 2
    assert all(op.reason.startswith("sigma ") for op in failures)


def test_wrong_verdict_expectation_fails():
    cycle = small_cycle()
    cycle[1].scalar += 1  # E^2 = kE with the wrong k
    cycle[3].expect = "certified"  # a corrupted element cannot certify
    _, failures = run_once(cycle)
    assert sorted(op.label for op in failures) == sorted(
        [cycle[1].label, cycle[3].label])


def test_corruption_landing_on_another_idempotent_is_detected():
    # Column 1 of this basis is p_1 - p_2, so lowering E's coefficient (1, 1)
    # by one gives E = sum p_i (x) p_pi(i) with pi swapping 1 and 2: a valid
    # separability idempotent, which the program rightly certifies.
    f = Fraction
    p = [[f(-3), f(0), f(0), f(-2, 3)], [f(0), f(1), f(2, 3), f(3, 2)],
         [f(1, 3), f(-1), f(1), f(3, 2)], [f(2), f(0), f(-3, 2), f(3, 2)]]
    p_inv = O.inverse(p)
    known, unit = O.commutative_known(4)
    new = O.transport(known, unit, p, p_inv)
    table = O.idempotents_table(4)
    constants = O.rebase(table, 4, p, p_inv)

    def idempotent(e):  # E^2 = E, tested in the standard basis
        return O.is_idempotent(table, O.mat_mul(O.mat_mul(p, e), O.transpose(p)))

    assert idempotent(new["E"])
    swapped = [list(row) for row in new["E"]]
    swapped[1][1] -= 1
    assert idempotent(swapped)
    alg = sd.structure_constant_algebra(constants, new["unit"])
    assert sd.certify(sd.TensorElement(alg, alg, swapped)).mode == W.CERTIFIED
    swapped[1][1] -= 1
    assert not idempotent(swapped)
    e0 = O.standard_known(2)[0]["E"]
    assert O.is_idempotent(O.matrix_units_table(2), e0)


def test_float_tolerance_and_known_defect_signature():
    assert W.mismatch([[1.0 + 1e-12]], [[Fraction(1)]], 1e-9) is None
    assert W.mismatch([[1.001]], [[Fraction(1)]], 1e-9) is not None
    assert W.mismatch([["1/3"]], [[Fraction(1, 3)]]) is None
    assert W.mismatch([["1/3"]], [[Fraction(1, 2)]]) is not None
    inst = W.LibraryInstance("x", "dense", None, "certified", {}, tol=1e-9)
    rejected = W.Op("x", "certify", "verdict", 0.0, SimpleNamespace(mode="rejected"))
    assert inst.defect(rejected) == W.FLOAT_DENSE
    assert dataclasses.replace(inst, tol=None).defect(rejected) is None


def test_cli_checks_exit_code_and_json():
    cmd = W.Command(["verify", "x.json"], "verdict", 0, {}, W.CERTIFIED)
    doc = W.DocumentInstance("doc", "x.json", [cmd], {})
    op = W.Op("doc", cmd, "verdict", 0.0, (0, "{not json", ""))
    assert doc.check(op).startswith("malformed JSON")
    op = W.Op("doc", cmd, "verdict", 0.0, (1, "", "rejected"))
    assert doc.check(op).startswith("exit 1")
    op = W.Op("doc", cmd, "verdict", 0.0, (0, json.dumps({"mode": W.CERTIFIED}), ""))
    assert doc.check(op) is None
    dual = dataclasses.replace(cmd, defect=W.DUAL_STAR)
    op = W.Op("doc", dual, "derived", 0.0, (1, "", "error: dual star representative law fails"))
    assert doc.defect(op) == W.DUAL_STAR


def test_known_defects_are_probed_outside_the_workloads():
    assert all(variant == "corrupt" for family, _, variant in W.FLOAT_CYCLE
               if family == "dense")
    scratch = ROOT / ".bench_out" / f"probe-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        docs = W._documents(sd, random.Random(1), 0, str(scratch))
        assert all(cmd.defect is None for doc in docs for cmd in doc.commands)
        for name, defect in (("float64", W.FLOAT_DENSE), ("cli-documents", W.DUAL_STAR)):
            outcomes, wrong = run.probe_known_defects(sd, W.WORKLOADS[name], str(scratch))
            assert outcomes and wrong == []
            assert {o["status"] for o in outcomes} <= {"reproduced", "fixed"}
            assert all(o["known_defect"] in (defect, None) for o in outcomes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def test_probe_with_a_wrong_answer_counts_as_failed():
    cycle = small_cycle()
    cycle[1].scalar += 1  # E^2 = kE with the wrong k: no known defect matches
    workload = W.Workload("small", None, probes=lambda sd, scratch: [cycle[1]])
    outcomes, wrong = run.probe_known_defects(sd, workload, "")
    assert [o["status"] for o in outcomes] == ["wrong"]
    assert [op.label for op in wrong] == [cycle[1].label]


def test_traced_calls_repeat_exactly():
    scratch = ROOT / ".bench_out" / f"test-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = W.Workload("small", W._library(SMALL_CYCLE, True))

        def build(index):
            return W.build_cycle(workload, sd, 3, index, str(scratch))

        counts = []
        for _ in range(2):
            args = SimpleNamespace(workload="small", seed=3)
            _, metrics, _, _ = run.traced_run(sd, build, build(0), args)
            counts.append({k: v["value"] for k, v in metrics.items() if k.endswith(".calls")})
        assert counts[0] == counts[1]
        assert set(counts[0]) == {f"{n}.calls" for n in BOUNDARY_NAMES}
        assert counts[0]["engine.certify.calls"] == 4
        assert counts[0]["algebra.structure_constant_algebra.calls"] == 2
        assert counts[0]["cli.main.calls"] == 0
        assert not hasattr(sd.certify, "__wrapped__")  # wrappers removed
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        for f in (ROOT / ".bench_out").glob("trace-small-3.tsv"):
            f.unlink()


class _OneVerdict:
    label = "fake"

    def run(self, sd, recorder):
        recorder.ops.append(W.Op(self.label, "certify", "verdict", 0.0))

    def oracle_values(self):
        return []


def test_run_goes_on_until_ten_samples_lie_beyond_the_tail():
    recorder = W.Recorder()
    _, _, n_cycles, _ = run.run_cycles(sd, lambda index: [_OneVerdict()] * 2, recorder,
                                       tails={"verdict": 95})
    assert n_cycles == 100  # 200 verdicts, ten of them beyond p95
    values = run.summarize(list(range(101)), 95)
    assert values["tail"] == 95 and values["tail_percentile"] == 95


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "twist-exact", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        assert done.returncode != 0
        assert done.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
