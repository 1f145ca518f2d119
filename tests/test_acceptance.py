"""Acceptance suite.

One test per criterion; each prints a pass/fail line (run with -s to see
them).  Frozen expected values come from the closed-form twist oracles and
from direct brute-force evaluation, never from the derivation path they
check.
"""

import random
import time

import pytest

import sepidem as sd
from sepidem.errors import CrossBlockLeakage, NotInvertible, RefusedForMode
from sepidem.scalars import EXACT, Float64Field, to_complex

SEED = 20260810
TOL = 1e-9


def report(criterion, ok, detail):
    line = f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def u(a, i, j, block=0):
    return a.basis_element(a.unit_index(block, i, j))


# -- deterministic instance families ------------------------------------------------


def twisted_suite(count, sizes=(2, 3, 4), seed=SEED, field=EXACT):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = sizes[i % len(sizes)]
        r, s = sd.random_twisted_pair(n, rng, field=field)
        out.append((n, r, s))
    return out


def involutive_suite(count, seed=SEED + 1):
    rng = random.Random(seed)
    sizes = (2, 2, 2, 3, 3, 2, 3, 2, 3, 4)
    out = []
    for i in range(count):
        n = sizes[i % len(sizes)]
        out.append(sd.random_involutive_diagonal(n, rng))
    return out


def battery_instances():
    """Every instance the acceptance run certifies, rebuilt deterministically."""
    instances = [(f"E0(n={n})", sd.standard_idempotent(n)) for n in range(1, 6)]
    for idx, (n, r, s) in enumerate(twisted_suite(12)):
        instances.append((f"twisted[{idx}] (n={n})", sd.twisted_idempotent(r, s)))
    for idx, r in enumerate(involutive_suite(6)):
        instances.append(
            (f"involutive[{idx}] (n={r.algebra.blocks[0]})",
             sd.involutive_twisted_idempotent(r))
        )
    rng = random.Random(SEED + 2)
    comps = [
        sd.standard_idempotent(1),
        sd.involutive_twisted_idempotent(sd.random_involutive_diagonal(2, rng)),
        sd.standard_idempotent(3),
    ]
    instances.append(("direct_sum(1,2,3)", sd.direct_sum_idempotent(comps)))
    m2 = sd.matrix_algebra(2, with_star=True)
    w = sd.element_from_matrix(m2, [["3/5", "4/5"], ["-4/5", "3/5"]])
    instances.append(("unitary twist", sd.twisted_idempotent(w, w.star())))
    return instances


# -- criterion 1: golden standard-idempotent suite ------------------------------------


def test_criterion_1_golden_suite():
    t0 = time.perf_counter()
    for n in range(1, 6):
        e = sd.standard_idempotent(n)
        cert = sd.certify(e)
        assert cert.mode == "separability_idempotent", (n, cert.reason)
        assert cert.regular == "automatic" and cert.full
        assert cert.idempotency.kind == "idempotent"
        assert cert.absorption_left and cert.absorption_right
        assert cert.counit.ok and cert.swap.ok and cert.splitting.ok and cert.determinacy.ok
        s0 = sd.transpose_anti_map(e.left)
        assert cert.antipode == s0 and cert.reverse_antipode == s0
        phi = sd.derive_left_integral(e)
        psi = sd.derive_right_integral(e)
        ntr = n * sd.trace_functional(e.left)
        assert phi == ntr and psi == ntr
    dt = time.perf_counter() - t0
    report(1, dt < 1.0, f"E0 suite n=1..5 certified, S=S'=transpose, "
                        f"integrals = n*Tr, in {dt:.3f}s (< 1s)")


# -- criterion 2: closed-form oracle suite ----------------------------------------------


def test_criterion_2_closed_form_suite():
    t0 = time.perf_counter()
    failures = 0
    for n, r, s in twisted_suite(200):
        e = sd.twisted_idempotent(r, s)
        data = sd.derive_all(e)
        cf = sd.twisted_closed_forms(r, s)
        same = (
            data.antipode == cf.antipode
            and data.reverse_antipode == cf.reverse_antipode
            and data.left_integral == cf.left_integral
            and data.right_integral == cf.right_integral
            and data.modular == cf.modular
            and data.reverse_modular == cf.reverse_modular
        )
        failures += 0 if same else 1
    dt = time.perf_counter() - t0
    report(2, failures == 0 and dt < 30.0,
           f"200 seeded twist instances (n<=4) match the closed forms exactly, "
           f"{failures} failures, in {dt:.1f}s (< 30s)")


# -- criterion 3: identity battery on every certified instance ----------------------------


def run_battery(e, mode_hint="separability_idempotent"):
    cert = sd.certify(e)
    assert cert.mode == mode_hint, cert.reason
    assert cert.counit.ok, "counit identities"
    assert cert.swap.ok, "swap identity"
    assert cert.splitting.ok, "splitting"
    data = sd.derive_all(e)  # KMS laws asserted inside
    rep = sd.check_integral_transport(
        data.left_integral, data.right_integral, data.antipode, data.reverse_antipode
    )
    assert rep.ok, rep.failures
    return cert, data


def test_criterion_3_identity_battery():
    count = 0
    for name, e in battery_instances():
        run_battery(e)
        count += 1
    report(3, True, f"counit/swap/splitting/KMS/transport/invariance identities "
                    f"exhaustive over basis elements on {count} certified instances")


# -- criterion 4: determinacy and one-sided derivation --------------------------------------


def test_criterion_4_determinacy_and_one_sided():
    rng = random.Random(SEED + 3)
    for i in range(50):
        n = 2 + (i % 2)
        r, s = sd.random_twisted_pair(n, rng)
        e = sd.twisted_idempotent(r, s)
        lam = sd.rational(rng.randint(1, 9)) / sd.rational(rng.randint(1, 9))
        g = sd.twisted_idempotent(lam * r, (1 / lam) * s)
        assert g == e, "gauge pair differs"
        rep = sd.determinacy_check(e, g)
        assert rep.applicable and rep.ok
    rng = random.Random(SEED + 4)
    for i in range(50):
        n = 2 + (i % 2)
        r, s = sd.random_twisted_pair(n, rng)
        e = sd.twisted_idempotent(r, s)
        assert sd.derive_one_sided(e, "left") == sd.derive_antipode(e)
    report(4, True, "50 gauge pairs equal with matching maps; one-sided recovery "
                    "agrees with the direct derivation on 50 instances")


# -- criterion 5: star suite -------------------------------------------------------------------


def test_criterion_5_star_suite():
    rng = random.Random(SEED + 5)
    t0 = time.perf_counter()
    for idx, r in enumerate(involutive_suite(100)):
        e = sd.involutive_twisted_idempotent(r)
        assert sd.check_self_adjoint(e), idx
        cert = sd.certify(e)
        assert cert.ok, (idx, cert.reason)
        assert sd.check_antipode_star_relations(cert.antipode, cert.reverse_antipode).ok
        data = sd.derive_all(e)
        assert sd.check_integral_self_adjoint(data.left_integral, data.modular).ok
        assert sd.check_integral_self_adjoint(data.right_integral, data.reverse_modular).ok
        assert sd.check_positive(data.left_integral)[0], "phi positive (exact PSD)"
        assert sd.check_positive(data.right_integral)[0], "psi positive (exact PSD)"
        assert sd.check_cauchy_bound(data, 200, rng) == 200
        assert sd.check_positivity_transfer(data).ok
        dual = sd.Duality(data)
        c_alg = e.right
        chats = [dual.fourier(c_alg.basis_element(j), "C") for j in range(c_alg.dim)]
        for c2 in chats:
            for c1 in chats:
                dual.plancherel_form(c1, c2)  # asserts the identity internally
    dt = time.perf_counter() - t0
    report(5, True, f"100 seeded self-adjoint instances: star/positivity/bound/"
                    f"Plancherel identities all hold exactly ({dt:.1f}s)")


# -- criterion 6: block decomposition round-trip -------------------------------------------------


def test_criterion_6_block_round_trip():
    rng = random.Random(SEED + 6)
    comps = [
        sd.standard_idempotent(1),
        sd.involutive_twisted_idempotent(sd.random_involutive_diagonal(2, rng)),
        sd.involutive_twisted_idempotent(sd.random_involutive_diagonal(3, rng)),
    ]
    e = sd.direct_sum_idempotent(comps)
    blocks = sd.decompose_blocks(e)
    assert [b.size for b in blocks] == [1, 2, 3]
    rebuilt = []
    for b in blocks:
        assert b.certificate.ok
        e0 = sd.standard_idempotent_over(b.element.left)
        assert e0.lmul_b(b.twist.r).rmul_b(b.twist.s) == b.element
        rebuilt.append(b.element)
    assert sd.direct_sum_idempotent(rebuilt) == e
    rows = [list(row) for row in e.rows]
    rows[0][2] = sd.rational("1/5")
    tampered = sd.TensorElement(e.left, e.right, rows)
    with pytest.raises(CrossBlockLeakage):
        sd.decompose_blocks(tampered)
    report(6, True, "sum of blocks (1,2,3) decomposes, twists recovered up to gauge, "
                    "element rebuilt exactly; injected cross-block entry detected")


# -- criterion 7: negative controls ----------------------------------------------------------------


def test_criterion_7_negative_controls():
    for n in (2, 3):
        cert = sd.certify(sd.nonfull_idempotent(n))
        assert cert.mode == "rejected" and cert.reason == "not full"
    m2 = sd.matrix_algebra(2, with_star=True)
    s_mat = sd.element_from_matrix(m2, [[1, 0], [0, -1]])
    e = sd.twisted_idempotent(m2.one(), s_mat)
    cert = sd.certify(e)
    assert cert.mode == "nilpotent_variant"
    assert cert.central_element.is_zero()
    with pytest.raises(RefusedForMode):
        sd.derive_left_integral(e)
    e0 = sd.standard_idempotent(2)
    data = sd.derive_all(e0)
    corrupted = data.right_integral + m2.functional([1, 0, 0, 0])
    rep = sd.check_integral_transport(
        data.left_integral, corrupted, data.antipode, data.reverse_antipode
    )
    assert not rep.ok and rep.failures
    out = sd.splitting_check(e0, sd.conjugation_map(s_mat).compose(data.antipode))
    assert not out.ok and out.witness
    report(7, True, "non-full rejected with reason 'not full' (n=2,3); tr(sr)=0 "
                    "classified nilpotent with e=0 and integrals refused; corrupted "
                    "functional and map produce witnesses")


# -- criterion 8: trace correspondence over a direct sum ----------------------------------------------


def test_criterion_8_trace_correspondence():
    e = sd.direct_sum_idempotent([sd.standard_idempotent(2), sd.standard_idempotent(2)])
    data = sd.derive_all(e)
    b_alg, c_alg = e.left, e.right
    tau = sd.trace_functional(b_alg)
    q = sd.implementing_element_from_trace(data, tau)  # asserts the round trip
    tau2, faithful = sd.trace_from_implementing_element(data, q)
    assert tau2 == tau and faithful
    q10 = c_alg.zero()
    for i in range(2):
        q10 = q10 + u(c_alg, i, i, block=0)
    tau10, faithful10 = sd.trace_from_implementing_element(data, q10)
    assert tau10.is_tracial() and not faithful10
    with pytest.raises(NotInvertible):
        q10.inverse()
    q_inv = q10 + 3 * (u(c_alg, 0, 0, block=1) + u(c_alg, 1, 1, block=1))
    tau_inv, faithful_inv = sd.trace_from_implementing_element(data, q_inv)
    assert faithful_inv and q_inv.inverse() is not None
    report(8, True, "trace <-> implementing element round-trips on M2+M2; "
                    "q=(1,0) gives a tracial non-faithful functional with "
                    "non-invertible q; invertible q gives a faithful trace")


# -- criterion 9: float-mode consistency ------------------------------------------------------------------


def close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def rows_close(rows_f, rows_e):
    return all(
        close(x, to_complex(y)) for rf, re_ in zip(rows_f, rows_e) for x, y in zip(rf, re_)
    )


def to_float_element(x, a_float):
    return a_float.element([to_complex(c) for c in x.coeffs])


def test_criterion_9_float_mode_consistency():
    ffield = Float64Field(TOL)
    # (1) golden suite
    for n in range(1, 6):
        ef = sd.standard_idempotent(n, field=ffield)
        ee = sd.standard_idempotent(n)
        certf = sd.certify(ef)
        certe = sd.certify(ee)
        assert certf.mode == "separability_idempotent"
        assert rows_close(certf.antipode.rows, certe.antipode.rows)
        phif = sd.derive_left_integral(ef)
        phie = sd.derive_left_integral(ee)
        assert all(close(x, to_complex(y))
                   for x, y in zip(phif.covector, phie.covector))
    # (2) closed-form suite, same seeded data in both backends
    mismatches = 0
    for n, r, s in twisted_suite(200):
        e = sd.twisted_idempotent(r, s)
        data = sd.derive_all(e)
        af = sd.matrix_algebra(n, with_star=True, field=ffield)
        rf, sf = to_float_element(r, af), to_float_element(s, af)
        ef = sd.twisted_idempotent(rf, sf)
        dataf = sd.derive_all(ef)
        ok = (
            rows_close(dataf.antipode.rows, data.antipode.rows)
            and rows_close(dataf.reverse_antipode.rows, data.reverse_antipode.rows)
            and all(close(x, to_complex(y)) for x, y in
                    zip(dataf.left_integral.covector, data.left_integral.covector))
            and all(close(x, to_complex(y)) for x, y in
                    zip(dataf.right_integral.covector, data.right_integral.covector))
            and rows_close(dataf.modular.rows, data.modular.rows)
            and rows_close(dataf.reverse_modular.rows, data.reverse_modular.rows)
        )
        mismatches += 0 if ok else 1
    # (3) identity battery in float mode
    for name, e in battery_instances():
        ef = e.to_field(ffield)
        run_battery(ef)
    report(9, mismatches == 0,
           f"float64 rerun of the golden suite, the 200-instance closed-form suite "
           f"and the identity battery agrees with exact results within {TOL:g} "
           f"relative ({mismatches} mismatches)")
