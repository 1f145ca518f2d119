"""Exact mode does not re-prove what the verified maps imply: faithful
integrals, weak KMS, multiplicative sigma and sigma', and the swap
identity (proofs in the engine module docstring).  Float mode keeps every
check.  The public checks still pass on the data exact mode derives, and
every integral entry point refuses an element that certify does not
certify, whatever mode the caller claims."""

import collections
import importlib
import random
import sys

import pytest

import sepidem as sd
from sepidem.engine import integral_covector
from sepidem.scalars import FLOAT64, rational

# (module, name) of the checks that exact certify and derive_all no longer run
CHECKS = (
    ("linalg", "nullspace"),
    ("integrals", "_check_kms"),
    ("tensor", "swap_and_map"),
)


@pytest.fixture
def counts(monkeypatch):
    """Counting wrappers around CHECKS, installed under every sepidem module
    name that refers to them, and around LinearMap.assert_multiplicative."""
    counter = collections.Counter()
    for layer, name in CHECKS:
        original = getattr(importlib.import_module(f"sepidem.{layer}"), name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counter[_name] += 1
            return _original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "sepidem" or mod_name.startswith("sepidem."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
    original = sd.LinearMap.assert_multiplicative

    def counted_method(self):
        counter["assert_multiplicative"] += 1
        return original(self)

    monkeypatch.setattr(sd.LinearMap, "assert_multiplicative", counted_method)
    return counter


def commutative(k):
    constants = [[[1 if i == j == t else 0 for t in range(k)] for j in range(k)]
                 for i in range(k)]
    return sd.structure_constant_algebra(constants, [1] * k)


def in_random_basis(e, rng):
    """E over one algebra A, rewritten in a random rational basis
    b'_i = sum_k p[k][i] b_k of A on both legs: M becomes P^-1 M P^-T."""
    a = e.left
    d, f = a.dim, a.field
    while True:
        p = [[rational(f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}") for _ in range(d)]
             for _ in range(d)]
        try:
            p_inv = sd.linalg.inverse(p, f)
            break
        except sd.linalg.RankDeficient:
            pass
    cols = [sd.AlgebraElement(a, [p[k][i] for k in range(d)]) for i in range(d)]
    new = lambda x: sd.linalg.mat_vec(p_inv, list(x.coeffs), f)
    constants = [[new(x * y) for y in cols] for x in cols]
    b = sd.structure_constant_algebra(constants, new(a.one()), field=f)
    m = [list(r) for r in e.rows]
    rows = sd.linalg.mat_mul(sd.linalg.mat_mul(p_inv, m, f), sd.linalg.transpose(p_inv), f)
    return sd.TensorElement(b, b, rows)


def c_k(k):
    a = commutative(k)
    return sd.TensorElement(a, a, [[int(i == j) for j in range(k)] for i in range(k)])


def _counted_elements():
    r, s = sd.random_twisted_pair(3, random.Random(61))
    return {
        "twist n=3": sd.twisted_idempotent(r, s),
        "C4 random basis": in_random_basis(c_k(4), random.Random(62)),
    }


# Float mode keeps every check: a faithfulness nullspace per integral,
# multiplicativity and weak KMS of sigma and sigma', and the swap.
FLOAT_COUNTS = {"nullspace": 2, "assert_multiplicative": 2, "_check_kms": 2, "swap_and_map": 1}


@pytest.mark.parametrize("backend", ["exact", "float64"])
def test_exact_mode_runs_no_implied_check(counts, backend):
    for label, e in _counted_elements().items():
        if backend == "float64":
            e = e.to_field(FLOAT64)
        counts.clear()
        cert = sd.certify(e)
        assert cert.ok, (label, cert.reason)
        sd.derive_all(e, cert.mode)
        expect = {} if backend == "exact" else FLOAT_COUNTS
        assert dict(counts) == expect, label


def _consequence_elements():
    rng = random.Random(63)
    m2 = sd.matrix_algebra(2, with_star=True)
    out = {"E0(2)": sd.standard_idempotent(2), "E0(3)": sd.standard_idempotent(3)}
    for n in (2, 3):
        r, s = sd.random_twisted_pair(n, rng)
        out[f"twist n={n}"] = sd.twisted_idempotent(r, s)
        out[f"E^2 = 3E n={n}"] = sd.twisted_idempotent(r, rational(3) * s)
    out["E^2 = 3E E0(2)"] = sd.standard_idempotent(2).scale(rational(3))
    out["C4 random basis"] = in_random_basis(c_k(4), rng)
    out["E0(2) random basis"] = in_random_basis(sd.standard_idempotent(2), rng)
    r, s = sd.random_twisted_pair(2, rng)
    out["direct sum E0(1) + twist n=2"] = sd.direct_sum_idempotent(
        [sd.standard_idempotent(1), sd.twisted_idempotent(r, s)])
    out["nilpotent pair"] = sd.twisted_idempotent(
        m2.one(), sd.element_from_matrix(m2, [[1, 0], [0, -1]]))
    return out


@pytest.mark.parametrize("label", sorted(_consequence_elements()))
def test_public_checks_pass_on_what_exact_mode_derives(label):
    e = _consequence_elements()[label]
    assert e.left.dim <= 9
    s, sp = sd.derive_antipode(e), sd.derive_reverse_antipode(e)
    cert = sd.certify(e)
    assert cert.absorption_right and cert.absorption_left, label
    # swap: certify records it without computing it
    assert sd.swap_and_map(e, s, sp) == e
    assert cert.swap.ok
    phi = sd.LinearFunctional(e.right, integral_covector(e, "left"))
    psi = sd.LinearFunctional(e.left, integral_covector(e, "right"))
    # faithfulness, multiplicativity and weak KMS, through the checking paths
    assert phi.faithfulness_witness() is None
    assert psi.faithfulness_witness() is None
    sigma, sigma_prime = sd.modular_automorphisms(s, sp, phi, psi)
    if cert.ok:
        data = sd.derive_all(e)
        assert data.left_integral == phi and data.right_integral == psi
        assert data.modular == sigma and data.reverse_modular == sigma_prime


# an idempotent, full element of M_2 (x) M_2 that fails right absorption
ABSORPTION_FAILURE = [["7/12", "5/12", "1/24", "11/24"], ["-1/2", "1/6", "1/4", "-5/12"],
                      ["-9/16", "-3/16", "-1/3", "-2/3"], ["5/8", "-3/8", "0", "1/3"]]


def _absorption_failure():
    m2 = sd.matrix_algebra(2, with_star=True)
    return sd.TensorElement(m2, m2, [[rational(x) for x in r] for r in ABSORPTION_FAILURE])


def test_integrals_refused_when_the_maps_do_not_derive():
    """An idempotent, full element that fails right absorption: certify
    rejects it, and every integral derivation refuses it by mode."""
    cert = sd.certify(_absorption_failure())
    assert cert.mode == "rejected" and cert.full
    assert cert.idempotency.kind == "idempotent"
    assert "absorption condition fails on the right side" in cert.reason
    for derive in (sd.derive_left_integral, sd.derive_right_integral, sd.derive_all):
        for e in (_absorption_failure(), _absorption_failure().to_field(FLOAT64)):
            with pytest.raises(sd.errors.RefusedForMode, match=r"certificate mode: rejected"):
                derive(e)


# -- the certificate is the only gate for integrals --------------------------------

INTEGRAL_ENTRY_POINTS = (sd.derive_all, sd.derive_left_integral, sd.derive_right_integral,
                         sd.Duality.from_element)


def _refused_elements():
    """label -> (element, its certificate mode, a fragment of its reason),
    one element per way certify rejects."""
    m2 = sd.matrix_algebra(2, with_star=True)
    r, s = sd.random_twisted_pair(3, random.Random(64))
    e0_1 = sd.standard_idempotent(1)
    diag = lambda *d: sd.element_from_matrix(m2, [[d[0], 0], [0, d[1]]])
    return {
        "E^2 = 2E twist n=3": (sd.twisted_idempotent(r, rational(2) * s), "rejected",
                               "not idempotent: E^2 = ("),
        "not full": (sd.nonfull_idempotent(2), "rejected", "not full"),
        "right absorption": (_absorption_failure(), "rejected",
                             "absorption condition fails on the right side"),
        "other": (sd.direct_sum_idempotent([e0_1, e0_1.scale(rational(2))]), "rejected",
                  "E^2 is not proportional to E"),
        "scalar multiple": (sd.twisted_idempotent(m2.one(), diag(2, 1)), "rejected",
                            "not idempotent: E^2 = ("),
        "nilpotent": (sd.twisted_idempotent(m2.one(), diag(1, -1)), "nilpotent_variant", ""),
    }


@pytest.mark.parametrize("backend", ["exact", "float64"])
@pytest.mark.parametrize("label", sorted(_refused_elements()))
def test_integral_entry_points_refuse_what_certify_rejects(label, backend):
    """Every integral entry point refuses an element certify does not
    certify, with or without a claimed separability mode, naming the
    certificate mode."""
    e, mode, reason = _refused_elements()[label]
    if backend == "float64":
        e = e.to_field(FLOAT64)
    cert = sd.certify(e)
    assert cert.mode == mode and reason in (cert.reason or ""), (label, cert.reason)
    for derive in INTEGRAL_ENTRY_POINTS:
        for claimed in (None, "separability_idempotent"):
            with pytest.raises(sd.errors.RefusedForMode) as info:
                derive(e, claimed)
            assert f"certificate mode: {mode}" in str(info.value), (label, derive)
            assert reason in str(info.value), (label, derive)
