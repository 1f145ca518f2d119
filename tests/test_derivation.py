"""Each derived quantity is computed once per element, the certificate
fields certify reads off earlier work agree with the exhaustive checks,
and float mode reads its derived data at the accuracy of the input."""

import collections
import gc
import importlib
import json
import random
import sys

import pytest

import sepidem as sd
from sepidem.cli import main
from sepidem.documents import parse_instance, parse_scalar
from sepidem.scalars import FLOAT64, rational

# (module, name) of every derivation step that must run once per element
# (and side, for the two-sided ones)
STEPS = (
    ("engine", "verify_idempotent"),
    ("tensor", "is_full"),
    ("engine", "integral_covector"),
    ("engine", "_verify_map"),
)
ONCE = {
    "verify_idempotent": (None,),
    "is_full": (None,),
    "integral_covector": ("left", "right"),
    "_verify_map": ("left", "right"),
}


@pytest.fixture
def calls(monkeypatch):
    """Counting wrappers around STEPS, installed under every sepidem module
    name that refers to them.  calls[name][(id(element), side)] counts."""
    counts = {name: collections.Counter() for _, name in STEPS}
    seen = []  # keeps counted elements alive, so their ids stay distinct

    for layer, name in STEPS:
        original = getattr(importlib.import_module(f"sepidem.{layer}"), name)

        def counted(e, *args, _name=name, _original=original):
            seen.append(e)
            counts[_name][(id(e), args[0] if args else None)] += 1
            return _original(e, *args)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "sepidem" or mod_name.startswith("sepidem."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
    return counts


def assert_each_step_once(calls, n_elements):
    ids = {i for i, _ in calls["verify_idempotent"]}
    assert len(ids) == n_elements
    for name, sides in ONCE.items():
        want = collections.Counter({(i, side): 1 for i in ids for side in sides})
        assert calls[name] == want, name


def test_library_layers_derive_once(calls):
    r, s = sd.random_twisted_pair(3, random.Random(31))
    e = sd.twisted_idempotent(r, s)
    cert = sd.certify(e)
    assert cert.ok
    data = sd.derive_all(e, cert.mode)
    dual = sd.Duality(data)
    b, c = e.left.basis_element(1), e.right.basis_element(3)
    dual.pairing(dual.fourier(b, "B"), dual.fourier(c, "C"))
    dual.dual_antipode(dual.fourier(c, "C"))
    assert sd.derive_antipode(e) == cert.antipode
    assert sd.derive_right_integral(e) == data.right_integral
    assert sd.modular_automorphisms(cert.antipode, cert.reverse_antipode,
                                    element=e)[1] == data.reverse_modular
    assert sd.determinacy_check(e, e).ok
    assert sd.derive_one_sided(e, "right") == cert.reverse_antipode
    sd.recover_twist(e)
    assert sd.derive_all(e) is not data  # a fresh bundle of the kept values
    assert_each_step_once(calls, 1)


def _cli(tmp_path, capsys, doc, *argv):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    code = main(list(argv) + [str(path)])
    return code, capsys.readouterr().out


def test_cli_dual_derives_once(calls, tmp_path, capsys):
    doc = {"E": {"kind": "involutive_twisted", "r": [["7/5", "0"], ["0", "1/5"]]}}
    code, out = _cli(tmp_path, capsys, doc, "derive", "--what=dual")
    assert code == 0 and "dual_pairing" in json.loads(out)["derived"]
    assert_each_step_once(calls, 1)


def test_cli_decompose_derives_once_per_block(calls, tmp_path, capsys, monkeypatch):
    """The blocks read their data off the sum's by restriction, and the
    sum's algebra, the same on both legs, is built once."""
    from sepidem import algebra, constructions

    sums = []
    original = algebra.direct_sum
    counted = lambda components: sums.append(components) or original(components)
    monkeypatch.setattr(algebra, "direct_sum", counted)
    monkeypatch.setattr(constructions, "direct_sum", counted)
    doc = {"E": {"kind": "direct_sum", "components": [
        {"kind": "E0", "n": 2},
        {"kind": "involutive_twisted", "r": [["7/5", "0"], ["0", "1/5"]]},
    ]}}
    code, out = _cli(tmp_path, capsys, doc, "decompose")
    assert code == 0 and len(json.loads(out)["derived"]["blocks"]) == 2
    assert_each_step_once(calls, 1)  # the sum alone
    assert len(sums) == 1


def test_cli_dual_stars_each_dual_once(tmp_path, capsys, monkeypatch):
    """The Plancherel table takes one dual star (and its star, for the
    involution check) per C-side dual, not one per table entry: one batch
    of the 9 duals, then one of their 9 stars."""
    original = sd.Duality._star_batch
    calls = []

    def counted(self, ws):
        calls.append(len(ws))
        return original(self, ws)

    monkeypatch.setattr(sd.Duality, "_star_batch", counted)
    code, out = _cli(tmp_path, capsys, {"E": {"kind": "E0", "n": 3}}, "derive", "--what=dual")
    assert code == 0 and "plancherel_gram" in json.loads(out)["derived"]
    assert calls == [9, 9]


def test_certify_and_derive_build_each_form_matrix_once(monkeypatch):
    """F_phi and F_psi serve the map derivation, the faithfulness checks and
    the KMS laws: one form matrix per integral and element."""
    counts = collections.Counter()
    original = sd.LinearFunctional.form_matrix

    def counted(self):
        counts[self.algebra.dim] += 1
        return original(self)

    monkeypatch.setattr(sd.LinearFunctional, "form_matrix", counted)
    b = sd.matrix_algebra(2, with_star=True)
    r, s = sd.random_twisted_pair(3, random.Random(32))
    for e in (sd.twisted_idempotent(r, s), sd.standard_idempotent_over(b)):
        counts.clear()
        cert = sd.certify(e)
        sd.derive_all(e, cert.mode)
        assert cert.ok and counts == {e.left.dim: 2}


def test_certify_computes_the_leg_product_once(monkeypatch):
    from sepidem import engine

    calls = []
    original = engine._leg_product
    monkeypatch.setattr(engine, "_leg_product", lambda e, s: calls.append(e) or original(e, s))
    r, s = sd.random_twisted_pair(2, random.Random(33))
    for e in (sd.twisted_idempotent(r, s), sd.twisted_idempotent(r, rational(3) * s)):
        calls.clear()
        sd.certify(e)
        assert calls == [e]


def _count_calls(monkeypatch, module, *names):
    """A Counter of the calls of module's functions names, counted from now."""
    counter = collections.Counter()
    for name in names:
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _name=name, _original=original:
                            counter.update([_name]) or _original(*args))
    return counter


def test_second_certify_reads_the_kept_certificate(monkeypatch):
    from sepidem import engine

    counter = _count_calls(monkeypatch, engine, "verify_idempotent", "_leg_product")
    r, s = sd.random_twisted_pair(2, random.Random(34))
    for e in (sd.twisted_idempotent(r, s), sd.twisted_idempotent(r, rational(3) * s),
              sd.nonfull_idempotent(2), sd.twisted_idempotent(r, s).to_field(FLOAT64)):
        first = sd.certify(e)
        counter.clear()
        second = sd.certify(e)
        assert second == first and second is not first
        assert first.element is e and second.element is e
        assert not counter


def test_cli_decompose_single_block_forms_the_leg_product_once(tmp_path, capsys, monkeypatch):
    """decompose_blocks of a single-block element reads the certificate
    cmd_decompose just computed."""
    from sepidem import engine

    counter = _count_calls(monkeypatch, engine, "_leg_product")
    doc = {"E": {"kind": "involutive_twisted", "r": [["7/5", "0"], ["0", "1/5"]]}}
    code, out = _cli(tmp_path, capsys, doc, "decompose")
    assert code == 0 and len(json.loads(out)["derived"]["blocks"]) == 1
    assert counter == {"_leg_product": 1}


def test_cli_decompose_multi_block_forms_the_leg_product_once(tmp_path, capsys, monkeypatch):
    """Each block of a sum keeps the restriction of the sum's certificate,
    so no block forms its own leg product."""
    from sepidem import engine

    counter = _count_calls(monkeypatch, engine, "_leg_product")
    doc = {"E": {"kind": "direct_sum",
                 "components": [{"kind": "E0", "n": n} for n in (1, 2, 3)]}}
    code, out = _cli(tmp_path, capsys, doc, "decompose")
    assert code == 0 and len(json.loads(out)["derived"]["blocks"]) == 3
    assert counter == {"_leg_product": 1}


def test_block_certificates_equal_the_blocks_own(rng):
    """The restricted certificate of each block equals what certify
    computes on a fresh copy of the block, field by field, exact and
    float64."""
    comps = [sd.standard_idempotent(1),
             sd.involutive_twisted_idempotent(sd.random_involutive_diagonal(2, rng)),
             sd.twisted_idempotent(*sd.random_twisted_pair(3, rng))]
    exact = sd.direct_sum_idempotent(comps)
    for e in (exact, exact.to_field(FLOAT64)):
        for b in sd.decompose_blocks(e):
            fresh = sd.certify(sd.TensorElement(b.element.left, b.element.right, b.element.rows))
            got = b.certificate
            assert got.element is b.element and got.mode == fresh.mode == "separability_idempotent"
            for name in ("antipode", "reverse_antipode"):
                assert getattr(got, name).rows == getattr(fresh, name).rows
            assert got.central_element.coeffs == fresh.central_element.coeffs
            for name in ("reason", "regular", "full", "idempotency", "absorption_right",
                         "absorption_left", "counit", "swap", "splitting", "determinacy"):
                assert getattr(got, name) == getattr(fresh, name), name


def test_certified_element_leaves_no_garbage_cycle(r75):
    """The memo keeps the certificate without its element field, so it
    forms no reference cycle with the element."""
    r, s = sd.random_twisted_pair(2, random.Random(35))
    gc.collect()
    gc.disable()
    try:
        for make in (lambda: sd.involutive_twisted_idempotent(r75),
                     lambda: sd.direct_sum_idempotent([sd.standard_idempotent(1),
                                                       sd.twisted_idempotent(r, s)])):
            e = make()
            cert = sd.certify(e)
            data = sd.derive_all(e, cert.mode)
            dual = sd.Duality(data)
            blocks = sd.decompose_blocks(e)
            assert cert.ok and dual.element is e and blocks
            del e, cert, data, dual, blocks
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_rejected_element_leaves_no_garbage_cycle(m2):
    rng = random.Random(3)
    rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
    gc.collect()
    gc.disable()
    try:
        e = sd.TensorElement(m2, m2, rows)
        assert sd.certify(e).mode == "rejected"
        with pytest.raises(sd.errors.NoSolution):
            sd.derive_antipode(e)
        del e
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_failed_step_raises_alike_every_time(m2):
    rows = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]
    e = sd.TensorElement(m2, m2, rows)
    errors = []
    for _ in range(2):
        with pytest.raises(sd.errors.NonUniqueSolution) as info:
            sd.derive_antipode(e)
        errors.append(info.value)
    assert str(errors[0]) == str(errors[1]) and errors[0] is not errors[1]


# -- certify's derived fields against the exhaustive checks ------------------------


def _instances():
    rng = random.Random(47)
    m2 = sd.matrix_algebra(2, with_star=True)
    out = [("E0(2)", sd.standard_idempotent(2), "separability_idempotent"),
           ("E0(3)", sd.standard_idempotent(3), "separability_idempotent")]
    for n in (2, 3):
        r, s = sd.random_twisted_pair(n, rng)
        out.append((f"twist n={n}", sd.twisted_idempotent(r, s), "separability_idempotent"))
        out.append((f"E^2 = 3E n={n}", sd.twisted_idempotent(r, rational(3) * s), "rejected"))
    nil = sd.twisted_idempotent(m2.one(), sd.element_from_matrix(m2, [[1, 0], [0, -1]]))
    out.append(("nilpotent", nil, "nilpotent_variant"))
    return out


@pytest.mark.parametrize("backend", ["exact", "float64"])
def test_certify_fields_match_exhaustive_checks(backend):
    for label, e, mode in _instances():
        if backend == "float64":
            e = e.to_field(FLOAT64)
        cert = sd.certify(e)
        assert cert.mode == mode, label
        exhaustive = sd.splitting_check(e, cert.antipode)
        assert cert.splitting.ok == exhaustive.ok, label
        assert cert.splitting.witness == exhaustive.witness, label
        assert cert.determinacy.ok == sd.determinacy_check(e, e).ok, label
        assert cert.splitting.ok == (mode == "separability_idempotent"), label
        assert cert.determinacy.ok == (mode == "separability_idempotent"), label


def test_float_cli_sigma_prime_matches_derive_all(tmp_path, capsys):
    """derive --what=modular in float mode reports the sigma' of derive_all,
    which solves for S^-1 and S'^-1 instead of inverting the derived maps
    (inverting squares their condition number)."""
    path = tmp_path / "twist.json"
    assert main(["construct", "--kind=twisted", "--n=4", "--seed=21", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["derive", "--what=modular", "--mode=float", str(path)]) == 0
    got = json.loads(capsys.readouterr().out)["derived"]["sigma_prime"]
    doc = json.loads(path.read_text())
    want = sd.derive_all(parse_instance(doc, override_mode="float64").element).reverse_modular
    exact = sd.derive_all(parse_instance(doc).element).reverse_modular
    scale = max(abs(complex(x)) for row in exact.rows for x in row)
    for row_got, row_want, row_exact in zip(got, want.rows, exact.rows):
        for g, w, x in zip(row_got, row_want, row_exact):
            assert abs(parse_scalar(g, FLOAT64, "$") - w) <= 1e-12 * scale
            assert abs(w - complex(x)) <= 1e-12 * scale


def test_float_accepts_twist_with_ill_conditioned_reverse_antipode():
    """S' of this twist has condition number 5e9, beyond 1/tol: a rank test
    on S' calls it singular, but fullness and absorption already prove it
    bijective, and float mode certifies what exact mode certifies."""
    m3 = sd.matrix_algebra(3, with_star=True)
    r = sd.element_from_matrix(m3, [[1, 0, -3], ["-49/8", -4, -14], ["7/4", "7/18", "-21/10"]])
    s = sd.element_from_matrix(m3, [["-1152/9221", "648/9221", "192/9221"],
                                    ["4032/9221", "7776/9221", "12096/46105"],
                                    ["-2592/9221", "-3888/9221", "-192/9221"]])
    exact = sd.twisted_idempotent(r, s)
    assert sd.certify(exact).ok
    cert = sd.certify(exact.to_field(FLOAT64))
    assert cert.ok, cert.reason
    scale = max(abs(complex(x)) for row in sd.derive_reverse_antipode(exact).rows for x in row)
    for got, want in zip(cert.reverse_antipode.rows, sd.derive_reverse_antipode(exact).rows):
        assert all(abs(g - complex(w)) <= 1e-9 * scale for g, w in zip(got, want))


def test_float_integral_of_moderately_conditioned_twist():
    """M of this twist has condition number 3e4; the float solve for psi
    must not drop elimination multipliers below tol * scale, which cost
    seven digits here (error 7.7e-6 against 1e-9 * max|psi| = 5.4e-6)."""
    m5 = sd.matrix_algebra(5, with_star=True)
    r = sd.element_from_matrix(m5, [
        [1, "-12/7", "-30/49", 0, "-5/7"], ["6/35", "-6/7", "3/7", "-54/7", "-15/7"],
        ["4/21", "8/21", "24/35", "-54/49", "6/7"], ["-8/21", "24/49", "-1/7", "-54/35", "18/35"],
        [0, "-3/14", "3/7", "9/28", "3/7"]])
    s = sd.element_from_matrix(m5, [
        [rational(x) / 3924643 for x in row] for row in (
            [-308700, -926100, 514500, -154350, 411600],
            [-514500, -617400, 926100, -1852200, -132300],
            [793800, 1389150, -694575, -926100, 2469600],
            [rational("-1157625/2"), -1481760, -411600, -926100, 264600],
            [-926100, -2083725, 205800, 0, -1111320])])
    exact = sd.twisted_idempotent(r, s)
    want = sd.derive_right_integral(exact).covector
    got = sd.derive_right_integral(exact.to_field(FLOAT64)).covector
    scale = max(abs(complex(w)) for w in want)
    assert all(abs(g - complex(w)) <= 1e-9 * scale for g, w in zip(got, want))
