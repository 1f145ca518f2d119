import json

import pytest

import sepidem as sd
from sepidem.cli import main
from sepidem.documents import (
    CERTIFICATE_FORMAT,
    instance_to_dict,
    parse_certificate,
    parse_instance,
    parse_scalar,
    scalar_literal,
)
from sepidem.errors import DocumentError
from sepidem.scalars import EXACT, FLOAT64, gauss, rational


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- scalar literals -------------------------------------------------------------


def test_scalar_literal_round_trip():
    for x in (rational("7/5"), rational(-3), gauss("1/2", "-2/3")):
        lit = scalar_literal(x, EXACT)
        assert parse_scalar(lit, EXACT, "$") == x


def test_exact_mode_rejects_floats():
    with pytest.raises(DocumentError):
        parse_scalar(0.5, EXACT, "$")


def test_float_mode_accepts_numbers():
    assert parse_scalar(0.5, FLOAT64, "$") == 0.5 + 0j
    assert parse_scalar([1, 2], FLOAT64, "$") == 1 + 2j


# -- instance documents -------------------------------------------------------------


def test_parse_e0_instance(e0_2):
    desc = parse_instance({"scalar_mode": "exact", "E": {"kind": "E0", "n": 2}})
    assert desc.element == e0_2
    assert desc.scalar_mode == "exact"


def test_parse_twisted_instance(involutive_75):
    doc = {
        "E": {
            "kind": "involutive_twisted",
            "r": [["7/5", "0"], ["0", "1/5"]],
        }
    }
    assert parse_instance(doc).element == involutive_75


def test_parse_explicit_instance(e0_2):
    doc = {
        "algebras": {"blocks": [2]},
        "E": {
            "kind": "explicit",
            "coefficients": [
                ["1/2", "0", "0", "0"],
                ["0", "1/2", "0", "0"],
                ["0", "0", "1/2", "0"],
                ["0", "0", "0", "1/2"],
            ],
        },
    }
    assert parse_instance(doc).element == e0_2


def test_parse_structure_constant_algebra():
    doc = {
        "algebras": {
            "structure_constants": {
                "constants": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
                "unit": ["1", "1"],
            }
        },
        "E": {"kind": "explicit", "coefficients": [["1", "0"], ["0", "1"]]},
    }
    desc = parse_instance(doc)
    assert desc.element.left.dim == 2


def test_parse_errors_carry_location():
    with pytest.raises(DocumentError) as exc:
        parse_instance({"E": {"kind": "E0", "n": 0}})
    assert "$.E.n" in str(exc.value)
    with pytest.raises(DocumentError) as exc:
        parse_instance({"E": {"kind": "twisted", "r": [["1/0", "0"], ["0", "1"]],
                              "s": [["1", "0"], ["0", "1"]]}})
    assert "$.E.r[0][0]" in str(exc.value)
    with pytest.raises(DocumentError):
        parse_instance({"E": {"kind": "mystery"}})


def test_float_document_with_tolerance():
    desc = parse_instance({
        "scalar_mode": "float64",
        "tolerance": 1e-6,
        "E": {"kind": "E0", "n": 2},
    })
    assert desc.scalar_mode == "float64"
    assert desc.element.field.tol == 1e-6


def test_exact_document_rejects_tolerance():
    with pytest.raises(DocumentError):
        parse_instance({"scalar_mode": "exact", "tolerance": 1e-9,
                        "E": {"kind": "E0", "n": 2}})


def test_instance_round_trip(rng):
    r, s = sd.random_twisted_pair(2, rng)
    from sepidem.algebra import element_as_matrix
    from sepidem.documents import matrix_literal

    doc = {
        "scalar_mode": "exact",
        "seed": 7,
        "E": {
            "kind": "twisted",
            "r": matrix_literal(element_as_matrix(r), EXACT),
            "s": matrix_literal(element_as_matrix(s), EXACT),
            "normalize": False,
        },
    }
    desc = parse_instance(doc)
    echoed = instance_to_dict(desc)
    desc2 = parse_instance(echoed)
    assert desc2.element == desc.element
    assert echoed == instance_to_dict(desc2)


# -- certificate documents -------------------------------------------------------------


def test_certificate_round_trip(e0_2):
    from sepidem.documents import certificate_from_result

    desc = parse_instance({"E": {"kind": "E0", "n": 2}, "seed": 3})
    cert = sd.certify(desc.element)
    doc = certificate_from_result(desc, cert, timing=0.01)
    blob = doc.to_json()
    again = parse_certificate(json.loads(blob))
    assert again == doc
    assert again.to_json() == blob


def test_certificate_format_guard():
    with pytest.raises(DocumentError):
        parse_certificate({"format": "something-else"})


# -- CLI ------------------------------------------------------------------------------------


def test_cli_verify_e0(tmp_path, capsys):
    path = tmp_path / "e0.json"
    path.write_text(json.dumps({"E": {"kind": "E0", "n": 2}}))
    code, out, err = run(["verify", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "separability_idempotent"
    assert doc["format"] == CERTIFICATE_FORMAT
    # S is the transposition permutation matrix
    s_rows = doc["derived"]["S"]
    assert s_rows[1][2] == "1" and s_rows[2][1] == "1" and s_rows[1][1] == "0"


def test_cli_verify_nonfull(tmp_path, capsys):
    path = tmp_path / "nf.json"
    path.write_text(json.dumps({"E": {"kind": "nonfull", "n": 2}}))
    code, out, err = run(["verify", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["reason"] == "not full"


def test_cli_verify_nilpotent(tmp_path, capsys):
    path = tmp_path / "nil.json"
    path.write_text(json.dumps({
        "E": {"kind": "twisted", "r": [["1", "0"], ["0", "1"]],
              "s": [["1", "0"], ["0", "-1"]]}
    }))
    code, out, err = run(["verify", str(path)], capsys)
    assert code == 3
    assert json.loads(out)["mode"] == "nilpotent_variant"


def test_cli_verify_bad_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"E": {"kind": "E0"}}))
    code, out, err = run(["verify", str(path)], capsys)
    assert code == 2
    assert "$.E.n" in err


def test_cli_derive_integrals(tmp_path, capsys):
    path = tmp_path / "e0.json"
    path.write_text(json.dumps({"E": {"kind": "E0", "n": 3}}))
    code, out, err = run(["derive", str(path), "--what=integrals"], capsys)
    assert code == 0
    doc = json.loads(out)
    tr3 = ["3" if i % 4 == 0 else "0" for i in range(9)]  # 3 Tr on matrix units
    assert doc["derived"]["phi"] == tr3
    assert doc["derived"]["psi"] == tr3


def test_cli_derive_modular_twisted(tmp_path, capsys):
    path = tmp_path / "tw.json"
    path.write_text(json.dumps({
        "E": {"kind": "involutive_twisted", "r": [["7/5", "0"], ["0", "1/5"]]}
    }))
    code, out, err = run(["derive", str(path), "--what=modular"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["derived"]["sigma"][1][1] == "1/49"


def test_cli_derive_refusal_on_nilpotent(tmp_path, capsys):
    path = tmp_path / "nil.json"
    path.write_text(json.dumps({
        "E": {"kind": "twisted", "r": [["1", "0"], ["0", "1"]],
              "s": [["1", "0"], ["0", "-1"]]}
    }))
    code, out, err = run(["derive", str(path), "--what=integrals"], capsys)
    assert code == 1
    assert "refused" in err
    code, out, err = run(["derive", str(path), "--what=antipodes"], capsys)
    assert code == 3
    assert json.loads(out)["derived"]["S"]


def test_cli_decompose(tmp_path, capsys):
    path = tmp_path / "sum.json"
    path.write_text(json.dumps({
        "E": {"kind": "direct_sum", "components": [
            {"kind": "E0", "n": 2},
            {"kind": "involutive_twisted", "r": [["7/5", "0"], ["0", "1/5"]]},
        ]}
    }))
    code, out, err = run(["decompose", str(path)], capsys)
    assert code == 0
    blocks = json.loads(out)["derived"]["blocks"]
    assert [b["size"] for b in blocks] == [2, 2]
    assert blocks[0]["r"] == [["1", "0"], ["0", "1"]]


def test_cli_decompose_float_matches_exact(tmp_path, capsys):
    """Float decompose of a (1, 2, 3) direct sum reads its blocks off the
    float sum as exact mode reads them off the exact one: each block's r
    and s agree within 1e-9."""
    path = tmp_path / "sum123.json"
    path.write_text(json.dumps({"E": {"kind": "direct_sum", "components": [
        {"kind": "E0", "n": 1},
        {"kind": "involutive_twisted", "r": [["7/5", "0"], ["0", "1/5"]]},
        {"kind": "twisted", "r": [["1", "2", "0"], ["0", "1", "3"], ["1", "0", "1"]],
         "s": [["2", "0", "1"], ["1", "1", "0"], ["0", "-1", "1"]], "normalize": True},
    ]}}))
    blocks = {}
    for mode, fld in (("exact", EXACT), ("float", FLOAT64)):
        code, out, err = run(["decompose", f"--mode={mode}", str(path)], capsys)
        assert code == 0, err
        blocks[mode] = [(b["size"], [[complex(parse_scalar(x, fld, "$")) for x in row]
                                     for key in ("r", "s") for row in b[key]])
                        for b in json.loads(out)["derived"]["blocks"]]
    assert [size for size, _ in blocks["float"]] == [1, 2, 3]
    for (size, exact), (_, got) in zip(blocks["exact"], blocks["float"]):
        for row_e, row_f in zip(exact, got):
            assert all(abs(x - y) <= 1e-9 * max(1, abs(x)) for x, y in zip(row_e, row_f))


def test_cli_decompose_single_block(tmp_path, capsys):
    path = tmp_path / "e0.json"
    path.write_text(json.dumps({"E": {"kind": "E0", "n": 2}}))
    code, out, err = run(["decompose", str(path)], capsys)
    assert code == 0
    blocks = json.loads(out)["derived"]["blocks"]
    assert len(blocks) == 1
    assert blocks[0]["r"] == [["1", "0"], ["0", "1"]]


def test_cli_decompose_tampered(tmp_path, capsys):
    coeffs = [["0"] * 5 for _ in range(5)]
    coeffs[0][0] = "1"
    for i in (1, 2):
        for j in (1, 2):
            coeffs[i][j] = "1/2" if i == j else "0"
    coeffs[3][3] = coeffs[4][4] = "1/2"
    coeffs[0][1] = "1/3"  # cross-block entry
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps({
        "algebras": {"blocks": [1, 2]},
        "E": {"kind": "explicit", "coefficients": coeffs},
    }))
    code, out, err = run(["decompose", str(path)], capsys)
    assert code == 1


def test_cli_construct_verify_round_trip(tmp_path, capsys):
    out_path = tmp_path / "inst.json"
    code, _, _ = run(["construct", "--kind=twisted", "--n=2", "--seed=9",
                      "--out", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["seed"] == 9
    code, out, err = run(["verify", str(out_path)], capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 9


def test_cli_float_mode(tmp_path, capsys):
    path = tmp_path / "e0.json"
    path.write_text(json.dumps({"E": {"kind": "E0", "n": 2}}))
    code, out, err = run(["verify", str(path), "--mode=float"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["scalar_mode"] == "float64"
    assert abs(doc["derived"]["S"][1][2] - 1.0) < 1e-9


# -- dimension bound -----------------------------------------------------------------


@pytest.fixture
def nothing_built(monkeypatch):
    """Makes every builder of an algebra table or a random pair fail the
    test, so an oversized document is shown to be refused before any."""
    from sepidem import algebra, cli, constructions, documents

    def built(*args, **kwargs):
        raise AssertionError("a table or random pair was built")

    for mod in (algebra, cli, constructions, documents):
        for name in ("matrix_algebra", "structure_constant_algebra", "direct_sum",
                     "random_twisted_pair", "random_involutive_diagonal"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, built)


def test_dimension_bound():
    from sepidem.documents import MAX_DIM, check_dim

    check_dim(MAX_DIM, "$")
    with pytest.raises(DocumentError, match="exceeds the limit"):
        check_dim(MAX_DIM + 1, "$")


@pytest.mark.parametrize("kind", ["E0", "nonfull", "twisted", "involutive_twisted"])
def test_construct_refuses_oversized_n(kind, nothing_built, capsys):
    code, out, err = run(["construct", f"--kind={kind}", "--n=1000000", "--seed=1"], capsys)
    assert code == 2 and not out
    assert "algebra dimension 1000000000000 exceeds the limit" in err


@pytest.mark.parametrize("doc,loc", [
    ({"algebras": {"blocks": [1, 10, 10]}, "E": {"kind": "explicit", "coefficients": []}},
     "$.E"),
    ({"algebras": {"structure_constants": {"constants": [[]] * 37, "unit": []}},
      "E": {"kind": "explicit", "coefficients": []}},
     "$.algebras.structure_constants.constants"),
    ({"E": {"kind": "direct_sum", "components": [{"kind": "E0", "n": 10},
                                                 {"kind": "E0", "n": 10}]}}, "$.E"),
    ({"E": {"kind": "twisted", "r": [[1]] * 15, "s": [[1]] * 15}}, "$.E"),
    ({"E": {"kind": "E0", "n": 1000000}}, "$.E"),
], ids=["blocks", "structure_constants", "direct_sum", "twisted", "E0"])
def test_verify_refuses_oversized_documents(doc, loc, nothing_built, tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["verify", str(path)], capsys)
    assert code == 2 and not out
    assert "exceeds the limit" in err and loc in err


def test_structure_constants_bound_is_the_dense_one():
    from sepidem.documents import MAX_DENSE_DIM

    constants = {"constants": [[]] * MAX_DENSE_DIM, "unit": []}
    with pytest.raises(DocumentError) as exc:
        parse_instance({"algebras": {"structure_constants": constants},
                        "E": {"kind": "explicit", "coefficients": []}})
    assert "exceeds the limit" not in str(exc.value)


def test_construct_refuses_oversized_components(nothing_built, capsys):
    comps = json.dumps([{"kind": "E0", "n": 14}, {"kind": "E0", "n": 1}])
    code, out, err = run(["construct", "--kind=direct_sum", "--components", comps], capsys)
    assert code == 2 and not out
    assert "algebra dimension 197 exceeds the limit" in err
