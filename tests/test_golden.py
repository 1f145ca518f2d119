"""CLI certificate documents against stored golden copies.

``tests/data/golden_certificates.json`` holds instance documents (the
samples of ``scripts/make_sample_instances.py`` plus exact twisted and
involutive documents with n = 2 and 3) and, for each of them, the exit
code, standard error and certificate document (``timing_seconds``
dropped) of ``verify``, ``derive --what=antipodes|integrals|modular|dual``
and ``decompose``.  Regenerate it only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import importlib.util
import io
import json
import pathlib
import sys

import pytest

from sepidem.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_certificates.json"
COMMANDS = {
    "verify": ["verify"],
    "derive-antipodes": ["derive", "--what=antipodes"],
    "derive-integrals": ["derive", "--what=integrals"],
    "derive-modular": ["derive", "--what=modular"],
    "derive-dual": ["derive", "--what=dual"],
    "decompose": ["decompose"],
}
CONSTRUCTED = [
    (f"{kind}_n{n}.json", [f"--kind={kind}", f"--n={n}", f"--seed={seed}"])
    for kind, seeds in (("twisted", (5, 6)), ("involutive_twisted", (7, 8)))
    for n, seed in zip((2, 3), seeds)
]


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_command(path, command):
    code, out, err = _cli(COMMANDS[command] + [str(path)])
    doc = json.loads(out) if out else None
    if doc is not None:
        doc.pop("timing_seconds", None)
    return {"exit": code, "stderr": err, "document": doc}


def instance_documents():
    spec = importlib.util.spec_from_file_location(
        "make_sample_instances", ROOT / "scripts" / "make_sample_instances.py")
    samples = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(samples)
    docs = dict(samples.SAMPLES)
    for name, args in CONSTRUCTED:
        code, out, _ = _cli(["construct"] + args)
        assert code == 0
        docs[name] = json.loads(out)
    return docs


def capture(tmp):
    golden = {}
    for name, doc in instance_documents().items():
        path = pathlib.Path(tmp) / name
        path.write_text(json.dumps(doc))
        golden[name] = {"instance": doc,
                        "runs": {c: run_command(path, c) for c in COMMANDS}}
    return golden


def _cases():
    golden = json.loads(GOLDEN.read_text())
    return [(name, command, entry["instance"], entry["runs"][command])
            for name, entry in golden.items() for command in COMMANDS]


@pytest.mark.parametrize("name,command,instance,want",
                         _cases() if __name__ != "__main__" else [],
                         ids=lambda x: x if isinstance(x, str) else "")
def test_certificate_documents_match_golden(tmp_path, name, command, instance, want):
    path = tmp_path / name
    path.write_text(json.dumps(instance))
    assert run_command(path, command) == want


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(capture(tmp), indent=1, sort_keys=True) + "\n")
