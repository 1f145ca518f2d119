"""The four workloads: seeded inputs, the pipeline each instance runs, and
the checks of every output against the oracles in ``oracle.py``.

Each workload is a fixed cycle of instance classes.  The seed draws the
random data of every instance; the class mix of a cycle never depends on
it, so percentiles land on the same classes from seed to seed.  The
timed loop runs whole cycles, so the sample mix is the cycle's mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import oracle as O

FLOAT_TOL = 1e-9
CERTIFIED = "separability_idempotent"

# Known defects of the program.  The timed workloads are made of inputs on
# which no operation fails; each defect is shown instead on pinned witness
# inputs that every run of its workload probes once, outside the timed
# loop (``Workload.probes``).  A failure is attributed to a defect only when
# it matches the defect's signature.
FLOAT_DENSE = "float64-dense-roundoff"  # float64 rejects or refuses an exact-valid dense basis
DUAL_STAR = "cli-dual-star"  # derive --what=dual exits 1 on a non-self-adjoint twist


# -- timing operations ------------------------------------------------------------


@dataclass
class Op:
    label: str  # the instance's label
    what: object  # operation name, or the Command of a CLI call until checked
    kind: str  # "verdict" or "derived"
    seconds: float
    value: object = None  # kept only until the op is checked
    error: BaseException = None
    reason: str = None  # why the output is wrong, or None
    defect: str = None  # the known defect the failure shows, or None
    burst: int = None  # index of the speedometer burst that followed it


class Recorder:
    """Runs operations one at a time and times each.  Every output is
    checked against its oracle as soon as the operation returns, outside
    its timer; the op keeps only strings and numbers after that, so a run
    holds no instance or output it is done with.  check_seconds adds up
    the checking time so it can be taken out of the timed phase."""

    def __init__(self, tracer=None):
        self.ops = []
        self.tracer = tracer
        self.check_seconds = 0.0

    def __call__(self, instance, what, kind, fn, *args):
        op_id = len(self.ops)
        value = error = None
        t0 = perf_counter()
        try:
            if self.tracer is None:
                value = fn(*args)
            else:
                value = self.tracer.call(op_id, f"bench.{kind}", fn, *args)
        except Exception as exc:  # a failed operation is a result to record
            error = exc
        t1 = perf_counter()
        op = Op(instance.label, what, kind, t1 - t0, value, error)
        op.reason = instance.check(op)
        if op.reason:
            op.defect = instance.defect(op)
        op.value = None
        op.what = str(what)
        self.ops.append(op)
        self.check_seconds += perf_counter() - t1
        return value


# -- comparing outputs with oracle answers ---------------------------------------


def _scalar(x):
    """A program scalar or a document literal as Fraction, float or complex."""
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, (list, tuple)):
        re, im = (_scalar(v) for v in x)
        return complex(re, im) if im else re
    if isinstance(x, (int, float, Fraction)):
        return x
    if isinstance(x, complex):
        return x if x.imag else x.real
    if hasattr(x, "im"):  # exact Gaussian rational with a nonzero imaginary part
        return complex(float(x.re), float(x.im))
    return Fraction(int(x.numerator), int(x.denominator))  # gmpy2.mpq


def _leaves(want):
    if isinstance(want, list):
        for w in want:
            yield from _leaves(w)
    else:
        yield want


def mismatch(got, want, tol=None):
    """None when got equals want (exactly, or within tol times the largest
    |entry| of want, at least 1); otherwise a witness string."""
    bound = None if tol is None else tol * max([1.0] + [abs(float(w)) for w in _leaves(want)])
    return _mismatch(got, want, bound, ())


def _mismatch(got, want, bound, path):
    if isinstance(want, list):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            return f"at {list(path)}: shape differs"
        for i, (g, w) in enumerate(zip(got, want)):
            m = _mismatch(g, w, bound, path + (i,))
            if m:
                return m
        return None
    try:
        g = _scalar(got)
    except (TypeError, ValueError, ZeroDivisionError, AttributeError):
        return f"at {list(path)}: unreadable scalar {got!r}"
    ok = g == want if bound is None else abs(g - float(want)) <= bound
    return None if ok else f"at {list(path)}: got {got}, want {want}"


def _rows(x):
    return [list(r) for r in x]


# -- library instances (twist-exact, dense-basis, float64) -------------------------


@dataclass
class LibraryInstance:
    """One element run through certify, then derive_all when certified."""

    label: str
    family: str  # "twist" or "dense"
    element: object
    expect: str  # "certified", "scalar_multiple" or "rejected"
    known: dict  # oracle data: E, unit, S, S_prime, phi, psi, sigma, sigma_prime
    scalar: int = None  # the k of an unnormalised pair (E^2 = kE)
    tol: float = None

    def run(self, sd, timed):
        cert = timed(self, "certify", "verdict", sd.certify, self.element)
        if cert is not None and cert.mode == CERTIFIED:
            timed(self, "derive_all", "derived", sd.derive_all, self.element, cert.mode)

    def check(self, op):
        if op.error is not None:
            return f"raised {op.error!r}"
        if op.what == "certify":
            return self._check_certificate(op.value)
        return self._check_derived(op.value)

    def _check_certificate(self, cert):
        if self.expect == "rejected":
            return None if cert.mode == "rejected" else f"verdict {cert.mode}, expected rejected"
        if self.expect == "scalar_multiple":
            idem = cert.idempotency
            if cert.mode != "rejected" or idem.kind != "scalar_multiple":
                return f"verdict {cert.mode} ({idem.kind}), expected rejected with E^2 = kE"
            return mismatch(idem.scalar, Fraction(self.scalar), self.tol)
        if cert.mode != CERTIFIED:
            return f"verdict {cert.mode} ({cert.reason}), expected {CERTIFIED}"
        for name, got in (("S", _rows(cert.antipode.rows)),
                          ("S_prime", _rows(cert.reverse_antipode.rows)),
                          ("unit", list(cert.central_element.coeffs))):
            m = mismatch(got, self.known[name], self.tol)
            if m:
                return f"{'central element' if name == 'unit' else name} {m}"
        return None

    def _check_derived(self, data):
        for name, got in (("S", _rows(data.antipode.rows)),
                          ("S_prime", _rows(data.reverse_antipode.rows)),
                          ("phi", list(data.left_integral.covector)),
                          ("psi", list(data.right_integral.covector)),
                          ("sigma", _rows(data.modular.rows)),
                          ("sigma_prime", _rows(data.reverse_modular.rows))):
            m = mismatch(got, self.known[name], self.tol)
            if m:
                return f"{name} {m}"
        return None

    def defect(self, op):
        """The known defect this failure shows, or None."""
        if self.tol is None or self.family != "dense" or self.expect != "certified":
            return None
        if op.what == "certify" and op.value is not None and op.value.mode == "rejected":
            return FLOAT_DENSE
        if op.what == "derive_all" and op.error is not None:
            return FLOAT_DENSE
        return None

    def oracle_values(self):
        return [x for key in ("E", "S", "S_prime", "phi", "psi", "sigma", "sigma_prime")
                if key in self.known for x in _leaves(self.known[key])]


@dataclass
class RefusedInput:
    """A valid input the program refused while it was being built in
    set-up.  Each pass records the refusal as one failed operation, so it
    is counted and listed like any other failure."""

    label: str
    error: Exception
    known_defect: str = None

    def run(self, sd, timed):
        timed(self, "structure_constant_algebra", "setup", _reraise, self.error)

    def check(self, op):
        return f"raised {op.error!r}"

    def defect(self, op):
        return self.known_defect

    def oracle_values(self):
        return []


def _reraise(error):
    raise error


def _twist_instance(sd, fld, n, rng, k=None):
    r, s = O.random_twist_pair(n, rng)
    bo = O.BlockOracle([(r, s)])
    known = dict(bo.data, E=bo.E, unit=bo.unit)
    a = sd.matrix_algebra(n, with_star=True, field=fld)
    coeffs = bo.E if k is None else O.scale(Fraction(k), bo.E)
    tol = None if fld.is_exact else FLOAT_TOL
    if k is None:
        return LibraryInstance(f"twist n={n}", "twist", sd.TensorElement(a, a, coeffs),
                               "certified", known, tol=tol)
    return LibraryInstance(f"twist n={n} unnormalised k={k}", "twist",
                           sd.TensorElement(a, a, coeffs), "scalar_multiple", known,
                           scalar=k, tol=tol)


DENSE_FAMILIES = {
    # name: (dim, structure constants in the standard basis, known answers)
    "E0(2)": (4, lambda: O.matrix_units_table(2), lambda: O.standard_known(2)),
    "C4": (4, lambda: O.idempotents_table(4), lambda: O.commutative_known(4)),
    "C5": (5, lambda: O.idempotents_table(5), lambda: O.commutative_known(5)),
    "C6": (6, lambda: O.idempotents_table(6), lambda: O.commutative_known(6)),
}


def _dense_instance(sd, fld, family, rng, corrupt=False, basis=None):
    """A random basis of `family`, or the given one (entries as strings)."""
    dim, table, known_fn = DENSE_FAMILIES[family]
    known, unit = known_fn()
    if basis is None:
        p, p_inv = O.random_basis(dim, rng)
    else:
        p = [[Fraction(x) for x in row] for row in basis]
        p_inv = O.inverse(p)
    new = O.transport(known, unit, p, p_inv)
    std_table = table()
    constants = O.rebase(std_table, dim, p, p_inv)
    tol = None if fld.is_exact else FLOAT_TOL
    label = f"dense {family} basis {[[str(x) for x in row] for row in p]}"
    try:
        alg = sd.structure_constant_algebra(constants, new["unit"], field=fld)
    except sd.errors.SepidemError as exc:
        return RefusedInput(label, exc, None if fld.is_exact else FLOAT_DENSE)
    coeffs = [list(row) for row in new["E"]]
    if corrupt:
        # A change of one coefficient can land on another separability
        # idempotent (on C^k, E = sum p_i (x) p_pi(i) for a permutation pi),
        # so it is drawn again until E^2 != E, which no valid E satisfies.  E
        # is squared in the standard basis, where it is p E p^T.
        p_t = O.transpose(p)
        while True:
            i, j = rng.randrange(dim), rng.randrange(dim)
            coeffs[i][j] = new["E"][i][j] + Fraction(rng.choice([-2, -1, 1, 2]),
                                                     rng.randint(1, 3))
            if not O.is_idempotent(std_table, O.mat_mul(O.mat_mul(p, coeffs), p_t)):
                break
            coeffs[i][j] = new["E"][i][j]
        return LibraryInstance(label + f" corrupted at ({i}, {j})", "dense",
                               sd.TensorElement(alg, alg, coeffs), "rejected", new, tol=tol)
    return LibraryInstance(label, "dense", sd.TensorElement(alg, alg, coeffs),
                           "certified", new, tol=tol)


# One cycle of each library workload: (family, parameter, variant) with
# variant None (valid), "k" (unnormalised pair) or "corrupt"; one instance
# in four (in float64, one in three) is invalid.  The class counts put the
# median and the tail percentile well inside one class (twist-exact: n = 2
# and n = 3; dense-basis: C5; float64: n = 3 and n = 4), for verdicts and
# derivations alike.  float64 holds no valid dense basis: float64 refuses
# a few in a hundred of them (FLOAT_DENSE), at random, so that defect is
# shown on the pinned bases of FLOAT_DENSE_WITNESSES instead.
TWIST_EXACT_CYCLE = (
    [("twist", 4, None)]
    + [("twist", 3, None)] * 5 + [("twist", 3, "k")] * 2
    + [("twist", 2, None)] * 9 + [("twist", 2, "k")] * 3
)
DENSE_CYCLE = (
    [("dense", "C6", None), ("dense", "C6", "corrupt")]
    + [("dense", "C5", None)] * 9 + [("dense", "C5", "corrupt")]
    + [("dense", "E0(2)", None), ("dense", "E0(2)", "corrupt")]
    + [("dense", "C4", None), ("dense", "C4", "corrupt")]
)
FLOAT_CYCLE = (
    [("twist", 5, None)] + [("twist", 4, None)] * 3
    + [("twist", 3, None)] * 12 + [("twist", 3, "k")] * 4
    + [("dense", "E0(2)", "corrupt"), ("dense", "C4", "corrupt"),
       ("dense", "C5", "corrupt"), ("dense", "C6", "corrupt")]
)
# Exact-valid dense bases that float64 rejects: "element is not central"
# on E0(2), "map is not anti-multiplicative" on C4.
FLOAT_DENSE_WITNESSES = (
    ("E0(2)", [["-3/2", "0", "1", "2/3"], ["1/3", "-3", "3", "2/3"],
               ["2/3", "-1", "3/2", "2/3"], ["-1", "-1/3", "0", "-1/3"]]),
    ("C4", [["-1/2", "-1", "0", "-3"], ["-1", "1/3", "-1", "-2"],
            ["0", "2", "1/2", "-1/3"], ["1", "-1", "2", "-1"]]),
)


def _library_cycle(sd, fld, spec, rng):
    out = []
    for family, param, variant in spec:
        if family == "twist":
            k = rng.choice((2, 3)) if variant == "k" else None
            out.append(_twist_instance(sd, fld, param, rng, k))
        else:
            out.append(_dense_instance(sd, fld, param, rng, corrupt=variant == "corrupt"))
    return out


# -- CLI documents --------------------------------------------------------------------


@dataclass
class Command:
    argv: list
    kind: str  # "verdict" for verify, "derived" for derive / decompose
    exit_code: int
    fields: dict = field(default_factory=dict)  # derived field -> oracle answer
    mode: str = None  # expected certificate mode, when a document is printed
    tol: float = None
    defect: str = None  # known defect this command may show

    def __str__(self):
        return "sepidem " + " ".join(self.argv)


def cli_call(cli, argv):
    """sepidem.cli.main(argv) in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@dataclass
class DocumentInstance:
    """One instance document and every CLI command run on it."""

    label: str
    path: str
    commands: list
    known: dict

    def run(self, sd, timed):
        cli = sys.modules["sepidem.cli"]
        for cmd in self.commands:
            timed(self, cmd, cmd.kind, cli_call, cli, cmd.argv)

    def check(self, op):
        cmd = op.what
        if op.error is not None:
            return f"raised {op.error!r}"
        code, out, err = op.value
        if code != cmd.exit_code:
            return f"exit {code} ({err.strip()[:120]}), expected {cmd.exit_code}"
        if cmd.mode is None:
            return None
        try:
            doc = json.loads(out)
        except ValueError as exc:
            return f"malformed JSON: {exc}"
        if not isinstance(doc, dict) or doc.get("mode") != cmd.mode:
            return f"mode {doc.get('mode') if isinstance(doc, dict) else None!r}, expected {cmd.mode}"
        derived = doc.get("derived", {})
        for name, want in cmd.fields.items():
            if name == "blocks":
                got = [[b.get("size"), b.get("r"), b.get("s")] for b in derived.get("blocks", [])]
                want = [[Fraction(n), r, s] for n, r, s in want]
            else:
                got = derived.get(name)
            if got is None:
                return f"field {name} missing"
            m = mismatch(got, want, cmd.tol)
            if m:
                return f"{name} {m}"
        return None

    def defect(self, op):
        cmd = op.what
        if cmd.defect == DUAL_STAR and op.error is None:
            code, _, err = op.value
            if code == 1 and "dual star representative law fails" in err:
                return DUAL_STAR
        return None

    def oracle_values(self):
        return [x for key in ("E", "S", "S_prime", "phi", "psi", "sigma", "sigma_prime")
                if key in self.known for x in _leaves(self.known[key])]


def _doc_matrix(entries):
    return [[Fraction(x) for x in row] for row in entries]


def _literal(m):
    return [[str(x) for x in row] for row in m]


def _certified_commands(path, bo, twisted):
    """verify, derive integrals / modular / dual and decompose on a
    document whose element certifies; twists also get verify --mode=float."""
    data = dict(bo.data, unit=bo.unit)
    verify_fields = {"S": data["S"], "S_prime": data["S_prime"], "central_element": data["unit"]}
    blocks = [(len(r), r, s) for r, s in bo.gauge_blocks()]
    commands = [Command(["verify", path], "verdict", 0, verify_fields, CERTIFIED)]
    if twisted:
        commands.append(Command(["verify", path, "--mode=float"], "verdict", 0, verify_fields,
                                CERTIFIED, tol=FLOAT_TOL))
    return commands + [
        Command(["derive", path, "--what=integrals"], "derived", 0,
                {"phi": data["phi"], "psi": data["psi"]}, CERTIFIED),
        Command(["derive", path, "--what=modular"], "derived", 0,
                {"sigma": data["sigma"], "sigma_prime": data["sigma_prime"]}, CERTIFIED),
        Command(["derive", path, "--what=dual"], "derived", 0,
                {"dual_pairing": bo.dual_pairing(), "plancherel_gram": bo.plancherel_gram()},
                CERTIFIED, defect=DUAL_STAR if twisted else None),
        Command(["decompose", path], "derived", 0, {"blocks": blocks}, CERTIFIED),
    ]


# Documents of one cli-documents cycle: (kind, n).  The sizes repeat so
# that commands of similar cost cluster around the median and the tail.
DOCUMENT_CYCLE = (
    [("E0", 2), ("E0", 3), ("E0", 3), ("E0", 4)]
    + [("involutive_twisted", 2)] * 2 + [("involutive_twisted", 3), ("involutive_twisted", 4)]
    + [("twisted", 2)] * 2
    + [("direct_sum", (1, 2, 3)), ("nilpotent", 2), ("nonfull", 3)]
)


def _document(sd, kind, n, rng, path):
    cli = sys.modules["sepidem.cli"]
    if kind == "direct_sum":
        rs = [O.random_involutive_diagonal(m, rng) for m in n]
        comps = [{"kind": "involutive_twisted", "r": _literal(r)} for r in rs]
        argv = ["construct", "--kind=direct_sum", f"--components={json.dumps(comps)}"]
    elif kind == "nilpotent":
        r, s = O.nilpotent_twist_pair(n, rng)
        argv = ["construct", "--kind=twisted", f"--r={json.dumps(_literal(r))}",
                f"--s={json.dumps(_literal(s))}"]
    elif kind in ("twisted", "involutive_twisted"):
        argv = ["construct", f"--kind={kind}", f"--n={n}", f"--seed={rng.randrange(10**6)}"]
    else:
        argv = ["construct", f"--kind={kind}", f"--n={n}"]
    code, _, err = cli_call(cli, argv + [f"--out={path}"])
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} failed: {err}")
    with open(path) as fh:
        espec = json.load(fh)["E"]
    label = f"{kind} n={n} ({os.path.basename(path)})"
    if kind == "E0":
        pairs = [(O.identity(n), O.identity(n))]
    elif kind == "twisted":
        pairs = [(_doc_matrix(espec["r"]), _doc_matrix(espec["s"]))]
    elif kind == "involutive_twisted":
        r = _doc_matrix(espec["r"])
        pairs = [(r, O.transpose(r))]
    elif kind == "direct_sum":
        pairs = [(r, O.transpose(r)) for r in rs]
    elif kind == "nilpotent":
        pairs = [(r, s)]
    else:  # nonfull: no derived data to know
        pairs = []
    bo = O.BlockOracle(pairs)
    known = dict(bo.data, E=bo.E) if pairs else {}
    if kind == "nilpotent":
        fields = {"S": bo.data["S"], "S_prime": bo.data["S_prime"],
                  "central_element": [O.ZERO] * bo.dim}
        commands = [
            Command(["verify", path], "verdict", 3, fields, "nilpotent_variant"),
            Command(["derive", path, "--what=antipodes"], "derived", 3,
                    {"S": bo.data["S"], "S_prime": bo.data["S_prime"]}, "nilpotent_variant"),
            Command(["derive", path, "--what=integrals"], "derived", 1),
            Command(["decompose", path], "derived", 3, {}, "nilpotent_variant"),
        ]
    elif kind == "nonfull":
        commands = [
            Command(["verify", path], "verdict", 1, {}, "rejected"),
            Command(["derive", path, "--what=integrals"], "derived", 1, {}, "rejected"),
            Command(["decompose", path], "derived", 1, {}, "rejected"),
        ]
    else:
        commands = _certified_commands(path, bo, twisted=kind == "twisted")
    return DocumentInstance(label, path, commands, known)


# -- workloads ------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    build: object  # (sd, rng, cycle index, scratch dir) -> the instances of one cycle
    # The percentile reported as the tail, per kind of operation.  It is
    # fixed, so that the tail measures the same class of operation however
    # many cycles a run fits; a run goes on until ten samples lie beyond it.
    tails: dict = field(default_factory=lambda: {"verdict": 75, "derived": 75})
    # (sd, scratch dir) -> the pinned inputs that show the workload's known
    # defects, run once per run outside the timed loop
    probes: object = lambda sd, scratch: []


def _library(spec, exact):
    def build(sd, rng, index, scratch):
        fld = sd.EXACT if exact else sd.Float64Field(FLOAT_TOL)
        return _library_cycle(sd, fld, spec, rng)
    return build


def _documents(sd, rng, index, scratch):
    """One cycle of documents, without the commands that show a known
    defect (the dual of a twist): those run in _dual_star_probe."""
    import sepidem.cli  # noqa: F401  (documents are driven through the CLI)
    docs = [
        _document(sd, kind, n, rng, os.path.join(scratch, f"c{index}-{t}-{kind}.json"))
        for t, (kind, n) in enumerate(DOCUMENT_CYCLE)
    ]
    for doc in docs:
        doc.commands = [cmd for cmd in doc.commands if cmd.defect is None]
    return docs


def _dual_star_probe(sd, scratch):
    import sepidem.cli  # noqa: F401
    doc = _document(sd, "twisted", 2, random.Random(DUAL_STAR),
                    os.path.join(scratch, "probe-twisted.json"))
    doc.commands = [cmd for cmd in doc.commands if cmd.defect == DUAL_STAR]
    return [doc]


def _float_dense_probe(sd, scratch):
    fld = sd.Float64Field(FLOAT_TOL)
    return [_dense_instance(sd, fld, family, None, basis=basis)
            for family, basis in FLOAT_DENSE_WITNESSES]


WORKLOADS = {
    "twist-exact": Workload("twist-exact", _library(TWIST_EXACT_CYCLE, exact=True)),
    "dense-basis": Workload("dense-basis", _library(DENSE_CYCLE, exact=True)),
    "float64": Workload("float64", _library(FLOAT_CYCLE, exact=False),
                        {"verdict": 90, "derived": 85}, _float_dense_probe),
    "cli-documents": Workload("cli-documents", _documents, {"verdict": 75, "derived": 95},
                              _dual_star_probe),
}


def build_cycle(workload, sd, seed, index, scratch):
    """The instances of cycle `index`, drawn from the seed and the index
    alone, so a run sees the same inputs however many cycles it needs."""
    rng = random.Random(f"{workload.name}/{seed}/{index}")
    return workload.build(sd, rng, index, scratch)
