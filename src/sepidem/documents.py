"""Instance and certificate documents.

One self-describing JSON format for both directions: instance files
describe an algebra pair and a candidate element (explicit coefficients or
a construction tag), certificate files echo the instance and carry the
verdicts and derived data.  Exact-mode scalars are rational strings
"p/q" (or "p"), complex values two-element arrays ["re", "im"]; floats
are rejected in exact mode so files never pick up binary drift, and
exact documents round-trip losslessly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .algebra import (
    element_from_matrix,
    matrix_algebra,
    structure_constant_algebra,
)
from .constructions import (
    direct_sum_idempotent,
    involutive_twisted_idempotent,
    nonfull_idempotent,
    standard_idempotent,
    twisted_idempotent,
)
from .errors import DocumentError, SepidemError
from .scalars import EXACT, Float64Field, GaussianRational, is_real
from .tensor import TensorElement

INSTANCE_KINDS = ("E0", "twisted", "involutive_twisted", "direct_sum", "nonfull", "explicit")
CERTIFICATE_FORMAT = "sepidem/certificate-v1"

# The largest algebra dimension a document may describe.  Building M_n and
# certifying E0(n) take time of order n^6 = dim^3; a larger document is
# refused before any table is built.  verify took 31 s at E0(14), dim 196,
# on a 2-CPU x86-64 host.
MAX_DIM = 196
# The same for an algebra given by structure constants, which are dense in
# the worst case: verify then grows about as dim^5, and took 36 s for M_6
# and 46 s for C^36, both dim 36 in a random rational basis, on that host.
MAX_DENSE_DIM = 36


def parse_scalar(x, fld, loc):
    """One scalar literal: "p/q" string, int, or ["re", "im"] pair; float
    numbers only in float64 mode."""
    try:
        if isinstance(x, bool):
            raise DocumentError(f"bad scalar literal {x!r}", loc)
        if isinstance(x, (str, int)):
            return fld.coerce(x)
        if isinstance(x, float):
            if fld.is_exact:
                raise DocumentError("float literal not allowed in exact mode", loc)
            return fld.coerce(x)
        if isinstance(x, (list, tuple)) and len(x) == 2:
            re_part = parse_scalar(x[0], fld, loc + "[0]")
            im_part = parse_scalar(x[1], fld, loc + "[1]")
            return fld.coerce((re_part, im_part))
    except DocumentError:
        raise
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"bad scalar literal {x!r}: {exc}", loc) from None
    raise DocumentError(f"bad scalar literal {x!r}", loc)


def scalar_literal(x, fld):
    if fld.is_exact:
        if isinstance(x, GaussianRational):
            return [str(x.re), str(x.im)]
        return str(x)
    if is_real(x):
        return x.real if isinstance(x, complex) else float(x)
    return [x.real, x.imag]


def parse_matrix(x, fld, loc, rows=None, cols=None):
    if not isinstance(x, list) or not x or not all(isinstance(r, list) for r in x):
        raise DocumentError("expected a matrix (list of rows)", loc)
    if rows is not None and len(x) != rows:
        raise DocumentError(f"expected {rows} rows, got {len(x)}", loc)
    width = cols if cols is not None else len(x[0])
    out = []
    for i, row in enumerate(x):
        if len(row) != width:
            raise DocumentError(f"ragged row of length {len(row)}, expected {width}", f"{loc}[{i}]")
        out.append([parse_scalar(v, fld, f"{loc}[{i}][{j}]") for j, v in enumerate(row)])
    return out


def matrix_literal(rows, fld):
    return [[scalar_literal(v, fld) for v in row] for row in rows]


def vector_literal(vec, fld):
    return [scalar_literal(v, fld) for v in vec]


@dataclass(frozen=True)
class InstanceDescription:
    """Parsed instance: the scalar mode, an optional seed echo, and the
    built element."""

    scalar_mode: str
    seed: object
    element: TensorElement
    spec: dict  # normalized document


def _field_of(doc, loc, override_mode=None, override_tol=None):
    mode = override_mode or doc.get("scalar_mode", "exact")
    tol = override_tol if override_tol is not None else doc.get("tolerance")
    if mode == "exact":
        if tol is not None:
            raise DocumentError("tolerance only applies to float64 mode", loc + ".tolerance")
        return EXACT
    if mode == "float64":
        return Float64Field(tol if tol is not None else 1e-9)
    raise DocumentError(f"unknown scalar_mode {mode!r}", loc + ".scalar_mode")


def parse_instance(doc, override_mode=None, override_tol=None) -> InstanceDescription:
    if not isinstance(doc, dict):
        raise DocumentError("instance document must be an object", "$")
    fld = _field_of(doc, "$", override_mode, override_tol)
    espec = doc.get("E")
    if espec is None:
        raise DocumentError("missing field", "$.E")
    check_dim(_spec_dim(espec, doc.get("algebras")), "$.E")
    elem = _build_element(espec, fld, "$.E", doc.get("algebras"))
    spec = dict(doc)
    spec["scalar_mode"] = fld.name
    return InstanceDescription(
        scalar_mode=fld.name,
        seed=doc.get("seed"),
        element=elem,
        spec=spec,
    )


def check_dim(dim, loc, limit=MAX_DIM):
    """DocumentError when an algebra of dimension dim exceeds limit."""
    if dim > limit:
        raise DocumentError(f"algebra dimension {dim} exceeds the limit {limit}", loc)


def _spec_dim(espec, algebras_spec):
    """The algebra dimension an element spec asks for, read off the spec
    without building anything.  Malformed parts count 0; the builder
    reports them."""
    spec = espec if isinstance(espec, dict) else {}
    kind, r = spec.get("kind"), spec.get("r")
    if kind in ("E0", "nonfull"):
        return _square(spec.get("n"))
    if kind in ("twisted", "involutive_twisted"):
        return _square(len(r) if isinstance(r, list) else 0)
    if kind == "direct_sum":
        return sum(_spec_dim(c, None) for c in _list(spec.get("components")))
    alg = algebras_spec if kind == "explicit" and isinstance(algebras_spec, dict) else {}
    return sum(_square(b) for b in _list(alg.get("blocks")))  # constants: _build_algebra


def _square(n):
    return n * n if isinstance(n, int) and not isinstance(n, bool) and n > 0 else 0


def _list(x):
    return x if isinstance(x, list) else []


def _require_int(x, loc, low=1):
    if not isinstance(x, int) or isinstance(x, bool) or x < low:
        raise DocumentError(f"expected an integer >= {low}, got {x!r}", loc)
    return x


def _build_element(espec, fld, loc, algebras_spec):
    if not isinstance(espec, dict):
        raise DocumentError("element spec must be an object", loc)
    kind = espec.get("kind")
    if kind not in INSTANCE_KINDS:
        raise DocumentError(
            f"unknown kind {kind!r}; expected one of {', '.join(INSTANCE_KINDS)}", loc + ".kind"
        )
    try:
        if kind == "E0":
            n = _require_int(espec.get("n"), loc + ".n")
            return standard_idempotent(n, field=fld)
        if kind == "nonfull":
            n = _require_int(espec.get("n"), loc + ".n", low=2)
            return nonfull_idempotent(n, field=fld)
        if kind == "twisted":
            r = _matrix_element(espec.get("r"), fld, loc + ".r")
            s = _matrix_element(espec.get("s"), fld, loc + ".s", like=r)
            return twisted_idempotent(r, s, normalize=bool(espec.get("normalize", False)))
        if kind == "involutive_twisted":
            r = _matrix_element(espec.get("r"), fld, loc + ".r")
            return involutive_twisted_idempotent(r)
        if kind == "direct_sum":
            comps = espec.get("components")
            if not isinstance(comps, list) or not comps:
                raise DocumentError("expected a nonempty list", loc + ".components")
            built = [
                _build_element(c, fld, f"{loc}.components[{i}]", None)
                for i, c in enumerate(comps)
            ]
            return direct_sum_idempotent(built)
        # explicit
        b_alg = _build_algebra(algebras_spec, fld, "$.algebras")
        coeffs = parse_matrix(
            espec.get("coefficients"), fld, loc + ".coefficients",
            rows=b_alg.dim, cols=b_alg.dim,
        )
        return TensorElement(b_alg, b_alg, coeffs)
    except DocumentError:
        raise
    except SepidemError as exc:
        raise DocumentError(str(exc), loc) from None


def _matrix_element(entries, fld, loc, like=None):
    if not isinstance(entries, list) or not entries:
        raise DocumentError("expected a square matrix", loc)
    n = len(entries)
    grid = parse_matrix(entries, fld, loc, rows=n, cols=n)
    a = like.algebra if like is not None else matrix_algebra(n, with_star=True, field=fld)
    if a.blocks != (n,):
        raise DocumentError(f"matrix size {n} does not match the algebra", loc)
    return element_from_matrix(a, grid)


def _build_algebra(spec, fld, loc):
    if not isinstance(spec, dict):
        raise DocumentError("explicit coefficients need an algebras object", loc)
    if "blocks" in spec:
        blocks = spec["blocks"]
        if not isinstance(blocks, list) or not blocks:
            raise DocumentError("expected a nonempty list of block sizes", loc + ".blocks")
        sizes = [_require_int(b, f"{loc}.blocks[{i}]") for i, b in enumerate(blocks)]
        with_star = bool(spec.get("with_star", True))
        from .algebra import direct_sum

        comps = [matrix_algebra(n, with_star=with_star, field=fld) for n in sizes]
        return comps[0] if len(comps) == 1 else direct_sum(comps)
    if "structure_constants" in spec:
        sub = spec["structure_constants"]
        if not isinstance(sub, dict):
            raise DocumentError("expected an object", loc + ".structure_constants")
        constants = sub.get("constants")
        if not isinstance(constants, list) or not constants:
            raise DocumentError("missing constants tensor", loc + ".structure_constants.constants")
        dim = len(constants)
        check_dim(dim, loc + ".structure_constants.constants", MAX_DENSE_DIM)
        parsed = [
            parse_matrix(c, fld, f"{loc}.structure_constants.constants[{i}]",
                         rows=dim, cols=dim)
            for i, c in enumerate(constants)
        ]
        unit = sub.get("unit")
        if not isinstance(unit, list) or len(unit) != dim:
            raise DocumentError("unit vector has the wrong length",
                                loc + ".structure_constants.unit")
        unit_p = [parse_scalar(v, fld, f"{loc}.structure_constants.unit[{i}]")
                  for i, v in enumerate(unit)]
        try:
            return structure_constant_algebra(parsed, unit_p, labels=sub.get("labels"), field=fld)
        except SepidemError as exc:
            raise DocumentError(str(exc), loc + ".structure_constants") from None
    raise DocumentError("algebras object needs blocks or structure_constants", loc)


def instance_to_dict(desc: InstanceDescription) -> dict:
    return dict(desc.spec)


# -- certificates ----------------------------------------------------------------


@dataclass(frozen=True)
class CertificateDocument:
    """Serializable certificate: instance echo, verdicts, derived data."""

    instance: dict
    scalar_mode: str
    mode: str
    reason: str = None
    axioms: dict = dc_field(default_factory=dict)
    checks: dict = dc_field(default_factory=dict)
    derived: dict = dc_field(default_factory=dict)
    timing_seconds: float = None
    seed: object = None

    def to_dict(self) -> dict:
        out = {
            "format": CERTIFICATE_FORMAT,
            "instance": self.instance,
            "scalar_mode": self.scalar_mode,
            "mode": self.mode,
            "axioms": self.axioms,
            "checks": self.checks,
            "derived": self.derived,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        if self.timing_seconds is not None:
            out["timing_seconds"] = self.timing_seconds
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def parse_certificate(doc) -> CertificateDocument:
    if not isinstance(doc, dict):
        raise DocumentError("certificate document must be an object", "$")
    if doc.get("format") != CERTIFICATE_FORMAT:
        raise DocumentError(f"unknown certificate format {doc.get('format')!r}", "$.format")
    for key in ("instance", "scalar_mode", "mode"):
        if key not in doc:
            raise DocumentError("missing field", f"$.{key}")
    return CertificateDocument(
        instance=doc["instance"],
        scalar_mode=doc["scalar_mode"],
        mode=doc["mode"],
        reason=doc.get("reason"),
        axioms=doc.get("axioms", {}),
        checks=doc.get("checks", {}),
        derived=doc.get("derived", {}),
        timing_seconds=doc.get("timing_seconds"),
        seed=doc.get("seed"),
    )


def certificate_from_result(desc: InstanceDescription, cert, derived_extra=None,
                            timing=None) -> CertificateDocument:
    """Build the document for a library certificate (plus optional derived
    extras such as integrals or block twists)."""
    fld = desc.element.field
    axioms = {
        "regular": cert.regular,
        "full": cert.full,
        "idempotent": cert.idempotency.kind if cert.idempotency else None,
    }
    if cert.idempotency and cert.idempotency.scalar is not None:
        axioms["idempotent_scalar"] = scalar_literal(cert.idempotency.scalar, fld)
    if cert.absorption_right is not None:
        axioms["absorption_right"] = cert.absorption_right
    if cert.absorption_left is not None:
        axioms["absorption_left"] = cert.absorption_left
    checks = {}
    for name in ("counit", "swap", "splitting", "determinacy"):
        chk = getattr(cert, name)
        if chk is not None:
            checks[name] = chk.ok
    derived = {}
    if cert.antipode is not None:
        derived["S"] = matrix_literal(cert.antipode.rows, fld)
    if cert.reverse_antipode is not None:
        derived["S_prime"] = matrix_literal(cert.reverse_antipode.rows, fld)
    if cert.central_element is not None:
        derived["central_element"] = vector_literal(cert.central_element.coeffs, fld)
    if derived_extra:
        derived.update(derived_extra)
    return CertificateDocument(
        instance=instance_to_dict(desc),
        scalar_mode=desc.scalar_mode,
        mode=cert.mode,
        reason=cert.reason,
        axioms=axioms,
        checks=checks,
        derived=derived,
        timing_seconds=timing,
        seed=desc.seed,
    )
