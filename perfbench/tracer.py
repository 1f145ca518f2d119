"""Span tracing from outside the program.

The tracer replaces public functions of sepidem with wrappers that record
one span per call: name, start, end, parent span and operation id.  Spans
stay in memory (parallel arrays) until the run ends.  Because sepidem's
modules import each other by name, a function is replaced under every
module-level name that refers to it; methods are replaced on their class.
``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (layer, attribute path inside sepidem.<layer>) for every traced boundary;
# the metric name is "<layer>.<attribute path>".  Duality is traced through
# its constructor.
BOUNDARIES = (
    ("linalg", "mat_mul"),
    ("linalg", "rank"),
    ("linalg", "nullspace"),
    ("linalg", "hermitian_psd"),
    ("linalg", "independent_rows"),
    ("linalg", "solve_unique"),
    ("algebra", "LinearMap.assert_anti_multiplicative"),
    ("algebra", "LinearMap.assert_multiplicative"),
    ("algebra", "LinearMap.is_bijective"),
    ("algebra", "LinearMap.inverse"),
    ("algebra", "structure_constant_algebra"),
    ("tensor", "is_full"),
    ("tensor", "swap_and_map"),
    ("tensor", "tensor_mul"),
    ("engine", "certify"),
    ("engine", "verify_idempotent"),
    ("engine", "derive_antipode"),
    ("engine", "derive_reverse_antipode"),
    ("engine", "central_element"),
    ("engine", "counit_identities"),
    ("engine", "splitting_check"),
    ("engine", "determinacy_check"),
    ("integrals", "derive_all"),
    ("integrals", "derive_left_integral"),
    ("integrals", "derive_right_integral"),
    ("integrals", "modular_automorphisms"),
    ("star", "decompose_blocks"),
    ("star", "recover_twist"),
    ("duality", "Duality"),
    ("duality", "Duality.fourier"),
    ("duality", "Duality.pairing"),
    ("duality", "Duality.plancherel_form"),
    ("documents", "parse_instance"),
    ("documents", "certificate_from_result"),
    ("cli", "main"),
)

BOUNDARY_NAMES = tuple(f"{layer}.{path}" for layer, path in BOUNDARIES)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.name_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_of = array("l")
        self.stack = []
        self.op = -1
        self._restore = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name, fn):
        """fn wrapped so that every call records one span."""
        nid = self._name_id(name)
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op_of.append(self.op)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()

        return wrapper

    def call(self, op_id, name, fn, *args):
        """Run fn(*args) as the root span of one operation."""
        self.op = op_id
        try:
            return self.span(name, fn)(*args)
        finally:
            self.op = -1

    # -- installing wrappers on sepidem ---------------------------------------------

    def install(self):
        owners = {layer: importlib.import_module(f"sepidem.{layer}") for layer, _ in BOUNDARIES}
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sepidem" or n.startswith("sepidem.")]
        for layer, path in BOUNDARIES:
            name = f"{layer}.{path}"
            owner = owners[layer]
            parts = path.split(".")
            if parts == ["Duality"]:
                self._wrap_method(owner.Duality, "__init__", name)
            elif len(parts) == 2:
                self._wrap_method(getattr(owner, parts[0]), parts[1], name)
            else:
                original = getattr(owner, path)
                wrapper = self.span(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def _wrap_method(self, cls, attr, name):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.span(name, original))
        self._restore.append((cls, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------------

    def totals(self):
        """{name: (calls, self seconds)} over all recorded spans.  Self time
        is a span's duration minus the durations of its direct children."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            nid = self.name_of[i]
            calls[nid] += 1
            own[nid] += self.end[i] - self.start[i] - child[i]
        return {name: (calls[k], own[k]) for k, name in enumerate(self.names)}

    def write(self, path):
        """All spans as tab-separated name, start, end, parent, op id."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_of[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op_of[i]}\n")
