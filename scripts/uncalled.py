#!/usr/bin/env python3
"""List the functions of src/sepidem that the tier-1 tests never enter.

    python3 scripts/uncalled.py

Runs the tier-1 suite (pytest with the repository's pyproject settings, in
this process) under sys.setprofile and prints, one per line, every
function of src/sepidem/*.py that was never entered, as
``path:first-line qualified-name``, then their count.  Functions are keyed
by file and first line, not by name, so a method is not counted as
called because a same-named method of another class is.  Class bodies,
lambdas and comprehensions are left out.  Work done in subprocesses (the
benchmark's own runs in perfbench/tests) is not seen.  Exits with
pytest's status when the tests fail.
"""

from __future__ import annotations

import inspect
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def defined_functions():
    """(file, first line) -> qualified name for every function in src."""
    out = {}
    for path in sorted((SRC / "sepidem").glob("*.py")):
        path = os.path.realpath(path)
        stack = [compile(Path(path).read_text(), path, "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if inspect.iscode(c)]
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                out[path, code.co_firstlineno] = getattr(code, "co_qualname", code.co_name)
    return out


def main():
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    finally:
        sys.setprofile(None)
    real = {f: os.path.realpath(f) for f in {f for f, _ in entered}}
    entered = {(real[f], line) for f, line in entered}
    defined = defined_functions()
    never = sorted(key for key in defined if key not in entered)
    for path, line in never:
        print(f"{Path(path).relative_to(ROOT)}:{line} {defined[path, line]}")
    print(f"{len(never)} of {len(defined)} src functions never entered")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
