#!/usr/bin/env python
"""Contract linter entry point: enforce the repo's AST-level invariants.

Runs :mod:`repro.analysis.contracts` over the codebase and exits non-zero
on any finding.  The contracts are the load-bearing invariants of the
hash-consed expression core and the spawn-based worker pool:

* C001 -- composite Expr nodes must go through the smart constructors
  (raw instantiation bypasses interning and breaks identity equality);
* C002 -- no ``copy.deepcopy`` (deepcopy of interned nodes is a no-op by
  design; deepcopy elsewhere usually hides an aliasing bug);
* C003 -- no module/class-level containers keyed by ``Expr`` (they pin
  interned nodes forever and break across spawn boundaries; key on
  ``eid`` instead);
* C004 -- no mutable default arguments;
* C005 -- no ``time.time()`` in measured paths (use ``time.monotonic``
  or ``time.perf_counter``);
* C006 -- telemetry span names must follow the documented dotted
  lowercase scheme (``"component.phase"``; see docs/observability.md);
* C007 -- no ad-hoc algebraic rewrites outside the simplifier
  (``expr/simplify.py``);
* C008 -- no environment access (``os.environ``, ``os.getenv``,
  ``os.putenv``) inside the ``repro`` package; spawned workers inherit
  environment knobs silently, so configuration is passed explicitly.

Suppress a deliberate violation with ``# contract: ignore[CODE] reason``
on the offending line or the line above; a suppression without a reason
is itself a finding (C000).

Usage::

    python tools/check_contracts.py            # lint src/ tests/ tools/
    python tools/check_contracts.py src/repro  # lint specific paths
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.contracts import lint_paths  # noqa: E402

DEFAULT_PATHS = ("src", "tests", "tools")


def main(argv: list[str] | None = None) -> int:
    raw = (argv if argv is not None else sys.argv[1:]) or list(DEFAULT_PATHS)
    paths = []
    for entry in raw:
        path = Path(entry)
        if not path.is_absolute():
            path = REPO_ROOT / path
        if not path.exists():
            print(f"check_contracts: no such path: {entry}", file=sys.stderr)
            return 2
        paths.append(path)
    start = time.perf_counter()
    findings = lint_paths(paths)
    elapsed = time.perf_counter() - start
    for finding in findings:
        print(finding.format())
    if findings:
        print(
            f"check_contracts: {len(findings)} finding(s) in "
            f"{elapsed:.2f}s",
            file=sys.stderr,
        )
        return 1
    print(f"check_contracts: OK ({elapsed:.2f}s)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
