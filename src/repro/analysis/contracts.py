"""AST contract linter for the hash-consing and spawn-safety invariants.

PR 5's interned expression core and the spawn-safe worker specs created
repo-wide contracts that ``docs/expr_core.md`` used to describe as
conventions.  This linter makes them enforced:

* **C001** — composite Expr node classes (``And``, ``Ite``, ...) called
  directly outside ``expr/ast.py``.  Raw constructors intern correctly
  but skip the smart constructors' normalisation and sort inference;
  everything outside the defining module must build through
  ``land``/``ite``/... (``Var`` and ``Const`` are legitimate leaves and
  stay allowed).
* **C002** — ``copy.deepcopy`` calls.  Interned nodes define
  ``__deepcopy__`` to return ``self``, so deepcopying an expression is
  at best a no-op and at worst (for containers of systems/engines) a
  way to duplicate engines that must stay per-instance.
* **C003** — module- or class-level caches annotated ``dict[Expr, ...]``
  or ``set[Expr]``.  Long-lived tables must key on ``eid`` (a stable
  ``int``) so entries do not pin the interned nodes alive and survive
  pickling boundaries; function-local identity sets remain fine.
* **C004** — mutable default arguments (the classic shared-state trap;
  also a spawn hazard, since a default mutated in a worker diverges
  from the parent).
* **C005** — ``time.time()`` calls.  Measured paths standardise on
  ``time.perf_counter()``; wall-clock time regresses under NTP slew.
* **C006** — telemetry span names off the documented scheme.  A string
  literal passed as the first argument of a ``span(...)``/``x.span(...)``
  call must be dotted lowercase ``component.phase`` (e.g.
  ``"oracle.check"``, ``"loop.learn"``; see ``docs/observability.md``) so
  profiles group consistently and exported logs stay greppable.
* **C007** — ad-hoc algebraic rewriting outside the simplifier.  A
  function that both dispatches on several composite Expr classes
  (``isinstance``/``type(..) is``) *and* rebuilds expressions through
  the smart constructors is doing what ``expr/simplify.py`` does — as
  an untested one-off.  Algebraic rewrites belong in the simplifier's
  rule table (``expr/simplify.py``), where the telemetry counts them
  and the property suite checks them.  Pure dispatchers (evaluators,
  encoders, printers: no smart-constructor calls) and pure builders
  (no class dispatch) stay allowed; ``expr/ast.py`` and
  ``expr/simplify.py`` are exempt because they *are* the sanctioned
  home of such code.
* **C008** — environment access (``os.environ``, ``os.getenv``,
  ``os.putenv``) inside the ``repro`` package.  Environment knobs are
  invisible configuration that spawned workers inherit silently;
  configuration travels as explicit arguments instead.  ``tests/``,
  ``tools/`` and ``benchmarks/`` are outside the package and exempt.
* **C000** — a suppression comment without a reason.

Suppression syntax::

    raw = And((a, a, b))  # contract: ignore[C001] exercising raw interning

The comment may sit on the offending line or on the line directly above
it.  A reason is mandatory — ``ignore[C001]`` alone yields C000.

The linter is pure ``ast`` + source text: no imports of the linted
modules, so it runs in milliseconds over the whole repo and cannot be
confused by import-time side effects.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

#: Composite node classes whose direct call sites C001 flags.  ``Var``
#: and ``Const`` are deliberately absent: they are the leaves user code
#: legitimately constructs.
COMPOSITE_NODES = frozenset(
    {
        "Not",
        "And",
        "Or",
        "Implies",
        "Iff",
        "Eq",
        "Lt",
        "Le",
        "Add",
        "Sub",
        "Neg",
        "Mul",
        "Ite",
    }
)

#: Smart constructors whose calls mark a function as *building*
#: expressions (one half of the C007 heuristic; the other half is
#: dispatching on several composite node classes).
SMART_CONSTRUCTORS = frozenset(
    {
        "land", "lor", "lnot", "implies", "iff", "eq", "ne", "lt", "le",
        "gt", "ge", "add", "sub", "neg", "mul", "ite", "minimum",
        "maximum",
    }
)

#: ``os`` attributes that read or write the process environment (C008).
_ENV_ACCESS = frozenset({"environ", "getenv", "putenv"})

#: How many distinct composite classes a function must dispatch on
#: before C007 considers it a rewrite pass rather than a special case.
_C007_MIN_CLASSES = 3

_EXPR_MODULE = re.compile(r"(^|\.)expr(\.ast)?$|^ast$")
_EXPR_KEYED = re.compile(
    r"\b(dict|Dict|set|Set|frozenset|defaultdict|OrderedDict|"
    r"WeakKeyDictionary|WeakValueDictionary)\s*\[\s*['\"]?Expr\b"
)
_SUPPRESS = re.compile(
    r"#\s*contract:\s*ignore\[([A-Z0-9,\s]+)\]\s*(.*)$"
)

CODE_MESSAGES = {
    "C000": "suppression without a reason",
    "C001": "raw composite Expr constructor outside expr/ast.py",
    "C002": "copy.deepcopy on interned/engine-bearing objects",
    "C003": "module/class-level cache keyed on Expr (key on eid)",
    "C004": "mutable default argument",
    "C005": "time.time() in a measured path (use perf_counter)",
    "C006": "span name must be dotted lowercase component.phase",
    "C007": (
        "ad-hoc algebraic rewrite outside the simplifier "
        "(add a rule in expr/simplify.py)"
    ),
    "C008": "environment access inside the repro package",
}

#: The documented span-name shape: at least one dot, every segment
#: lowercase ``[a-z0-9_]+`` (C006).
_SPAN_NAME = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")


@dataclass(frozen=True)
class ContractFinding:
    """One linter finding, anchored to a source location."""

    code: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


class _Suppressions:
    """Per-file suppression comments, by line number."""

    def __init__(self, source: str):
        self.by_line: dict[int, set[str]] = {}
        self.missing_reason: list[int] = []
        for number, text in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS.search(text)
            if not match:
                continue
            codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
            if not match.group(2).strip():
                self.missing_reason.append(number)
            self.by_line[number] = codes

    def covers(self, line: int, code: str) -> bool:
        for candidate in (line, line - 1):
            if code in self.by_line.get(candidate, set()):
                return True
        return False


class _ContractVisitor(ast.NodeVisitor):
    def __init__(self, path: str, in_expr_ast: bool, c007_exempt: bool):
        self.path = path
        self.in_expr_ast = in_expr_ast
        self.c007_exempt = c007_exempt
        self.in_package = "src/repro/" in path.replace("\\", "/")  # C008
        self.findings: list[ContractFinding] = []
        # Local names bound by imports, so bare-name calls resolve.
        self.expr_node_names: set[str] = set()
        self.smart_ctor_names: set[str] = set()
        self.deepcopy_names: set[str] = set()
        self.copy_modules: set[str] = set()
        self.time_fn_names: set[str] = set()
        self.time_modules: set[str] = set()
        self.os_modules: set[str] = set()
        self.scope_depth = 0  # >0 inside a function body
        # C007: per-function frames of (dispatched classes, builder calls).
        self._rewrite_frames: list[dict] = []

    # ------------------------------------------------------------------
    def _report(self, code: str, node: ast.AST, detail: str = "") -> None:
        message = CODE_MESSAGES[code]
        if detail:
            message = f"{message}: {detail}"
        self.findings.append(
            ContractFinding(
                code=code, path=self.path, line=node.lineno, message=message
            )
        )

    # ------------------------------------------------------------------
    # imports
    # ------------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            if alias.name == "copy":
                self.copy_modules.add(local)
            if alias.name == "time":
                self.time_modules.add(local)
            if alias.name == "os":
                self.os_modules.add(local)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.module == "copy":
            for alias in node.names:
                if alias.name == "deepcopy":
                    self.deepcopy_names.add(alias.asname or alias.name)
        if node.module == "time":
            for alias in node.names:
                if alias.name == "time":
                    self.time_fn_names.add(alias.asname or alias.name)
        if node.module == "os" and self.in_package:
            for alias in node.names:
                if alias.name in _ENV_ACCESS:
                    self._report("C008", node, f"from os import {alias.name}")
        if _EXPR_MODULE.search(module) and (node.level > 0 or "repro" in module or module.startswith("expr")):
            for alias in node.names:
                if alias.name in COMPOSITE_NODES:
                    self.expr_node_names.add(alias.asname or alias.name)
                if alias.name in SMART_CONSTRUCTORS:
                    self.smart_ctor_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self.expr_node_names and not self.in_expr_ast:
                self._report("C001", node, f"{func.id}(...)")
            if func.id in self.deepcopy_names:
                self._report("C002", node, "deepcopy(...)")
            if func.id in self.time_fn_names:
                self._report("C005", node, "time(...)")
            if func.id == "isinstance" and len(node.args) == 2:
                self._note_dispatch(node.args[1])
            if func.id in self.smart_ctor_names and self._rewrite_frames:
                self._rewrite_frames[-1]["builds"] += 1
        elif isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            if func.value.id in self.copy_modules and func.attr == "deepcopy":
                self._report("C002", node, "copy.deepcopy(...)")
            if func.value.id in self.time_modules and func.attr == "time":
                self._report("C005", node, "time.time()")
        self._check_span_name(node)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            self.in_package
            and isinstance(node.value, ast.Name)
            and node.value.id in self.os_modules
            and node.attr in _ENV_ACCESS
        ):
            self._report("C008", node, f"os.{node.attr}")
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # C007: class dispatch + smart-constructor rebuild in one function
    # ------------------------------------------------------------------
    def _note_dispatch(self, classinfo: ast.AST) -> None:
        """Record composite node classes named in an ``isinstance`` second
        argument (a bare name or a tuple of names)."""
        if not self._rewrite_frames:
            return
        names = (
            list(classinfo.elts)
            if isinstance(classinfo, ast.Tuple)
            else [classinfo]
        )
        for item in names:
            if isinstance(item, ast.Name) and item.id in self.expr_node_names:
                self._rewrite_frames[-1]["classes"].add(item.id)

    def visit_Compare(self, node: ast.Compare) -> None:
        # ``type(x) is Cls`` counts as dispatch too.
        if (
            self._rewrite_frames
            and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Is, ast.IsNot))
            and isinstance(node.left, ast.Call)
            and isinstance(node.left.func, ast.Name)
            and node.left.func.id == "type"
        ):
            comparator = node.comparators[0]
            if (
                isinstance(comparator, ast.Name)
                and comparator.id in self.expr_node_names
            ):
                self._rewrite_frames[-1]["classes"].add(comparator.id)
        self.generic_visit(node)

    def _check_span_name(self, node: ast.Call) -> None:
        """C006: literal first argument of a span(...) call must be a
        dotted lowercase name.  Only string literals are judged — a
        variable name is the caller's responsibility — and calls like
        ``match.span(1)`` fall through on the non-string argument."""
        func = node.func
        is_span_call = (
            isinstance(func, ast.Name) and func.id == "span"
        ) or (isinstance(func, ast.Attribute) and func.attr == "span")
        if not is_span_call or not node.args:
            return
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            if not _SPAN_NAME.match(first.value):
                self._report("C006", node, repr(first.value))

    # ------------------------------------------------------------------
    # scopes: C003 only at module/class level, C004 on any function
    # ------------------------------------------------------------------
    def _visit_function(self, node) -> None:
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            if self._is_mutable_literal(default):
                self._report("C004", default, ast.unparse(default))
        self.scope_depth += 1
        self._rewrite_frames.append({"classes": set(), "builds": 0})
        self.generic_visit(node)
        frame = self._rewrite_frames.pop()
        self.scope_depth -= 1
        if (
            not self.c007_exempt
            and not isinstance(node, ast.Lambda)
            and len(frame["classes"]) >= _C007_MIN_CLASSES
            and frame["builds"] > 0
        ):
            self._report(
                "C007",
                node,
                f"{node.name}() dispatches on "
                f"{len(frame['classes'])} Expr classes and rebuilds via "
                f"{frame['builds']} smart-constructor call(s)",
            )

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    @staticmethod
    def _is_mutable_literal(node: ast.AST) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
             ast.SetComp),
        ):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"list", "dict", "set", "bytearray"}
            and not node.args
            and not node.keywords
        )

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self.scope_depth == 0:
            annotation = ast.unparse(node.annotation)
            if _EXPR_KEYED.search(annotation):
                self._report("C003", node, annotation)
        self.generic_visit(node)


def lint_source(source: str, path: str) -> list[ContractFinding]:
    """Lint one module's source; ``path`` is used for reporting and for
    the path-scoped rules (C001, C007, C008)."""
    normalized = path.replace("\\", "/")
    in_expr_ast = normalized.endswith("expr/ast.py")
    c007_exempt = normalized.endswith(("expr/ast.py", "expr/simplify.py"))
    tree = ast.parse(source, filename=path)
    visitor = _ContractVisitor(path, in_expr_ast, c007_exempt)
    visitor.visit(tree)
    suppressions = _Suppressions(source)
    kept = [
        finding
        for finding in visitor.findings
        if not suppressions.covers(finding.line, finding.code)
    ]
    for line in suppressions.missing_reason:
        kept.append(
            ContractFinding(
                code="C000",
                path=path,
                line=line,
                message=CODE_MESSAGES["C000"],
            )
        )
    return sorted(kept, key=lambda f: (f.path, f.line, f.code, f.message))


def lint_file(path: "str | Path") -> list[ContractFinding]:
    text = Path(path).read_text(encoding="utf-8")
    return lint_source(text, str(path))


def lint_paths(paths: "list[str | Path]") -> list[ContractFinding]:
    """Lint every ``*.py`` file under the given files/directories."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    findings: list[ContractFinding] = []
    for file in files:
        findings.extend(lint_file(file))
    return sorted(findings, key=lambda f: (f.path, f.line, f.code, f.message))
