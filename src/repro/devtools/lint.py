"""``repro-lint``: the AST-based domain linter for the repro codebase.

Generic tools (mypy, ruff) check Python semantics; this linter checks the
*simulator's* semantics — the invariants PRs 2-6 established that would
otherwise live only in reviewers' heads:

``unit-suffix``
    Identifiers carrying a physical unit must spell it with the canonical
    suffix (``_w``, ``_kw``, ``_mw``, ``_kwh``, ``_j``, ``_s``, ``_us``,
    ``_h``, ``_c``, ``_k``); long-form spellings (``_seconds``, the
    long form of ``_w``, ...) are flagged with the canonical rename.
``unit-crossing``
    A value must not silently change unit: assigning a ``_w`` name to a
    ``_kw`` target, or adding ``_s`` to ``_h``, is flagged — cross units
    through the :mod:`repro.units` helpers instead.
``float-compare``
    No ``==`` / ``!=`` on simulated-time or power/energy quantities
    (unit-suffixed names) or against float literals; use the documented
    zero-guard / tolerance helpers in :mod:`repro.units`.
``hot-path``
    Inside a function marked ``@hot_path`` (see :mod:`repro.devtools`):
    no ``list(...)`` / ``sorted(...)`` materialisation, no ``.pop(0)``
    head-pops, no iteration over running-set / queue / jobs collections —
    the patterns whose cost scales with the number of running jobs R —
    and no ``np.*`` / ``numpy.*`` calls, which cost ~1 µs each on the
    scalars a per-event path handles.
``metrics-glossary``
    Every metric name registered on a ``MetricsRegistry`` (literal
    ``.counter(...)`` / ``.gauge(...)`` / ``.histogram(...)`` names and
    the keys of ``observability_counters()`` dictionaries) must appear in
    the README metrics glossary.
``public-exceptions``
    Public functions must raise :mod:`repro.exceptions` types, not bare
    builtins — builtin raises are flagged unless every enclosing function
    and class is private (``_``-prefixed).

Any finding is suppressible on its line::

    facility_kw == 0.0  # repro-lint: disable=float-compare
    # repro-lint: disable=unit-suffix,hot-path   (several rules)
    # repro-lint: disable=all                    (every rule)

Exit status: 0 clean, 1 findings, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Finding",
    "RULES",
    "lint_file",
    "lint_paths",
    "lint_source",
    "main",
]

# ---------------------------------------------------------------------------
# Rule catalogue
# ---------------------------------------------------------------------------

#: rule name -> one-line description (the ``--list-rules`` output).
RULES: dict[str, str] = {
    "unit-suffix": (
        "unit-carrying names must use the canonical suffix "
        "(_w/_kw/_mw/_kwh/_j/_s/_us/_h/_c/_k), not long-form spellings"
    ),
    "unit-crossing": (
        "values must not change unit via plain assignment or +/- between "
        "differently-suffixed names; use repro.units helpers"
    ),
    "float-compare": (
        "no ==/!= on unit-suffixed (time/power/energy/temperature) values "
        "or float literals; use repro.units zero-guards / tolerances"
    ),
    "hot-path": (
        "no list()/sorted() materialisation, .pop(0) head-pops, "
        "running-set/queue iteration or np.*/numpy.* calls inside "
        "@hot_path functions"
    ),
    "metrics-glossary": (
        "every MetricsRegistry metric name and observability_counters() "
        "key must appear in the README metrics glossary"
    ),
    "public-exceptions": (
        "public API must raise repro.exceptions types, not builtin "
        "exceptions"
    ),
}

#: Canonical unit suffix -> dimension. ``_h`` means hours, ``_c``/``_k``
#: degrees Celsius / Kelvin; the rest follow SI / engineering convention.
_UNIT_DIMENSION: dict[str, str] = {
    "w": "power",
    "kw": "power",
    "mw": "power",
    "gw": "power",
    "j": "energy",
    "kj": "energy",
    "mj": "energy",
    "kwh": "energy",
    "mwh": "energy",
    "s": "time",
    "ms": "time",
    "us": "time",
    "ns": "time",
    "min": "time",
    "h": "time",
    "c": "temperature",
    "k": "temperature",
}

#: Long-form unit suffix -> canonical replacement (the ``unit-suffix`` rule).
_NONCANONICAL_SUFFIXES: dict[str, str] = {
    "watt": "_w",
    "watts": "_w",
    "kilowatt": "_kw",
    "kilowatts": "_kw",
    "megawatt": "_mw",
    "megawatts": "_mw",
    "joule": "_j",
    "joules": "_j",
    "kilojoules": "_kj",
    "kwhr": "_kwh",
    "kwhrs": "_kwh",
    "kilowatt_hours": "_kwh",
    "sec": "_s",
    "secs": "_s",
    "second": "_s",
    "seconds": "_s",
    "msec": "_ms",
    "msecs": "_ms",
    "millis": "_ms",
    "milliseconds": "_ms",
    "usec": "_us",
    "usecs": "_us",
    "micros": "_us",
    "microseconds": "_us",
    "nanos": "_ns",
    "nanoseconds": "_ns",
    "minutes": "_min",
    "mins": "_min",
    "hrs": "_h",
    "hours": "_h",
    "celsius": "_c",
    "kelvin": "_k",
    "kelvins": "_k",
}

#: :mod:`repro.units` helper names — exempt from the suffix rules everywhere
#: (their names *are* the unit-crossing vocabulary) and recognised as the
#: sanctioned way to cross units.
_UNITS_HELPERS = frozenset(
    {
        "parse_duration",
        "format_duration",
        "watts_to_kilowatts",
        "kilowatts_to_megawatts",
        "joules_to_kilowatt_hours",
        "kilowatt_hours_to_joules",
        "node_seconds_to_node_hours",
        "celsius_to_kelvin",
        "kelvin_to_celsius",
        "is_zero_kw",
    }
)

#: Builtin exception types the ``public-exceptions`` rule bans from public
#: raise sites. ``NotImplementedError`` (abstract-method idiom) and
#: ``AssertionError`` are deliberately absent.
_BUILTIN_EXCEPTIONS = frozenset(
    {
        "ArithmeticError",
        "AttributeError",
        "BaseException",
        "Exception",
        "IndexError",
        "IOError",
        "KeyError",
        "LookupError",
        "OSError",
        "OverflowError",
        "RuntimeError",
        "StopIteration",
        "TypeError",
        "ValueError",
        "ZeroDivisionError",
    }
)

#: Identifier substrings that mark a collection as per-job sized (the
#: ``hot-path`` iteration ban).
_JOB_COLLECTION_MARKERS = ("running", "queue", "jobs")

#: Module names whose calls the ``hot-path`` rule bans (numpy's aliases).
_NUMPY_MODULES = frozenset({"np", "numpy"})

#: Method names whose literal first argument registers a metric.
_METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram"})

_SUPPRESSION_RE = re.compile(r"#\s*repro-lint:\s*disable=([a-z\-,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Helpers shared by the visitor
# ---------------------------------------------------------------------------


def _unit_suffix(name: str) -> str | None:
    """The canonical unit suffix of an identifier, or ``None``."""
    lowered = name.lower()
    if lowered in _UNITS_HELPERS:
        return None
    _, _, tail = lowered.rpartition("_")
    if tail and tail in _UNIT_DIMENSION and lowered != tail:
        return tail
    return None


def _noncanonical_suffix(name: str) -> tuple[str, str] | None:
    """``(bad_suffix, canonical)`` when ``name`` uses a long-form unit."""
    lowered = name.lower()
    if lowered in _UNITS_HELPERS:
        return None
    for bad, canonical in _NONCANONICAL_SUFFIXES.items():
        if lowered.endswith("_" + bad):
            return bad, canonical
    return None


def _identifier_of(node: ast.expr) -> str | None:
    """The trailing identifier of a Name/Attribute expression, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _suppressions(source: str) -> dict[int, frozenset[str]]:
    """Per-line suppressed rule sets from ``# repro-lint: disable=`` comments."""
    table: dict[int, frozenset[str]] = {}
    for line_no, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION_RE.search(line)
        if match is not None:
            rules = frozenset(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            table[line_no] = rules
    return table


# ---------------------------------------------------------------------------
# The visitor
# ---------------------------------------------------------------------------


class _FileLinter(ast.NodeVisitor):
    """Collects findings for one parsed source file.

    Parameters
    ----------
    path:
        Display path for findings.
    readme_text:
        Full README contents the ``metrics-glossary`` rule checks against;
        ``None`` disables that rule for this file.
    skip_rules:
        Rules disabled wholesale for this file (path-based exemptions:
        ``units.py`` defines the crossing vocabulary, ``exceptions.py``
        defines the exception types).
    """

    def __init__(
        self,
        path: str,
        readme_text: str | None,
        skip_rules: frozenset[str] = frozenset(),
    ) -> None:
        self.path = path
        self.readme_text = readme_text
        self.skip_rules = skip_rules
        self.findings: list[Finding] = []
        self._func_stack: list[str] = []
        self._class_stack: list[str] = []
        self._hot_depth = 0

    # -- recording -----------------------------------------------------------

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        if rule in self.skip_rules:
            return
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        self.findings.append(Finding(self.path, line, col, rule, message))

    # -- unit-suffix ----------------------------------------------------------

    def _check_identifier(self, name: str, node: ast.AST) -> None:
        bad = _noncanonical_suffix(name)
        if bad is not None:
            suffix, canonical = bad
            self._flag(
                node,
                "unit-suffix",
                f"{name!r} spells a unit long-form (_{suffix}); use the "
                f"canonical suffix {canonical!r}",
            )

    def visit_Name(self, node: ast.Name) -> None:
        self._check_identifier(node.id, node)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._check_identifier(node.attr, node)
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        self._check_identifier(node.arg, node)
        self.generic_visit(node)

    # -- unit-crossing --------------------------------------------------------

    def _check_crossing(self, target: ast.expr, value: ast.expr) -> None:
        target_name = _identifier_of(target)
        value_name = _identifier_of(value)
        if target_name is None or value_name is None:
            return
        target_unit = _unit_suffix(target_name)
        value_unit = _unit_suffix(value_name)
        if target_unit and value_unit and target_unit != value_unit:
            self._flag(
                target,
                "unit-crossing",
                f"assigning {value_name!r} (_{value_unit}) to "
                f"{target_name!r} (_{target_unit}) changes unit; convert "
                "via a repro.units helper",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_crossing(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_crossing(node.target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self._check_crossing(node.target, node.value)
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            left_name = _identifier_of(node.left)
            right_name = _identifier_of(node.right)
            if left_name is not None and right_name is not None:
                left_unit = _unit_suffix(left_name)
                right_unit = _unit_suffix(right_name)
                if left_unit and right_unit and left_unit != right_unit:
                    op = "+" if isinstance(node.op, ast.Add) else "-"
                    self._flag(
                        node,
                        "unit-crossing",
                        f"{left_name!r} (_{left_unit}) {op} {right_name!r} "
                        f"(_{right_unit}) mixes units; convert via a "
                        "repro.units helper",
                    )
        self.generic_visit(node)

    # -- float-compare --------------------------------------------------------

    @staticmethod
    def _is_float_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        # Unary minus on a float literal (-1.0) parses as UnaryOp.
        return (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, float)
        )

    def _float_compare_reason(self, node: ast.expr) -> str | None:
        if self._is_float_literal(node):
            return "a float literal"
        name = _identifier_of(node)
        if name is not None:
            unit = _unit_suffix(name)
            if unit is not None:
                return f"{name!r} (unit-suffixed _{unit})"
        return None

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (operands[index], operands[index + 1]):
                reason = self._float_compare_reason(side)
                if reason is not None:
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    self._flag(
                        node,
                        "float-compare",
                        f"exact float {symbol} against {reason}; use a "
                        "repro.units zero-guard / tolerance instead",
                    )
                    break
        self.generic_visit(node)

    # -- hot-path -------------------------------------------------------------

    @staticmethod
    def _is_hot_path_decorator(node: ast.expr) -> bool:
        target = node.func if isinstance(node, ast.Call) else node
        name = _identifier_of(target)
        return name == "hot_path"

    def _mentions_job_collection(self, node: ast.expr) -> str | None:
        for child in ast.walk(node):
            name: str | None = None
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            if name is not None:
                lowered = name.lower()
                for marker in _JOB_COLLECTION_MARKERS:
                    if marker in lowered:
                        return name
        return None

    def _check_hot_iteration(self, iter_node: ast.expr, at: ast.AST) -> None:
        if self._hot_depth == 0:
            return
        name = self._mentions_job_collection(iter_node)
        if name is not None:
            self._flag(
                at,
                "hot-path",
                f"iteration over {name!r} inside a @hot_path function "
                "scales with the running-set size; use the O(log R) "
                "event indexes instead",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_hot_iteration(node.iter, node)
        self.generic_visit(node)

    def _visit_comprehension_holder(
        self, node: ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp
    ) -> None:
        for comp in node.generators:
            self._check_hot_iteration(comp.iter, node)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension_holder
    visit_SetComp = _visit_comprehension_holder
    visit_DictComp = _visit_comprehension_holder
    visit_GeneratorExp = _visit_comprehension_holder

    # -- calls: hot-path bans + metrics-glossary ------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if self._hot_depth > 0:
            if isinstance(node.func, ast.Name) and node.func.id in ("list", "sorted"):
                self._flag(
                    node,
                    "hot-path",
                    f"{node.func.id}(...) materialises a collection inside "
                    "a @hot_path function; hot-path cost must not scale "
                    "with the running-set size",
                )
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "pop"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == 0
            ):
                self._flag(
                    node,
                    "hot-path",
                    ".pop(0) is O(n) on a list inside a @hot_path function; "
                    "use a deque or an index cursor",
                )
            root = node.func
            while isinstance(root, ast.Attribute):
                root = root.value
            if (
                isinstance(node.func, ast.Attribute)
                and isinstance(root, ast.Name)
                and root.id in _NUMPY_MODULES
            ):
                self._flag(
                    node,
                    "hot-path",
                    f"numpy call {ast.unparse(node.func)}(...) inside a "
                    "@hot_path function costs ~1 µs on scalars; keep "
                    "per-event work on Python floats",
                )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _METRIC_FACTORIES
            and node.args
        ):
            self._check_metric_name(node.args[0])
        self.generic_visit(node)

    def _check_metric_name(self, name_node: ast.expr) -> None:
        if self.readme_text is None or "metrics-glossary" in self.skip_rules:
            return
        if isinstance(name_node, ast.Constant) and isinstance(name_node.value, str):
            fragments = [name_node.value]
            display = name_node.value
        elif isinstance(name_node, ast.JoinedStr):
            fragments = [
                part.value
                for part in name_node.values
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
            ]
            display = "".join(
                part.value
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
                else "{...}"
                for part in name_node.values
            )
        else:
            return
        for fragment in fragments:
            if fragment and fragment not in self.readme_text:
                self._flag(
                    name_node,
                    "metrics-glossary",
                    f"metric name {display!r} is not documented in the "
                    "README metrics glossary",
                )
                return

    def _check_counters_dict(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        """Keys of ``observability_counters()`` return dicts must be in the README."""
        if self.readme_text is None or "metrics-glossary" in self.skip_rules:
            return
        for child in ast.walk(func):
            if not (isinstance(child, ast.Return) and isinstance(child.value, ast.Dict)):
                continue
            for key in child.value.keys:
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and key.value not in self.readme_text
                ):
                    self._flag(
                        key,
                        "metrics-glossary",
                        f"observability counter {key.value!r} is not "
                        "documented in the README metrics glossary",
                    )

    # -- public-exceptions ----------------------------------------------------

    def _in_public_context(self) -> bool:
        scopes = self._func_stack + self._class_stack
        return all(not name.startswith("_") or name.startswith("__") for name in scopes)

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        target = exc.func if isinstance(exc, ast.Call) else exc
        name = _identifier_of(target) if target is not None else None
        if (
            name in _BUILTIN_EXCEPTIONS
            and self._func_stack
            and self._in_public_context()
        ):
            self._flag(
                node,
                "public-exceptions",
                f"public API raises builtin {name}; raise a repro.exceptions "
                "type so callers can catch SRapsError",
            )
        self.generic_visit(node)

    # -- scope bookkeeping ----------------------------------------------------

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._check_identifier(node.name, node)
        if node.name == "observability_counters":
            self._check_counters_dict(node)
        hot = any(self._is_hot_path_decorator(dec) for dec in node.decorator_list)
        self._func_stack.append(node.name)
        if hot:
            self._hot_depth += 1
        self.generic_visit(node)
        if hot:
            self._hot_depth -= 1
        self._func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

#: File-name-based rule exemptions: the modules *defining* a vocabulary are
#: not checked against it.
_FILE_SKIP_RULES: dict[str, frozenset[str]] = {
    "units.py": frozenset({"unit-suffix", "unit-crossing", "float-compare"}),
    "exceptions.py": frozenset({"public-exceptions"}),
}


def lint_source(
    source: str,
    *,
    path: str = "<string>",
    readme_text: str | None = None,
    skip_rules: frozenset[str] = frozenset(),
) -> list[Finding]:
    """Lint one source string; the unit tests' fixture entry point."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path,
                exc.lineno or 0,
                (exc.offset or 1) - 1,
                "syntax-error",
                f"cannot parse: {exc.msg}",
            )
        ]
    linter = _FileLinter(path, readme_text, skip_rules)
    linter.visit(tree)
    suppressed = _suppressions(source)
    kept: list[Finding] = []
    for finding in sorted(linter.findings, key=lambda f: (f.line, f.col, f.rule)):
        rules = suppressed.get(finding.line)
        if rules is not None and (finding.rule in rules or "all" in rules):
            continue
        kept.append(finding)
    return kept


def lint_file(path: Path, *, readme_text: str | None = None) -> list[Finding]:
    """Lint one file from disk, applying the path-based rule exemptions."""
    skip = _FILE_SKIP_RULES.get(path.name, frozenset())
    return lint_source(
        path.read_text(),
        path=str(path),
        readme_text=readme_text,
        skip_rules=skip,
    )


def _iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def _locate_readme(explicit: str | None, targets: Sequence[Path]) -> Path | None:
    """The README the glossary rule checks: ``--readme``, else walk upward."""
    if explicit is not None:
        candidate = Path(explicit)
        return candidate if candidate.is_file() else None
    start = targets[0].resolve() if targets else Path.cwd()
    if start.is_file():
        start = start.parent
    for directory in (start, *start.parents):
        candidate = directory / "README.md"
        if candidate.is_file():
            return candidate
    return None


def lint_paths(
    paths: Sequence[Path], *, readme_text: str | None
) -> tuple[list[Finding], int]:
    """Lint every ``.py`` file under ``paths``; returns (findings, file count)."""
    findings: list[Finding] = []
    checked = 0
    for file_path in _iter_python_files(paths):
        checked += 1
        findings.extend(lint_file(file_path, readme_text=readme_text))
    return findings, checked


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Domain linter for the repro codebase: unit-suffix discipline, "
            "float-comparison bans, @hot_path complexity guarantees, "
            "metrics-glossary coverage and exception-contract rules."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--readme",
        default=None,
        metavar="PATH",
        help="README checked by the metrics-glossary rule "
        "(default: nearest README.md above the first target)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="findings output format (default: text)",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write the findings (in the chosen format) to a file",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list the rule catalogue and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        width = max(len(rule) for rule in RULES)
        for rule, description in RULES.items():
            print(f"{rule:<{width}}  {description}")
        return 0

    targets = [Path(p) for p in args.paths] if args.paths else [Path("src/repro")]
    missing = [str(p) for p in targets if not p.exists()]
    if missing:
        print(f"repro-lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    readme_path = _locate_readme(args.readme, targets)
    if readme_path is None:
        print(
            "repro-lint: README.md not found (needed by the metrics-glossary "
            "rule); pass --readme PATH",
            file=sys.stderr,
        )
        return 2
    readme_text = readme_path.read_text()

    findings, checked = lint_paths(targets, readme_text=readme_text)

    if args.format == "json":
        payload = json.dumps(
            {
                "checked_files": checked,
                "findings": [vars(finding) for finding in findings],
                "rules": RULES,
            },
            indent=2,
        )
        output = payload + "\n"
    else:
        lines = [finding.format() for finding in findings]
        lines.append(
            f"repro-lint: {len(findings)} finding(s) in {checked} file(s)"
            if findings
            else f"repro-lint: clean ({checked} file(s) checked)"
        )
        output = "\n".join(lines) + "\n"

    sys.stdout.write(output)
    if args.report is not None:
        Path(args.report).write_text(output)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
