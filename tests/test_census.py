"""Census of everything a name can reach: every definition has a reader.

One AST pass over each file of ``src/``, ``examples/``, ``benchmarks/``
and ``tests/`` collects the definitions of ``src/repro`` and every load.
Matching is by name, so a load of ``x`` anywhere counts for every ``x``;
the census is conservative.  Three rules:

(a) **Module-level names.**  Every top-level function, class or constant
    of a ``src/repro`` module, exported or not, has a load (a ``Name``, an
    ``Attribute`` or a ``getattr`` string) in ``src/``, ``examples/`` or
    ``benchmarks/``, outside its own ``def``/``class``.  Imports and
    ``__all__`` strings are not loads.
(b) **Methods and properties.**  Every ``def`` in a class body (dunders
    exempt) has an attribute load or a ``getattr`` string with its name
    in those three directories, outside its own ``def``.
(c) **Write-only state.**  Every ``self.<x> = ...`` store (augmented
    ones included) and every dataclass field in ``src/repro`` has an
    attribute load or a ``getattr`` string somewhere, ``tests/`` included:
    a counter a test asserts on is observed state; a value nobody reads
    is pure cost.

``tests/`` never count for (a) and (b).  A definition that breaks a rule
fails this test: delete it (with the tests that only exercise it), or add
it to :data:`ALLOWLIST` with the non-test caller that reaches it.  An
allowlist entry that is no longer defined, or that has since gained a
reader, fails too, so the list only ever shrinks to what is still true.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: Where callers are looked for; ``tests/`` count only for rule (c).
SCANNED = ("src", "examples", "benchmarks")

#: Definitions with no reader the census can see, each keyed as ``Name``
#: (module level) or ``Class.name`` (method or state), with the caller
#: that reaches it.
ALLOWLIST: Dict[str, str] = {
    "Reno": 'tcp.cc.make("reno"): reached by name through @register',
    "Cubic": 'tcp.cc.make("cubic"): reached by name through @register',
    "Bbr": 'tcp.cc.make("bbr"): reached by name through @register',
    "CompoundTcp": 'tcp.cc.make("ctcp"): reached by name through @register',
    "Dctcp": 'tcp.cc.make("dctcp"): reached by name through @register',
    "ScalingController": (
        "the paper's NSM scale-up/out (§2.1), kept for ROADMAP's CPU-ledger "
        "item, which gives it a cpu_budget(...) to read"
    ),
    "OffloadConfig.gro": (
        "set by benchmarks/ledger/workloads.py (fanin_bulk_fluid turns TSO/GRO "
        "off); the ledger's workload file is frozen with the benchmark"
    ),
}

#: The ``kind`` of a definition, which decides the loads that can save it.
NAME, METHOD, STATE = "name", "method", "state"


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
            return True
    return False


def _targets(statement: ast.stmt) -> List[ast.expr]:
    if isinstance(statement, ast.Assign):
        return statement.targets
    if isinstance(statement, ast.AnnAssign):
        return [statement.target]
    return []


def _bound_names(statement: ast.stmt) -> List[str]:
    """Names a top-level statement defines (imports are not definitions)."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    names = []
    for target in _targets(statement):
        elements = target.elts if isinstance(target, ast.Tuple) else [target]
        names += [e.id for e in elements if isinstance(e, ast.Name)]
    return names


class _Scan(ast.NodeVisitor):
    """One walk of one file: its definitions (``src/repro`` only) and loads.

    ``loads[(kind, name)]`` counts the loads that can save a definition
    of that kind: for :data:`NAME` any ``Name``/``Attribute``/``getattr``
    load outside a definition of the same name, for :data:`METHOD` the
    attribute loads and ``getattr`` strings among those, and for
    :data:`STATE` attribute loads and ``getattr`` strings anywhere.  Files
    in ``tests/`` feed only :data:`STATE`.
    """

    def __init__(self, where: str, definitions, loads: Counter) -> None:
        self.where = where
        self.definitions = definitions
        self.loads = loads
        self.defines = where.startswith("src/repro/")
        self.scanned = not where.startswith("tests/")
        self._enclosing: List[str] = []
        self._class: List[str] = []

    def _define(self, key: str, kind: str) -> None:
        self.definitions.setdefault(key, (kind, self.where))

    def _load(self, name: str, attribute: bool) -> None:
        if attribute:
            self.loads[STATE, name] += 1
        if self.scanned and name not in self._enclosing:
            self.loads[NAME, name] += 1
            if attribute:
                self.loads[METHOD, name] += 1

    def visit_Module(self, node: ast.Module) -> None:
        if self.defines:
            for statement in node.body:
                for name in _bound_names(statement):
                    if not _dunder(name):
                        self._define(name, NAME)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.defines:
            dataclass = _is_dataclass(node)
            for statement in node.body:
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not _dunder(statement.name):
                        self._define(f"{node.name}.{statement.name}", METHOD)
                elif (
                    dataclass
                    and isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                    and "ClassVar" not in ast.unparse(statement.annotation)
                ):
                    self._define(f"{node.name}.{statement.target.id}", STATE)
        self._class.append(node.name)
        self._definition(node)
        self._class.pop()

    def _definition(self, node) -> None:
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _definition

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._load(node.id, attribute=False)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._load(node.attr, attribute=True)
        elif (
            self.defines
            and self._class
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            self._define(f"{self._class[-1]}.{node.attr}", STATE)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            self._load(node.args[1].value, attribute=True)
        self.generic_visit(node)


def scan(root: Path) -> Tuple[Dict[str, Tuple[str, str]], Counter]:
    """``(definitions, loads)``: each ``src/repro`` definition's key mapped
    to ``(kind, file)``, and the load counts of :class:`_Scan`."""
    definitions: Dict[str, Tuple[str, str]] = {}
    loads: Counter = Counter()
    for directory in SCANNED + ("tests",):
        for path in sorted((root / directory).rglob("*.py")):
            where = path.relative_to(root).as_posix()
            tree = ast.parse(path.read_text(), filename=where)
            _Scan(where, definitions, loads).visit(tree)
    return definitions, loads


def census(root: Path, allowlist: Dict[str, str]) -> Dict[str, str]:
    """Verdict per definition or allowlisted key: ``referenced``,
    ``allowlisted``, ``dead`` (no reader, not allowlisted) or ``stale``
    (allowlisted, but no longer defined or now read)."""
    return _verdicts(*scan(root), allowlist)


def _verdicts(definitions, loads: Counter, allowlist: Dict[str, str]) -> Dict[str, str]:
    verdicts = {}
    for key, (kind, _) in definitions.items():
        if loads[kind, key.rpartition(".")[2]]:
            verdicts[key] = "stale" if key in allowlist else "referenced"
        else:
            verdicts[key] = "allowlisted" if key in allowlist else "dead"
    for key in allowlist:
        verdicts.setdefault(key, "stale")
    return verdicts


def test_every_export_has_a_caller_or_an_allowlisted_reason():
    definitions, loads = scan(ROOT)
    verdicts = _verdicts(definitions, loads, ALLOWLIST)
    dead = {
        key: "{} in {}".format(*definitions[key])
        for key, verdict in sorted(verdicts.items())
        if verdict == "dead"
    }
    stale = sorted(key for key, verdict in verdicts.items() if verdict == "stale")
    assert not dead, (
        f"defined but read only from tests (or nowhere): {dead}; delete them "
        "or allowlist each with the caller that reaches it"
    )
    assert not stale, f"allowlist entries no longer needed: {stale}"


def test_allowlist_entries_name_their_caller():
    assert all(reason.strip() for reason in ALLOWLIST.values())


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_census_flags_dead_exports_and_stale_allowlist_entries(tmp_path):
    _write(
        tmp_path / "src" / "repro" / "__init__.py",
        "from .mod import dead, used, waiting, Box\n"
        '__all__ = ["dead", "waiting", "used", "Box"]\n',
    )
    _write(
        tmp_path / "src" / "repro" / "mod.py",
        "def dead():\n"
        "    return dead  # its own definition: not a caller\n"
        "def waiting():\n"
        "    pass\n"
        "def used():\n"
        "    pass\n"
        "def _private_dead():\n"
        "    pass\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.read = 0\n"
        "        self.tested = 0\n"
        "        self.written = 0\n"
        "    def used_method(self):\n"
        "        self.written += self.read\n"
        "    def dead_method(self):\n"
        "        return self.dead_method()  # recursion is not a caller\n"
        "    def by_name(self):\n"
        "        pass\n",
    )
    _write(
        tmp_path / "examples" / "demo.py",
        "from repro import used, Box\n"
        "used()\n"
        "Box().used_method()\n"
        'getattr(Box(), "by_name")()\n',
    )
    _write(
        tmp_path / "tests" / "test_mod.py",
        "from repro import dead, Box\n"
        "dead()\n"
        "Box().dead_method()\n"
        "assert Box().tested == 0\n",
    )
    allowlist = {"waiting": "a caller to come", "gone": "a name nobody defines"}
    assert census(tmp_path, allowlist) == {
        "dead": "dead",
        "waiting": "allowlisted",
        "used": "referenced",
        "_private_dead": "dead",
        "Box": "referenced",
        "Box.used_method": "referenced",
        "Box.dead_method": "dead",
        "Box.by_name": "referenced",
        "Box.read": "referenced",
        "Box.tested": "referenced",
        "Box.written": "dead",
        "gone": "stale",
    }
    # An allowlisted name that gains a caller is stale as well.
    assert census(tmp_path, {"used": "a caller to come"})["used"] == "stale"
