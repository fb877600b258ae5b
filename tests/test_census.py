"""Census of the public surface: every exported name has a caller.

A name listed in an ``__all__`` of a ``src/repro`` package is public
surface.  It earns its place only if code outside ``tests/`` uses it: a
``Name`` or ``Attribute`` reference in ``src/``, ``examples/`` or
``benchmarks/``.  References inside the name's own ``def``/``class``,
import lines and the ``__all__`` strings themselves do not count.

A name with no such reference fails this test.  Either delete it (with
the tests that only exercise it), or add it to :data:`ALLOWLIST` with the
caller it is waiting for.  An allowlist entry whose name is no longer
exported, or that has since gained a caller, fails too, so the list only
ever shrinks to what is still true.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]

#: Where callers are looked for; ``tests/`` is deliberately not among them.
SCANNED = ("src", "examples", "benchmarks")

#: Exported names with no caller in :data:`SCANNED`, each with the caller
#: it is waiting for.
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
}


def exported_names(root: Path) -> Dict[str, List[str]]:
    """Every name in a ``src/repro/**/__init__.py`` ``__all__``, mapped to
    the packages that export it."""
    exports: Dict[str, List[str]] = {}
    for init in sorted((root / "src" / "repro").rglob("__init__.py")):
        for node in ast.parse(init.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                for element in node.value.elts:
                    exports.setdefault(element.value, []).append(
                        str(init.parent.relative_to(root))
                    )
    return exports


class _References(ast.NodeVisitor):
    """Counts loads of the watched names, outside their own definition."""

    def __init__(self, counts: Dict[str, int]) -> None:
        self.counts = counts
        self._enclosing: List[str] = []

    def _definition(self, node: ast.AST) -> None:
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _definition

    def _load(self, name: str) -> None:
        if name in self.counts and name not in self._enclosing:
            self.counts[name] += 1

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._load(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._load(node.attr)
        self.generic_visit(node)


def census(root: Path, allowlist: Dict[str, str]) -> Dict[str, str]:
    """Verdict per exported or allowlisted name: ``referenced``,
    ``allowlisted``, ``dead`` (no caller, not allowlisted) or ``stale``
    (allowlisted, but no longer exported or now referenced)."""
    exports = exported_names(root)
    counts = dict.fromkeys(exports, 0)
    visitor = _References(counts)
    for directory in SCANNED:
        for path in sorted((root / directory).rglob("*.py")):
            visitor.visit(ast.parse(path.read_text(), filename=str(path)))
    verdicts = {}
    for name, count in counts.items():
        if count:
            verdicts[name] = "stale" if name in allowlist else "referenced"
        else:
            verdicts[name] = "allowlisted" if name in allowlist else "dead"
    for name in allowlist:
        verdicts.setdefault(name, "stale")
    return verdicts


def test_every_export_has_a_caller_or_an_allowlisted_reason():
    verdicts = census(ROOT, ALLOWLIST)
    exports = exported_names(ROOT)
    dead = {name: exports[name] for name, verdict in verdicts.items() if verdict == "dead"}
    stale = sorted(name for name, verdict in verdicts.items() if verdict == "stale")
    assert not dead, (
        f"exported but called only from tests (or nowhere): {dead}; delete them "
        "or allowlist each with the caller it is waiting for"
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
        "from .mod import dead, used, waiting\n"
        '__all__ = ["dead", "waiting", "used"]\n',
    )
    _write(
        tmp_path / "src" / "repro" / "mod.py",
        "def dead():\n"
        "    return dead  # its own definition: not a caller\n"
        "def waiting():\n"
        "    pass\n"
        "def used():\n"
        "    pass\n",
    )
    _write(tmp_path / "examples" / "demo.py", "from repro import used\nused()\n")
    _write(tmp_path / "tests" / "test_mod.py", "from repro import dead\ndead()\n")
    allowlist = {"waiting": "a caller to come", "gone": "a name nobody exports"}
    assert census(tmp_path, allowlist) == {
        "dead": "dead",
        "waiting": "allowlisted",
        "used": "referenced",
        "gone": "stale",
    }
    # An allowlisted name that gains a caller is stale as well.
    assert census(tmp_path, {"used": "a caller to come"})["used"] == "stale"
