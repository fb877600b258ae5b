"""Census of everything a name can reach: every definition has a reader.

One AST pass over each file of ``src/``, ``examples/``, ``benchmarks/``
and ``tests/`` collects the definitions of ``src/repro`` and every load.
Matching is by name, so a load of ``x`` anywhere counts for every ``x``;
the census is conservative.  Four rules:

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
(d) **Parameters.**  (d1) Every parameter of a ``src/repro`` function is
    read by its body or, for a method, by some definition of that method
    name (an interface argument lives while one implementation reads
    it).  A parameter only passed on, as an argument of ``f(...)``,
    ``self.m(...)`` or ``super().m(...)``, is read when the parameter it
    lands in is.  Stub bodies (``...``, ``pass``, a docstring, ``raise
    NotImplementedError``), ``self``/``cls``, ``_``-prefixed names and
    dunders other than ``__init__`` are exempt.  (d2) Every defaulted
    parameter, ``**kwargs`` and defaulted dataclass field (``init=False``
    ones are not parameters) is set by some call, ``tests/`` included: a
    keyword of its name or a positional argument in its place, in a call
    by the function's name (a class's name, ``super().__init__`` or
    ``cls(...)`` for a constructor); a field also by a store outside
    ``self`` or a dict key of its name.  A ``**kw`` spread sets what it
    can hold: the dict keys the code writes, or, when it passes a
    function's own ``**kwargs`` on, what that function's callers pass.
    A call through a variable, and a spread to a callee nothing defines,
    reach every function or class passed around as a value (annotations
    are not values); only a callback gets ``*args``.

``tests/`` never count for (a) and (b).  A definition that breaks a rule
fails this test: delete it (with the tests that only exercise it), or add
it to :data:`ALLOWLIST` with the non-test caller that reaches it.  An
allowlist entry that is no longer defined, or that has since gained a
reader, fails too, so the list only ever shrinks to what is still true.
"""

from __future__ import annotations

import ast
import builtins
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: Where callers are looked for; ``tests/`` count only for rules (c) and (d2).
SCANNED = ("src", "examples", "benchmarks")

#: Definitions with no reader the census can see, each keyed as ``Name``
#: (module level), ``Class.name`` (method or state), ``function(param)``
#: (rule d1, an unread parameter) or ``function(param=)`` (rule d2, a
#: parameter or field no call sets), with the caller that reaches it.
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
    "QueuePair._on_message(msg_id)": (
        "rdma.transport's RcEndpoint calls on_message(msg_id, nbytes) on "
        "each completed message"
    ),
    "OffloadConfig.gro": (
        "set by benchmarks/ledger/workloads.py (fanin_bulk_fluid turns TSO/GRO "
        "off); the ledger's workload file is frozen with the benchmark"
    ),
}

#: The ``kind`` of a definition, which decides the loads that can save it.
NAME, METHOD, STATE = "name", "method", "state"
#: Rule (d)'s kinds: a parameter that must be read, and one that must be set.
READ, SET = "read", "set"
#: The callee of a call through a local variable or parameter (``fn(x)``).
VARIABLE = "()"
_BUILTINS = frozenset(dir(builtins))


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


def _is_stub(body: List[ast.stmt]) -> bool:
    """``...``, ``pass``, a docstring or ``raise NotImplementedError``."""
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if not body:
        return True
    if len(body) > 1:
        return False
    statement = body[0]
    if isinstance(statement, ast.Raise) and statement.exc is not None:
        exc = statement.exc.func if isinstance(statement.exc, ast.Call) else statement.exc
        return getattr(exc, "id", None) == "NotImplementedError"
    return isinstance(statement, ast.Pass) or (
        isinstance(statement, ast.Expr)
        and isinstance(statement.value, ast.Constant)
        and statement.value.value is Ellipsis
    )


def _direct(call: ast.Call) -> bool:
    """A call the census can follow: ``f(...)``, ``self.m(...)``,
    ``cls.m(...)`` or ``super().m(...)`` (``self.table.get(...)`` may
    well be ``dict.get``)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        func = func.value
        if isinstance(func, ast.Call):
            return getattr(func.func, "id", None) == "super"
        return getattr(func, "id", None) in ("self", "cls")
    return isinstance(func, ast.Name)


@dataclass
class _Calls:
    """Every call to one callee name, merged: which parameters they set."""

    positional: int = 0  # the most positional arguments one call passes
    keywords: Set[str] = field(default_factory=set)
    star: bool = False  # some call spreads ``*args``
    #: What each ``**`` spread holds: ``""`` for a dict the code builds
    #: (keyed by :attr:`_Facts.keys`), else the key of the function whose
    #: own ``**kwargs`` it passes on.
    spreads: Set[str] = field(default_factory=set)

    def add(self, call: ast.Call, forwarding: Tuple[Optional[str], str]) -> None:
        for index, argument in enumerate(call.args):
            if isinstance(argument, ast.Starred):
                self.star = True
                break
            self.positional = max(self.positional, index + 1)
        for keyword in call.keywords:
            if keyword.arg is not None:
                self.keywords.add(keyword.arg)
            elif getattr(keyword.value, "id", "") == forwarding[0]:
                self.spreads.add(forwarding[1])
            else:
                self.spreads.add("")

    def merge(self, other: "_Calls") -> None:
        self.star |= other.star
        self.spreads |= other.spreads


@dataclass
class _Function:
    """One ``def`` of ``src/repro``, as rule (d) sees it."""

    key: str  # ``Class.method``, ``function`` or ``outer.inner``
    where: str
    group: str  # defs sharing a group share reads: a method's name
    answers: Tuple[str, ...]  # the callee names that reach it
    factory: bool  # a constructor: reached through its class's name
    stub: bool
    positional: List[Tuple[str, bool]]  # (name, defaulted), as callers count
    keyword_only: List[Tuple[str, bool]]
    var_positional: Optional[str]
    var_keyword: Optional[str]
    reads: Set[str] = field(default_factory=set)
    #: ``(param, callee names, slot)``: a parameter only passed on as
    #: argument ``slot`` (an index or a keyword) of a call.
    forwards: List[Tuple[str, Tuple[str, ...], object]] = field(default_factory=list)

    def parameters(self) -> List[str]:
        names = [name for name, _ in self.positional + self.keyword_only]
        names += [f"*{self.var_positional}"] if self.var_positional else []
        return names + ([f"**{self.var_keyword}"] if self.var_keyword else [])

    def slot(self, slot) -> Optional[str]:
        """The parameter a call's argument ``slot`` lands in."""
        if isinstance(slot, int):
            if slot < len(self.positional):
                return self.positional[slot][0]
            return self.var_positional and f"*{self.var_positional}"
        if slot in {name for name, _ in self.positional + self.keyword_only}:
            return slot
        return self.var_keyword and f"**{self.var_keyword}"


class _Scan(ast.NodeVisitor):
    """One walk of one file: its definitions (``src/repro`` only), loads and calls.

    ``loads[(kind, name)]`` counts the loads that can save a definition
    of that kind: for :data:`NAME` any ``Name``/``Attribute``/``getattr``
    load outside a definition of the same name, for :data:`METHOD` the
    attribute loads and ``getattr`` strings among those, and for
    :data:`STATE` attribute loads and ``getattr`` strings anywhere.  Files
    in ``tests/`` feed only :data:`STATE` and rule (d2)'s calls.
    """

    def __init__(self, where: str, facts: "_Facts") -> None:
        self.where = where
        self.facts = facts
        self.loads = facts.loads
        self.defines = where.startswith("src/repro/")
        self.scanned = not where.startswith("tests/")
        self._enclosing: List[str] = []
        self._class: List[str] = []
        self._methods: Dict[int, ast.ClassDef] = {}
        self._callees: Set[int] = set()
        self._aliases: Dict[str, str] = {}
        self._toplevel: Set[str] = set()
        self._typed: Set[int] = set()  # annotation nodes: not values
        self._imported: Set[str] = set()
        #: The innermost function's first parameter (``cls`` in a classmethod).
        self._first: List[Optional[str]] = [None]
        #: The innermost function's ``**kwargs`` name and key.
        self._forwarding: List[Tuple[Optional[str], str]] = [(None, "")]

    def _define(self, key: str, kind: str) -> None:
        self.facts.definitions.setdefault(key, (kind, self.where))

    def _load(self, name: str, attribute: bool) -> None:
        if attribute:
            self.loads[STATE, name] += 1
        if self.scanned and name not in self._enclosing:
            self.loads[NAME, name] += 1
            if attribute:
                self.loads[METHOD, name] += 1

    def visit_Module(self, node: ast.Module) -> None:
        for inner in ast.walk(node):
            if isinstance(inner, (ast.arg, ast.AnnAssign)):
                annotations = [inner.annotation]
            elif isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                annotations = [inner.returns]
            else:
                continue
            for annotation in filter(None, annotations):
                self._typed.update(id(name) for name in ast.walk(annotation))
        for statement in node.body:
            for name in _bound_names(statement):
                self._toplevel.add(name)
                if self.defines and not _dunder(name):
                    self._define(name, NAME)
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._imported.add(alias.asname or alias.name.partition(".")[0])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            self._imported.add(alias.asname or alias.name)
            if alias.asname:
                self._aliases[alias.asname] = alias.name

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.defines:
            dataclass = _is_dataclass(node)
            self.facts.bases[node.name] = [
                getattr(base, "id", getattr(base, "attr", "")) for base in node.bases
            ]
            fields = self.facts.fields.setdefault(node.name, []) if dataclass else []
            for statement in node.body:
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._methods[id(statement)] = node
                    if not _dunder(statement.name):
                        self._define(f"{node.name}.{statement.name}", METHOD)
                    elif statement.name == "__init__":
                        self.facts.constructed.add(node.name)
                elif (
                    dataclass
                    and isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                    and "ClassVar" not in ast.unparse(statement.annotation)
                ):
                    self._define(f"{node.name}.{statement.target.id}", STATE)
                    value = ast.unparse(statement.value) if statement.value else ""
                    if "init=False" not in value:
                        fields.append((statement.target.id, bool(value)))
        self._class.append(node.name)
        self._definition(node)
        self._class.pop()

    def _definition(self, node) -> None:
        self.facts.named.add(node.name)
        function = not isinstance(node, ast.ClassDef)
        if function:
            kwarg = node.args.kwarg and node.args.kwarg.arg
            self._forwarding.append((kwarg, ".".join(self._enclosing + [node.name])))
            positional = node.args.posonlyargs + node.args.args
            self._first.append(positional[0].arg if positional else None)
            if self.defines:
                self._function(node)
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()
        if function:
            self._forwarding.pop()
            self._first.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _definition

    def _function(self, node) -> None:
        owner = self._methods.get(id(node))
        decorators = {getattr(d, "id", None) for d in node.decorator_list}
        arguments = node.args
        positional = arguments.posonlyargs + arguments.args
        if owner is not None and "staticmethod" not in decorators:
            positional = positional[1:]  # self or cls
        defaulted = len(positional) - len(arguments.defaults)
        if node.name == "__init__" and owner is not None:
            group, answers = f"{owner.name}.__init__", (owner.name,)
        else:
            group = node.name if owner is not None else ".".join(self._enclosing + [node.name])
            answers = (node.name,)
        function = _Function(
            key=".".join(self._enclosing + [node.name]),
            where=self.where,
            group=group,
            answers=answers,
            factory=node.name == "__init__" and owner is not None,
            stub=_is_stub(node.body),
            positional=[(a.arg, i >= defaulted) for i, a in enumerate(positional)],
            keyword_only=[
                (a.arg, d is not None)
                for a, d in zip(arguments.kwonlyargs, arguments.kw_defaults)
            ],
            var_positional=arguments.vararg and arguments.vararg.arg,
            var_keyword=arguments.kwarg and arguments.kwarg.arg,
        )
        # A bare name -> its parameter's key (``**kwargs`` passed on as
        # ``f(kwargs)`` is that parameter's forward).
        params = {name.lstrip("*"): name for name in function.parameters()}
        forwarded: Set[int] = set()
        for statement in node.body:
            for inner in ast.walk(statement):
                if isinstance(inner, ast.Call) and _direct(inner):
                    callees = self._names(inner)
                    for index, argument in enumerate(inner.args):
                        if isinstance(argument, ast.Starred):
                            break
                        if isinstance(argument, ast.Name) and argument.id in params:
                            function.forwards.append((params[argument.id], callees, index))
                            forwarded.add(id(argument))
                    for keyword in inner.keywords:
                        value = keyword.value
                        if keyword.arg and isinstance(value, ast.Name) and value.id in params:
                            function.forwards.append(
                                (params[value.id], callees, keyword.arg)
                            )
                            forwarded.add(id(value))
                elif (
                    isinstance(inner, ast.Name)
                    and isinstance(inner.ctx, ast.Load)
                    and id(inner) not in forwarded
                ):
                    function.reads.add(inner.id)
        self.facts.functions.append(function)

    def _names(self, call: ast.Call) -> Tuple[str, ...]:
        """The callee names a call can reach (an import alias reaches both)."""
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "cls" and self._first[-1] == "cls" and self._class:
                return (self._class[-1],)
            if func.id in self._toplevel | self._imported | _BUILTINS:
                return tuple({func.id, self._aliases.get(func.id, func.id)})
            return (func.id, VARIABLE + func.id)
        if isinstance(func, ast.Attribute):
            inner = func.value
            if (
                func.attr == "__init__"
                and isinstance(inner, ast.Call)
                and getattr(inner.func, "id", None) == "super"
                and self._class
            ):
                return tuple(self.facts.bases.get(self._class[-1], ()))
            return (func.attr,)
        return ()

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._load(node.id, attribute=False)
            if id(node) in self._callees or id(node) in self._typed:
                pass
            elif node.id in self._toplevel:
                self.facts.values.add((self.where, node.id))
            else:
                self.facts.values.add(self._aliases.get(node.id, node.id))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._load(node.attr, attribute=True)
            if id(node) not in self._callees and id(node) not in self._typed:
                self.facts.values.add(node.attr)
        elif isinstance(node.value, ast.Name) and node.value.id == "self":
            if self.defines and self._class:
                self._define(f"{self._class[-1]}.{node.attr}", STATE)
        else:
            self.facts.stores.add(node.attr)
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                self.facts.keys.add(key.value)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        key = node.slice
        if (
            isinstance(node.ctx, ast.Store)
            and isinstance(key, ast.Constant)
            and isinstance(key.value, str)
        ):
            self.facts.keys.add(key.value)
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
        if getattr(node.func, "id", None) == "dict":
            self.facts.keys.update(k.arg for k in node.keywords if k.arg)
        if (
            getattr(node.func, "id", None) == "setattr"
            and len(node.args) == 3
            and isinstance(node.args[1], ast.Constant)
        ):
            self.facts.stores.add(node.args[1].value)
        self._callees.add(id(node.func))
        for name in self._names(node):
            self.facts.calls[name].add(node, self._forwarding[-1])
        self.generic_visit(node)


@dataclass
class _Facts:
    """What one pass over the tree gathers."""

    definitions: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    loads: Counter = field(default_factory=Counter)
    functions: List[_Function] = field(default_factory=list)
    #: Each dataclass's fields in order, as ``(name, defaulted)``.
    fields: Dict[str, List[Tuple[str, bool]]] = field(default_factory=dict)
    bases: Dict[str, List[str]] = field(default_factory=dict)
    #: Classes whose body defines ``__init__``.
    constructed: Set[str] = field(default_factory=set)
    calls: Dict[str, _Calls] = field(default_factory=lambda: defaultdict(_Calls))
    #: Names loaded other than as a callee: functions passed around.  A
    #: name the loading file defines at top level is ``(file, name)``.
    values: Set[object] = field(default_factory=set)
    #: Every ``def`` and ``class`` name in the scanned files.
    named: Set[str] = field(default_factory=set)
    #: Attributes stored to on anything but ``self``.
    stores: Set[str] = field(default_factory=set)
    #: String keys of the dicts the code builds: what a ``**`` spread of
    #: one can set (``NsmSpec.tcp_overrides`` sets ``TcpConfig`` fields so).
    keys: Set[str] = field(default_factory=set)


def scan(root: Path) -> Tuple[Dict[str, Tuple[str, str]], Counter]:
    """``(definitions, loads)``: each ``src/repro`` definition's key mapped
    to ``(kind, file)``, and the load counts of :class:`_Scan` (for rule
    (d), one count per parameter key that is read or set)."""
    facts = _Facts()
    for directory in SCANNED + ("tests",):
        for path in sorted((root / directory).rglob("*.py")):
            where = path.relative_to(root).as_posix()
            tree = ast.parse(path.read_text(), filename=where)
            _Scan(where, facts).visit(tree)
    _parameters(facts)
    return facts.definitions, facts.loads


def _subclasses(facts: _Facts, name: str, inherits) -> Set[str]:
    """``name`` and the classes below it whose constructor is inherited."""
    found, frontier = {name}, [name]
    while frontier:
        parent = frontier.pop()
        for child, bases in facts.bases.items():
            if parent in bases and child not in found and inherits(child):
                found.add(child)
                frontier.append(child)
    return found


def _parameters(facts: _Facts) -> None:
    """Rule (d): define each parameter key and count the live ones."""
    functions = []
    for function in facts.functions:
        name = function.key.rpartition(".")[2]
        if _dunder(name) and name != "__init__":
            continue
        if function.factory:
            owner = function.answers[0]
            function.answers = tuple(
                _subclasses(facts, owner, lambda c: c not in facts.constructed)
            )
        functions.append(function)
    reaching: Dict[str, List[_Function]] = defaultdict(list)
    for function in functions:
        for callee in function.answers:
            reaching[callee].append(function)
    # What reaches a function or class passed around as a value: every
    # call through a variable, and every spread with a callee no
    # definition answers to.  Only a callback is handed ``*args`` (a
    # scheduled call's); a class passed around is called with its
    # arguments spelled out (``cls(self.sim, RING_CAPACITY, name=name)``).
    unknown = _Calls()
    for callee, calls in facts.calls.items():
        if callee not in reaching and callee not in facts.fields:
            unknown.merge(calls)
    for callee, calls in facts.calls.items():
        if callee.startswith(VARIABLE) and callee[len(VARIABLE):] not in facts.named:
            unknown.positional = max(unknown.positional, calls.positional)
            unknown.keywords |= calls.keywords
    unknown_factory = _Calls(unknown.positional, unknown.keywords, spreads=unknown.spreads)

    def callers(answers, where: str, factory: bool) -> List[_Calls]:
        found = [facts.calls[c] for c in answers if c in facts.calls]
        if any(c in facts.values or (where, c) in facts.values for c in answers):
            found.append(unknown_factory if factory else unknown)
        return found

    # What each ``**kwargs`` can hold, to a fixpoint through forwarding.
    held: Dict[str, Set[str]] = {f.key: set() for f in functions if f.var_keyword}
    # A helper outside src/repro that passes its own ``**kwargs`` on holds
    # whatever its callers pass it.
    helpers = {
        source for calls in facts.calls.values() for source in calls.spreads
        if source and source not in held
    }
    held.update((helper, set()) for helper in helpers)

    def spread(calls: _Calls) -> Set[str]:
        keys = set()
        for source in calls.spreads:
            keys |= held[source] if source in held else facts.keys
        return keys

    changed = True
    while changed:
        changed = False
        for function in functions:
            if function.var_keyword:
                keys = set()
                for calls in callers(function.answers, function.where, function.factory):
                    keys |= calls.keywords | spread(calls)
                keys -= {name for name, _ in function.positional + function.keyword_only}
                if not keys <= held[function.key]:
                    held[function.key] |= keys
                    changed = True
        for helper in helpers:
            calls = facts.calls.get(helper.rpartition(".")[2])
            keys = calls.keywords | spread(calls) if calls else set()
            if not keys <= held[helper]:
                held[helper] |= keys
                changed = True

    def is_set(reach, name: str, index: Optional[int]) -> bool:
        return any(
            name in calls.keywords
            or (index is not None and (calls.star or index < calls.positional))
            or name in spread(calls)
            for calls in callers(*reach)
        )

    # (d1): a read, or a pass into a parameter that is read, to a fixpoint.
    read = {
        (function.group, parameter)
        for function in functions
        for parameter in function.parameters()
        if parameter.lstrip("*") in function.reads
    }
    changed = True
    while changed:
        changed = False
        for function in functions:
            for parameter, callees, slot in function.forwards:
                if (function.group, parameter) in read:
                    continue
                targets = [f for c in callees for f in reaching.get(c, ())]
                if not targets or any((f.group, f.slot(slot)) in read for f in targets):
                    read.add((function.group, parameter))
                    changed = True
    for function in functions:
        if not function.stub:
            for parameter in function.parameters():
                if not parameter.lstrip("*").startswith("_"):
                    key = f"{function.key}({parameter})"
                    facts.definitions.setdefault(key, (READ, function.where))
                    facts.loads[READ, key] += (function.group, parameter) in read
        # (d2): a defaulted parameter or ``**kwargs`` some call sets.
        reach = (function.answers, function.where, function.factory)
        settable = [(p, i) for i, (p, d) in enumerate(function.positional) if d]
        settable += [(p, None) for p, d in function.keyword_only if d]
        for parameter, index in settable:
            key = f"{function.key}({parameter}=)"
            facts.definitions.setdefault(key, (SET, function.where))
            facts.loads[SET, key] += is_set(reach, parameter, index)
        if function.var_keyword:
            key = f"{function.key}(**{function.var_keyword}=)"
            facts.definitions.setdefault(key, (SET, function.where))
            facts.loads[SET, key] += bool(held[function.key])
    for owner, fields in facts.fields.items():
        answers = _subclasses(
            facts, owner, lambda c: c in facts.fields or c not in facts.constructed
        )
        where = facts.definitions[owner][1]
        for index, (name, defaulted) in enumerate(fields):
            if defaulted:
                key = f"{owner}({name}=)"
                facts.definitions.setdefault(key, (SET, where))
                facts.loads[SET, key] += name in facts.stores or name in facts.keys or (
                    is_set((answers, where, True), name, index)
                )


def census(root: Path, allowlist: Dict[str, str]) -> Dict[str, str]:
    """Verdict per definition or allowlisted key: ``referenced``,
    ``allowlisted``, ``dead`` (no reader, not allowlisted) or ``stale``
    (allowlisted, but no longer defined or now read)."""
    return _verdicts(*scan(root), allowlist)


def _verdicts(definitions, loads: Counter, allowlist: Dict[str, str]) -> Dict[str, str]:
    verdicts = {}
    for key, (kind, _) in definitions.items():
        if loads[kind, key if kind in (READ, SET) else key.rpartition(".")[2]]:
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
        "        pass\n"
        "def scale(x, unread, factor=2, spare=3):\n"
        "    return x * factor * spare\n"
        "def relay(x, now):\n"
        "    return scale(x, now)  # passing ``now`` on to an unread slot\n"
        "def pack(**fields):\n"
        "    return relay(fields, 0)  # passing ``**fields`` on to a read slot\n"
        "def drop(**fields):\n"
        "    return 0\n"
        "class Base:\n"
        "    def hook(self, event):\n"
        "        return None  # ignores it, but Impl.hook reads it\n"
        "class Impl(Base):\n"
        "    def hook(self, event):\n"
        "        return event\n",
    )
    _write(
        tmp_path / "examples" / "demo.py",
        "from repro import used, Box\n"
        "used()\n"
        "Box().used_method()\n"
        'getattr(Box(), "by_name")()\n'
        "from repro.mod import Base, Impl, drop, pack, relay, scale\n"
        "scale(1, 2, factor=3)\n"
        "relay(1, 2)\n"
        "pack(a=1)\n"
        "drop(a=1)\n"
        "for shape in (Base(), Impl()):\n"
        "    shape.hook(0)\n",
    )
    _write(
        tmp_path / "tests" / "test_mod.py",
        "from repro import dead, Box\n"
        "dead()\n"
        "Box().dead_method()\n"
        "assert Box().tested == 0\n",
    )
    allowlist = {
        "waiting": "a caller to come",
        "gone": "a name nobody defines",
        "scale(x)": "a parameter that has since gained a reader",
        "scale(removed=)": "a knob since deleted",
    }
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
        # Rule (d1): every parameter is read, by its body or an override's.
        "scale": "referenced",
        "scale(x)": "stale",
        "scale(unread)": "dead",
        "scale(factor)": "referenced",
        "scale(spare)": "referenced",
        "relay": "referenced",
        "relay(x)": "referenced",
        "relay(now)": "dead",
        "pack": "referenced",
        "pack(**fields)": "referenced",
        "drop": "referenced",
        "drop(**fields)": "dead",
        "Base": "referenced",
        "Impl": "referenced",
        "Base.hook": "referenced",
        "Impl.hook": "referenced",
        "Base.hook(event)": "referenced",
        "Impl.hook(event)": "referenced",
        # Rule (d2): every default is passed by some call.
        "scale(factor=)": "referenced",
        "scale(spare=)": "dead",
        "pack(**fields=)": "referenced",
        "drop(**fields=)": "referenced",
        "scale(removed=)": "stale",
    }
    # An allowlisted name that gains a caller is stale as well.
    assert census(tmp_path, {"used": "a caller to come"})["used"] == "stale"
