"""Fluid state has one home: the fidelity controller (``repro.sim.fluid``).

The NetKernel datapath (GuestLib, CoreEngine, ServiceLib) and the network
layer have no notion of simulation fidelity: where they meet it they make
one call on ``sim.fidelity``.  A TCP connection carries one fluid slot,
which only the controller reads.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro
from repro.tcp.connection import TcpConnection

SRC = Path(repro.__file__).parent


def _names(tree: ast.AST):
    """Every identifier a module defines or reads, and its string constants
    (``getattr(obj, "name")`` reads an attribute too)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_netkernel_and_net_know_no_fluid_state():
    found = []
    for package in ("netkernel", "net"):
        for path in sorted((SRC / package).glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found.extend(
                f"{package}/{path.name}: {name!r}"
                for name in _names(tree)
                if "fluid" in name.lower()
            )
    assert found == []


def test_tcp_connection_has_one_fluid_slot():
    assert [s for s in TcpConnection.__slots__ if s.startswith("_fluid")] == [
        "_fluid"
    ]
