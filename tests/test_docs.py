"""The docs cite files that exist.

Every ``dir/module.py`` and ``module.py:N`` in DESIGN.md, README.md and
docs/ARCHITECTURE.md names a file of the tree, and ``N`` (when given) is
no larger than that file's line count.  A path with a directory resolves
from the repository root, ``src/`` or ``src/repro/``; a bare module name
with a line number, from any file of that name under ``src/``,
``tests/``, ``benchmarks/`` or ``examples/``.  A module since deleted is
told as history ("the wheel module then in ``sim/``"), not cited.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("DESIGN.md", "README.md", "docs/ARCHITECTURE.md")

#: ``dir/module.py`` or ``module.py:N``, each with an optional ``:N``.
CITATION = re.compile(r"(?<![\w./-])((?:[\w.-]+/)+\w+\.py|\w+\.py(?=:\d))(?::(\d+))?")


def _files(path: str):
    if "/" in path:
        found = [ROOT / base / path for base in ("", "src", "src/repro")]
    else:
        found = [
            hit for tree in ("src", "tests", "benchmarks", "examples")
            for hit in (ROOT / tree).rglob(path)
        ]
    return [candidate for candidate in found if candidate.is_file()]


def unresolved(doc: str, text: str):
    """``doc:line citation`` for each citation in ``text`` no file answers."""
    bad = []
    for number, line in enumerate(text.splitlines(), 1):
        for match in CITATION.finditer(line):
            path, cited_line = match.groups()
            files = _files(path)
            if cited_line is not None:
                files = [
                    f for f in files
                    if int(cited_line) <= len(f.read_text().splitlines())
                ]
            if not files:
                bad.append(f"{doc}:{number} {match.group(0)}")
    return bad


def test_every_cited_module_exists_and_every_cited_line_is_inside_it():
    texts = {doc: (ROOT / doc).read_text() for doc in DOCS}
    cited = sum(len(CITATION.findall(text)) for text in texts.values())
    assert cited >= 50  # the pattern still finds the docs' citations
    assert [bad for doc, text in texts.items() for bad in unresolved(doc, text)] == []


@pytest.mark.parametrize(
    "text, bad",
    [
        ("see `tcp/stack.py` and `tests/test_docs.py`", []),
        ("the queue lived in `sim/wheel.py`", ["x.md:1 sim/wheel.py"]),
        ("`engine.py:1` is fine", []),
        ("`engine.py:100000` is past the end", ["x.md:1 engine.py:100000"]),
        ("`repro/experiments/chaos.py:3`", []),
        ("a bare `wheel.py` is a name, not a citation", []),
    ],
)
def test_a_missing_module_or_a_line_past_the_end_is_reported(text, bad):
    assert unresolved("x.md", text) == bad
