"""Every test that DESIGN.md and README.md cite still exists.

The docs cite tests as ``tests/<path>.py`` or
``tests/<path>.py::Name[::Name]``, so a renamed or deleted test would
leave a stale citation behind.  Each cited file must exist, and each
``::`` segment must name a class, function or assignment at its level.
The names are found with :mod:`ast`, so no test module is imported.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DOCS = ("DESIGN.md", "README.md")

#: A cited test file, then any ``::``-separated names inside it; a
#: parametrised id's ``[...]`` is left out.
CITATION = re.compile(r"tests/[\w/]+\.py(?:::\w+)*")


def cited(doc):
    """The distinct test citations in ``doc``, sorted."""
    return sorted(set(CITATION.findall((ROOT / doc).read_text())))


def defined_names(body):
    """Classes, functions and assigned names defined by ``body``."""
    names = {}
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            names[node.name] = node.body
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update((target.id, []) for target in targets
                         if isinstance(target, ast.Name))
    return names


def resolves(citation):
    """Whether the file and every name of ``citation`` exist."""
    path, *segments = citation.split("::")
    source = ROOT / path
    if not source.is_file():
        return False
    body = ast.parse(source.read_text(), filename=str(source)).body
    for segment in segments:
        names = defined_names(body)
        if segment not in names:
            return False
        body = names[segment]
    return True


def test_every_cited_test_resolves():
    citations = {doc: cited(doc) for doc in DOCS}
    assert all(citations.values()), "a doc cites no test: is CITATION stale?"
    unresolved = [f"{doc}: {citation}"
                  for doc, found in citations.items()
                  for citation in found if not resolves(citation)]
    assert unresolved == []
