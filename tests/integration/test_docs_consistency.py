r"""Docs-consistency check: every identifier docs/API.md names must exist.

docs/API.md is a promise about the public surface; this test keeps it
honest.  Every backticked item is resolved against the module(s) named by
its section header (or, for table rows, a ``repro.*`` path on the same
line) — a renamed or deleted function fails the tier-1 run with a list of
dangling references.

Parsing rules (shared with the doc's house style):

* ``## repro.x — …`` headers set the module context for the section;
  headers naming several modules (``repro.a / repro.b``) try each.
* A ``repro.*`` path anywhere on a line adds line-local context (with
  all its dotted prefixes), so per-row module tables (the Extensions
  section) and internals paragraphs resolve too.
* Inside backticks, text after ``(`` is dropped (signatures), ``/``
  separates alternatives, and dotted names resolve as attribute chains.
* A bare name may also resolve as an attribute of anything named in an
  earlier backtick on the same line (``\`RSCode\` … \`encode\``), the
  house style for method lists.
* Chunks that are not Python identifiers (shell commands, flags, file
  names) are ignored, as is everything in CLI-labelled sections.

The CLI section is checked the other way round: its verb table is a
function of ``build_parser()`` (:func:`cli_table`), so every verb and
flag is documented and every documented one exists.  After changing a
verb or flag, ``python tests/integration/test_docs_consistency.py``
rewrites the table.
"""

import argparse
import importlib
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

API = Path(__file__).resolve().parents[2] / "docs" / "API.md"
CLI_TABLE_BEGIN = (
    "<!-- cli-table:begin (generated, see tests/integration/test_docs_consistency.py) -->"
)
CLI_TABLE_END = "<!-- cli-table:end -->"

_MODULE_RE = re.compile(r"repro(?:\.\w+)+|^repro$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


def _module_paths(text: str) -> list[str]:
    return re.findall(r"\brepro(?:\.\w+)*\b", text)


def _candidate_names(chunk: str) -> list[str]:
    """Backtick content -> identifier candidates (or [] for non-code)."""
    chunk = chunk.split("(")[0]
    if ".md" in chunk:
        return []  # file reference (`docs/ARCHITECTURE.md`), not an API item
    names = []
    for part in chunk.split("/"):
        part = part.strip().rstrip(".")
        if part and _IDENT_RE.fullmatch(part):
            names.append(part)
        elif part:
            return []  # e.g. shell fragments: skip the whole chunk
    return names


def _attr_chain(obj, name: str):
    """Follow ``a.b.c`` through attributes; (found, value)."""
    for attr in name.split("."):
        if not hasattr(obj, attr):
            return False, None
        obj = getattr(obj, attr)
    return True, obj


def _resolve_object(name: str, modules: list[str]):
    """(found, object) for ``name`` via import or attr chains in ``modules``."""
    if name.startswith("repro"):
        try:
            return True, importlib.import_module(name)
        except ImportError:
            parts = name.rsplit(".", 1)
            if len(parts) == 2:
                try:
                    mod = importlib.import_module(parts[0])
                    return _attr_chain(mod, parts[1])
                except ImportError:
                    return False, None
            return False, None
    for module_path in modules:
        try:
            mod = importlib.import_module(module_path)
        except ImportError:
            continue
        found, obj = _attr_chain(mod, name)
        if found:
            return True, obj
    return False, None


def _resolve(name: str, modules: list[str], anchors=()) -> bool:
    """Can ``name`` be found in ``modules`` or on a same-line anchor object?"""
    found, _ = _resolve_object(name, modules)
    if found:
        return True
    for anchor in anchors:
        ok, _ = _attr_chain(anchor, name)
        if ok:
            return True
    return False


def _prefixes(module_path: str) -> list[str]:
    """``repro.a.b`` -> [``repro.a.b``, ``repro.a``] (deepest first)."""
    parts = module_path.split(".")
    return [".".join(parts[:i]) for i in range(len(parts), 1, -1)]


def api_references() -> list[tuple[str, list[str], tuple, int]]:
    """(name, candidate modules, same-line anchors, line no) per item."""
    refs = []
    section_modules: list[str] = ["repro"]
    in_cli = False
    for lineno, line in enumerate(API.read_text().splitlines(), start=1):
        if line.startswith("##"):
            section_modules = _module_paths(line) or ["repro"]
            in_cli = "CLI" in line
            continue
        if in_cli:
            continue
        line_modules = [
            p
            for m in _module_paths(line)
            if m != "repro"
            for p in _prefixes(m)
        ]
        context = line_modules + section_modules + ["repro"]
        anchors = []
        for chunk in re.findall(r"`([^`]+)`", line):
            for name in _candidate_names(chunk):
                refs.append((name, context, tuple(anchors), lineno))
                found, obj = _resolve_object(name, context)
                if found and obj is not None:
                    anchors.append(obj)
    return refs


class TestApiDocsConsistency:
    def test_api_md_has_no_dangling_references(self):
        refs = api_references()
        assert len(refs) > 80, "API.md parse produced suspiciously few items"
        dangling = [
            f"docs/API.md:{lineno}: `{name}` (tried {modules})"
            for name, modules, anchors, lineno in refs
            if not _resolve(name, modules, anchors)
        ]
        assert not dangling, "dangling API references:\n" + "\n".join(dangling)

    def test_checker_catches_fakes(self):
        """The checker itself must not be vacuous."""
        assert not _resolve("definitely_not_a_thing", ["repro.sim"])
        assert not _resolve("repro.no_such_module", [])
        assert _resolve("RunTrace.from_telemetry", ["repro.telemetry"])
        assert not _resolve("RunTrace", ["repro.sim"])
        assert _resolve("repro.telemetry.view", [])
        assert not _resolve("repro.sim.tracing", [])
        from repro.rs import RSCode

        assert _resolve("encode", [], anchors=(RSCode,))
        assert not _resolve("decode_nothing", [], anchors=(RSCode,))


class TestObservabilityDoc:
    def test_observability_doc_exists_and_names_the_layer(self):
        doc = API.parent / "OBSERVABILITY.md"
        assert doc.exists(), "docs/OBSERVABILITY.md is missing"
        text = doc.read_text()
        for needle in ("RunTrace", "critical path", "to_jsonl", "rpr trace"):
            assert needle in text, f"OBSERVABILITY.md lost its {needle!r} coverage"

    @pytest.mark.parametrize(
        "name", ["RunTrace", "ResourceUsage", "PathSegment", "render_report"]
    )
    def test_documented_tracing_api_exists(self, name):
        import repro.telemetry.view as view

        assert hasattr(view, name)


def _usage(action: argparse.Action) -> str:
    """One flag or positional, the way a usage line spells it."""
    if isinstance(action, argparse.BooleanOptionalAction):
        return "[" + "/".join(action.option_strings) + "]"
    if action.choices:
        value = "{" + ",".join(map(str, action.choices)) + "}"
    else:
        value = action.metavar or action.dest.upper()
    if not action.option_strings:
        return f"[{value} ...]" if action.nargs == "*" else value
    if action.nargs == 0:
        return f"[{action.option_strings[0]}]"
    return f"[{action.option_strings[0]} {value}]"


def cli_table(parser=None, words="rpr", what="") -> list[str]:
    """One Markdown table row per leaf verb of the parser tree."""
    parser = parser or build_parser()
    actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
    subparsers = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    words = " ".join([words, *(_usage(a) for a in actions if a not in subparsers)])
    if not subparsers:
        return [f"| `{words}` | {what} |"]
    helps = {c.dest: c.help for c in subparsers[0]._choices_actions}
    return [
        row
        for name, sub in subparsers[0].choices.items()
        for row in cli_table(sub, f"{words} {name}", helps[name])
    ]


def cli_section() -> str:
    return "\n".join(
        [CLI_TABLE_BEGIN, "| invocation | what it does |", "|---|---|", *cli_table(), CLI_TABLE_END]
    )


class TestCliDocs:
    def test_cli_table_is_the_parser(self):
        text = API.read_text()
        begin, end = text.index(CLI_TABLE_BEGIN), text.index(CLI_TABLE_END) + len(CLI_TABLE_END)
        assert text[begin:end] == cli_section(), (
            "docs/API.md CLI table differs from build_parser(); regenerate with "
            "`python tests/integration/test_docs_consistency.py`"
        )

    def test_every_verb_and_flag_is_in_the_table(self):
        """Not vacuous: the table names nested verbs, inherited and
        negatable flags, positionals and choices."""
        section = cli_section()
        for needle in (
            "`rpr store [--dir DIR] up [--racks RACKS]",
            "`rpr store [--dir DIR] get NAME [--out OUT] [--degraded/--no-degraded] [--json]`",
            "`rpr telemetry {report,diff,export,assemble} [PATHS ...]",
            "[--testbed {simics,ec2}]",
            "`rpr list`",
        ):
            assert needle in section, needle


if __name__ == "__main__":
    text = API.read_text()
    begin, end = text.index(CLI_TABLE_BEGIN), text.index(CLI_TABLE_END) + len(CLI_TABLE_END)
    API.write_text(text[:begin] + cli_section() + text[end:])
