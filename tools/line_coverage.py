"""Print every statement of ``src/cybag/`` that the tier-1 tests never run.

A stdlib-only stand-in for coverage.py: it runs the test suite in this
process under a ``sys.settrace`` line tracer that records lines only in
frames whose code lives in ``src/cybag/``. A statement ran when a line of
its header (its whole extent, for a simple statement) produced a line
event. Docstrings, other constant expressions and ``global``/``nonlocal``
compile to no code and are never listed.

Code that runs in a subprocess (the CLI tests that start ``python -m
cybag``) is not traced. The deep-chain tests are left out: they only
start such subprocesses, and building their 10^5-node input under the
tracer takes minutes. The scaling-shape test is left out too: it asserts
a slope fitted to wall times, which the tracer slows about tenfold and
makes noisy enough to fail now and then, and the lines it runs are run
by other tests as well. Both still run in the untraced suite. The suite
takes two to three times as long as without the tracer.

It exits 1 when a statement that never ran is not in :data:`ALLOWED`, or
when an entry of :data:`ALLOWED` no longer names a statement that never
ran, and with pytest's exit code when the suite itself fails. Run from
anywhere:

    python tools/line_coverage.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cybag"

# Statements the traced suite cannot run, as (file, first line stripped),
# so that edits elsewhere in a file do not move them.
ALLOWED = {
    # `python -m cybag` runs only in the CLI tests' subprocesses
    ("src/cybag/__main__.py", "from .cli import main"),
    ("src/cybag/__main__.py", 'if __name__ == "__main__":'),
    ("src/cybag/__main__.py", "main()"),
    # cli.main ends the process, so only subprocesses run it and its guard
    ("src/cybag/cli.py", "code = run(sys.argv[1:])"),
    ("src/cybag/cli.py", "gc.freeze()"),
    ("src/cybag/cli.py", "sys.exit(code)"),
    ("src/cybag/cli.py", "main()"),
}


def statement_spans(path: Path) -> list[tuple[int, int]]:
    """(first, last) line of every statement that compiles to code; for a
    compound statement only its header, decorators included."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        spans.append((first, max(first, last)))
    return sorted(spans)


def run_traced(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``argv`` under the tracer; return its exit code and
    the lines that ran, per file under the package."""
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}
    local_tracers = {}

    def local_for(filename: str):
        lines = ran.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        local = local_tracers.get(filename)
        if local is None:
            local = local_tracers[filename] = local_for(filename)
        return local

    sys.settrace(tracer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
    return int(code), ran


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    code, ran = run_traced(
        ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "--rootdir",
         str(ROOT), "-k", "not deep_chain and not scaling_shape", str(ROOT / "tests")]
    )
    total, missed = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        name = path.relative_to(ROOT).as_posix()
        for first, last in statement_spans(path):
            total += 1
            if not any(line in lines for line in range(first, last + 1)):
                entry = (name, source[first - 1].strip())
                missed.append(entry)
                print(f"{name}:{first}: {entry[1]}" + ("" if entry in ALLOWED else "  [not allowed]"))
    unexpected = [entry for entry in missed if entry not in ALLOWED]
    stale = sorted(ALLOWED - set(missed))
    for name, text in stale:
        print(f"{name}: {text}  [allowed, but it ran or is gone]")
    print(f"{len(missed)} of {total} statements in {PACKAGE.relative_to(ROOT)} never ran, "
          f"{len(unexpected)} of them not allowed (pytest exit code {code})")
    return code or int(bool(unexpected or stale))


if __name__ == "__main__":
    sys.exit(main())
