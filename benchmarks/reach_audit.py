"""Reach audit: the ``src/repro`` functions that no product path calls.

Runs the product's entry points in subprocesses with a profiler hook
installed through a temporary ``sitecustomize.py`` (``sys.setprofile``
for the main thread, ``threading.setprofile`` for every thread started
later), collects the code objects of every called function under
``src/``, then walks ``src/repro`` with :mod:`ast` and prints each
function that was never called, with its line count, plus a total.

The entry points are the examples, a fixed list of CLI commands, the
four paper figures and the 3k-fact cold probe; ``--ledger-seconds N``
adds a run of every ledger workload (``benchmarks/ledger/run.py
--seconds N``, which also starts and stops the service)::

    python benchmarks/reach_audit.py [--ledger-seconds 3]

A listed function must get a product caller, move into ``tests/``, or
be deleted — or be a deliberate keep (an error path, a supported
aggregate no product measure uses, a ledger layer target).  The audit
is a measurement: it exits 0 even when an entry point fails, and says
so in the report.  About a minute without the ledger on a 2-core box.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

HOOK = '''\
import atexit
import os
import sys
import threading

_SRC = {src!r}
_OUT = {out!r}
_ids = set()
_codes = []


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _ids:
            _ids.add(id(code))
            _codes.append(code)  # keeps the id from being reused


def _dump():
    sys.setprofile(None)
    path = os.path.join(_OUT, "reach-%d.txt" % os.getpid())
    with open(path, "a") as out:
        for code in _codes:
            if code.co_filename.startswith(_SRC):
                out.write("%s\\t%d\\n" % (code.co_filename,
                                          code.co_firstlineno))


atexit.register(_dump)
sys.setprofile(_hook)
threading.setprofile(_hook)
'''
"""The hook.  ``_SRC`` is absolute, so a child that changes directory
still matches its frames; a process that leaves through ``os._exit``
records nothing."""


def entry_points(scratch: Path, ledger_seconds: float = 0) -> list[list[str]]:
    """The command lines the audit runs (each from the checkout root)."""
    python = sys.executable
    repro = [python, "-m", "repro"]
    commands = [[python, str(path)]
                for path in sorted((ROOT / "examples").glob("*.py"))]
    commands += [
        [*repro, "--facts", "2000", "query", "Road Bikes"],
        [*repro, "--facts", "2000", "explore", "Road Bikes", "--stats"],
        [*repro, "--facts", "2000", "--backend", "sqlite", "--resilient",
         "explore", "Road Bikes", "--stats"],
        [*repro, "--facts", "2000", "--trace-out",
         str(scratch / "trace.json"), "explore", "Sydney"],
        [*repro, "--facts", "2000", "sql", "Road Bikes"],
        [*repro, "--warehouse", "online", "--facts", "2000", "explain",
         "Mountain Bikes 2003", "--json"],
        [*repro, "--facts", "1000", "--warehouse", "ebiz", "explore",
         "Columbus LCD"],
        [*repro, "--seed", "9", "warehouse", "generate", "--scale", "5000",
         "--out", str(scratch / "scale.db")],
    ]
    commands += [[*repro, "--facts", "2000", "experiment", figure]
                 for figure in ("figure4", "figure5", "figure6",
                                "figure7")]
    commands.append([python, str(ROOT / "benchmarks" / "cold_probe.py"),
                     "--facts", "3000"])
    if ledger_seconds:
        commands.append([python, str(ROOT / "benchmarks" / "ledger" /
                                     "run.py"),
                         "--seconds", str(ledger_seconds)])
    return commands


@dataclass(frozen=True)
class Function:
    """One ``def`` under ``src/repro``."""

    path: str        # relative to the checkout root
    line: int        # first line: the first decorator's, else the def's
    name: str        # dotted qualified name inside the module
    lines: int


def _defs(node, prefix: str = ""):
    """``(def node, dotted name)`` for every function nested in ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child, prefix + child.name
            yield from _defs(child, prefix + child.name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, prefix + child.name + ".")
        else:
            yield from _defs(child, prefix)


def functions() -> list[Function]:
    """Every function and method defined under ``src/repro``."""
    found: list[Function] = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        relative = str(path.relative_to(ROOT))
        for node, name in _defs(ast.parse(path.read_text(), str(path))):
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            found.append(Function(relative, first, name,
                                  node.end_lineno - first + 1))
    return found


@dataclass
class Report:
    """What the audit saw: the functions and which of them ran."""

    defined: list[Function]
    reached: set[tuple[str, int]]
    failures: list[tuple[list[str], int]]

    @property
    def unreached(self) -> list[Function]:
        return [f for f in self.defined
                if (str(ROOT / f.path), f.line) not in self.reached]

    def render(self) -> str:
        missed = self.unreached
        out = [f"{f.path}:{f.line}  {f.name}  {f.lines} lines"
               for f in missed]
        for command, code in self.failures:
            out.append(f"entry point exited {code}: {' '.join(command)}")
        out.append(
            f"unreached: {len(missed)} of {len(self.defined)} functions, "
            f"{sum(f.lines for f in missed)} of "
            f"{sum(f.lines for f in self.defined)} lines")
        return "\n".join(out)


def audit(commands: list[list[str]], scratch: Path) -> Report:
    """Run each command with the hook installed and collect the reach."""
    hook_dir, records = scratch / "hook", scratch / "records"
    hook_dir.mkdir(parents=True, exist_ok=True)
    records.mkdir(exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(
        HOOK.format(src=str(SRC) + os.sep, out=str(records)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), str(SRC)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    failures = []
    for command in commands:
        # no stdin: examples/interactive_session.py reads commands
        # from it until end of file
        done = subprocess.run(command, cwd=ROOT, env=env,
                              stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        if done.returncode != 0:
            failures.append((command, done.returncode))
    reached: set[tuple[str, int]] = set()
    for record in records.glob("reach-*.txt"):
        for row in record.read_text().splitlines():
            path, line = row.rsplit("\t", 1)
            reached.add((path, int(line)))
    return Report(functions(), reached, failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ledger-seconds", type=float, default=0,
                        help="also run every ledger workload for this "
                             "many seconds each (default 0: no ledger)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reach-audit-") as scratch:
        report = audit(entry_points(Path(scratch), args.ledger_seconds),
                       Path(scratch))
    print(report.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
