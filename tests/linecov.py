"""Line-coverage gate for src/subexp, standard library only.

Run as PYTHONPATH=src:tests python -m pytest -p linecov.  Every line of
src/subexp that holds code must run, or be listed in linecov_allow.txt as
"file :: source line :: reason"; the run fails on an unrun line that is
not listed, and on a listed line that runs.
"""

import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "subexp"
ALLOW = Path(__file__).with_name("linecov_allow.txt")
_hit = {}  # resolved path -> lines hit
_files = {}  # co_filename -> its set in _hit, or None outside SRC


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _files:
        path = Path(name).resolve()
        _files[name] = _hit.setdefault(path, set()) if path.parent == SRC else None
    hit = _files[name]
    if hit is None:
        return None
    hit.add(frame.f_lineno)  # a call: co_lines() gives the def line too

    def line(frame, event, arg):
        if event == "line":
            hit.add(frame.f_lineno)
        return line

    return line


sys.settrace(_trace)
threading.settrace(_trace)


def _code_lines(code):
    yield from (line for *_, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_lines(const)


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    allow = {}
    for entry in ALLOW.read_text(encoding="utf-8").splitlines():
        if entry.strip() and not entry.startswith("#"):
            file, source, reason = (f.strip() for f in entry.split(" :: "))
            assert reason, f"{ALLOW.name}: no reason given in {entry!r}"
            allow[file, source] = False
    problems = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        unrun = set(_code_lines(compile(text, str(path), "exec"))) - _hit.get(path, set())
        for n in sorted(unrun):
            key = (path.name, lines[n - 1].strip())
            if key in allow:
                allow[key] = True
            else:
                problems.append(f"{path.name}:{n}: never ran: {key[1]}")
    for (file, source), unrun in allow.items():
        if not unrun:
            problems.append(f"{ALLOW.name}: ran, so drop it: {file} :: {source}")
    writer = session.config.pluginmanager.get_plugin("terminalreporter")
    for problem in problems:
        writer.line(f"linecov: {problem}")
    if problems:
        session.exitstatus = 1
