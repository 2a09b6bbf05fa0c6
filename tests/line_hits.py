"""List the package statements that the Tier-1 suite never executes.

Runs the suite in this process under a ``sys.settrace`` line-hit counter
(no coverage package needed) and prints, for each module of
``src/matchgames``, every line that holds code and never ran, with its
source:

    python tests/line_hits.py              # every module
    python tests/line_hits.py lp core      # only lp.py and core.py
    python tests/line_hits.py lp -- tests/test_lp.py -q

Arguments after ``--`` go to pytest instead of the Tier-1 run of the whole
``tests`` directory.  Tracing slows the suite several times over; naming
modules traces only their files.  The file name keeps pytest from
collecting it.  Exits with pytest's status.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "matchgames")


def code_lines(path):
    """Every line of ``path`` that holds bytecode, in any of its code objects."""
    with open(path, encoding="utf-8") as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def ranges(lines):
    """"3, 7-9" for [3, 7, 8, 9]."""
    spans = []
    for line in sorted(lines):
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv):
    split = argv.index("--") if "--" in argv else len(argv)
    wanted, pytest_args = {m.removesuffix(".py") for m in argv[:split]}, argv[split + 1:]
    names = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    unknown = wanted - {f[:-3] for f in names}
    if unknown:
        sys.exit(f"no module {', '.join(sorted(unknown))} in {PACKAGE}")
    if wanted:
        names = [f for f in names if f[:-3] in wanted]
    watched = {os.path.join(PACKAGE, f): set() for f in names}
    resolved = {}  # co_filename -> its hit set, or None when not watched

    def hits_of(code):
        filename = code.co_filename
        if filename not in resolved:
            resolved[filename] = watched.get(os.path.abspath(filename))
        return resolved[filename]

    def local(frame, event, arg):
        if event == "line":
            hits_of(frame.f_code).add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if hits_of(frame.f_code) is not None else None

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    os.chdir(ROOT)
    import pytest

    sys.settrace(on_call)
    try:
        status = pytest.main(pytest_args or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                                             "tests"])
    finally:
        sys.settrace(None)

    for path, hit in watched.items():
        lines = code_lines(path)
        missed = lines - hit
        print(f"{os.path.relpath(path, ROOT)}: {len(missed)} of {len(lines)} code lines never run"
              + (f": {ranges(missed)}" if missed else ""))
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        for line in sorted(missed):
            print(f"  {line:5d}  {source[line - 1].strip()}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
