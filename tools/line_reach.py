"""Print the functions under ``src/`` that no reference pipeline enters.

Usage:
    python tools/line_reach.py

Runs every pipeline of ``compare_pipelines.py`` (``PIPELINES``, each stage
from ``stages()``) in this process through ``cli.main``, each in a fresh
temporary directory, under a ``sys.settrace`` hook that records the code of
every function call. Then compiles each module under this checkout's
``src/`` and prints every function, method and nested function that no
pipeline entered, as ``path:line qualname``, after one line per pipeline
with its stages' exit codes. Lambdas, comprehensions and class bodies (which
run at import) are not counted. Standard library only, besides the package.
"""

import contextlib
import inspect
import io
import os
import sys
import tempfile
import types

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads
sys.path.insert(0, SRC)

import compare_pipelines  # noqa: E402 (tools/ is sys.path[0] when run as a script)
from grashof_expand import cli  # noqa: E402


def defined(path):
    """(line, name, qualname) of every def in the module file ``path``."""
    with open(path) as fh:
        todo, out = [compile(fh.read(), path, "exec")], set()
    while todo:
        for const in todo.pop().co_consts:
            if isinstance(const, types.CodeType):
                todo.append(const)
                # a class body is not optimized, and lambdas and comprehensions are <named>
                if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                    qualname = getattr(const, "co_qualname", const.co_name)
                    out.add((const.co_firstlineno, const.co_name, qualname))
    return out


def run_pipelines():
    """The code objects every pipeline entered, and each pipeline's exit codes."""
    entered, codes = set(), {}

    def trace(frame, event, arg):
        entered.add(frame.f_code)  # "call" is the only event a global hook sees

    home = os.getcwd()
    for name in compare_pipelines.PIPELINES:
        with tempfile.TemporaryDirectory() as root:
            os.chdir(root)
            sink = io.StringIO()
            sys.settrace(trace)
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    codes[name] = [cli.main(argv) for argv in compare_pipelines.stages(name)]
            finally:
                sys.settrace(None)
                os.chdir(home)
    return entered, codes


def main():
    entered, codes = run_pipelines()
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in entered}
    missed, total = [], 0
    for base, _, files in sorted(os.walk(os.path.join(SRC, "grashof_expand"))):
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.realpath(os.path.join(base, f))
                defs = sorted(defined(path))
                total += len(defs)
                missed += [f"{os.path.relpath(path, SRC)}:{line} {qualname}"
                           for line, name, qualname in defs if (path, line, name) not in reached]
    for name, exits in codes.items():
        print(f"== {name}: exit codes {' '.join(map(str, exits))}")
    print(f"{total - len(missed)} of {total} functions entered; not entered:")
    print("\n".join(missed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
