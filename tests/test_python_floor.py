"""The sources compile on the oldest Python that ``pyproject.toml`` allows.

The suite itself runs on one interpreter; syntax of a later Python would
pass it unseen.  This test hands every ``.py`` file of ``src/``, ``tests/``
and ``perfbench/`` to a Python 3.10 interpreter, which only compiles them:
nothing is imported there, so it needs no numpy, and ``compile()`` writes
no ``.pyc``.
"""

import os
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)

# compile each file named on stdin, one a line; print each SyntaxError
COMPILE_ALL = """
import sys
for path in sys.stdin.read().splitlines():
    with open(path, encoding="utf-8") as src:
        text = src.read()
    try:
        compile(text, path, "exec", dont_inherit=True)
    except SyntaxError as err:
        print("%s:%s: %s" % (path, err.lineno, err.msg))
"""


def runs_as_floor(exe):
    """Whether ``exe`` starts and is a Python of the ``FLOOR`` version (a
    version manager's shim can be on PATH without the version behind it)."""
    try:
        done = subprocess.run(
            [exe, "-I", "-c", "import sys; print(sys.version_info[:2])"],
            capture_output=True, text=True, timeout=60)
    except OSError:
        return False
    return done.returncode == 0 and done.stdout.strip() == str(FLOOR)


def floor_interpreter():
    """A Python 3.10 executable: ``python3.10`` on PATH, else one under the
    pyenv root (``$PYENV_ROOT``, by default ``~/.pyenv``); None if there is
    none that runs."""
    name = "python%d.%d" % FLOOR
    candidates = [shutil.which(name)]
    pyenv = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    candidates += sorted(pyenv.glob("versions/%d.%d.*/bin/python" % FLOOR),
                         reverse=True)
    return next((str(exe) for exe in candidates
                 if exe and runs_as_floor(str(exe))), None)


def test_sources_compile_on_the_python_floor():
    exe = floor_interpreter()
    if exe is None:
        pytest.skip("no Python %d.%d interpreter found (python%d.%d on PATH "
                    "or under the pyenv root), so the sources were not "
                    "compiled on the floor version" % (FLOOR * 2))
    files = sorted(str(path) for part in ("src", "tests", "perfbench")
                   for path in (ROOT / part).rglob("*.py"))
    assert len(files) > 20
    done = subprocess.run([exe, "-I", "-B", "-c", COMPILE_ALL],
                          input="\n".join(files), capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "", "Python %d.%d cannot compile:\n%s" % (
        *FLOOR, done.stdout)
