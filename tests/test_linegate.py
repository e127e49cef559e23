"""The line gate (`tests/linegate.py`) on a throwaway package, so that a
gate that records nothing, starts after a conftest has imported the
package, or misses the lines that run on other threads fails here."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

MODULE = '''\
import threading


def used(x):
    return x + 1


def unused(x):
    return x - 1


def on_thread(out):
    out.append(threading.current_thread().name)
'''

TEST = '''\
import threading

from stagepipe.mod import on_thread, used


def test_runs_two_of_the_three_functions():
    out = []
    thread = threading.Thread(target=on_thread, args=(out,))
    thread.start()
    thread.join(timeout=10)
    assert used(1) == 2 and out
'''


def test_gate_reports_the_one_unrun_line(tmp_path):
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    package = tmp_path / "src" / "stagepipe"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    tests = tmp_path / "tests"
    tests.mkdir()
    shutil.copy(Path(__file__).with_name("linegate.py"), tests)
    (tests / "__init__.py").write_text("")
    # the package's module-level lines run only as the conftest loads
    (tests / "conftest.py").write_text("import stagepipe.mod\n")
    (tests / "test_mod.py").write_text(TEST)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "tests.linegate"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
            filter(None, [str(tmp_path / "src"), os.environ.get("PYTHONPATH")]))},
    )
    out = done.stdout.splitlines()
    section = next(i for i, line in enumerate(out) if "linegate: lines of src/stagepipe" in line)
    assert out[section + 1:section + 3] == [
        "src/stagepipe/mod.py:9: return x - 1",
        "1 unrun line(s)",
    ], done.stdout
    assert "1 passed" in done.stdout
    assert done.returncode == 1
