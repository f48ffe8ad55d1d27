#!/usr/bin/env python3
"""Run every ``hamcount`` command of README.md's bash blocks; each must exit 0.

    python scripts/check_readme.py

The lines run in order, in one temporary directory (so a file that one line
writes is there for the next), with ``scripts/`` linked in for the commands
that read its configs.  ``hamcount`` is run as ``python -m hamcount.cli``
with this interpreter and this tree's ``src/`` first on ``PYTHONPATH``, and
a line's exit status is that of its first command, so a pipe into ``head``
does not count against it.  Exit code is the number of failed lines.
"""
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BLOCK = re.compile(r"^```bash\n(.*?)^```", re.M | re.S)


def commands(readme: str) -> list[str]:
    """The lines of the bash blocks that start with ``hamcount``."""
    return [line.strip() for block in BLOCK.findall(readme)
            for line in block.splitlines() if line.strip().startswith("hamcount ")]


def main() -> int:
    lines = commands((ROOT / "README.md").read_text())
    if not lines:
        print("README.md has no hamcount commands")
        return 1
    cli = f"{shlex.quote(sys.executable)} -m hamcount.cli"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        os.symlink(ROOT / "scripts", pathlib.Path(tmp) / "scripts")
        for line in lines:
            t0 = time.time()
            run = subprocess.run(["bash", "-c", cli + line[len("hamcount"):] + "\nexit ${PIPESTATUS[0]}"],
                                 cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            status = "ok" if run.returncode == 0 else f"exit {run.returncode}"
            print(f"{status:8s} ({time.time() - t0:5.1f}s)  {line}")
            if run.returncode:
                failures += 1
                print(run.stderr, file=sys.stderr)
    return failures


if __name__ == "__main__":
    sys.exit(main())
