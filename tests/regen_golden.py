"""Rewrite tests/golden/ from the current program.

    PYTHONPATH=src python tests/regen_golden.py

Runs every command of `test_golden.CASES` in a scratch directory, `pipeline`
first since the others read its report as `source.json`, then copies the outputs
and the running numpy version into tests/golden/.  A change that moves a file
names it, and why, in CHANGES.md.
"""

import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from test_golden import CASES, GOLDEN, outputs, run_case


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        os.chdir(work)
        for argv in CASES.values():
            run_case(argv, work, work / "pipeline.json")
            for name in outputs(argv):
                shutil.copyfile(work / name, GOLDEN / name)
    (GOLDEN / "numpy_version.txt").write_text(np.__version__ + "\n")


if __name__ == "__main__":
    main()
