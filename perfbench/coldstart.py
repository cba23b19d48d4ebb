"""Set-up probe: import the layers one workload uses and build its
guest programs in a fresh interpreter, then exit.

    python3 perfbench/coldstart.py WORKLOAD SCALE

``run.py`` times this (``setup_s``) so that work moved into module
import or program construction shows up as set-up time.
"""

import sys

from harness import src_on_path

src_on_path()

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].coldstart(sys.argv[2])
