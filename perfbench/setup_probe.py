"""Set-up probe: import the program and build one workload's framework.

``run.py`` times this interpreter from its start until it prints ``ready``,
which covers imports, ``SigmaDedupe`` construction and, for the process
planes, node-worker spawn.  Usage: ``setup_probe.py <workload> <storage_dir>``.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from workloads import SPECS, make_framework  # noqa: E402

framework = make_framework(SPECS[sys.argv[1]], sys.argv[2])
sys.stdout.write("ready\n")
sys.stdout.flush()
framework.close()
