"""Set-up probe for ``setup_s``: a fresh interpreter imports expdiff, runs
one workload's set-up, writes ``ready`` and exits.  The parent times the
interval from spawning this process to reading that line.

    python3 bench/probe.py <workload> '<inputs as JSON>'
"""

import json
import sys

from bootstrap import bootstrap


def main() -> int:
    bootstrap()
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].setup(json.loads(sys.argv[2]))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
