"""Set-up probe: a fresh process that imports vacuumlab and validates scenarios.

    python3 bench/probe.py <monotonic start> <src dir> <scenario.yaml>...

Prints the seconds from ``<monotonic start>`` (the parent's
``time.monotonic()`` just before it started this process; the clock is
system-wide) until every scenario has passed ``parse_config``.
"""

import sys
import time


def main(argv):
    start = float(argv[1])
    sys.path.insert(0, argv[2])
    from vacuumlab.cli import parse_config

    for path in argv[3:]:
        parse_config(path)
    print(repr(time.monotonic() - start))


if __name__ == "__main__":
    main(sys.argv)
