"""Set-up probe: import the package, build what takes the first input,
print ``ready``.  The parent times this process from spawn to that line.

Usage: ``python3 perfbench/probe.py map|classify`` with ``src`` on
``PYTHONPATH``.
"""

import sys


def main() -> int:
    kind = sys.argv[1]
    if kind == "map":
        from repro.aig import Aig, AigMapper  # noqa: F401
        from repro.benchcircuits import parse_blif  # noqa: F401

        AigMapper()
    elif kind == "classify":
        from repro.engine import ClassificationEngine, EngineOptions

        ClassificationEngine(EngineOptions(workers=0))
    else:
        print(f"unknown probe {kind!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
