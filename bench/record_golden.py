"""Record the exit codes and stdout digests of the default seed into golden.json.

Run from the root of a checkout whose program output is trusted:

    python3 bench/record_golden.py

Commands marked ``known_defect`` are recorded with their expected result
(exit 2, empty stdout), not with what the program prints today, so they keep
failing the comparison until the defect is fixed.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main() -> int:
    env = run.child_env()
    recorded = {}
    for name in workloads.WORKLOADS:
        digests = {}
        for cmd in workloads.commands(name, workloads.DEFAULT_SEED):
            if cmd.known_defect:
                digests[" ".join(cmd.argv)] = checks.digest(2, b"")
                continue
            rc, out, err, _ = run.run_child(["-m", "sl2hc", *cmd.argv], env)
            reason, _ = checks.check(cmd, rc, out, err)
            if reason:
                print(f"refusing to record sl2hc {' '.join(cmd.argv)}: {reason}", file=sys.stderr)
                return 1
            digests[" ".join(cmd.argv)] = checks.digest(rc, out)
        recorded[name] = digests
    checks.GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(map(len, recorded.values()))} command lines to {checks.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
