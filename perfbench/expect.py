"""Rebuild expected.json, the expected verdict of every core check.

    python3 perfbench/expect.py

Runs every core check of every workload once and records its verdict:
"exact", "fail", "error", or "agree>=A" for a p-adic agreement of A
digits (a floor: later code may keep more digits, never fewer).  Each
verdict is first checked against the README rule its check names
(workloads.Check.rule); every member of every draw pool is run and
checked against its rule too.  A verdict that breaks its rule is a bug
in qde: it is printed, left out of the table, and the script exits 1.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    table = {}
    bugs = []
    for name, (core, pools) in workloads.WORKLOADS.items():
        for check in core():
            verdict = check.run()
            if workloads.satisfies(verdict, check.rule):
                table[check.id] = workloads.table_spec(verdict, check.precision)
            else:
                bugs.append(f"{name}: {check.id}: got {verdict}, rule says {check.rule}")
        for pool, _ in pools:
            for check in pool():
                verdict = check.run()
                if not (workloads.satisfies(verdict, check.rule) and workloads.satisfies(verdict, check.expect)):
                    bugs.append(f"{name} pool: {check.id}: got {verdict}, rule says {check.expect}")
        print(f"{name}: done", file=sys.stderr)
    for line in bugs:
        print(f"RULE BROKEN {line}")
    workloads.EXPECTED_PATH.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"{len(table)} expected verdicts written to {workloads.EXPECTED_PATH.name}; {len(bugs)} rule breaks")
    return 1 if bugs else 0


if __name__ == "__main__":
    sys.exit(main())
