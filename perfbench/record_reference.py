"""Record the reference answer digests that runs with the reference seed compare against.

    python3 perfbench/record_reference.py

Runs the first ROUNDS rounds of every workload for seed 0 in this process,
checks every answer, and writes `perfbench/reference.json`: per workload,
one [command line, answer digest] pair per operation, in stream order.
Record it only from a commit whose answers are known good; a later commit
must reproduce every digest byte for byte.  ROUNDS covers about three
times as many operations as a 30-second run completes on the commit that
defined the benchmark.
"""

from __future__ import annotations

import json
import sys
from itertools import takewhile

import checks
import workloads
from worker import REFERENCE, import_cli, run_operation

SEED = 0
ROUNDS = 40


def main() -> int:
    cli = import_cli()
    doc = {"seed": SEED, "rounds": ROUNDS, "workloads": {}}
    for workload in workloads.WORKLOADS:
        ops = takewhile(lambda op: op.round < ROUNDS, workloads.operations(workload, SEED))
        pairs = []
        for op in ops:
            status, out, err, _ = run_operation(cli.main, op.argv)
            problems, digest = checks.check(op.argv, status, out, err)
            if problems:
                print(f"{op.text()}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            pairs.append([op.text(), digest])
        doc["workloads"][workload] = pairs
        print(f"{workload}: {len(pairs)} operations", file=sys.stderr)
    REFERENCE.write_text(json.dumps(doc, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
