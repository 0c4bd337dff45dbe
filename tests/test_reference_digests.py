"""The first rounds of every benchmark workload reproduce their recorded digests.

`perfbench/reference.json` holds, per workload, the command line and answer
digest of each seed-0 operation.  Replaying the first three rounds (every
stratum of every cell once) through the benchmark's own answer checks keeps
a byte change in any answer from passing the test suite.
"""

import json
import pathlib
from itertools import takewhile

from confhom.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
ROUNDS = 3


def test_first_rounds_reproduce_reference_digests(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import worker
    import workloads

    reference = json.loads(worker.REFERENCE.read_text())
    replayed = 0
    for name in workloads.WORKLOADS:
        ops = list(takewhile(lambda op: op.round < ROUNDS,
                             workloads.operations(name, reference["seed"])))
        recorded = reference["workloads"][name][: len(ops)]
        assert [op.text() for op in ops] == [text for text, _ in recorded]
        for op, (text, digest) in zip(ops, recorded):
            status, out, err, _ = worker.run_operation(main, op.argv)
            failures, got = checks.check(op.argv, status, out, err)
            assert not failures, f"{text}: {failures}"
            assert got == digest, text
        replayed += len(ops)
    assert replayed == 144
