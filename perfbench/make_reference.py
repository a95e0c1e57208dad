#!/usr/bin/env python3
"""Rewrite reference.json from the current checkout.

The file holds check.fingerprint() of the first REFERENCE_OPS operations of
each workload on the default seed. Every operation must pass check.py's
invariants before its fingerprint is stored. Regenerate the file only at a
commit whose outputs are trusted, and only in a change that edits the
benchmark:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from itertools import islice

import check
import run
from workloads import WORKLOADS

# About 1.5 times what a 20 s run gets through at the defining commit.
REFERENCE_OPS = {"sweep_k": 900, "sweep_expsums": 700, "growth": 200,
                 "queries": 650}


def main() -> int:
    powres = run.load_powres()
    run.OUT.mkdir(exist_ok=True)
    reference = {}
    for name, count in REFERENCE_OPS.items():
        runner = run.Runner(powres, name, reference=[])
        entries = []
        ops = islice(enumerate(WORKLOADS[name].operations(run.DEFAULT_SEED)),
                     count)
        for index, op in ops:
            output = runner.execute(op)
            errors = runner.errors(index, op, output)
            if errors:
                print(f"{name} op {index}: " + "\n  ".join(errors),
                      file=sys.stderr)
                return 1
            entries.append(check.fingerprint(op, output))
        reference[name] = entries
        print(f"{name}: {len(entries)} operations", file=sys.stderr)
    run.REFERENCE.write_text(json.dumps(reference, separators=(",", ":"))
                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
