"""Regenerate perfbench/reference.json from the program in this checkout.

Usage: python3 perfbench/make_reference.py

The stored values are what the benchmark compares `evolve`, `evolve-dense`,
`wigner` and the README `scan` outputs against. Regenerate them only on a
commit whose outputs are known to be right (the tier-1 tests pass), and say
so in the change that updates them.
"""
import json
import os
import random
import shutil
import sys
import tempfile

import run
import workloads


def observed(tiny):
    main = sys.modules["ambec.cli"].main
    out = {}
    for name in ("evolve", "evolve-dense", "wigner", "solve"):
        workload = workloads.build(name, tiny)
        for op in workload.inputs:
            if main(list(op.argv)) != 0:
                raise SystemExit(f"input {op.key} failed")
        for op in workload.round(random.Random(0)):
            if op.observe is None or op.key in out:
                continue
            if main(list(op.argv)) != 0:
                raise SystemExit(f"{op.key} failed")
            out[op.key] = op.observe(op)
    return out


def main():
    run.import_ambec()
    run.OUT.mkdir(exist_ok=True)
    reference = {}
    here = os.getcwd()
    for size, tiny in (("full", False), ("tiny", True)):
        workdir = tempfile.mkdtemp(prefix="reference-", dir=run.OUT)
        os.chdir(workdir)
        try:
            reference[size] = observed(tiny)
        finally:
            os.chdir(here)
            shutil.rmtree(workdir)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
