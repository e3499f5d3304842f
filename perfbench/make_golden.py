"""Write perfbench/golden.json from the code in src/.

    python3 perfbench/make_golden.py

Each workload's op runs once on its committed, unrelabelled inputs, full
size and smoke size.  The committed golden.json was written this way at the
seed commit; rewriting it is only right when an output is meant to change.
"""

import json
import sys

import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    golden = {"commit": run.git_commit(), "full": {}, "smoke": {}}
    workdir = run.OUT / "golden-inputs"
    workdir.mkdir(parents=True, exist_ok=True)
    for smoke, key in ((False, "full"), (True, "smoke")):
        for name, workload in workloads.WORKLOADS.items():
            inputs = workload.prepare(None, smoke, workdir)
            out = workload.canon(workload.op(inputs, None))
            # checks the output against itself, so only a workload's own
            # identity (k_tutte equals the Tutte polynomial) can fail
            problem = workload.mismatch(out, out, inputs)
            if problem:
                sys.exit(f"{name}: {problem}")
            golden[key][name] = out
            print(f"{key} {name} done", flush=True)
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
