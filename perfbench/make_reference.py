"""Regenerate perfbench/reference.json from the code in src/.

    python3 perfbench/make_reference.py

Runs every workload's full and one-channel plans at the default seed and
stores the gated CSV columns. The stored file was made at the commit that
introduced the benchmark; regenerate it only when a change is meant to move
these numbers, and say so with the largest relative change.
"""

import json
import subprocess
import sys

import run


def main() -> int:
    run.pin_environment()
    import workloads

    run.OUT_DIR.mkdir(exist_ok=True)
    data = {
        "seed": workloads.DEFAULT_SEED,
        "commit": subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                                 capture_output=True, text=True).stdout.strip(),
        "workloads": {},
    }
    for name, workload in workloads.WORKLOADS.items():
        entry = {}
        for kind, plan in (("full", workload), ("tiny", workload.tiny())):
            runner = workloads.Runner(plan, workloads.DEFAULT_SEED, run.OUT_DIR)
            entry[kind] = workloads.parse_csv(runner.run_once())
        data["workloads"][name] = entry
    workloads.REFERENCE_FILE.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
