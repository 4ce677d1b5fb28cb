"""Write the reference aggregate CSVs that perfbench/run.py checks against.

    python3 perfbench/make_reference.py WORKLOAD [SEED ...]

Run from the repository root. Runs one untraced repetition per seed (the
config's own seed plus the pool, seeds 0-31, when none are given) and
stores every `*_aggregate.csv` it writes in perfbench/reference/WORKLOAD.json,
keyed by seed. Regenerate only when a change to roomwave is meant to change
results, and say so in that change.
"""

import json
import shutil
import sys
from pathlib import Path

import run


def main(argv) -> int:
    workload, seeds = argv[0], [int(s) for s in argv[1:]]
    seeds = seeds or [run.DEFAULT_SEED, *range(run.POOL_SIZE)]
    root = Path.cwd()
    work = root / ".perfbench_runs" / f"reference-{workload}"
    path = run.BENCH / "reference" / f"{workload}.json"
    stored = json.loads(path.read_text())["seeds"] if path.is_file() else {}
    shutil.rmtree(work, ignore_errors=True)
    try:
        for seed in seeds:
            result = run.run_worker(root, workload, seed, "plain",
                                    work / str(seed), run.REP_TIMEOUT_S)
            if result["exit_code"] != 0:
                raise run.BenchmarkError(f"seed {seed}: exit code "
                                         f"{result['exit_code']}")
            stored[str(seed)] = result["aggregate"]
            print(f"{workload} seed {seed}: wall {result['wall_s']:.2f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    path.parent.mkdir(exist_ok=True)
    ordered = dict(sorted(stored.items(), key=lambda item: int(item[0])))
    path.write_text(json.dumps({"workload": workload, "seeds": ordered},
                               indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
