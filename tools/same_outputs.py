"""Check that two source trees write the same benchmark and simulate files.

    python tools/same_outputs.py PARENT_ROOT CHANGE_ROOT CONFIG SEED [SEED ...]

For each seed, runs `roomwave benchmark CONFIG OUT --set seed=SEED` and
`roomwave simulate CONFIG OUT --set seed=SEED` once with PARENT_ROOT/src and
once with CHANGE_ROOT/src on PYTHONPATH, each in a fresh interpreter with
the five standard BLAS thread variables removed from its environment, as
`perfbench/run.py` runs its workers. It compares every `*_aggregate.csv` of
the two benchmark runs byte for byte, every `*_runs.csv` with its `seconds`
column dropped, the one column that differs between two runs of one tree,
and the simulate run's snapshot.txt, microphones.txt and boundary.txt byte
for byte. Standard error is not compared: warnings carry each tree's file
paths. CONFIG is read as given (a `perfbench/workloads/*.yaml` file, say)
and is the same file for both trees; nothing is written outside a temporary
directory.

Prints one line per seed, `seed N: same (K aggregate CSVs, K runs CSVs, 3
simulate files)` or `seed N: DIFFERS: ...` naming the files that differ,
and exits with 0 when every seed matches, 1 when a seed differs or a run
fails (or writes no aggregate CSV or misses a simulate file), and 2 on a
usage error, before anything runs.
"""

from __future__ import annotations

import csv
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN = "import sys; from roomwave.cli import main; sys.exit(main(sys.argv[1:]))"
SIMULATED = ("snapshot.txt", "microphones.txt", "boundary.txt")
USAGE = "usage: same_outputs.py PARENT_ROOT CHANGE_ROOT CONFIG SEED [SEED ...]"


def without_seconds(data: bytes) -> list:
    """The rows of a runs CSV, header included, without its `seconds`
    column."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    keep = [i for i, name in enumerate(rows[0]) if name != "seconds"]
    return [[row[i] for i in keep] for row in rows]


def run(root: Path, command: str, config: Path, seed: int, out: Path):
    """Run `roomwave COMMAND CONFIG OUT --set seed=SEED` from `root`'s src/;
    raises RuntimeError when it fails."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run(
        [sys.executable, "-c", RUN, command, str(config), str(out),
         "--set", f"seed={seed}"],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root} {command} exited with {proc.returncode}: "
                           f"{proc.stderr.strip().splitlines()[-1:]}")


def outputs(root: Path, config: Path, seed: int, out: Path) -> dict:
    """{file name: contents} of what `root` writes at `seed`: each aggregate
    CSV's bytes, each runs CSV's rows without `seconds` and the bytes of
    each simulate file; raises RuntimeError when a run fails."""
    bench, sim = out / "benchmark", out / "simulate"
    run(root, "benchmark", config, seed, bench)
    found = {p.name: p.read_bytes() for p in bench.glob("*_aggregate.csv")}
    if not found:
        raise RuntimeError(f"{root} wrote no aggregate CSV")
    found.update((p.name, without_seconds(p.read_bytes()))
                 for p in bench.glob("*_runs.csv"))
    run(root, "simulate", config, seed, sim)
    for name in SIMULATED:
        path = sim / name
        if not path.is_file():
            raise RuntimeError(f"{root} simulate wrote no {name}")
        found[name] = path.read_bytes()
    return found


def compare(parent: Path, change: Path, config: Path, seed: int) -> str:
    """One seed's report line; it starts with 'same' when every CSV
    matches."""
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        try:
            before = outputs(parent, config, seed, Path(tmp, "parent"))
            after = outputs(change, config, seed, Path(tmp, "change"))
        except RuntimeError as exc:
            return f"DIFFERS: {exc}"
    differing = sorted(name for name in before.keys() | after.keys()
                       if before.get(name) != after.get(name))
    if differing:
        return f"DIFFERS: {', '.join(differing)}"
    runs = sum(name.endswith("_runs.csv") for name in before)
    aggregates = len(before) - runs - len(SIMULATED)
    return (f"same ({aggregates} aggregate CSVs, {runs} runs CSVs, "
            f"{len(SIMULATED)} simulate files)")


def parse(argv: list[str]):
    """(parent, change, config, seeds), or a usage message."""
    if len(argv) < 4:
        return USAGE
    parent, change, config = map(Path, argv[:3])
    for root in (parent, change):
        if not (root / "src" / "roomwave").is_dir():
            return f"same_outputs.py: no src/roomwave under {root}"
    if not config.is_file():
        return f"same_outputs.py: no such config: {config}"
    if not all(seed.isdigit() for seed in argv[3:]):
        return "same_outputs.py: seeds must be non-negative integers"
    return (parent.resolve(), change.resolve(), config.resolve(),
            [int(seed) for seed in argv[3:]])


def main(argv: list[str]) -> int:
    parsed = parse(argv)
    if isinstance(parsed, str):
        print(parsed, file=sys.stderr)
        return 2
    parent, change, config, seeds = parsed
    status = 0
    for seed in seeds:
        line = compare(parent, change, config, seed)
        print(f"seed {seed}: {line}", flush=True)
        if not line.startswith("same"):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
