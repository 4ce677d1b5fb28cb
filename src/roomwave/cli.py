"""Command-line front end.

Subcommands:
  simulate     write a measurement snapshot plus microphone/boundary clouds
  reconstruct  fit hyperparameters to a snapshot and write the predicted field
  benchmark    run the Monte-Carlo sweeps and write per-run/aggregate CSVs
  gradcheck    compare analytic and finite-difference gradients of the
               marginal likelihood on 20 random instances x 5 thetas, seed 0

Exit codes: 0 success, 2 configuration error, malformed input file or bad
command-line argument, 3 numerical failure (any `np.linalg.LinAlgError`,
`FactorizationError` included, or a FloatingPointError), 4 I/O failure.
BLAS runs on one thread unless any of OMP_NUM_THREADS, OPENBLAS_NUM_THREADS,
MKL_NUM_THREADS, VECLIB_MAXIMUM_THREADS or NUMEXPR_NUM_THREADS is set
before launch; the `roomwave` package docstring says why, with timings,
and how `benchmark` spreads its runs over the CPUs.

The modules are imported once, at the top, and their functions called as
attributes (`config.load_config`, `experiments.fit_and_predict`, ...), so a
function patched on its module is the one a command calls.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import config, experiments, fileio, marglik, planewaves

__all__ = ["main", "build_parser"]

GRADCHECK_TOLERANCE = 1e-5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roomwave",
        description="Boundary-informed Bayesian sound field reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_set_flag(p):
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="override a scalar config field")

    p_sim = sub.add_parser("simulate", help="simulate a measurement snapshot")
    p_sim.set_defaults(run=_cmd_simulate)
    p_sim.add_argument("config", type=Path)
    p_sim.add_argument("out_dir", type=Path)
    add_set_flag(p_sim)

    p_rec = sub.add_parser("reconstruct",
                           help="reconstruct a sound field from a snapshot")
    p_rec.set_defaults(run=_cmd_reconstruct)
    p_rec.add_argument("snapshot", type=Path)
    p_rec.add_argument("cloud", type=Path)
    p_rec.add_argument("config", type=Path)
    p_rec.add_argument("out_dir", type=Path)
    add_set_flag(p_rec)

    p_bench = sub.add_parser("benchmark", help="run the Monte-Carlo sweeps")
    p_bench.set_defaults(run=_cmd_benchmark)
    p_bench.add_argument("config", type=Path)
    p_bench.add_argument("out_dir", type=Path)
    add_set_flag(p_bench)

    p_grad = sub.add_parser("gradcheck",
                            help="finite-difference gradient verification")
    p_grad.set_defaults(run=_cmd_gradcheck)
    return parser


def _load_config(args):
    return config.apply_overrides(config.load_config(args.config),
                                  args.overrides)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    _, cloud, snapshot = experiments.draw_run(cfg, 0, cfg.frequency_hz,
                                              cfg.boundary_count)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    fileio.write_snapshot(args.out_dir / "snapshot.txt", snapshot)
    fileio.write_points(args.out_dir / "microphones.txt", snapshot.mics)
    fileio.write_point_cloud(args.out_dir / "boundary.txt", cloud)
    print(f"wrote snapshot ({len(snapshot.mics)} microphones, "
          f"{len(cloud)} boundary points) to {args.out_dir}")
    return 0


def _cmd_reconstruct(args) -> int:
    cfg = _load_config(args)
    snapshot = fileio.read_snapshot(args.snapshot)
    cloud = fileio.read_point_cloud(args.cloud)
    if cfg.reconstruct_points:
        points = fileio.read_points(cfg.reconstruct_points)
    else:
        points = snapshot.mics
    k = planewaves.wavenumber(snapshot.frequency_hz, cfg.speed_of_sound)
    dictionary = planewaves.PlaneWaveDictionary(
        k, planewaves.fibonacci_directions(cfg.plane_wave_count))
    fit, mean, variance = experiments.fit_and_predict(
        snapshot.noisy, dictionary, snapshot.mics, cloud, points,
        cfg.max_line_searches)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    fileio.write_reconstruction(args.out_dir / "reconstruction.txt", points,
                                mean, variance ** 0.5)
    fileio.write_theta_json(args.out_dir / "theta.json", fit)
    fileio.write_trace_csv(args.out_dir / "trace.csv", fit.trace, fit.points)
    print(f"reconstructed {len(points)} points; final objective "
          f"{fit.value:.6g} ({fit.message})")
    return 0


def _cmd_benchmark(args) -> int:
    cfg = _load_config(args)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    results = experiments.run_sweeps(cfg)
    for sweep, rows in results.items():
        fileio.write_runs_csv(args.out_dir / f"{sweep}_runs.csv", rows)
        fileio.write_aggregate_csv(args.out_dir / f"{sweep}_aggregate.csv", rows)
        print(f"{sweep}: wrote {len(rows)} aggregate rows")
    return 0


def _cmd_gradcheck(_args) -> int:
    worst = marglik.gradient_check()
    print(f"max norm-wise relative gradient error: {worst:.3e} "
          f"(tolerance {GRADCHECK_TOLERANCE:.0e})")
    return 0 if worst < GRADCHECK_TOLERANCE else 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except config.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except fileio.FormatError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
