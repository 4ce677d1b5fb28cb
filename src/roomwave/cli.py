"""Command-line front end.

Subcommands:
  simulate     write a measurement snapshot plus microphone/boundary clouds
  reconstruct  fit hyperparameters to a snapshot and write the predicted field
  benchmark    run the Monte-Carlo sweeps and write per-run/aggregate CSVs
  gradcheck    compare analytic and finite-difference gradients

Exit codes: 0 success, 2 configuration error or malformed input file,
3 numerical failure, 4 I/O failure. `ROOMWAVE_NUM_THREADS` caps the BLAS
thread count when set before launch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

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
    p_sim.add_argument("config", type=Path)
    p_sim.add_argument("out_dir", type=Path)
    add_set_flag(p_sim)

    p_rec = sub.add_parser("reconstruct",
                           help="reconstruct a sound field from a snapshot")
    p_rec.add_argument("snapshot", type=Path)
    p_rec.add_argument("cloud", type=Path)
    p_rec.add_argument("config", type=Path)
    p_rec.add_argument("out_dir", type=Path)
    add_set_flag(p_rec)

    p_bench = sub.add_parser("benchmark", help="run the Monte-Carlo sweeps")
    p_bench.add_argument("config", type=Path)
    p_bench.add_argument("out_dir", type=Path)
    add_set_flag(p_bench)

    p_grad = sub.add_parser("gradcheck",
                            help="finite-difference gradient verification")
    p_grad.add_argument("--instances", type=int, default=20)
    p_grad.add_argument("--thetas", type=int, default=5)
    p_grad.add_argument("--seed", type=int, default=0)
    return parser


def _load_config(args):
    from .config import apply_overrides, load_config

    return apply_overrides(load_config(args.config), args.overrides)


def _cmd_simulate(args) -> int:
    from . import fileio
    from .experiments import draw_run

    config = _load_config(args)
    seeds, mics, cloud, snapshot = draw_run(config, 0, config.frequency_hz,
                                            config.boundary_count)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    fileio.write_snapshot(args.out_dir / "snapshot.txt", config.room, mics,
                          snapshot, seeds["noise"])
    fileio.write_mic_array(args.out_dir / "microphones.txt", mics)
    fileio.write_point_cloud(args.out_dir / "boundary.txt", cloud)
    print(f"wrote snapshot ({len(mics)} microphones, "
          f"{len(cloud)} boundary points) to {args.out_dir}")
    return 0


def _cmd_reconstruct(args) -> int:
    from . import fileio
    from .experiments import fit_and_predict
    from .planewaves import (PlaneWaveDictionary, fibonacci_directions,
                             wavenumber)

    config = _load_config(args)
    source = fileio.read_snapshot(args.snapshot)
    cloud = fileio.read_point_cloud(args.cloud)
    if config.reconstruct_points:
        points = fileio.read_mic_array(config.reconstruct_points).positions
    else:
        points = source.mics.positions
    k = wavenumber(source.snapshot.frequency_hz, config.speed_of_sound)
    dictionary = PlaneWaveDictionary(
        k, fibonacci_directions(config.plane_wave_count))
    fit, mean, variance = fit_and_predict(
        source.snapshot.noisy, dictionary, source.mics.positions, cloud,
        points, config.max_line_searches)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    fileio.write_reconstruction(args.out_dir / "reconstruction.txt", points,
                                mean, variance ** 0.5)
    fileio.write_theta_json(args.out_dir / "theta.json", fit)
    fileio.write_trace_csv(args.out_dir / "trace.csv", fit.trace, fit.points)
    print(f"reconstructed {len(points)} points; final objective "
          f"{fit.value:.6g} ({fit.message})")
    return 0


def _cmd_benchmark(args) -> int:
    from . import fileio
    from .experiments import run_sweeps

    config = _load_config(args)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    results = run_sweeps(config)
    for sweep, rows in results.items():
        fileio.write_runs_csv(args.out_dir / f"{sweep}_runs.csv", rows)
        fileio.write_aggregate_csv(args.out_dir / f"{sweep}_aggregate.csv", rows)
        print(f"{sweep}: wrote {len(rows)} aggregate rows")
    return 0


def _cmd_gradcheck(args) -> int:
    from .marglik import gradient_check

    worst = gradient_check(num_instances=args.instances,
                           thetas_per_instance=args.thetas, seed=args.seed)
    print(f"max norm-wise relative gradient error: {worst:.3e} "
          f"(tolerance {GRADCHECK_TOLERANCE:.0e})")
    return 0 if worst < GRADCHECK_TOLERANCE else 3


_COMMANDS = {
    "simulate": _cmd_simulate,
    "reconstruct": _cmd_reconstruct,
    "benchmark": _cmd_benchmark,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from ._linalg import FactorizationError
    from .config import ConfigError
    from .fileio import FormatError

    import numpy as np

    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 2
    except (FactorizationError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
