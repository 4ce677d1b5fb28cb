"""Time single calls of the image-source sum, `simulator.field_at_points`.

    PYTHONPATH=TREE/src python tools/sim_calls.py [--calls N] ORDER [ORDER ...]

Runs the `roomwave` that PYTHONPATH points at on the default room (RoomSpec's
defaults, the room of configs/default.yaml) and 100 receivers drawn
uniformly from the inner 90 % of the room (`default_rng(0)`). For each image
order it makes one warm-up call, which builds the image lattice; then, at 300
and at 800 Hz (speed of sound 343 m/s), it times N calls (default 9) with
`time.perf_counter` and one more call under tracemalloc, and prints

    order O, F Hz: MS ms median of N calls, tracemalloc peak PEAK MB

one line per order and frequency. The timings run in this process, so pin
it (`taskset -c 0`) when comparing two trees. An order that is not an
integer >= 0, or N below 1, exits with status 2 before anything runs.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
import tracemalloc

import numpy as np

from roomwave.geometry import RoomSpec
from roomwave.planewaves import wavenumber
from roomwave.simulator import field_at_points

FREQUENCIES_HZ = (300.0, 800.0)
SPEED_OF_SOUND = 343.0
RECEIVERS = 100


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="sim_calls.py",
        description="Time simulator.field_at_points per call and frequency.")
    parser.add_argument("--calls", type=int, default=9, metavar="N",
                        help="timed calls per order and frequency")
    parser.add_argument("orders", metavar="ORDER", type=int, nargs="+",
                        help="image order")
    args = parser.parse_args(argv)
    if args.calls < 1 or min(args.orders) < 0:
        parser.error("ORDER must be >= 0 and N >= 1")

    room = RoomSpec()
    receivers = np.random.default_rng(0).uniform(
        0.05, 0.95, (RECEIVERS, 3)) * room.dimensions
    for order in args.orders:
        # the warm-up call builds and caches the image lattice
        field_at_points(room, receivers, wavenumber(300.0, SPEED_OF_SOUND),
                        order)
        for frequency in FREQUENCIES_HZ:
            k = wavenumber(frequency, SPEED_OF_SOUND)
            times = []
            for _ in range(args.calls):
                start = time.perf_counter()
                field_at_points(room, receivers, k, order)
                times.append(time.perf_counter() - start)
            tracemalloc.start()
            try:
                field_at_points(room, receivers, k, order)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            print(f"order {order}, {frequency:g} Hz: "
                  f"{1e3 * statistics.median(times):.3f} ms median of "
                  f"{args.calls} calls, tracemalloc peak {peak / 1e6:.3f} MB",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
