"""One repetition of a benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py CONFIG SEED OUT_DIR MODE

Times the import of roomwave plus loading the pinned config (`setup_s`).
MODE `setup` stops there. MODE `plain` then runs
`roomwave.cli.main(["benchmark", CONFIG, OUT_DIR, "--set", "seed=SEED"])`
in-process (`wall_s`); MODE `trace` does the same with the layer entry
points wrapped, writes the spans to OUT_DIR/spans.jsonl and adds the
per-layer metrics. The result is written as JSON to OUT_DIR/result.json.
Run it from the repository root with `src` on PYTHONPATH.
"""

import json
import resource
import sys
import time


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS loaded in this process."""
    import ctypes
    import glob
    import os

    import numpy
    import scipy

    found = {}
    for package, symbols in ((numpy, ("scipy_openblas_get_num_threads64_",
                                      "openblas_get_num_threads64_",
                                      "openblas_get_num_threads")),
                             (scipy, ("scipy_openblas_get_num_threads",
                                      "openblas_get_num_threads"))):
        libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                            f"{package.__name__}.libs", "*openblas*")
        for path in glob.glob(libs):
            lib = ctypes.CDLL(path)
            for symbol in symbols:
                if hasattr(lib, symbol):
                    found[package.__name__] = int(getattr(lib, symbol)())
                    break
    return found


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main(argv) -> int:
    config_path, seed, out_dir, mode = argv
    start = time.perf_counter()
    from roomwave import cli, config

    config.apply_overrides(config.load_config(config_path), [f"seed={seed}"])
    result = {"setup_s": time.perf_counter() - start}
    if mode == "setup":
        _write(out_dir, result)
        return 0

    import tracer

    argv = ["benchmark", config_path, out_dir, "--set", f"seed={seed}"]
    if mode == "trace":
        recorder = tracer.Recorder()
        with recorder:
            start = time.perf_counter()
            code = recorder.run(cli.main, argv)
            wall_s = time.perf_counter() - start
        recorder.write_spans(f"{out_dir}/spans.jsonl")
        result["layers"] = tracer.summarize(recorder.spans)
        result["layer_self_s"] = tracer.layer_self_times(recorder.spans)
    else:
        start = time.perf_counter()
        code = cli.main(argv)
        wall_s = time.perf_counter() - start
    result.update(
        exit_code=code, wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        environment=environment())
    _write(out_dir, result)
    return 0


def _write(out_dir: str, result: dict):
    with open(f"{out_dir}/result.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
