"""Span recorder for one traced `roomwave benchmark` run.

The recorder wraps the public entry points of each roomwave layer by
patching the module attributes their callers look up at call time (for
example `experiments.fit_hyperparameters`, `marglik.chol_factor`,
`simulator.field_at_points`). Each call becomes one span: name, start, end,
parent span and a few exact counts read from the returned object. Spans stay
in memory until `write_spans`; `uninstall` restores every original.

The layer of a span is the part of its name before the first dot. A span's
self time is its duration minus the time its child spans cover, so the self
times of all spans add up to the duration of the root span.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

ROOT = "experiments"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Recorder:
    """Collects spans from the patched entry points of one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple] = []
        self._image_counts: dict = {}

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, measure=None):
        """`fn` recorded as span `name`; `measure(result, args, kwargs)`
        returns the counts stored on the span."""

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), parent.id if parent else None, name,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            if measure is not None:
                span.counts = measure(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def run(self, fn, *args):
        """Call `fn(*args)` as the root span."""
        return self.wrap(ROOT, fn)(*args)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Patch every traced entry point; `uninstall` undoes it."""
        from roomwave import (baselines, bayes, config, experiments, fileio,
                              marglik, planewaves, simulator)

        targets = [
            (config, "load_config", "config.load", None),
            (config, "apply_overrides", "config.load", None),
            (fileio, "write_runs_csv", "fileio.write", None),
            (fileio, "write_aggregate_csv", "fileio.write", None),
            (experiments, "sample_microphones", "geometry.sample", None),
            (experiments, "sample_validation_points", "geometry.sample", None),
            (experiments, "sample_boundary", "geometry.sample", None),
            (experiments, "perturb_positions", "geometry.sample", None),
            (experiments, "simulate_snapshot", "simulator.snapshot", None),
            (experiments, "field_at_points", "simulator.field", self._pairs),
            (simulator, "field_at_points", "simulator.field", self._pairs),
            (experiments, "fibonacci_directions", "planewaves.directions",
             None),
            (experiments, "build_phi", "planewaves.phi", _entries),
            (experiments, "build_psi", "planewaves.psi", _entries),
            (experiments, "build_phi_tilde", "planewaves.phi_tilde",
             _entries),
            (experiments, "evaluate_field", "planewaves.evaluate", None),
            (planewaves, "build_phi", "planewaves.phi", _entries),
            (bayes, "build_phi", "planewaves.phi", _entries),
            (experiments, "fit_hyperparameters", "marglik.fit", None),
            (marglik, "minimize", "optimize.minimize", _minimize_counts),
            (marglik, "chol_factor", "linalg.chol", _jitter),
            (bayes, "chol_factor", "linalg.chol", _jitter),
            (experiments, "prior_covariance_from_matrices", "bayes.prior",
             None),
            (experiments, "build_posterior", "bayes.posterior", None),
            (experiments, "predict", "bayes.predict", None),
            (experiments, "select_lambda", "baselines.select_lambda", None),
            (experiments, "lasso", "baselines.lasso", _lasso_counts),
            (baselines, "lasso", "baselines.lasso", _lasso_counts),
            (experiments, "tikhonov", "baselines.tikhonov", None),
            (experiments, "nearest_neighbor", "baselines.nearest", None),
        ]
        for owner, attr, name, measure in targets:
            self._patch(owner, attr,
                        self.wrap(name, getattr(owner, attr), measure))
        self._patch(marglik, "MarginalLikelihood",
                    self._traced_marginal_likelihood(marglik.MarginalLikelihood))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _traced_marginal_likelihood(self, original):
        wrap = self.wrap

        class TracedMarginalLikelihood(original):
            __init__ = wrap("marglik.precompute", original.__init__)
            value = wrap("marglik.eval", original.value)
            value_and_gradient = wrap("marglik.eval",
                                      original.value_and_gradient)

        return TracedMarginalLikelihood

    def _pairs(self, result, args, kwargs):
        """Receivers times image sources of one field_at_points call."""
        room, receivers = args[0], args[1]
        order = args[3] if len(args) > 3 else kwargs.get("max_order", 80)
        key = (tuple(room.dimensions), tuple(room.source_position), order)
        if key not in self._image_counts:
            from roomwave.simulator import image_lattice

            self._image_counts[key] = len(image_lattice(room, order)[1])
        return {"pairs": len(receivers) * self._image_counts[key]}

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.id, "parent": span.parent, "name": span.name,
                    "start": span.start, "end": span.end,
                    "self_s": span.self_s, "error": span.error,
                    **span.counts}) + "\n")


def _entries(result, args, kwargs):
    return {"entries": int(result.size)}


def _jitter(result, args, kwargs):
    return {"jitter": int(result.jitter > 0)}


def _minimize_counts(result, args, kwargs):
    return {"evaluations": result.n_evaluations,
            "line_searches": len(result.trace) - 1,
            "converged": int(result.converged)}


def _lasso_counts(result, args, kwargs):
    return {"iterations": result.n_iterations,
            "converged": int(result.converged)}


# -- per-layer metrics ----------------------------------------------------

def summarize(spans) -> dict:
    """Per-layer metrics (name -> value) from the spans of one traced run."""

    def select(prefix):
        return [s for s in spans if s.name == prefix
                or s.name.startswith(prefix + ".")]

    def self_s(prefix):
        return sum(s.self_s for s in select(prefix))

    def total(prefix, key):
        return sum(s.counts.get(key, 0) for s in select(prefix))

    def share(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    root = [s for s in spans if s.name == ROOT]
    if len(root) != 1:
        raise ValueError(f"expected one root span, found {len(root)}")
    fits = select("marglik.fit")
    evals = select("marglik.eval")
    eval_s = sum(s.duration for s in evals)
    lasso_calls = select("baselines.lasso")
    lasso_s = self_s("baselines.lasso")
    lasso_iterations = total("baselines.lasso", "iterations")
    minimizes = select("optimize")
    pairs = total("simulator.field", "pairs")
    simulator_s = self_s("simulator")
    return {
        "simulator.calls": len(select("simulator.field")),
        "simulator.s": simulator_s,
        "simulator.pairs": pairs,
        "simulator.ns_per_pair": 1e9 * share(simulator_s, pairs),
        "planewaves.calls": len(select("planewaves")),
        "planewaves.s": self_s("planewaves"),
        "planewaves.entries": total("planewaves", "entries"),
        "marglik.fits": len(fits),
        "marglik.fit_s": sum(s.duration for s in fits),
        "marglik.precompute_s": self_s("marglik.precompute"),
        "marglik.evals": len(evals),
        "marglik.eval_s": eval_s,
        "marglik.eval_ms": 1e3 * share(eval_s, len(evals)),
        "marglik.failed_evals": sum(s.error for s in evals),
        "marglik.self_s": self_s("marglik"),
        "optimize.line_searches": total("optimize", "line_searches"),
        "optimize.evaluations": total("optimize", "evaluations"),
        "optimize.converged_share": share(total("optimize", "converged"),
                                          len(minimizes)),
        "optimize.self_s": self_s("optimize"),
        "linalg.chol_calls": len(select("linalg.chol")),
        "linalg.chol_s": self_s("linalg.chol"),
        "linalg.jitter_applied": total("linalg.chol", "jitter"),
        "bayes.prior_s": self_s("bayes.prior"),
        "bayes.posterior_s": self_s("bayes.posterior"),
        "bayes.predict_s": self_s("bayes.predict"),
        "baselines.select_lambda_s": self_s("baselines.select_lambda"),
        "baselines.lasso_calls": len(lasso_calls),
        "baselines.lasso_s": lasso_s,
        "baselines.lasso_iterations": lasso_iterations,
        "baselines.lasso_us_per_iter": 1e6 * share(lasso_s, lasso_iterations),
        "baselines.lasso_converged_share": share(
            total("baselines.lasso", "converged"), len(lasso_calls)),
        "baselines.tikhonov_s": self_s("baselines.tikhonov"),
        "baselines.nearest_s": self_s("baselines.nearest"),
        "experiments.run_builds": len(select("simulator.snapshot")),
        "experiments.self_s": root[0].self_s,
        "geometry.sample_s": self_s("geometry"),
        "config.load_s": self_s("config"),
        "fileio.write_s": self_s("fileio"),
        "trace.wall_s": root[0].duration,
    }


def layer_self_times(spans) -> dict:
    """Self time per layer; the values add up to the root span's duration."""
    out: dict = {}
    for span in spans:
        layer = span.name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + span.self_s
    return out
