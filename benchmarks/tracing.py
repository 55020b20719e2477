"""Span tracer installed around beamchan's cross-module calls.

The tracer replaces module-global names at layer boundaries, for example
``beamchan.statistics.initial_clusters`` (the estimators calling into the
cluster layer), with timing wrappers.  Each call through a wrapper while
the tracer is enabled records a span (name, start, end, parent) in
memory.  A span's self time is its duration minus the durations of the
traced calls it made.  Counter targets only count calls.

A target that does not exist (renamed or removed by a later refactor) is
skipped and listed in ``Tracer.absent``; the metrics that depend on it
read zero.  Nothing here edits the package's source.
"""
from __future__ import annotations

import csv
import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("clusters", "statistics", "bdcm", "gbsm", "geometry", "complexity", "cli")
SIZES = (16, 32, 64, 128)
ESTIMATOR_KEYS = ("space_ccf.gbsm", "space_ccf.bdcm", "time_acf.gbsm",
                  "time_acf.bdcm", "fcf.gbsm", "fcf.bdcm", "stfcf.gbsm")


def _bound(fn, args, kwargs):
    sig = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _observe_estimator(tracer, fn, args, kwargs, result, seconds):
    arg = _bound(fn, args, kwargs)
    ensemble = arg["ensemble"] if arg["ensemble"] is not None else arg["config"].ensemble
    key = f"{fn.__name__}.{arg['model']}"
    tracer.extra[f"members.{key}"] += int(ensemble)
    tracer.extra[f"seconds.{key}"] += seconds


def _observe_builder(tracer, fn, args, kwargs, result, seconds):
    n = _bound(fn, args, kwargs)["config"].array.num_rx
    model = fn.__name__.split("_")[0]
    tracer.extra[f"calls.{model}.{n}"] += 1
    tracer.extra[f"seconds.{model}.{n}"] += seconds
    if model == "bdcm":
        coeffs = result.coeffs
        tracer.extra["bdcm.visible_pairs"] += int((coeffs != 0).sum())


def _observe_assemble(tracer, fn, args, kwargs, result, seconds):
    arg = _bound(fn, args, kwargs)
    tracer.extra["bdcm.pairs_assembled"] += (arg["u_r"].entries.shape[0]
                                             * arg["u_t"].entries.shape[0])


def _observe_write(tracer, fn, args, kwargs, result, seconds):
    tracer.extra["cli.bytes_written"] += sum(p.stat().st_size for p in result)


# (module holding the name, attribute, span name, observer); the span name
# is "<callee layer>.<function>".  Geometry is wrapped in each caller's
# namespace, so only calls made by gbsm, bdcm and statistics are seen.
SPAN_TARGETS = [
    # the benchmark's own calls into cli, the estimators and the builders
    ("beamchan.cli", "run_experiment", "cli.run_experiment", None),
    ("beamchan.cli", "write_output", "cli.write_output", _observe_write),
    ("beamchan.cli", "space_ccf", "statistics.space_ccf", _observe_estimator),
    ("beamchan.cli", "time_acf", "statistics.time_acf", _observe_estimator),
    ("beamchan.cli", "fcf", "statistics.fcf", _observe_estimator),
    ("beamchan.statistics", "space_ccf", "statistics.space_ccf", _observe_estimator),
    ("beamchan.statistics", "time_acf", "statistics.time_acf", _observe_estimator),
    ("beamchan.statistics", "fcf", "statistics.fcf", _observe_estimator),
    ("beamchan.statistics", "stfcf", "statistics.stfcf", _observe_estimator),
    ("beamchan.clusters", "initial_clusters", "clusters.initial_clusters", None),
    ("beamchan.clusters", "evolve_array", "clusters.evolve_array", None),
    ("beamchan.gbsm", "draw_gbsm_phases", "gbsm.draw_gbsm_phases", None),
    ("beamchan.gbsm", "gbsm_matrix", "gbsm.gbsm_matrix", _observe_builder),
    ("beamchan.bdcm", "draw_bdcm_phases", "bdcm.draw_bdcm_phases", None),
    ("beamchan.bdcm", "bdcm_matrix", "bdcm.bdcm_matrix", _observe_builder),
    ("beamchan.complexity", "ro_gbsm", "complexity.ro_gbsm", None),
    ("beamchan.complexity", "ro_bdcm", "complexity.ro_bdcm", None),
    # statistics -> clusters, bdcm, geometry
    ("beamchan.statistics", "initial_clusters", "clusters.initial_clusters", None),
    ("beamchan.statistics", "evolve_time", "clusters.evolve_time", None),
    ("beamchan.statistics", "beam_weights", "bdcm.beam_weights", None),
    ("beamchan.statistics", "center_los_doppler", "bdcm.center_los_doppler", None),
    ("beamchan.statistics", "aod_from_aoa", "geometry.aod_from_aoa", None),
    ("beamchan.statistics", "rx_focal_distance", "geometry.rx_focal_distance", None),
    ("beamchan.statistics", "virtual_angles", "geometry.virtual_angles", None),
    ("beamchan.statistics", "los_path_from_offsets", "geometry.los_path_from_offsets", None),
    ("beamchan.statistics", "los_doppler_from_offsets", "geometry.los_doppler_from_offsets", None),
    # gbsm -> geometry
    ("beamchan.gbsm", "antenna_distance_rx", "geometry.antenna_distance_rx", None),
    ("beamchan.gbsm", "antenna_distance_tx", "geometry.antenna_distance_tx", None),
    ("beamchan.gbsm", "aod_from_aoa", "geometry.aod_from_aoa", None),
    ("beamchan.gbsm", "rx_focal_distance", "geometry.rx_focal_distance", None),
    ("beamchan.gbsm", "los_geometry", "geometry.los_geometry", None),
    ("beamchan.gbsm", "los_doppler", "geometry.los_doppler", None),
    # bdcm internals and bdcm -> geometry
    ("beamchan.bdcm", "beam_domain_entries", "bdcm.beam_domain_entries", None),
    ("beamchan.bdcm", "response_matrix_tx", "bdcm.response_matrix_tx", None),
    ("beamchan.bdcm", "response_matrix_rx", "bdcm.response_matrix_rx", None),
    ("beamchan.bdcm", "assemble_antenna_domain", "bdcm.assemble_antenna_domain", _observe_assemble),
    ("beamchan.bdcm", "antenna_distance_rx", "geometry.antenna_distance_rx", None),
    ("beamchan.bdcm", "antenna_distance_tx", "geometry.antenna_distance_tx", None),
    ("beamchan.bdcm", "rx_focal_distance", "geometry.rx_focal_distance", None),
    ("beamchan.bdcm", "nearest_beam", "geometry.nearest_beam", None),
    ("beamchan.geometry", "VirtualAngleGrid.build", "geometry.VirtualAngleGrid.build", None),
]

# counted, not timed: (module, attribute, counter name)
COUNT_TARGETS = [
    ("beamchan.clusters", "_new_cluster", "clusters.drawn"),
]


class Tracer:
    """In-memory span recorder; ``enabled`` gates recording per call."""

    def __init__(self):
        self.enabled = False
        self.spans: list = []          # (name, start, end, parent index)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, seconds, self seconds
        self.extra = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list = []         # [span index, child seconds]
        self._restore: list = []

    def _span_wrapper(self, fn, name, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            parent = stack[-1][0] if stack else -1
            tracer.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                seconds = end - start
                if stack:
                    stack[-1][1] += seconds
                tracer.spans[index] = (name, start, end, parent)
                st = tracer.stats[name]
                st[0] += 1
                st[1] += seconds
                st[2] += seconds - frame[1]
            if observe is not None:
                observe(tracer, fn, args, kwargs, result, seconds)
            return result
        return wrapper

    def _count_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.extra[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, module_name, attr, make):
        try:
            owner = importlib.import_module(module_name)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[last] if isinstance(owner, type) else getattr(owner, last)
        except (ImportError, AttributeError, KeyError):
            self.absent.append(f"{module_name}.{attr}")
            return
        if isinstance(raw, classmethod):
            setattr(owner, last, classmethod(make(raw.__func__)))
        else:
            setattr(owner, last, make(raw))
        self._restore.append((owner, last, raw))

    def install(self):
        for module_name, attr, name, observe in SPAN_TARGETS:
            self._patch(module_name, attr,
                        lambda fn, n=name, o=observe: self._span_wrapper(fn, n, o))
        for module_name, attr, name in COUNT_TARGETS:
            self._patch(module_name, attr, lambda fn, n=name: self._count_wrapper(fn, n))

    def uninstall(self):
        for owner, last, raw in reversed(self._restore):
            setattr(owner, last, raw)
        self._restore.clear()

    def layer_self_seconds(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".")[0]] += self_s
        return out

    def write_spans(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_s", "end_s", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent])


def layer_metrics(tracer: Tracer, passes: int, traced_s: float,
                  overhead_frac: float) -> dict:
    """Per-layer metrics per traced pass, from the spans and observers.

    ``traced_s`` is the benchmark-timed operation wall time of the traced
    passes; ``overhead_frac`` compares them with untraced passes over the
    same inputs.  ``<layer>.<function>.s`` is self time; the seven
    ``<layer>.self_s`` plus ``trace.remainder_s`` add up to
    ``trace.wall_s``.
    """
    per = 1.0 / max(passes, 1)
    stats, extra = tracer.stats, tracer.extra

    def self_s(*names):
        return per * sum(stats[n][2] for n in names if n in stats)

    def calls(*names):
        return per * sum(stats[n][0] for n in names if n in stats)

    m = {}
    m["clusters.initial_clusters.s"] = self_s("clusters.initial_clusters")
    m["clusters.evolve_time.s"] = self_s("clusters.evolve_time")
    m["clusters.evolve_array.s"] = self_s("clusters.evolve_array")
    m["clusters.drawn"] = per * extra["clusters.drawn"]
    for key in ESTIMATOR_KEYS:
        members = extra[f"members.{key}"]
        m[f"statistics.{key}.ms_per_member"] = (
            1e3 * extra[f"seconds.{key}"] / members if members else 0.0)
    m["bdcm.beam_weights.calls"] = calls("bdcm.beam_weights")
    m["bdcm.beam_weights.s"] = self_s("bdcm.beam_weights")
    for model in ("bdcm", "gbsm"):
        for n in SIZES:
            count = extra[f"calls.{model}.{n}"]
            m[f"{model}.{model}_matrix.{n}.ms"] = (
                1e3 * extra[f"seconds.{model}.{n}"] / count if count else 0.0)
    m["bdcm.response_matrix.s"] = self_s("bdcm.response_matrix_tx", "bdcm.response_matrix_rx")
    m["bdcm.assemble.s"] = self_s("bdcm.assemble_antenna_domain")
    m["bdcm.grid_builds"] = calls("geometry.VirtualAngleGrid.build")
    assembled = extra["bdcm.pairs_assembled"]
    m["bdcm.visible_pair_frac"] = (extra["bdcm.visible_pairs"] / assembled
                                   if assembled else 0.0)
    m["gbsm.los_scalar_calls"] = calls("geometry.los_geometry", "geometry.los_doppler")
    geometry = [n for n in stats if n.startswith("geometry.")]
    m["geometry.calls"] = calls(*geometry)
    m["geometry.s"] = self_s(*geometry)
    m["cli.run_experiment.s"] = self_s("cli.run_experiment")
    m["cli.write_output.s"] = self_s("cli.write_output")
    m["cli.bytes_written"] = per * extra["cli.bytes_written"]
    layers = tracer.layer_self_seconds()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per * layers[layer]
    m["trace.wall_s"] = per * traced_s
    m["trace.remainder_s"] = per * (traced_s - sum(layers.values()))
    m["trace.overhead_frac"] = overhead_frac
    return m
