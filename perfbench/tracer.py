"""Spans around calls into mixlearn's public functions, recorded from outside.

``SPANS`` maps each layer to every module attribute its functions are looked
up by: a function imported into several modules (``tv.density_crossings`` is
also ``scheffe.density_crossings``) is wrapped under each name, so a call
through any of them is seen.  ``COUNTERS`` wraps the scalar density, CDF and
characteristic-function calls and ``scheffe_set`` with a call count
only, because a span per scalar call would cost more than the call.

A span records its layer, start, end, parent span and op id.  Self time is a
span's duration minus the durations of its direct children; calls run on one
thread, so children never overlap.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import json
import os
import time

SPANS = {
    "sampling.sample": (
        "mixlearn.sample", "mixlearn.sampling.sample",
        "mixlearn.learners.sample", "mixlearn.cli.sample",
    ),
    "moments.estimate": (
        "mixlearn.estimate_moments", "mixlearn.moments.estimate_moments",
        "mixlearn.learners.estimate_moments",
        "mixlearn.estimate_pmf", "mixlearn.moments.estimate_pmf",
        "mixlearn.learners.estimate_pmf",
    ),
    "moments.round_to_lattice": (
        "mixlearn.round_to_lattice", "mixlearn.moments.round_to_lattice",
        "mixlearn.learners.round_to_lattice", "mixlearn.powersums.round_to_lattice",
    ),
    "powersums.solve": (
        "mixlearn.moments_to_power_sums", "mixlearn.powersums.moments_to_power_sums",
        "mixlearn.learners.moments_to_power_sums",
        "mixlearn.pmf_to_power_sums", "mixlearn.powersums.pmf_to_power_sums",
        "mixlearn.learners.pmf_to_power_sums",
    ),
    "powersums.reconstruct": (
        "mixlearn.reconstruct_multiset", "mixlearn.powersums.reconstruct_multiset",
        "mixlearn.learners.reconstruct_multiset",
    ),
    "powersums.identifiability": (
        "mixlearn.verify_identifiability", "mixlearn.powersums.verify_identifiability",
        "mixlearn.cli.verify_identifiability",
    ),
    "distributions.exact_moments": (
        "mixlearn.mixture_moment_exact", "mixlearn.distributions.mixture_moment_exact",
        "mixlearn.learners.mixture_moment_exact",
        "mixlearn.mixture_pmf_exact", "mixlearn.distributions.mixture_pmf_exact",
        "mixlearn.learners.mixture_pmf_exact",
    ),
    "scheffe.precompute": (
        "mixlearn.precompute_mde", "mixlearn.scheffe.precompute_mde",
        "mixlearn.learners.precompute_mde",
    ),
    "scheffe.select": (
        "mixlearn.mde_select", "mixlearn.scheffe.mde_select",
        "mixlearn.learners.mde_select",
    ),
    "scheffe.candidate_family": (
        "mixlearn.candidate_family", "mixlearn.scheffe.candidate_family",
        "mixlearn.learners.candidate_family",
    ),
    "tv.density_crossings": (
        "mixlearn.tv.density_crossings", "mixlearn.scheffe.density_crossings",
    ),
    "tv.tv_exact": ("mixlearn.tv_exact", "mixlearn.tv.tv_exact", "mixlearn.cli.tv_exact"),
    "tv.charfn_bound": (
        "mixlearn.tv_lower_bound_charfn", "mixlearn.tv.tv_lower_bound_charfn",
        "mixlearn.cli.tv_lower_bound_charfn",
    ),
    "littlewood.arc_max_batch": (
        "mixlearn.arc_max_batch", "mixlearn.littlewood.arc_max_batch",
    ),
    "fileio.write_dataset": ("mixlearn.fileio.write_dataset", "mixlearn.cli.write_dataset"),
    "fileio.read_dataset": ("mixlearn.fileio.read_dataset", "mixlearn.cli.read_dataset"),
    "cli.dispatch": ("mixlearn.cli.cli_dispatch",),
    "learners": (
        "mixlearn.learn_binomial_moments", "mixlearn.learners.learn_binomial_moments",
        "mixlearn.cli.learn_binomial_moments",
        "mixlearn.learn_geometric", "mixlearn.learners.learn_geometric",
        "mixlearn.cli.learn_geometric",
        "mixlearn.learn_mde", "mixlearn.learners.learn_mde", "mixlearn.cli.learn_mde",
    ),
}

COUNTERS = {
    "distributions.density_evals": (
        "mixlearn.scheffe.pmf_or_pdf", "mixlearn.tv.pmf_or_pdf",
    ),
    "distributions.cdf_evals": ("mixlearn.scheffe.cdf", "mixlearn.tv.cdf"),
    "distributions.charfn_evals": ("mixlearn.tv.char_fn",),
    "scheffe.sets": ("mixlearn.scheffe_set", "mixlearn.scheffe.scheffe_set"),
}

# (name, unit, better); every value covers one traced set-up plus one traced
# round of ops, so counts repeat exactly between runs of the same workload.
PER_LAYER = (
    ("sampling.sample.calls", "count", "lower"),
    ("sampling.sample.self_s", "s", "lower"),
    ("sampling.values_per_s", "1/s", "higher"),
    ("moments.estimate.self_s", "s", "lower"),
    ("moments.round_to_lattice.calls", "count", "lower"),
    ("moments.round_to_lattice.self_s", "s", "lower"),
    ("powersums.solve.self_s", "s", "lower"),
    ("powersums.solve.orders_kept_share", "ratio", "higher"),
    ("powersums.reconstruct.self_s", "s", "lower"),
    ("powersums.errors", "count", "lower"),
    ("distributions.exact_moments.self_s", "s", "lower"),
    ("distributions.density_evals", "count", "lower"),
    ("distributions.cdf_evals", "count", "lower"),
    ("distributions.charfn_evals", "count", "lower"),
    ("scheffe.precompute.self_s", "s", "lower"),
    ("scheffe.sets", "count", "lower"),
    ("scheffe.select.self_s", "s", "lower"),
    ("scheffe.candidate_family.calls", "count", "lower"),
    ("scheffe.candidate_family.self_s", "s", "lower"),
    ("scheffe.tie_broken_share", "ratio", "lower"),
    ("tv.density_crossings.calls", "count", "lower"),
    ("tv.density_crossings.self_s", "s", "lower"),
    ("tv.tv_exact.self_s", "s", "lower"),
    ("tv.charfn_bound.self_s", "s", "lower"),
    ("powersums.identifiability.self_s", "s", "lower"),
    ("powersums.identifiability.objects_per_s", "1/s", "higher"),
    ("littlewood.arc_max_batch.self_s", "s", "lower"),
    ("littlewood.rows_per_s", "1/s", "higher"),
    ("littlewood.canonical_row_share", "ratio", "higher"),
    ("fileio.write_dataset.self_s", "s", "lower"),
    ("fileio.read_dataset.self_s", "s", "lower"),
    ("fileio.bytes_per_s", "B/s", "higher"),
    ("cli.dispatch.self_s", "s", "lower"),
    ("learners.self_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


# Counters read from a wrapped call's arguments and result, keyed by the
# wrapped function's name.
def _moments_solve(counts, args, kwargs, result):
    counts["solve.requested"] += len(_arg(args, kwargs, 0, "moments")) - 1
    counts["solve.kept"] += result[0].T


def _pmf_solve(counts, args, kwargs, result):
    counts["solve.requested"] += len(_arg(args, kwargs, 0, "probs"))
    counts["solve.kept"] += result[0].T


def _select(counts, args, kwargs, result):
    counts["select.calls"] += 1
    counts["select.ties"] += bool(result.tie_broken)


def _arc_rows(counts, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "coeff_rows")
    counts["littlewood.rows"] += rows.shape[0]
    counts["littlewood.canonical"] += int((rows[:, 0] == 1).sum())


def _file_bytes(counts, args, kwargs, result):
    counts["fileio.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


OBSERVERS = {
    "sample": lambda c, a, k, r: c.update({"sampling.values": len(r)}),
    "moments_to_power_sums": _moments_solve,
    "pmf_to_power_sums": _pmf_solve,
    "mde_select": _select,
    "verify_identifiability": lambda c, a, k, r: c.update(
        {"identifiability.objects": r.object_count}),
    "arc_max_batch": _arc_rows,
    "write_dataset": _file_bytes,
    "read_dataset": _file_bytes,
}


def resolve(qualname):
    """(module, attribute) for ``package.module.attr``; raises LookupError
    when the attribute is missing, so a renamed function stops the run."""
    module_name, attr = qualname.rsplit(".", 1)
    module = importlib.import_module(module_name)
    if not hasattr(module, attr):
        raise LookupError(f"traced name {qualname} does not exist")
    return module, attr


class Tracer:
    """Wraps the names in SPANS and COUNTERS while installed; spans stay in
    memory until ``write``."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent, op, error]
        self.counts = collections.Counter()
        self._stack = []
        self._op = None
        self._undo = []

    def install(self):
        targets = [(layer, name, self._span) for layer, names in SPANS.items()
                   for name in names]
        targets += [(layer, name, self._counter) for layer, names in COUNTERS.items()
                    for name in names]
        resolved = [(layer, resolve(name), wrap) for layer, name, wrap in targets]
        for layer, (module, attr), wrap in resolved:
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, wrap(layer, original))

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _open(self, layer):
        record = [layer, 0.0, 0.0, self._stack[-1] if self._stack else None,
                  self._op, False]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record):
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name, op):
        """Span around one op (or the set-up); every span opened inside it
        carries its op id."""
        self._op = op
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)
            self._op = None

    def _span(self, layer, fn):
        observe = OBSERVERS.get(fn.__name__)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                record[5] = True
                raise
            finally:
                self._close(record)
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, layer, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self):
        """Self time of every span, in span order."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, op, error in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (_, start, end, *_), c in zip(self.spans, child)]

    def write(self, path):
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for (layer, start, end, parent, op, error), s in zip(self.spans, selfs):
                fh.write(json.dumps({
                    "name": layer, "start": start, "end": end, "parent": parent,
                    "op": op, "error": error, "self_s": s,
                }) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")

    def metrics(self, overhead_share):
        """Every PER_LAYER value; a layer that was never called reads 0."""
        self_s = collections.defaultdict(float)
        calls = collections.Counter()
        errors = collections.Counter()
        for (layer, *_, error), s in zip(self.spans, self.self_times()):
            self_s[layer] += s
            calls[layer] += 1
            errors[layer] += error
        c = self.counts

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        fileio_s = self_s["fileio.write_dataset"] + self_s["fileio.read_dataset"]
        values = {
            "sampling.values_per_s": rate(c["sampling.values"], self_s["sampling.sample"]),
            "powersums.solve.orders_kept_share": rate(c["solve.kept"], c["solve.requested"]),
            "powersums.errors": errors["powersums.solve"] + errors["powersums.reconstruct"],
            "scheffe.tie_broken_share": rate(c["select.ties"], c["select.calls"]),
            "powersums.identifiability.objects_per_s": rate(
                c["identifiability.objects"], self_s["powersums.identifiability"]),
            "littlewood.rows_per_s": rate(
                c["littlewood.rows"], self_s["littlewood.arc_max_batch"]),
            "littlewood.canonical_row_share": rate(
                c["littlewood.canonical"], c["littlewood.rows"]),
            "fileio.bytes_per_s": rate(c["fileio.bytes"], fileio_s),
            "trace.overhead_share": overhead_share,
        }
        for layer in COUNTERS:
            values[layer] = c[layer]
        out = {}
        for name, unit, _ in PER_LAYER:
            if name not in values:
                layer, what = name.rsplit(".", 1)
                values[name] = calls[layer] if what == "calls" else self_s[layer]
            out[name] = {"value": values[name], "unit": unit}
        return out
