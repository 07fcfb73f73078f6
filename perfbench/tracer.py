"""Tracer for incalg: wraps public functions and methods of each library
module from outside, without editing the library.

A span is recorded around every wrapped call. Spans nest on one stack (the
benchmark is single-threaded), so a span's self time is its duration minus
the durations of the spans it directly encloses. Per-call spans are
aggregated on the fly into (calls, total, self) per group instead of being
kept one by one: the census-dense workload makes well over a million
wrapped calls per pass.

Module-level functions are often bound by name in other modules at import
(``incalg.verify`` imports ``is_strong``, ``extract_subset_map``,
``to_partition`` ...), so each wrapper replaces every binding of the original
object in every loaded ``incalg`` module, not only the defining one.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

clock = time.perf_counter


@dataclass(frozen=True)
class Probe:
    """One wrapped callable: ``target`` is ``module:qualname``.

    ``kind`` is ``span`` (timed), ``gen`` (a generator function, timed per
    step and counted once per full scan) or ``count`` (call count only, for
    sub-microsecond operations where a timed span would outweigh the work).
    Probes sharing a ``group`` are reported together; a call nested inside
    another call of the same group counts once, at the outermost level.
    """

    target: str
    group: str
    kind: str = "span"


PROBES = (
    # verify
    Probe("incalg.verify:enumerate_preservers", "census"),
    Probe("incalg.verify:merge_census", "merge"),
    Probe("incalg.verify:CensusReport.to_json", "report_json"),
    Probe("incalg.verify:classify", "classify"),
    Probe("incalg.verify:analyze_map", "analyze_map"),
    Probe("incalg.verify:verify_lemma_suite", "lemma_suite"),
    Probe("incalg.verify:verify_inverse_preserver_results", "inverse_suite"),
    # preservers
    Probe("incalg.preservers:LinearMap.apply", "apply"),
    Probe("incalg.preservers:LinearMap.rank", "rank"),
    Probe("incalg.preservers:build_preserver", "build_preserver"),
    Probe("incalg.preservers:extract_subset_map", "extract_subset_map"),
    Probe("incalg.preservers:find_nonpreserved_unit", "nonpreserved_scan"),
    Probe("incalg.preservers:find_strongness_counterexample", "strong_scan"),
    Probe("incalg.preservers:find_inverse_counterexample", "inverse_scan"),
    Probe("incalg.preservers:find_idempotent_counterexample", "idempotent_scan"),
    Probe("incalg.preservers:iter_idempotents", "idempotent_scan", "gen"),
    Probe("incalg.preservers:find_jordan_counterexample", "jordan_scan"),
    # endos
    Probe("incalg.endos:is_separating", "is_separating"),
    Probe("incalg.endos:is_boolean_endo", "is_boolean_endo"),
    Probe("incalg.endos:to_partition", "to_partition"),
    Probe("incalg.endos:to_xor_endo", "to_xor_endo"),
    Probe("incalg.endos:PartitionEndo.table", "table"),
    Probe("incalg.endos:XorEndo.table", "table"),
    # algebra
    Probe("incalg.algebra:FIElement.__mul__", "conv"),
    Probe("incalg.algebra:FIElement.inverse", "inverse"),
    Probe("incalg.algebra:FIElement.__init__", "elements_built", "count"),
    # fields
    Probe("incalg.fields:Scalar.__add__", "scalar_ops", "count"),
    Probe("incalg.fields:Scalar.__sub__", "scalar_ops", "count"),
    Probe("incalg.fields:Scalar.__mul__", "scalar_ops", "count"),
    Probe("incalg.fields:Scalar.__neg__", "scalar_ops", "count"),
    Probe("incalg.fields:Scalar.inverse", "scalar_ops", "count"),
    Probe("incalg.fields:PrimeField.__eq__", "field_eq", "count"),
    Probe("incalg.fields:Rationals.__eq__", "field_eq", "count"),
)


class GroupStats:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Installs the probes, aggregates spans, and restores every binding.

    Use as a context manager. Census reports and verdict lists returned
    through a span are also counted (matrices visited, survivors, verdicts),
    so work counts are taken at the boundary where the work happens.
    """

    def __init__(self):
        self.groups: dict[str, GroupStats] = {}
        self.top_level = 0.0          # time covered by spans with no parent
        self.matrices_visited = 0
        self.survivors = 0
        self.verdicts = 0
        self.missing: list[str] = []  # targets absent from this library version
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    # aggregation ---------------------------------------------------------

    def reset(self):
        """Zero every statistic in place; installed wrappers keep theirs."""
        for stats in self.groups.values():
            stats.calls, stats.total, stats.self_time = 0, 0.0, 0.0
        self.top_level = 0.0
        self.matrices_visited = self.survivors = self.verdicts = 0

    def group(self, name: str) -> GroupStats:
        stats = self.groups.get(name)
        if stats is None:
            stats = self.groups[name] = GroupStats()
        return stats

    def _observe(self, group: str, result):
        if group == "census":
            self.matrices_visited += result.stop - result.start
            self.survivors += result.oracle_count
        elif group in ("lemma_suite", "inverse_suite"):
            self.verdicts += len(result)

    def _close(self, stats: GroupStats, frame: list[float], dt: float, count_call: bool):
        stack = self._stack
        stack.pop()
        stats.depth -= 1
        stats.self_time += dt - frame[0]
        if stats.depth == 0:
            stats.total += dt
            if count_call:
                stats.calls += 1
        if stack:
            stack[-1][0] += dt
        else:
            self.top_level += dt

    # wrappers --------------------------------------------------------------

    def _span(self, fn, group: str):
        stats = self.group(group)
        stack = self._stack
        close = self._close
        observe = group in ("census", "lemma_suite", "inverse_suite")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stats.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(stats, frame, clock() - t0, True)
            if observe:
                self._observe(group, result)
            return result

        return wrapper

    def _gen(self, fn, group: str):
        stats = self.group(group)
        stack = self._stack
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = stats.depth == 0
            gen = fn(*args, **kwargs)
            try:
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    stats.depth += 1
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(stats, frame, clock() - t0, False)
                    yield item
            finally:
                gen.close()
                if outermost:
                    stats.calls += 1

        return wrapper

    def _count(self, fn, group: str):
        stats = self.group(group)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # installation ----------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "incalg" or name.startswith("incalg.")]
        for probe in PROBES:
            module_name, _, qualname = probe.target.partition(":")
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(probe.target)
                continue
            make = {"span": self._span, "gen": self._gen, "count": self._count}[probe.kind]
            wrapper = make(original, probe.group)
            if path:  # a method: one binding, on its class
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, name: str, wrapper):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
