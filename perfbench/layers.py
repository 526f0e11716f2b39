"""Per-layer tracing from outside the program.

The layers are the modules of ``k3witness``.  ``Tracer.patch`` replaces every
public function of the library modules, plus ``cli.main`` and
``cli.witness_dict``, with a wrapper that records a span, under every name
that binds it in any loaded ``k3witness`` module (``families`` calls
``push_negative`` through its own import of it, ``pell`` calls its own
globals).  The other public names of ``cli`` (the parser and the ``cmd_*``
handlers) are steps of ``main`` and stay inside its self time.

Spans are kept in flat arrays while requests run and are written out only
at the end.  Counters that need return values (hits, periods, bit sizes,
witnesses built and kept) are taken in the wrappers, at the same boundary as
the span.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict

LIBRARY_LAYERS = ("pell", "families", "lattice", "mukai", "hilbert")
CLI_TRACED = ("main", "witness_dict")

# pell functions behind functools.lru_cache whose cache_info() is reported
CACHED = ("class_representatives", "fundamental_unit")


def _witness_bits(w) -> int:
    return max(abs(w.x).bit_length(), abs(w.y).bit_length())


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.span_request = array("l")
        self.stack = [-1]
        self.request = -1
        self.counters: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------
    def _targets(self, package) -> dict[int, tuple[str, object]]:
        targets = {}
        for layer in LIBRARY_LAYERS + ("cli",):
            module = sys.modules[f"{package}.{layer}"]
            for name, fn in vars(module).items():
                if layer == "cli" and name not in CLI_TRACED:
                    continue
                if (name.startswith("_") or isinstance(fn, type) or not callable(fn)
                        or getattr(fn, "__module__", None) != module.__name__):
                    continue
                targets[id(fn)] = (f"{layer}.{name}", fn)
        return targets

    def patch(self, package: str = "k3witness") -> None:
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in self._targets(package).items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_request, stack = self.span_parent, self.span_request, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_request.append(self.request)
            span_end.append(0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span_end[idx] = clock()
                stack.pop()
                if name == "pell.push_negative" and getattr(exc, "certified", False):
                    self.counters["pell.push_negative.certified_unreachable"] += 1
                raise
            span_end[idx] = clock()
            stack.pop()
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- counters from return values ---------------------------------------
    def _observe_pell_constrained_orbit_hits(self, hits) -> None:
        self.counters["pell.constrained_orbit_hits.hits"] += len(hits)

    def _observe_pell_residue_period(self, period) -> None:
        self.counters["pell.residue_period.period_sum"] += period

    def _observe_pell_unit_power(self, unit) -> None:
        c = self.counters
        c["pell.unit_power.max_bits"] = max(c["pell.unit_power.max_bits"], unit.u0.bit_length())

    def _observe_families_membership(self, outcomes) -> None:
        built = [oc.witness for oc in outcomes if oc.witness is not None]
        c = self.counters
        c["families.witnesses_built"] += len(built)
        for w in built:
            c["families.witness_max_bits"] = max(c["families.witness_max_bits"], _witness_bits(w))
        # member() keeps one of these and is counted there; a caller that reads
        # membership() directly (the member command) also keeps one
        parent = self.stack[-1]
        if built and (parent < 0 or self.names[self.span_name[parent]] != "families.member"):
            c["families.witnesses_returned"] += 1

    def _observe_families_member(self, witness) -> None:
        if witness is not None:
            self.counters["families.witnesses_returned"] += 1

    def _observe_families_witness_chain(self, chain) -> None:
        c = self.counters
        c["families.witness_max_bits"] = max(
            c["families.witness_max_bits"], max(_witness_bits(w) for w in chain)
        )

    # -- aggregation --------------------------------------------------------
    def span_count(self) -> int:
        return len(self.span_name)

    def summary(self) -> tuple[dict[str, dict[str, float]], int]:
        """Per function: calls, wall and self seconds; and the bad-span count.

        A span's self time is its duration minus the durations of its direct
        children; a span whose children overrun it, or that ends before it
        starts, is counted as bad.
        """
        n = len(self.span_name)
        child = [0] * n
        parent, start, end = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        stats: dict[str, dict[str, float]] = {
            name: {"calls": 0, "wall_s": 0.0, "self_s": 0.0} for name in self.names
        }
        bad = 0
        for i in range(n):
            wall = end[i] - start[i]
            own = wall - child[i]
            if not 0 <= own <= wall:
                bad += 1
            s = stats[self.names[self.span_name[i]]]
            s["calls"] += 1
            s["wall_s"] += wall / 1e9
            s["self_s"] += own / 1e9
        return stats, bad

    def write_spans(self, path: str) -> None:
        """Write every span as gzip-compressed tab-separated text."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\trequest\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i, (nid, p, r, s, e) in enumerate(zip(
                self.span_name, self.span_parent, self.span_request, self.span_start, self.span_end
            )):
                fh.write(f"{i}\t{p}\t{r}\t{names[nid]}\t{s}\t{e}\n")


def cache_misses(caches: dict) -> dict[str, int]:
    """Misses since the last cache_clear() of the cached pell functions."""
    return {f"pell.{name}.cache_misses": caches[f"pell.{name}"].cache_info().misses for name in CACHED}
