"""Per-layer timing for one traced child process.

`install` replaces, in this process only, the public functions through
which each layer calls the next with wrappers that record spans
(name, start, end, parent) in memory.  Callers look these names up at call
time (module globals and class attributes), so the program itself is not
edited.  `layer_metrics` turns the spans and a few sizes read from the
results into the per-layer metrics named in `metrics.PER_LAYER`.
"""
from __future__ import annotations

import functools
import gzip
import json
from time import perf_counter

# span name -> per-layer metric that receives the span's self time
SELF_TIME = {
    "resultant.a_resultant": "resultant.self_s",
    "resultant.variety_of": "toric.variety_of_s",
    "resultant.koszul_generic": "complexes.koszul_s",
    "resultant.weyman_differential": "weyman.assemble_self_s",
    "weyman.weyman_terms": "weyman.terms_self_s",
    "weyman.contributing_points": "cech.contributing_points_s",
    "weyman.family_certs": "cech.family_certs_s",
    "resultant.primitive_part": "qpoly.primitive_part_s",
    "resultant.kth_root": "qpoly.kth_root_s",
    "PolyMatrix.det": "qpoly.det_s",
    "SparsePoly.exact_div": "qpoly.exact_div_s",
    "SparsePoly.__mul__": "qpoly.mul_s",
    "QMatrix.rank": "qlinalg.rank_s",
}

# span name -> per-layer metric that counts the spans
CALLS = {
    "resultant.kth_root": "qpoly.kth_root_calls",
    "PolyMatrix.det": "qpoly.det_calls",
    "SparsePoly.exact_div": "qpoly.exact_div_calls",
    "SparsePoly.__mul__": "qpoly.mul_calls",
    "QMatrix.rank": "qlinalg.rank_calls",
}


class Recorder:
    """Spans of one process, kept in memory until the run ends.

    A span is [name, start, end, parent index]; parent -1 marks a root."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = [-1]
        self.det_n_max = 0
        self.points: dict = {}        # (variety, class) -> contributing points
        self.complexes: list = []     # every WeymanComplex built

    def open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1]])
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """`fn` recorded as a span; `after(args, result)` reads sizes once
        the span is closed."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(args, out)
            return out
        return traced

    def wrap_misses(self, name: str, cached):
        """An `lru_cache` function recorded only on calls that miss its memo;
        a hit's time stays with its caller."""
        @functools.wraps(cached)
        def traced(*args, **kwargs):
            misses = cached.cache_info().misses
            i = self.open(name)
            try:
                return cached(*args, **kwargs)
            finally:
                self.close(i)
                if cached.cache_info().misses == misses:
                    self.spans.pop()   # a hit opens no children
        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt") as f:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, f)


def install(rec: Recorder):
    """Wrap the layer boundaries of the package; returns a function that
    puts the originals back."""
    from toricres import qlinalg, qpoly, resultant, weyman

    def det_size(args, out):
        rec.det_n_max = max(rec.det_n_max, args[0].nrows)

    def points(args, out):
        rec.points[(args[0], tuple(args[1]))] = out

    def complexes(args, out):
        rec.complexes.append(out)

    # (owner, attribute, span name, wrapper maker)
    plan = [(resultant, n, f"resultant.{n}", rec.wrap)
            for n in ("a_resultant", "variety_of", "koszul_generic",
                      "primitive_part", "kth_root")]
    plan += [
        (resultant, "weyman_differential", "resultant.weyman_differential",
         lambda name, fn: rec.wrap(name, fn, complexes)),
        (weyman, "weyman_terms", "weyman.weyman_terms", rec.wrap),
        (weyman, "contributing_points", "weyman.contributing_points",
         lambda name, fn: rec.wrap(name, fn, points)),
        (weyman, "family_certs", "weyman.family_certs", rec.wrap_misses),
        (qpoly.PolyMatrix, "det", "PolyMatrix.det",
         lambda name, fn: rec.wrap(name, fn, det_size)),
        (qpoly.SparsePoly, "exact_div", "SparsePoly.exact_div", rec.wrap),
        (qpoly.SparsePoly, "__mul__", "SparsePoly.__mul__", rec.wrap),
        (qlinalg.QMatrix, "rank", "QMatrix.rank", rec.wrap),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in plan]
    for owner, attr, name, make in plan:
        setattr(owner, attr, make(name, getattr(owner, attr)))

    def restore() -> None:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
    return restore


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so children never overlap each other."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(rec: Recorder, outputs, counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced process, without the cold/warm prefix.

    `outputs` are the `ResultantOutput`s of the run and `counters` the
    package's family-cache counters after it."""
    m: dict[str, float] = {name: 0.0 for name in SELF_TIME.values()}
    m.update({name: 0 for name in CALLS.values()})
    for span, t in zip(rec.spans, self_times(rec.spans)):
        name = span[0]
        m[SELF_TIME[name]] += t
        if name in CALLS:
            m[CALLS[name]] += 1
    m["qpoly.det_n_max"] = rec.det_n_max
    m["cech.points"] = sum(len(p) for p in rec.points.values())
    m["cech.patterns"] = len({neg for pts in rec.points.values()
                              for _, neg in pts})
    built, disk = counters["built"], counters["disk"]
    m["cech.families_built"] = built
    m["cech.families_disk"] = disk
    m["cech.families_memory"] = counters["memory"]
    m["cech.disk_hit_ratio"] = disk / (disk + built) if disk + built else 0.0
    ranks = [W.rank(i) for W in rec.complexes for i in W.degrees()]
    entries = [p for W in rec.complexes for d in W.diffs.values()
               for row in d.rows for p in row if p]
    m["weyman.rank_max"] = max(ranks, default=0)
    m["weyman.rank_sum"] = sum(ranks)
    m["weyman.nnz"] = len(entries)
    m["weyman.poly_terms"] = sum(p.num_terms() for p in entries)
    m["qpoly.delta_terms"] = max(o.delta.num_terms() for o in outputs)
    m["qpoly.delta_degree"] = max(o.delta.total_degree() for o in outputs)
    m["resultant.multiplicity"] = max(o.multiplicity for o in outputs)
    return m
