"""Every metric the benchmark reports, with its unit and, for the layers,
which end-to-end metric it should move and where it should stay put.

`BENCHMARK.json` at the repository root lists the same metrics; the
benchmark's tests keep the two in step.
"""
from __future__ import annotations

from typing import NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float      # share of the parent's median a change may lose


END_TO_END = (
    # cold child, empty certificate cache: first library call to result, in
    # seconds at the nominal processor speed of `calibrate`
    EndToEnd("setup_s", "s", "lower", 0.25),
    # warm child, on the cache the cold child left: same calls, same timer
    EndToEnd("solve_s", "s", "lower", 0.25),
    # ru_maxrss of the warm child, read inside it
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10),
    # bytes the cold child leaves in its cache directory
    EndToEnd("cache_mb", "MiB", "lower", 0.05),
)


class Layer(NamedTuple):
    name: str         # reported as cold.<name> and warm.<name>
    unit: str
    better: str
    moves: str        # end-to-end metric and workload(s) a change here should move
    stays: str        # workload(s) where it should not move


_CECH_RANKS = ("solve_s on sturmfels-printed and m33-zero (modular ranks)",
               "squares-default")
_CECH_CACHE = ("setup_s on m33-zero; warm cache_mb and solve_s (pivoting, "
               "disk cache)", "squares-default")
_SIZES = ("solve_s on squares-default (twist choice)",
          "sturmfels-printed and m33-zero (explicit twists)")
_KERNEL = ("solve_s and setup_s on squares-default, slightly on m33-zero "
           "(heap division and multiplication)", "sturmfels-printed")
_ROOT = ("solve_s on m33-zero (profiling, specialization, kth_root)",
         "sturmfels-printed and squares-default")
_GUARD = ("nothing: should stay near 0", "every workload")

PER_LAYER = (
    Layer("toric.variety_of_s", "s", "lower", *_GUARD),
    Layer("complexes.koszul_s", "s", "lower", *_GUARD),
    Layer("cech.contributing_points_s", "s", "lower", *_CECH_RANKS),
    Layer("cech.patterns", "count", "lower", *_CECH_RANKS),
    Layer("cech.points", "count", "lower", *_CECH_RANKS),
    Layer("qlinalg.rank_s", "s", "lower", *_CECH_RANKS),
    Layer("qlinalg.rank_calls", "count", "lower", *_CECH_RANKS),
    Layer("cech.family_certs_s", "s", "lower", *_CECH_CACHE),
    Layer("cech.families_built", "count", "lower", *_CECH_CACHE),
    Layer("cech.families_disk", "count", "higher", *_CECH_CACHE),
    Layer("cech.families_memory", "count", "higher", *_CECH_CACHE),
    Layer("cech.disk_hit_ratio", "ratio", "higher", *_CECH_CACHE),
    Layer("weyman.terms_self_s", "s", "lower",
          "solve_s on m33-zero (staircase)", "sturmfels-printed"),
    Layer("weyman.assemble_self_s", "s", "lower",
          "solve_s on m33-zero (staircase)", "sturmfels-printed"),
    Layer("weyman.rank_max", "count", "lower", *_SIZES),
    Layer("weyman.rank_sum", "count", "lower", *_SIZES),
    Layer("weyman.nnz", "count", "lower", *_SIZES),
    Layer("weyman.poly_terms", "count", "lower", *_SIZES),
    Layer("qpoly.det_s", "s", "lower", *_KERNEL),
    Layer("qpoly.det_calls", "count", "lower", *_KERNEL),
    Layer("qpoly.det_n_max", "count", "lower", *_KERNEL),
    Layer("qpoly.exact_div_s", "s", "lower", *_KERNEL),
    Layer("qpoly.exact_div_calls", "count", "lower", *_KERNEL),
    Layer("qpoly.mul_s", "s", "lower", *_KERNEL),
    Layer("qpoly.mul_calls", "count", "lower", *_KERNEL),
    Layer("qpoly.primitive_part_s", "s", "lower", *_GUARD),
    Layer("qpoly.kth_root_s", "s", "lower", *_ROOT),
    Layer("qpoly.kth_root_calls", "count", "lower", *_ROOT),
    Layer("qpoly.delta_terms", "count", "lower", *_ROOT),
    Layer("qpoly.delta_degree", "count", "lower", *_ROOT),
    Layer("resultant.multiplicity", "count", "lower", *_ROOT),
    Layer("resultant.self_s", "s", "lower", *_ROOT),
)

PHASES = ("cold", "warm")

# traced time of the warm child over the untraced warm child, both at the
# nominal speed
TRACE_OVERHEAD = "bench.trace_overhead"


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, as reported."""
    out = [(f"{phase}.{m.name}", m.unit, m.better)
           for phase in PHASES for m in PER_LAYER]
    out.append((TRACE_OVERHEAD, "ratio", "lower"))
    return out
