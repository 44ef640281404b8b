"""Benchmark of the toricres resultant pipeline, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of `perfbench/workloads.py`, or `all` to run each in
turn.  Every child process runs single-threaded, one at a time, from the
checkout's `src/`:

--trace 0  runs the workload's `cold_min` cold children, each on an empty
           certificate cache, then warm children on the cache the last one
           filled: at least `warm_min`, more while another fits in S
           seconds.  It reports the end-to-end metrics, each a median over
           the children that measure it; times are seconds at the nominal
           processor speed of `perfbench/calibrate.py`.
--trace 1  runs a traced cold child, a traced warm child and an untraced
           warm child, and reports the per-layer metrics.

Every answer is checked; a child that raises or answers wrongly counts as
failed and its timing is dropped.  Human-readable lines come first, the
last line of standard output is one JSON object.  A record with the
environment and every sample goes to `.perfbench/results/`, spans of
traced children to `.perfbench/traces/`; temp dirs live under
`.perfbench/tmp/` and are removed at the end.  The run fails if anything
else in the checkout changed.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import metrics  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT_DIR = ".perfbench"
# a run must end within 180 s; children share what is left of this
DEADLINE_S = 170.0
# top-level names the stray-write check ignores
UNWATCHED = {OUT_DIR, ".git", ".bench_build"}


# -- environment ------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "commit": _git_commit(ROOT),
        "seed": seed,
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "load_start": list(os.getloadavg()),
    }


def snapshot(root: Path) -> dict[str, tuple[int, int]]:
    """(size, mtime) of every file in the checkout outside UNWATCHED."""
    out = {}
    for top in root.iterdir():
        if top.name in UNWATCHED:
            continue
        paths = [top] if not top.is_dir() else [
            Path(d) / f for d, _, fs in os.walk(top) for f in fs]
        for p in paths:
            st = p.lstat()
            out[str(p.relative_to(root))] = (st.st_size, st.st_mtime_ns)
    return out


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# -- children ---------------------------------------------------------------------------

class Runner:
    """Starts children one at a time, each with its own cache/home dirs."""

    def __init__(self, workload: str, seed: int, tmp: Path, spans_dir: Path,
                 stamp: str):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.spans_dir = spans_dir
        self.stamp = stamp
        self.started = perf_counter()
        self.count = 0
        self.children = 0

    def fresh_dirs(self) -> tuple[Path, Path]:
        self.count += 1
        cache = self.tmp / f"cache{self.count}"
        home = self.tmp / f"home{self.count}"
        cache.mkdir(parents=True)
        home.mkdir()
        return cache, home

    def child(self, cache: Path, home: Path, phase: str, traced: bool) -> dict:
        """Run one child; its record, with `ok` false on any failure."""
        self.children += 1
        out = self.tmp / f"record{self.children}.json"
        cmd = [sys.executable, "-m", "perfbench.child",
               "--workload", self.workload, "--seed", str(self.seed),
               "--trace", str(int(traced)), "--out", str(out)]
        if traced:
            self.spans_dir.mkdir(parents=True, exist_ok=True)
            cmd += ["--spans", str(self.spans_dir / (
                f"{self.workload}-seed{self.seed}-{phase}-{self.stamp}.json.gz"))]
        tmpdir = self.tmp / "tmpdir"
        tmpdir.mkdir(exist_ok=True)
        env = dict(os.environ,
                   TORICRES_CACHE_DIR=str(cache), HOME=str(home),
                   TMPDIR=str(tmpdir), PYTHONHASHSEED="0",
                   PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        left = DEADLINE_S - (perf_counter() - self.started)
        if left <= 0:
            return {"ok": False, "phase": phase, "problems": ["no time left"]}
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            return {"ok": False, "phase": phase,
                    "problems": [f"child ran past the {DEADLINE_S:.0f} s deadline"]}
        try:
            record = json.loads(out.read_text())
        except (OSError, ValueError):
            record = {"ok": False, "problems": [
                f"child exited {proc.returncode} without a record: "
                f"{proc.stderr[-2000:]}"]}
        record["phase"] = phase
        record["home_files"] = sum(1 for p in home.rglob("*") if p.is_file())
        return record


def timed_run(runner: Runner, seconds: float, cold_min: int,
              warm_min: int) -> list[dict]:
    """`cold_min` cold children, each on a fresh cache, then warm children on
    the last cold child's cache: at least `warm_min`, more while another
    fits in `seconds`."""
    start = perf_counter()
    records = []
    for _ in range(cold_min):
        cache, home = runner.fresh_dirs()
        cold = runner.child(cache, home, "cold", traced=False)
        cold["cache_mb"] = dir_bytes(cache) / 2**20
        records.append(cold)
    warms = 0
    while True:
        warm_start = perf_counter()
        records.append(runner.child(cache, home, "warm", traced=False))
        warms += 1
        now = perf_counter()
        if warms >= warm_min and now - start + (now - warm_start) > seconds:
            return records


def traced_run(runner: Runner) -> list[dict]:
    cache, home = runner.fresh_dirs()
    return [runner.child(cache, home, "cold", traced=True),
            runner.child(cache, home, "warm", traced=True),
            runner.child(cache, home, "warm-untraced", traced=False)]


# -- metrics ----------------------------------------------------------------------------

def end_to_end(records: list[dict]) -> dict[str, float]:
    """Medians over the children that passed their check."""
    cold = [r for r in records if r["phase"] == "cold" and r["ok"]]
    warm = [r for r in records if r["phase"] == "warm" and r["ok"]]
    if not cold or not warm:
        raise ValueError("no cold or no warm child passed its check")
    return {
        "setup_s": statistics.median(r["work_s"] for r in cold),
        "solve_s": statistics.median(r["work_s"] for r in warm),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in warm),
        "cache_mb": statistics.median(r["cache_mb"] for r in cold),
    }


def per_layer(records: list[dict]) -> dict[str, float]:
    by_phase = {r["phase"]: r for r in records}
    if not all(by_phase.get(p, {}).get("ok")
               for p in ("cold", "warm", "warm-untraced")):
        raise ValueError("a traced run's child failed its check")
    out = {f"{phase}.{name}": value for phase in metrics.PHASES
           for name, value in by_phase[phase]["layers"].items()}
    out[metrics.TRACE_OVERHEAD] = (by_phase["warm"]["work_s"]
                                   / by_phase["warm-untraced"]["work_s"])
    return out


def largest_self_times(values: dict[str, float], phase: str, n: int = 3):
    """The n largest self-time metrics of one phase, largest first."""
    times = [(v, k) for k, v in values.items()
             if k.startswith(phase + ".") and k.endswith("_s")]
    return sorted(times, reverse=True)[:n]


def result_line(records: list[dict], values: dict[str, float], trace: bool,
                stray: list[str]) -> dict:
    units = ({n: u for n, u, _ in metrics.per_layer_names()} if trace else
             {m.name: m.unit for m in metrics.END_TO_END})
    failed = sum(1 for r in records if not r["ok"])
    return {
        "correct": failed == 0 and not stray,
        "attempted": len(records),
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }


# -- one workload -----------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run, report and record one workload; the result object, or raise
    ValueError when no valid timing exists."""
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%S%fZ")
    out = ROOT / OUT_DIR
    tmp = out / "tmp" / f"{name}-{os.getpid()}-{stamp}"
    env = environment(seed)
    before = snapshot(ROOT)
    runner = Runner(name, seed, tmp, out / "traces", stamp)
    try:
        w = WORKLOADS[name]
        records = (traced_run(runner) if trace else
                   timed_run(runner, seconds, w.cold_min, w.warm_min))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    after = snapshot(ROOT)
    stray = sorted(k for k in before.keys() | after.keys()
                   if before.get(k) != after.get(k))
    env["load_end"] = list(os.getloadavg())
    env["noisy"] = max(env["load_start"][0], env["load_end"][0]) > env["nproc"]
    for r in records:
        for p in r.get("problems", []):
            print(f"FAILED {name} {r['phase']}: {p}", file=sys.stderr)
    for path in stray:
        print(f"FAILED {name}: the run changed {path}", file=sys.stderr)
    (out / "results").mkdir(parents=True, exist_ok=True)
    record_path = out / "results" / f"{name}-seed{seed}-trace{int(trace)}-{stamp}.json"
    doc = {"workload": name, "trace": trace, "seconds": seconds,
           "environment": env, "records": records, "stray_writes": stray}
    try:
        values = per_layer(records) if trace else end_to_end(records)
        result = result_line(records, values, trace, stray)
        doc["fail_ratio"] = result["failed"] / result["attempted"]
        doc["result"] = result
    finally:
        record_path.write_text(json.dumps(doc, indent=1))

    print(f"{name}: seed {seed}, {len(records)} children, nproc {env['nproc']}, "
          f"load {env['load_start'][0]:.2f} -> {env['load_end'][0]:.2f}"
          f"{' (noisy)' if env['noisy'] else ''}, commit {env['commit']}")
    for n, m in result["metrics"].items():
        print(f"  {n:<38} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':<38} {result['failed'] / result['attempted']:>14.6g} "
          f"ratio ({result['failed']} of {result['attempted']} children)")
    if trace:
        for phase in metrics.PHASES:
            top = ", ".join(f"{k} {v:.3f} s" for v, k in
                            largest_self_times(values, phase))
            print(f"  largest self times, {phase}: {top}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark of toricres.")
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "toricres" / "__init__.py").is_file():
        print(f"no toricres sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace))
        except ValueError as err:
            print(f"{name}: no result: {err}", file=sys.stderr)
            return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
