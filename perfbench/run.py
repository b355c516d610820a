"""pavemat benchmark: end-to-end and per-layer timings of the CLI.

    python3 perfbench/run.py --workload list --seed 1 --seconds 55 --trace 0

Run from the repository root. Workloads are defined in ``workloads.py`` and
explained in ``README.md``. Load is a closed loop with one client: each pass
over a workload's cases runs in a fresh Python process (``worker.py``), the
cases one after another, and the next pass starts only after the previous one
has ended. Passes repeat while the next one is expected to end within
``--seconds``; at least one always runs.

With ``--trace 0`` the last stdout line reports the end-to-end metrics, each
the median over the run's samples. Times are in reference seconds: every
worker also times a fixed reference loop before each case and after the last,
and its seconds are scaled by ``REF_NOMINAL_S`` over its mean reference time,
so that the CPU speed of a shared host, which drifts by up to 2x over tens of
seconds, cancels out. The raw times are printed and recorded beside them.
With ``--trace 1`` every pass is run twice, untraced and then traced (see
``spans.py``), and the last line reports the per-layer metrics plus the
tracing overhead. Every output is checked; any failure makes ``correct``
false and the exit code 1. ``--smoke`` swaps in tiny inputs that cover the
same paths in seconds.

Each run also appends a record with machine metadata, quartiles and per-case
times to ``.perfbench_out/results.jsonl``; a traced run leaves its spans in
``.perfbench_out/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

END_TO_END = {"setup_s": "s", "wall_s": "s", "grid_s": "s", "lines_s": "s", "peak_rss_mb": "MB"}
# Reported in the readable lines and the run record but not in the final line,
# which the end-to-end bounds apply to, because both can read 0: quasi_s on
# the count workload, error_rate on every correct run.
EXTRA = {"quasi_s": "s", "error_rate": "ratio", "setup_raw_s": "s", "wall_raw_s": "s", "ref_s": "s"}
UNITS = {**END_TO_END, **EXTRA, **{name: unit for name, (unit, _) in LAYER_METRICS.items()}}

SETUP_PROBES = 9  # import-only processes per run, besides one per pass
# Reference seconds are seconds on a machine that runs worker.reference() in
# this time; a shared 2-core Xeon VM takes 0.07-0.14 s, depending on load
# from its neighbours.
REF_NOMINAL_S = 0.1
RUN_LIMIT_S = 170  # every run must end within 180 s


def median_quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pavemat").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata() -> dict:
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def validate_hypergraphs(paths: list[Path]) -> None:
    """Every generated file must be accepted by quasi.quasi_rep."""
    if not paths:
        return
    sys.path.insert(0, str(SRC))
    from pavemat.quasi import quasi_rep

    for path in paths:
        obj = json.loads(path.read_text())
        quasi_rep(obj["d"], obj["n"], [[e - 1 for e in member] for member in obj["H"]])


class Runner:
    """Starts worker processes one at a time and keeps their reports."""

    def __init__(self, args: argparse.Namespace, work: Path):
        self.args = args
        self.work = work
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.failures: list[str] = []
        self.attempted = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def worker(self, cases: list[dict], trace: bool, run_id: str) -> dict | None:
        spec = {
            "cases": cases,
            "trace": trace,
            "run_id": run_id,
            "work": str(self.work),
            "golden": str(workloads.GOLDEN_PATH),
            "spans": str(OUT / f"spans-{self.args.workload}.json"),
        }
        self.attempted += len(cases)
        timeout = max(5.0, RUN_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py")],
                input=json.dumps(spec), capture_output=True, text=True,
                cwd=ROOT, env=self.env, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.fail(run_id, cases, f"pass exceeded {timeout:.0f} s and was killed")
            return None
        try:
            report = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            report = None
        if proc.returncode != 0 or report is None:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.fail(run_id, cases, f"worker exit {proc.returncode}: {tail[0]}")
            return None
        for case in report["cases"]:
            if case["error"] is not None:
                self.failures.append(f"{run_id} {case['name']}: {case['error']}")
        return report

    def fail(self, run_id: str, cases: list[dict], reason: str) -> None:
        self.failures.extend(f"{run_id} {c['name']}: {reason}" for c in cases)
        if not cases:
            self.failures.append(f"{run_id}: {reason}")


def speed(report: dict) -> float:
    """Scales a worker's seconds to reference seconds: REF_NOMINAL_S over the
    mean of the reference timings it took. A pass lasts a few seconds, about
    as long as the CPU speed of a shared host holds still."""
    return REF_NOMINAL_S / statistics.fmean(report["ref_s"])


def part_seconds(report: dict, family: str | None = None) -> float:
    return sum(c["seconds"] for c in report["cases"] if family is None or c["family"] == family)


def case_medians(passes: list[list[dict]]) -> dict[str, float]:
    """Each case's median time over the passes."""
    times: dict[str, list[float]] = {}
    for cases in passes:
        for c in cases:
            times.setdefault(c["name"], []).append(c["seconds"])
    return {name: statistics.median(values) for name, values in times.items()}


def summarize(probes: list[dict], plain: list[dict], traced: list[dict], r: Runner) -> dict[str, dict]:
    samples: dict[str, list[float]] = {}
    if plain:
        workers = probes + plain
        samples["setup_s"] = [w["setup_s"] * speed(w) for w in workers]
        samples["wall_s"] = [part_seconds(p) * speed(p) for p in plain]
        samples["peak_rss_mb"] = [p["peak_rss_mb"] for p in plain]
        for family in ("grid", "lines", "quasi"):
            samples[f"{family}_s"] = [part_seconds(p, family) * speed(p) for p in plain]
        samples["setup_raw_s"] = [w["setup_s"] for w in workers]
        samples["wall_raw_s"] = [part_seconds(p) for p in plain]
        samples["ref_s"] = [ref for w in workers for ref in w["ref_s"]]
    if traced and plain:
        for name in LAYER_METRICS:
            samples[name] = [t["layers"][name] for t in traced if name in t["layers"]]
        samples["trace.overhead_s"] = [
            part_seconds(t) * speed(t) - part_seconds(p) * speed(p) for t, p in zip(traced, plain)
        ]
    samples["error_rate"] = [len(r.failures) / max(r.attempted, 1)]
    return {name: median_quartiles(values) for name, values in samples.items() if values}


def run(args: argparse.Namespace, work: Path) -> int:
    meta = metadata()
    meta["loadavg_before"] = os.getloadavg()
    validate_hypergraphs(workloads.write_hypergraphs(args.workload, args.seed, args.smoke, work))
    cases = [
        {
            "name": c.name,
            "argv": [a.replace("{work}", str(work)) for a in c.argv],
            "family": c.family,
            "check": c.check,
            "export": c.export,
        }
        for c in (workloads.SMOKE_WORKLOADS if args.smoke else workloads.WORKLOADS)[args.workload]
    ]
    r = Runner(args, work)
    tag = f"{args.workload}-s{args.seed}"
    r.worker([], False, f"{tag}-warmup")  # first import may compile bytecode
    probes = []
    for i in range(SETUP_PROBES):
        probe = r.worker([], False, f"{tag}-setup{i}")
        if probe is not None:
            probes.append(probe)
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        t = time.perf_counter()
        index = len(plain)
        report = r.worker(cases, False, f"{tag}-p{index}")
        if report is not None:
            plain.append(report)
        if args.trace:
            report = r.worker(cases, True, f"{tag}-p{index}-traced")
            if report is not None:
                traced.append(report)
        last = time.perf_counter() - t
        if r.failures or r.elapsed() + last > min(args.seconds, RUN_LIMIT_S):
            break
    meta["loadavg_after"] = os.getloadavg()
    meta["busy"] = max(meta["loadavg_before"][0], meta["loadavg_after"][0]) >= meta["nproc"]
    stats = summarize(probes, plain, traced, r)
    failed = len(r.failures)
    correct = failed == 0 and bool(plain) and (bool(traced) or not args.trace)

    print(
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} smoke={args.smoke} passes={len(plain)} traced={len(traced)} "
        f"elapsed_s={r.elapsed():.1f} ref_nominal_s={REF_NOMINAL_S}"
    )
    print("meta " + json.dumps(meta, sort_keys=True))
    if meta["busy"]:
        print(f"WARNING: load average reached {meta['nproc']} (nproc); timings may be inflated")
    for name, s in stats.items():
        print(
            f"{name:28s} {s['median']:>14.6g} {UNITS[name]:6s} "
            f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}"
        )
    for line in r.failures:
        print("FAIL " + line)
    if traced and traced[-1]["untraced_targets"]:
        print("untraced targets (not found): " + ", ".join(traced[-1]["untraced_targets"]))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "meta": meta,
        "metrics": {name: {"unit": UNITS[name], **s} for name, s in stats.items()},
        "attempted": r.attempted, "failed": failed, "failures": r.failures,
        "case_raw_seconds": case_medians([p["cases"] for p in plain]),
        "case_seconds": case_medians(
            [[{**c, "seconds": c["seconds"] * speed(p)} for c in p["cases"]] for p in plain]
        ),
    }
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    wanted = LAYER_METRICS if args.trace else END_TO_END
    metrics = {
        name: {"value": stats[name]["median"], "unit": UNITS[name]} for name in wanted if name in stats
    }
    print(json.dumps({"correct": correct, "attempted": r.attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "pavemat" / "__init__.py").is_file():
        print(f"perfbench: {SRC}/pavemat not found; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
