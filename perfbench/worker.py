"""One benchmark pass in a fresh process.

Reads a JSON spec on stdin, times ``import pavemat.cli`` (the set-up every CLI
call pays), runs each case through ``pavemat.cli.main`` with stdout sent to a
file, as a user redirecting the CLI would, and then checks every output. With
``"trace": true`` the layer boundaries are wrapped by ``spans.Tracer`` while
the cases run. Before each case and after the last one it times a fixed
pure-Python reference loop, so that ``run.py`` can tell how fast the machine
ran while the cases did. Prints one JSON report on stdout.

Run by ``run.py``; the repository root is the working directory.
"""

import os
import sys
import time

# Standard-library modules are imported inside the functions below, after the
# timed import, so that set-up time covers every module pavemat itself loads.


def timed_import(src: str):
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import pavemat.cli

    return pavemat.cli, time.perf_counter() - t0


REFERENCE_ITERATIONS = 250_000  # about 0.1 s of interpreter work


def reference() -> float:
    """Seconds for a fixed loop of integer, bit and dict operations, the kind
    of work pavemat does. It calls nothing in pavemat, so a change to the
    program leaves it alone while a change in CPU speed moves both."""
    t = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(REFERENCE_ITERATIONS):
        x = (i * 2654435761) & 0xFFFFFF
        table[x & 1023] = table.get(x & 1023, 0) + x.bit_count()
    return time.perf_counter() - t


def run_cases(cli, cases: list[dict], work) -> tuple[list[dict], list[float]]:
    """Runs the cases in order, each after one reference timing, and one more
    reference timing at the end."""
    import contextlib

    results = []
    refs = []
    for case in cases:
        refs.append(reference())
        out = work / (case["export"] or f"out-{case['name']}.txt")
        error = None
        with open(out, "w") as fh, contextlib.redirect_stdout(fh):
            t = time.perf_counter()
            try:
                code = cli.main(case["argv"])
                if code != 0:
                    error = f"exit code {code}"
            except Exception as exc:  # a crash fails the case, not the pass
                error = f"{type(exc).__name__}: {exc}"
            fh.flush()
            seconds = time.perf_counter() - t
        results.append({**case, "seconds": seconds, "error": error, "out": str(out)})
    refs.append(reference())
    return results, refs


def check_circuits(argv: list[str], text: str) -> str | None:
    """The exported circuit-size histogram must equal the small circuits plus
    type3_count, both computed by the library from the input file."""
    import json
    from collections import Counter

    from pavemat import io, quasi

    with open(argv[argv.index("--file") + 1]) as fh:
        rep = io.quasi_from_dict(json.load(fh))
    obj = json.loads(text)
    circuits = [tuple(c) for c in obj["circuits"]]
    if len(set(circuits)) != len(circuits):
        return "duplicate circuits in export"
    if obj["d"] != rep.d or obj["hyperplanes"] != [io.mask_to_labels(h) for h in rep.members]:
        return "exported ground set or hyperplanes differ from the input"
    exported = Counter(len(c) for c in circuits)
    expected = Counter(c.bit_count() for c in quasi.small_circuits(rep))
    expected[rep.n + 1] += quasi.type3_count(rep)
    if +expected != exported:
        return f"circuit sizes {dict(exported)} != small_circuits + type3_count {dict(expected)}"
    return None


def check(case: dict, golden: dict) -> str | None:
    import hashlib

    with open(case["out"], "rb") as fh:
        data = fh.read()
    if case["check"] == "circuits":
        return check_circuits(case["argv"], data.decode())
    expected = golden["digests"].get(case["name"])
    if expected is None:
        return "no golden digest recorded"
    if hashlib.sha256(data).hexdigest() != expected:
        return "stdout differs from the golden digest"
    if case["check"] == "count" and data.decode().strip() != str(golden["counts"][case["name"]]):
        return "count differs from the reference count"
    return None


def main() -> int:
    spec_text = sys.stdin.read()
    src = os.path.abspath("src")
    cli, setup_s = timed_import(src)
    if not cli.__file__.startswith(src + os.sep):
        raise SystemExit(f"pavemat imported from {cli.__file__}, not from {src}")

    import json
    import resource
    from pathlib import Path

    spec = json.loads(spec_text)
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()
    work = Path(spec["work"])
    try:
        results, refs = run_cases(cli, spec["cases"], work)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer is not None:
            tracer.uninstall()
    golden = json.loads(Path(spec["golden"]).read_text())
    for case in results:
        if case["error"] is None:
            try:
                case["error"] = check(case, golden)
            except Exception as exc:  # unreadable output fails the case
                case["error"] = f"check raised {type(exc).__name__}: {exc}"
    report = {
        "setup_s": setup_s,
        "ref_s": refs,
        "peak_rss_mb": peak_rss_mb,
        "stdout_bytes": sum(Path(c["out"]).stat().st_size for c in results),
        "cases": [{k: c[k] for k in ("name", "family", "seconds", "error")} for c in results],
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(report["stdout_bytes"])
        report["untraced_targets"] = tracer.missing
        tracer.write(Path(spec["spans"]))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
