"""k3witness benchmark: seeded closed-loop CLI workloads, one client.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Each request is a CLI argv list passed in-process to ``k3witness.cli.main``
(imported from ``src/`` of this checkout) with stdout and stderr captured to
memory; the next request is sent when the previous one returns.  A run
builds one deck of requests from ``--seed`` (see ``workloads.py``) and
replays it in passes until ``--seconds`` have gone by, finishing the pass it
is in.  Every pass starts by clearing the library's ``lru_cache``s, so each
pass does the work of a fresh process, and every pass must print the same
bytes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes of the same deck and prints the per-layer metrics
of one traced pass, plus the tracing overhead (traced / untraced pass time).

Every response is checked outside the timed region (``verify.py``), and each
pass's SHA-256 over stdout and exit codes is compared with ``golden.json``
when the seed has an entry there.  A results file with the environment, the
failures and the full per-function trace summary goes to ``perfbench/out/``.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import layers
import verify
import workloads

ANSWER_CODES = (0, 3)
SETUP_SAMPLES = 5  # taken before the request loop and again after it
TAIL_BEYOND = 10
DIGIT_LIMIT_ERROR = "Exceeds the limit"
DIGIT_LIMIT_NOTE = (
    "converting an integer of more than sys.get_int_max_str_digits() digits to str raises "
    "ValueError, which main() reports as a usage error (exit 2); open in ROADMAP.md under "
    "big integers and the exit-code contract"
)

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import k3witness.cli
k3witness.cli.build_parser()
print(time.perf_counter() - t)
"""

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "witnesses_per_s": "1/s",
    "request_p50_s": "s",
    "request_tail_s": "s",
    "answered_share": "share",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "pell.class_representatives.calls": "count",
    "pell.class_representatives.cache_misses": "count",
    "pell.class_representatives.self_s": "s",
    "pell.fundamental_unit.cache_misses": "count",
    "pell.fundamental_unit.self_s": "s",
    "pell.residue_period.self_s": "s",
    "pell.residue_period.period_sum": "count",
    "pell.constrained_orbit_hits.calls": "count",
    "pell.constrained_orbit_hits.hits": "count",
    "pell.constrained_orbit_hits.self_s": "s",
    "pell.unit_power.calls": "count",
    "pell.unit_power.self_s": "s",
    "pell.unit_power.max_bits": "bits",
    "pell.orbit_step.calls": "count",
    "pell.orbit_step.self_s": "s",
    "pell.push_negative.calls": "count",
    "pell.push_negative.self_s": "s",
    "pell.push_negative.certified_unreachable": "count",
    "pell.block_unit.calls": "count",
    "pell.block_unit.self_s": "s",
    "families.membership.calls": "count",
    "families.membership.self_s": "s",
    "families.witnesses_built": "count",
    "families.witnesses_returned": "count",
    "families.witness_use_ratio": "ratio",
    "families.witness_max_bits": "bits",
    "families.enumerate_family.self_s": "s",
    "families.witness_chain.self_s": "s",
    "lattice.inner.calls": "count",
    "lattice.inner.self_s": "s",
    "lattice.unit_square_roots.self_s": "s",
    "mukai.tensorize.calls": "count",
    "mukai.tensorize.self_s": "s",
    "mukai.is_primitive.self_s": "s",
    "hilbert.bb_square.calls": "count",
    "hilbert.bb_square.self_s": "s",
    "cli.main.self_s": "s",
    "cli.witness_dict.calls": "count",
    "cli.witness_dict.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.stderr_bytes": "bytes",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}


class Pass:
    """Outcome of one replay of the deck."""

    def __init__(self):
        self.latencies: list[float] = []  # a failed request reads as infinity
        self.loop_s = 0.0
        self.answered = 0
        self.witnesses = 0
        self.stdout_bytes = 0
        self.stderr_bytes = 0
        self.failures: list[dict] = []
        self.problems: list[str] = []
        self.digest = hashlib.sha256()


def lru_caches(package: str = "k3witness") -> dict:
    """Every functools.lru_cache in the loaded package, by layer.name."""
    caches = {}
    for mod_name, module in sys.modules.items():
        if mod_name.startswith(package + "."):
            for attr, value in vars(module).items():
                if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == mod_name:
                    caches[f"{mod_name.split('.')[-1]}.{attr}"] = value
    return caches


def run_pass(cli, deck, caches, tracer=None, first_request=0) -> Pass:
    for cache in caches.values():
        cache.cache_clear()
    result = Pass()
    for i, argv in enumerate(deck):
        if tracer is not None:
            tracer.request = first_request + i
        out, err = io.StringIO(), io.StringIO()
        escaped = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except (Exception, SystemExit) as exc:  # any escape from main is a failed request
            code, escaped = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        result.loop_s += latency
        stdout, stderr = out.getvalue(), err.getvalue()
        out.close()  # free the buffer; a chain response is tens of megabytes
        data = stdout.encode()
        result.stdout_bytes += len(data)
        result.stderr_bytes += len(stderr.encode())
        result.digest.update(f"{code}\n{len(data)}\n".encode())
        result.digest.update(data)
        del data
        if escaped is None and code in ANSWER_CODES:
            result.latencies.append(latency)
            result.answered += 1
            try:
                n, problems = verify.check_response(argv, code, stdout)
            except (ValueError, KeyError, TypeError) as exc:
                n, problems = 0, [f"unreadable response: {type(exc).__name__}: {exc}"]
            result.witnesses += n
            result.problems.extend(f"{' '.join(argv)}: {p}" for p in problems)
        else:
            result.latencies.append(float("inf"))
            lines = stderr.strip().splitlines()
            result.failures.append({
                "argv": argv,
                "exit": code,
                "error": escaped or (lines[-1] if lines else ""),
                "latency_s": latency,
            })
    return result


def measure_setup() -> list[float]:
    """Import k3witness.cli and build the parser in fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(proc.stdout))
    return samples


def tail(latencies: list[float]) -> tuple[float, int]:
    """Value and 1-based rank of the highest rank with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], rank


def finite(value: float, cap: float) -> float:
    # a failed request counts as infinitely slow; JSON needs a number, so a
    # statistic that lands on a failure reads as the whole loop's wall time
    return value if value != float("inf") else cap


def git_commit() -> str | None:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "k3witness")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }


def check_digests(workload: str, seed: int, digests: list[str]) -> list[str]:
    problems = []
    if len(set(digests)) > 1:
        problems.append(f"passes printed different output: {sorted(set(digests))}")
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh).get(workload, {}).get(str(seed))
    if golden is not None and digests[0] != golden:
        problems.append(f"output digest {digests[0]} differs from golden {golden}")
    return problems


def failure_summary(passes: list[Pass]) -> list[dict]:
    groups: dict[str, dict] = {}
    for p in passes:
        for f in p.failures:
            g = groups.setdefault(f["error"][:200], {"error": f["error"][:200], "exit": f["exit"], "count": 0, "argv": []})
            g["count"] += 1
            if f["argv"] not in g["argv"]:
                g["argv"].append(f["argv"])
    for g in groups.values():
        if DIGIT_LIMIT_ERROR in g["error"]:
            g["note"] = DIGIT_LIMIT_NOTE
    return list(groups.values())


def end_to_end_metrics(passes: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    latencies = [x for p in passes for x in p.latencies]
    loop_s = sum(p.loop_s for p in passes)
    answered = sum(p.answered for p in passes)
    tail_value, tail_rank = tail(latencies)
    values = {
        "setup_s": statistics.median(setup),
        "requests_per_s": answered / loop_s,
        "witnesses_per_s": sum(p.witnesses for p in passes) / loop_s,
        "request_p50_s": finite(statistics.median(latencies), loop_s),
        "request_tail_s": finite(tail_value, loop_s),
        "answered_share": answered / len(latencies),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {
        "setup_samples_s": setup,
        "loop_s": loop_s,
        "requests": len(latencies),
        "failed_share": (len(latencies) - answered) / len(latencies),
        "tail_percentile": 100.0 * tail_rank / len(latencies),
        "tail_samples_beyond": len(latencies) - tail_rank,
    }
    return values, record


def per_layer_metrics(tracer, traced: list[Pass], untraced: list[Pass], misses: list[dict]) -> tuple[dict, dict]:
    stats, bad = tracer.summary()
    n = len(traced)
    c = tracer.counters
    values = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if layer in stats and stat in ("calls", "self_s"):
            values[name] = stats[layer][stat] / n
    for name in ("pell.class_representatives.cache_misses", "pell.fundamental_unit.cache_misses"):
        values[name] = sum(m[name] for m in misses) / n
    for name in ("pell.residue_period.period_sum", "pell.constrained_orbit_hits.hits",
                 "pell.push_negative.certified_unreachable", "families.witnesses_built",
                 "families.witnesses_returned"):
        values[name] = c[name] / n
    for name in ("pell.unit_power.max_bits", "families.witness_max_bits"):
        values[name] = c[name]
    built = c["families.witnesses_built"]
    values["families.witness_use_ratio"] = c["families.witnesses_returned"] / built if built else 0.0
    values["cli.stdout_bytes"] = sum(p.stdout_bytes for p in traced) / n
    values["cli.stderr_bytes"] = sum(p.stderr_bytes for p in traced) / n
    values["trace.overhead"] = (
        statistics.mean(p.loop_s for p in traced) / statistics.mean(p.loop_s for p in untraced)
    )
    values["trace.spans"] = tracer.span_count() / n
    for name in PER_LAYER:
        values.setdefault(name, 0.0)  # a function no request of this workload reached
    record = {"functions": stats, "bad_spans": bad, "traced_passes": n}
    return values, record


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.DECKS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "k3witness", "cli.py")):
        print(f"error: no k3witness sources under {SRC}", file=sys.stderr)
        return 2
    setup = [] if args.trace else measure_setup()
    sys.path.insert(0, SRC)
    import k3witness.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported k3witness from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    caches = lru_caches()
    deck = workloads.DECKS[args.workload](args.seed)

    passes: list[Pass] = []
    traced: list[Pass] = []
    misses: list[dict] = []
    tracer = layers.Tracer() if args.trace else None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(cli, deck, caches))
        if tracer is not None:
            tracer.patch()
            try:
                traced.append(run_pass(cli, deck, caches, tracer, len(traced) * len(deck)))
            finally:
                tracer.unpatch()
            misses.append(layers.cache_misses(caches))

    if not args.trace:
        setup += measure_setup()
    all_passes = passes + traced
    problems = [q for p in all_passes for q in p.problems]
    problems += check_digests(args.workload, args.seed, [p.digest.hexdigest() for p in all_passes])
    if tracer is not None:
        metrics, record = per_layer_metrics(tracer, traced, passes, misses)
        if record["bad_spans"]:
            problems.append(f"{record['bad_spans']} spans with self time outside [0, wall]")
        units, reported = PER_LAYER, traced
    else:
        metrics, record = end_to_end_metrics(passes, setup)
        units, reported = END_TO_END, passes

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        # one span file per workload, replaced by each traced run: a pass of
        # the grid alone has over a million spans
        tracer.write_spans(os.path.join(OUT, f"{args.workload}.spans.tsv.gz"))
    results = {
        "environment": environment(args),
        "loop": "closed loop, 1 client, in-process cli.main calls",
        "deck_requests": len(deck),
        "passes": len(passes),
        "pass_loop_s": [p.loop_s for p in all_passes],
        "pass_digests": [p.digest.hexdigest() for p in all_passes],
        "correct": not problems,
        "problems": problems[:50],
        "failures": failure_summary(reported),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "record": record,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")

    for name, unit in units.items():
        print(f"{args.workload:12} {name:42} {metrics[name]:>14.6g} {unit}")
    if tracer is None:
        print(f"{args.workload:12} {'failed_share':42} {record['failed_share']:>14.6g} share")
        print(f"{args.workload:12} tail at p{record['tail_percentile']:.2f} of {record['requests']} requests")
    for f in results["failures"]:
        print(f"{args.workload:12} failed x{f['count']} (exit {f['exit']}): {f['error'][:100]}")
    for q in problems[:10]:
        print(f"{args.workload:12} INCORRECT {q}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(p.latencies) for p in reported),
        "failed": sum(len(p.failures) for p in reported),
        "metrics": results["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
