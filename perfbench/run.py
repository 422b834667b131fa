"""Layered end-to-end benchmark of chipchain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`
next to this directory and nowhere else.

The load is one closed-loop caller in one process and one thread: it
starts an op, waits for it, checks its output, then starts the next.
Ops start until `--seconds` of wall time have passed and at least the
workload's `trace_ops` ops are done.  Checks and input generation run
between ops and are not timed.

Times are CPU time of the benchmark process (CLOCK_PROCESS_CPUTIME_ID).
The load is single-threaded and does no I/O, so on an idle core this
equals wall time; on a shared host it leaves out the time the CPU is
given to other processes or guests.  Op times are also scaled to a
reference host speed (see REFERENCE_S), because the host's throughput
itself moves by up to a fifth within seconds.  Unscaled CPU and
wall-clock op latencies go to the results file beside the scaled ones.

`--trace 0` prints the end-to-end metrics.  `setup_s` is the median of
five set-ups, this process's and four more in fresh processes, each the
CPU time from interpreter start to the first timed op, unscaled.

`--trace 1` runs the same timed phase untraced, then replays its first
`trace_ops` ops in a fresh process with every traced function wrapped
(see tracing.py), and prints the per-layer metrics, each per op.  The
replay's per-op output digests must equal the untraced ones; a
mismatch counts as a failed op.  A function the workload is expected
to call that records no call fails the run.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.  Details (environment, output
digest, sample counts, per-op latencies, errors) go to
`perfbench/results/`, and the replay's spans to a `.jsonl.gz` there.

Seed 7919 is held out: a speed claim must also hold on it.
"""

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_PROBES = 4
CHILD_TIMEOUT_S = 120

# The shared host's throughput moves by up to a fifth within seconds, as
# other guests come and go, and CPU time moves with it.  A fixed
# piece of reference work, a mix like the package's own (modular
# exponentiation, SHA-256, interpreter loops), runs after every op, untimed.
# Each op's CPU time is scaled by REFERENCE_S over the median time of the
# reference work within SPEED_WINDOW ops of it, so every time reads as on a
# host where the reference work takes REFERENCE_S.
REFERENCE_S = 1e-3
SPEED_WINDOW = 4
_REFERENCE_MODULUS = (1 << 255) - 19
_REFERENCE_BASE = int.from_bytes(hashlib.sha256(b"perfbench").digest(),
                                 "big") % _REFERENCE_MODULUS

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

LAYERS = (
    "chip_model.new_chip", "chip_model.extract_prn",
    "entropy_analysis.collision_report", "identity.respond",
    "identity.derive_keypair", "identity.sign", "identity.verify",
    "identity.crp_audit", "ledger.build_tree", "ledger.replace_chip",
    "ledger.rotate_state_reproduce", "ledger.verify_tree", "ledger.mine_block",
    "ledger.verify_chain", "pow.pow_search", "network_sim.run_scenario",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for label in LAYERS:
        units[f"{label}.calls"] = "count"
        units[f"{label}.self_ms"] = "ms"
    units["identity.derive_keypair.distinct_ratio"] = "ratio"
    units["ledger.replace_chip.recomputed_nodes"] = "count"
    units["pow.pow_search.attempts"] = "count"
    units["pow.pow_search.ns_per_attempt"] = "ns"
    units["trace.overhead_ratio"] = "ratio"
    return units


def import_package():
    """Import chipchain from this checkout's src/, or exit."""
    if not (SRC / "chipchain" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import chipchain
    if Path(chipchain.__file__).resolve().parent != (SRC / "chipchain").resolve():
        sys.exit(f"perfbench: chipchain was imported from {chipchain.__file__}, "
                 f"not from {SRC}")
    return chipchain


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # internal: the child processes this script starts
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--replay-traced", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def reference_work() -> float:
    """CPU seconds this process takes for the fixed reference work."""
    started = time.process_time()
    x = _REFERENCE_BASE
    for _ in range(36):
        x = pow(x, 196613, _REFERENCE_MODULUS)
    digest = x.to_bytes(32, "big")
    for _ in range(360):
        digest = hashlib.sha256(digest).digest()
    total = 0
    for i in range(3600):
        total += i * i
    return time.process_time() - started


def at_reference_speed(latencies, references):
    """Scale each op's CPU time by the host speed measured around it."""
    return [latency * REFERENCE_S
            / statistics.median(references[max(0, i - SPEED_WINDOW):
                                           i + SPEED_WINDOW + 1])
            for i, latency in enumerate(latencies)]


def run_ops(workload, failures, *, seconds=0.0, min_ops=0, tracer=None):
    """Closed loop: prepare, time the op, check, time the reference, repeat.

    Ops start until `seconds` of wall time have passed and `min_ops` ops
    are done.  Returns per-op latencies in CPU seconds of this process,
    the same in wall seconds, the reference work's CPU seconds after each
    op, and digests (hex, None when the op failed); failed ops are
    appended to `failures` with their reason.
    """
    from workloads import CheckFailed

    cpu, wall = time.process_time, time.perf_counter
    latencies, walls, references, digests = [], [], [], []
    deadline = wall() + seconds
    while wall() < deadline or len(latencies) < min_ops:
        i = len(latencies)
        args = workload.prepare(i)
        if tracer is not None:
            tracer.op = i
        started_wall, started = wall(), cpu()
        try:
            out = workload.op(args)
            error = None
        except Exception as exc:  # a raising op is a failed op; keep going
            error = f"op raised {exc!r}"
        latencies.append(cpu() - started)
        walls.append(wall() - started_wall)
        if tracer is not None:
            tracer.op = None
        digest = None
        if error is None:
            try:
                digest = workload.check(i, args, out).hex()
            except CheckFailed as exc:
                error = f"check failed: {exc}"
        if error is not None:
            failures.append((i, error))
        digests.append(digest)
        references.append(reference_work())
    return latencies, walls, references, digests


def run_digest(digests) -> str:
    h = hashlib.sha256()
    for digest in digests:
        h.update(bytes.fromhex(digest) if digest else b"failed")
    return h.hexdigest()


def child(args, flag: str) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--trace", str(args.trace), flag]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        sys.exit(f"perfbench: {flag} child failed ({done.returncode}):\n"
                 f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def environment(chipchain) -> dict:
    import numpy

    sha, dirty = "unknown", None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=20,
                             cwd=ROOT)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
            status = subprocess.run(["git", "status", "--porcelain"],
                                    capture_output=True, text=True,
                                    timeout=20, cwd=ROOT)
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "kernel": chipchain.active_kernel(),
        "powmod": ("gmpy2" if importlib.util.find_spec("gmpy2") is not None
                   else "builtin pow"),
        "git_sha": sha,
        "git_dirty": dirty,
    }


def end_to_end(latencies, failures, setups) -> dict:
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "op_ms_p90": cuts[8] * 1e3,
        "ok_ratio": 1 - len(failures) / len(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(replay, untraced_s) -> dict:
    ops = len(replay["latencies"])
    totals = replay["totals"]
    values = {}
    for label in LAYERS:
        entry = totals.get(label, {"calls": 0, "self_s": 0.0, "sum": 0,
                                   "distinct": 0})
        values[f"{label}.calls"] = entry["calls"] / ops
        values[f"{label}.self_ms"] = entry["self_s"] * 1e3 / ops
    derive = totals.get("identity.derive_keypair")
    values["identity.derive_keypair.distinct_ratio"] = (
        derive["distinct"] / derive["calls"] if derive else 0.0)
    replace = totals.get("ledger.replace_chip")
    values["ledger.replace_chip.recomputed_nodes"] = (
        replace["sum"] / replace["calls"] if replace else 0.0)
    search = totals.get("pow.pow_search")
    attempts = search["sum"] if search else 0
    values["pow.pow_search.attempts"] = attempts / ops
    values["pow.pow_search.ns_per_attempt"] = (
        search["self_s"] * 1e9 / attempts if attempts else 0.0)
    values["trace.overhead_ratio"] = untraced_s / sum(replay["latencies"])
    return values


def replay_traced(workload, args) -> int:
    """Replay the first trace_ops ops traced; print digests and totals."""
    from tracing import TraceBlind, Tracer

    tracer = Tracer()
    tracer.install()
    failures = []
    try:
        latencies, _, references, digests = run_ops(
            workload, failures, min_ops=workload.trace_ops, tracer=tracer)
    finally:
        tracer.uninstall()
    totals = tracer.summary()
    blind = [label for label in workload.expected if label not in totals]
    if blind:
        raise TraceBlind(f"{workload.name}: no calls recorded for "
                         f"{', '.join(blind)}")
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"{workload.name}-seed{args.seed}-spans.jsonl.gz")
    print(json.dumps({"latencies": at_reference_speed(latencies, references),
                      "cpu_latencies": latencies, "references": references,
                      "digests": digests,
                      "failures": failures, "totals": totals}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    chipchain = import_package()
    from workloads import MAX_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: --workload must be one of {', '.join(WORKLOADS)}")
    if not 0 <= args.seed < MAX_SEED:
        sys.exit(f"perfbench: --seed must be in [0, {MAX_SEED})")
    workload = WORKLOADS[args.workload](args.seed)
    # Not scaled: reference work beside a set-up does not track its speed
    # (see README.md), and unscaled set-up time drifts less between runs.
    setup_s = time.process_time()  # CPU time since the interpreter started
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.replay_traced:
        return replay_traced(workload, args)

    gc.collect()
    failures = []
    cpu_latencies, walls, references, digests = run_ops(
        workload, failures, seconds=args.seconds, min_ops=workload.trace_ops)
    latencies = at_reference_speed(cpu_latencies, references)
    traced_ops = workload.trace_ops
    digest = run_digest(digests[:traced_ops])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(chipchain),
        "digest": digest, "digest_ops": traced_ops, "ops": len(latencies),
    }
    attempted, failed = len(latencies), len({i for i, _ in failures})
    if args.trace:
        replay = child(args, "--replay-traced")
        mismatched = [i for i, (a, b) in enumerate(zip(digests, replay["digests"]))
                      if a != b]
        failures += [(i, f"traced replay: {why}") for i, why in replay["failures"]]
        failures += [(i, "traced replay digest differs") for i in mismatched]
        attempted += len(replay["latencies"])
        failed += len({i for i, _ in replay["failures"]} | set(mismatched))
        metrics = per_layer(replay, sum(latencies[:traced_ops]))
        units = per_layer_units()
        record.update(replay_latencies_s=replay["latencies"],
                      replay_cpu_latencies_s=replay["cpu_latencies"],
                      replay_reference_s=replay["references"])
    else:
        setups = [setup_s] + [child(args, "--setup-probe")["setup_s"]
                              for _ in range(SETUP_PROBES)]
        metrics = end_to_end(latencies, failures, setups)
        record["setups_cpu_s"] = setups
        units = END_TO_END
        record["beyond_p90"] = sum(1 for lat in latencies
                                   if lat * 1e3 > metrics["op_ms_p90"])
    record.update(failures=failures[:20], metrics=metrics,
                  latencies_s=latencies, cpu_latencies_s=cpu_latencies,
                  wall_latencies_s=walls, reference_s=references)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(f"{args.workload} seed={args.seed}: {len(latencies)} ops "
          f"({record.get('beyond_p90', '-')} beyond p90), {failed} failed, "
          f"digest of first {traced_ops} ops {digest}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
