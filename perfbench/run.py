"""AAL Guard benchmark.

    python3 perfbench/run.py --workload home-day --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads:

* ``home-day``: four residents, one per fixture profile, served by a real
  ``aal-guard serve`` over one TCP connection in a closed loop.  A pass is
  the first 500 requests of a seeded day (70% authorize, 20% authn, 10%
  query) on a fresh primed server; the live store grows as requests are
  served.  A traced run sends the whole 2000-request day.
* ``care-dashboard``: 200 residents with a prior day of history, primed
  (all authenticated) on a fresh server.  A pass is 160 requests: 85%
  queries in three kinds, 15% authn.
* ``sensor-batch``: 400 residents, ~80k interleaved sensor events, run through
  classification and inference in a child process, one batch per process.

Passes repeat until the time is up.  Every pass does the same work, so the
latency of a request (or a resident's step) is its lowest over the passes,
and the host's slow stretches do not decide the figures.  The benchmark and
the program share one CPU.  Every answer is checked against an independent
oracle.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an
untraced and a traced phase of half the time each and prints the per-layer
metrics plus the tracing overhead.  The last stdout line is one JSON object;
the lines before it are a readable report stamped with the git sha, Python
version, CPU count, seed and input sizes.  The exit code is 1 when any
answer is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_PARENT)

from perfbench import gen, oracle  # noqa: E402
from perfbench.layers import LayerStats  # noqa: E402

WORKLOADS = ("home-day", "care-dashboard", "sensor-batch")
PRIMARY_OP = {"home-day": "authorize", "care-dashboard": "query"}
SETUP_SAMPLES = 15
HOME_PASS_REQUESTS = 500  # home-day requests an untraced pass sends
DRIFT_POINTS = (0, 100, 500, 1000, 2000)
DRIFT_WINDOW = 10  # authorize requests within +/- this many of each point
# Hand-taken in ROADMAP item 1: authorize latency and live-store size at
# request 0 and request 2000 on a scenario-primed store.
ROADMAP_BASELINE = {"latency_ms": (0.63, 24.0), "store_size": (21, 4259)}
STARTUP_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0
MAX_REPORTED_FAILURES = 5


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong answer)."""


def percentile(xs, p: int) -> float:
    """The ``p``-th percentile, interpolated between closest ranks."""
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def drift_ratio(seq) -> float:
    """Median of the last tenth of a latency sequence ÷ of its first tenth."""
    tenth = max(1, len(seq) // 10)
    return statistics.median(seq[-tenth:]) / statistics.median(seq[:tenth])


def best_of(passes) -> list:
    """Each request's record with the lowest latency over ``passes``.

    Every pass sends the same requests to a server in the same state, so
    the i-th records of all passes measure the same work.
    """
    return [min(records, key=lambda r: r[2])
            for records in zip(*(p["records"] for p in passes))]


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def read_line(proc, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise BenchError(f"no output from {proc.args[:4]} in {timeout:.0f} s")
    return proc.stdout.readline().decode("utf-8", errors="replace")


def stop(proc, sig=signal.SIGINT) -> None:
    """Ask a child to finish, and kill it if it does not."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream:
            stream.close()


class Context:
    """Where a run writes and how it starts the program."""

    def __init__(self, root: str):
        self.root = root
        self.work = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
        os.makedirs(self.work)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), BENCH_PARENT]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.count = 0

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def write(self, name: str, text: str) -> str:
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return self.path(name)

    def spawn(self, argv):
        """Start ``python -m argv...`` in the checkout; stderr goes to a file."""
        self.count += 1
        err = open(self.path(f"stderr-{self.count}.txt"), "wb")
        try:
            return subprocess.Popen([sys.executable, "-m"] + list(argv),
                                    cwd=self.root, env=self.env,
                                    stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, stderr=err)
        finally:
            err.close()


# ---------------------------------------------------------------------------
# Serve workloads
# ---------------------------------------------------------------------------

class Client:
    """One TCP connection, one request in flight at a time."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=REQUEST_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call(self, msg: dict):
        data = (json.dumps(msg) + "\n").encode("utf-8")
        start = time.perf_counter()
        self.sock.sendall(data)
        line = self.reader.readline()
        elapsed = time.perf_counter() - start
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line), elapsed

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Tally:
    """Requests attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, problem) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.messages) < MAX_REPORTED_FAILURES:
                self.messages.append(problem)


def serve_pass(ctx, inputs, files, tally, *, trace=False,
               stream=None) -> dict:
    """Start a server, prime it, send ``stream`` if given, stop.

    Returns the set-up time (start to primed), the stream's latencies as
    ``(index, op, seconds)`` and the trace file.
    """
    tag = ctx.count + 1
    argv = ["serve", "--listen", "127.0.0.1:0", "--facts", files["facts"],
            "--credentials", files["credentials"],
            "--audit", ctx.path(f"audit-{tag}.log")]
    trace_path = ctx.path(f"trace-{tag}.json") if trace else None
    started = time.perf_counter()
    proc = ctx.spawn(["perfbench.launch", trace_path] + argv if trace
                     else ["aalguard"] + argv)
    client = None
    records = []
    try:
        line = read_line(proc, STARTUP_TIMEOUT)
        if not line.startswith("listening on "):
            raise BenchError(f"server did not start: {line!r}")
        host, _, port = line.split()[-1].rpartition(":")
        client = Client((host, int(port)))
        check = oracle.ServeOracle(inputs.residents, inputs.obligations,
                                   inputs.history)
        for request in inputs.prime:
            response, _ = client.call(request.msg)
            tally.record(oracle.check(check.expect(request), response))
        setup = time.perf_counter() - started
        if stream is not None:
            for index, request in enumerate(stream):
                expected = check.expect(request)
                try:
                    response, elapsed = client.call(request.msg)
                except (OSError, ValueError) as err:
                    tally.record(f"request {index}: {err}")
                    break
                tally.record(oracle.check(expected, response))
                records.append((index, request.msg["op"], elapsed))
    finally:
        if client is not None:
            client.close()
        stop(proc)
    return {"setup": setup, "records": records,
            "trace": trace_path, "prime": len(inputs.prime)}


def serve_inputs(ctx, workload, seed):
    """Generated inputs, and the files ``serve`` reads, for one phase."""
    inputs = gen.home_day(seed) if workload == "home-day" \
        else gen.care_dashboard(seed)
    files = {"facts": ctx.write("facts.kb", inputs.facts_text),
             "credentials": ctx.write("credentials.txt",
                                      inputs.credentials_text)}
    return inputs, files


def serve_phase(ctx, inputs, files, stream, budget, trace, tally) -> list:
    """Passes of ``stream``, each on a fresh primed server, until ``budget``
    seconds are spent."""
    start = time.perf_counter()
    passes = []
    while not passes or time.perf_counter() - start < budget:
        passes.append(serve_pass(ctx, inputs, files, tally, trace=trace,
                                 stream=stream))
    return passes


def serve_metrics(workload, passes) -> dict:
    """Bounded end-to-end numbers of the serve passes as ``(value, unit, n)``:
    throughput and the primary op's p50/p90, all from each request's best
    latency.  ``detail`` holds the other ops' p50/p90 and, on home-day, the
    authorize drift ratio."""
    best = best_of(passes)
    by_op = {}
    for _, op, seconds in best:
        by_op.setdefault(op, []).append(seconds * 1e3)
    primary = PRIMARY_OP[workload]
    xs = by_op[primary]
    detail = {}
    for op in ("authorize", "authn", "query"):
        if op != primary and op in by_op:
            ys = by_op[op]
            detail[f"{op}_p50_ms"] = (percentile(ys, 50), "ms", len(ys))
            detail[f"{op}_p90_ms"] = (percentile(ys, 90), "ms", len(ys))
    if workload == "home-day":
        detail["authorize_drift_ratio"] = (drift_ratio(xs), "ratio", len(xs))
    return {"throughput": (len(best) / sum(s for _, _, s in best), "1/s",
                           len(best)),
            "p50_ms": (percentile(xs, 50), "ms", len(xs)),
            "p90_ms": (percentile(xs, 90), "ms", len(xs)),
            "detail": detail}


def drift_curve(passes, traced_stats=None) -> list:
    """Authorize latency (and traced live-store size) at fixed request counts
    up to the length of a pass."""
    best = best_of(passes)
    points = []
    for point in DRIFT_POINTS:
        if point > len(best):
            break
        at = min(point, len(best) - 1)
        window = [s * 1e3 for i, op, s in best
                  if op == "authorize" and abs(i - at) <= DRIFT_WINDOW]
        row = {"request": point,
               "authorize_ms": statistics.median(window) if window else None}
        if traced_stats is not None:
            row["store_size"] = traced_stats.get(point)
        points.append(row)
    return points


def traced_store_sizes(passes) -> dict:
    """Live-store size seen by stream request ``k`` in the first traced pass."""
    from perfbench.spans import ATTRS, NAME, PARENT
    p = passes[0]
    with open(p["trace"], encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    sizes = [s[ATTRS]["store_size"] for s in spans
             if s[PARENT] < 0 and s[NAME] == "cli.handle_message"][p["prime"]:]
    return {point: sizes[min(point, len(sizes) - 1)] for point in DRIFT_POINTS}


def run_serve(ctx, workload, seed, seconds, trace) -> dict:
    tally = Tally()
    budget = seconds / 2 if trace else seconds
    inputs, files = serve_inputs(ctx, workload, seed)
    stream = inputs.stream
    # Short passes give each request more passes to meet a fast host; a
    # traced run sends the whole day for the drift curve to request 2000.
    if workload == "home-day" and not trace:
        stream = stream[:HOME_PASS_REQUESTS]
    passes = serve_phase(ctx, inputs, files, stream, budget, False, tally)
    e2e = serve_metrics(workload, passes)
    result = {"tally": tally, "e2e": e2e, "sizes": {
        "residents": len(inputs.residents),
        "requests_per_pass": len(stream),
        "passes": len(passes),
        "prime_requests": len(inputs.prime),
        "facts_loaded": inputs.facts_loaded}}
    if not trace:
        setups = [p["setup"] for p in passes]
        while len(setups) < SETUP_SAMPLES:   # start and prime, no stream
            setups.append(serve_pass(ctx, inputs, files, tally)["setup"])
        e2e["setup_s"] = (statistics.median(setups), "s", len(setups))
        if workload == "home-day":
            result["drift"] = drift_curve(passes)
        return result
    traced = serve_phase(ctx, inputs, files, stream, budget, True, tally)
    stats = LayerStats()
    for p in traced:
        stats.add_file(p["trace"], skip_roots=p["prime"])
    result["layers"] = stats
    result["overhead"] = 1 - (serve_metrics(workload, traced)["throughput"][0]
                              / e2e["throughput"][0])
    if workload == "home-day":
        result["drift"] = drift_curve(passes, traced_store_sizes(traced))
    return result


# ---------------------------------------------------------------------------
# Batch workload
# ---------------------------------------------------------------------------

def batch_pass(ctx, files, expected, tally, *, trace=False, go=True) -> dict:
    """One child process: set-up until ``ready``, then one batch if ``go``."""
    trace_path = ctx.path(f"trace-{ctx.count + 1}.json") if trace else None
    started = time.perf_counter()
    proc = ctx.spawn(["perfbench.batch", files["events"], files["profile"]]
                     + ([trace_path] if trace else []))
    try:
        line = read_line(proc, STARTUP_TIMEOUT)
        if line.strip() != "ready":
            raise BenchError(f"batch did not start: {line!r}")
        setup = time.perf_counter() - started
        proc.stdin.write(b"go\n" if go else b"stop\n")
        proc.stdin.flush()
        if not go:
            return {"setup": setup}
        line = read_line(proc, 170.0)
        if not line:
            raise BenchError("batch process ended without a result")
        result = json.loads(line)
    finally:
        stop(proc, signal.SIGTERM)
    problems = oracle.check_batch(expected, result)
    for _ in range(len(expected["classes"]) - len(problems)):
        tally.record(None)
    for problem in problems:
        tally.record(problem)
    return {"setup": setup, "result": result, "trace": trace_path}


def batch_phase(ctx, files, expected, budget, trace, tally) -> list:
    start = time.perf_counter()
    passes = []
    while not passes or time.perf_counter() - start < budget:
        passes.append(batch_pass(ctx, files, expected, tally, trace=trace))
    return passes


def batch_metrics(passes) -> dict:
    """Throughput is input events per second of the fastest batch; a
    resident's latency is the lowest time of its own step (extract, classify,
    trust) over the batches.  ``detail`` holds the fastest whole-batch time."""
    resident = [min(ms) for ms in zip(*(p["result"]["resident_ms"]
                                         for p in passes))]
    events = passes[0]["result"]["events"]
    batch_s = min(p["result"]["batch_s"] for p in passes)
    return {"throughput": (events / batch_s, "1/s", events),
            "p50_ms": (percentile(resident, 50), "ms", len(resident)),
            "p90_ms": (percentile(resident, 90), "ms", len(resident)),
            "detail": {"batch_s": (batch_s, "s", len(passes))}}


def run_batch(ctx, seed, seconds, trace) -> dict:
    inputs = gen.sensor_batch(seed)
    expected = oracle.expected_batch(inputs.residents)
    files = {"events": ctx.write("events.csv", inputs.events_text),
             "profile": ctx.write("profile.kb", inputs.profile_text)}
    tally = Tally()
    budget = seconds / 2 if trace else seconds
    passes = batch_phase(ctx, files, expected, budget, False, tally)
    result = {"tally": tally, "e2e": batch_metrics(passes),
              "sizes": {"residents": len(inputs.residents),
                        "events": inputs.events,
                        "facts_loaded": len(inputs.profile_text.splitlines()),
                        "batches": len(passes)}}
    if not trace:
        setups = [p["setup"] for p in passes]
        while len(setups) < SETUP_SAMPLES:   # set up, then stop
            setups.append(batch_pass(ctx, files, expected, tally,
                                     go=False)["setup"])
        result["e2e"]["setup_s"] = (statistics.median(setups), "s",
                                    len(setups))
        return result
    traced = batch_phase(ctx, files, expected, budget, True, tally)
    stats = LayerStats()
    for p in traced:
        stats.add_file(p["trace"])
    result["layers"] = stats
    result["overhead"] = 1 - (batch_metrics(traced)["throughput"][0]
                              / result["e2e"]["throughput"][0])
    return result


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def git_sha(root: str) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A SIGTERM unwinds through the ``finally`` blocks that stop children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "aalguard", "__init__.py")):
        print("error: run from the root of an AAL Guard checkout "
              "(src/aalguard not found)", file=sys.stderr)
        return 2

    # The client and the program never run at once, so one CPU serves both
    # and no request pays for waking the other one.  Children inherit this.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ctx = Context(root)
    try:
        if args.workload == "sensor-batch":
            result = run_batch(ctx, args.seed, args.seconds, args.trace)
        else:
            result = run_serve(ctx, args.workload, args.seed, args.seconds,
                               args.trace)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(ctx.work))
        except OSError:
            pass

    tally = result["tally"]
    e2e = result["e2e"]
    detail = e2e.pop("detail")
    e2e["peak_rss_mb"] = (resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB", 1)
    detail["failed_share"] = (tally.failed / max(1, tally.attempted), "share",
                              tally.attempted)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(root),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "inputs": result["sizes"], "end_to_end": {**e2e, **detail},
        "failures": tally.messages,
    }
    if "drift" in result:
        report["drift_curve"] = result["drift"]
        report["drift_baseline"] = ROADMAP_BASELINE
    if args.trace:
        stats = result["layers"]
        layers = stats.metrics()
        layers["trace.overhead_share"] = (result["overhead"], "share")
        report["per_layer"] = layers
        report["per_call"] = stats.per_call()
        metrics = layers
    else:
        metrics = {name: (value, unit)
                   for name, (value, unit, _) in e2e.items()}

    print_report(report)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


def print_report(report: dict) -> None:
    print(f"# {report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']} "
          f"sha={report['git_sha']} python={report['python']} "
          f"nproc={report['nproc']}")
    print("# inputs " + json.dumps(report["inputs"]))
    for name, (value, unit, n) in report["end_to_end"].items():
        print(f"# {name:28s} {value:14.4f} {unit:6s} n={n}")
    for row in report.get("drift_curve", ()):
        size = row.get("store_size")
        latency = row["authorize_ms"]
        print(f"# drift request={row['request']:5d} authorize_ms="
              f"{latency if latency is None else round(latency, 3)}"
              + (f" store_size={size}" if size is not None else ""))
    if "drift_curve" in report:
        base = report["drift_baseline"]
        print(f"# drift baseline (ROADMAP item 1): authorize_ms "
              f"{base['latency_ms'][0]} -> {base['latency_ms'][1]}, "
              f"store_size {base['store_size'][0]} -> {base['store_size'][1]}")
    for name, (value, unit) in report.get("per_layer", {}).items():
        print(f"# {name:34s} {value:14.6f} {unit}")
    for name, (value, unit, n) in report.get("per_call", {}).items():
        print(f"# per-call {name:28s} {value:12.4f} {unit:4s} n={n}")
    for message in report["failures"]:
        print(f"# FAILED: {message}")


if __name__ == "__main__":
    sys.exit(main())
