"""barneszeta benchmark.

    python3 bench/run.py --workload points|coeffs|certify --seed N \
        --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from the root of a checkout.  The benchmark process computes mpmath
references for the seed's inputs, then starts the workload in fresh
interpreters that import barneszeta from ``src/``: four that only set up
(import, inputs, warm-up) and one that also runs whole rounds of
operations, closed loop from one thread, for ``--seconds``.  Every output
is checked against its reference.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``) of
BENCHMARK.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 4      # set-up-only processes per run, besides the measured one
DEADLINE_S = 170.0    # a run must end within 180 s


# ------------------------------------------------------------ child side

def child(args):
    """Workload process: set up, report READY, run the timed rounds."""
    sys.path.insert(0, str(SRC))
    runner = workloads.Runner(args.workload, args.seed)
    runner.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import layertrace
        tracer = layertrace.Tracer()
    clock = time.perf_counter
    lat, results, errors = [], [], []
    phase = {True: [0, 0.0], False: [0, 0.0]}  # traced? -> [ops, seconds]
    rounds = 0
    start = clock()
    while True:
        traced = tracer is not None and rounds % 2 == 0
        if traced:
            tracer.install()
        t_round = clock()
        for i, x in enumerate(runner.round):
            t0 = clock()
            try:
                out = runner.op(x)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                lat.append(clock() - t0)
                errors.append(f"{args.workload}[{i}]: {exc!r}")
                continue
            lat.append(clock() - t0)
            results.append((i, out))
        if traced:
            tracer.uninstall()
        phase[traced][0] += len(runner.round)
        phase[traced][1] += clock() - t_round
        rounds += 1
        if clock() - start >= args.seconds and (tracer is None or rounds >= 2):
            break
    loop_s = clock() - start
    once, calls = [], runner.once_per_run()
    if tracer is not None:
        tracer.install()
    for call in calls:
        try:
            once.append(call())
        except Exception as exc:  # noqa: BLE001 - counted as failed
            errors.append(f"{args.workload} once per run: {exc!r}")
    if tracer is not None:
        tracer.uninstall()
    shifted = runner.row_removal()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rec = {"lat": lat, "loop_s": loop_s, "results": results, "errors": errors,
           "once": once, "once_attempted": len(calls), "shifted": shifted,
           "rss_mb": rss_mb,
           "phase": None, "layers": None}
    if tracer is not None:
        rec["phase"] = {"traced": phase[True], "untraced": phase[False]}
        rec["layers"] = tracer.metrics(phase[True][0] + len(calls))
    print(json.dumps(rec))
    return 0


# ----------------------------------------------------------- parent side

def _spawn(args, setup_only):
    """Start a workload process; return (it, seconds until READY)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        _stop(proc)
        raise RuntimeError("the workload process failed to set up")
    return proc, ready


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise RuntimeError("the workload process ran past the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"the workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]) if out.strip() else None


def measure(args):
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "barneszeta" / "__init__.py").is_file():
        raise RuntimeError(f"no barneszeta package under {SRC}")
    refs = workloads.references(args.workload, args.seed)

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, ready = _spawn(args, True)
            _finish(proc, deadline)
            setups.append(ready)
    proc, ready = _spawn(args, False)
    setups.append(ready)
    rec = _finish(proc, deadline)

    round_inputs = workloads.inputs(args.workload, args.seed)
    chk = workloads.Checker()
    for i, out in rec["results"]:
        workloads.check(args.workload, round_inputs[i], out, refs[i],
                        rec["shifted"][i], chk)
    workloads.check_once_per_run(rec["once"], chk)
    for line in chk.bad[:20] + rec["errors"][:20]:
        print(line, file=sys.stderr)

    lat = rec["lat"]
    result = {"correct": not chk.bad and bool(chk.digits),
              "attempted": len(lat) + rec["once_attempted"],
              "failed": len(rec["errors"])}
    if args.trace:
        traced_ops, traced_s = rec["phase"]["traced"]
        plain_ops, plain_s = rec["phase"]["untraced"]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in rec["layers"].items()}
        rate_t, rate_u = traced_ops / traced_s, plain_ops / plain_s
        metrics["trace.ops_per_s_traced"] = {"value": rate_t, "unit": "1/s"}
        metrics["trace.ops_per_s_untraced"] = {"value": rate_u, "unit": "1/s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (rate_u / rate_t - 1.0),
                                         "unit": "%"}
    else:
        q = statistics.quantiles(lat, n=10, method="inclusive")
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(rec["results"]) / rec["loop_s"],
                          "unit": "1/s"},
            "lat_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
            "lat_p90_ms": {"value": 1e3 * q[8], "unit": "ms"},
            "digits_p50": {"value": statistics.median(chk.digits), "unit": "digits"},
            "digits_min": {"value": min(chk.digits), "unit": "digits"},
            "peak_rss_mb": {"value": rec["rss_mb"], "unit": "MB"},
        }
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------- self-test

def self_test():
    """A few operations of each workload, metric names against
    BENCHMARK.json, and the reference self-check."""
    import reference as ref

    problems = []
    # closed form and row sum agree at Re s > 2 on a commensurate triple
    alpha, p, q, t = 0.7, 1, 2, 1.15
    for s in (3.0, 2.6 + 1.0j, 2.2 - 17.0j, 5.5 + 45.0j):
        a = complex(ref.closed_form(s, alpha, p, q, t))
        b = complex(ref.row_sum(s, alpha, p * t, q * t))
        if abs(a - b) > 1e-15 * abs(a):
            problems.append(f"closed form vs row sum at s={s}: {a} vs {b}")
    a = complex(ref.row_sum(3.0, 0.7, 1.3, 2.1))
    b = complex(ref.row_sum_nsum(3.0, 0.7, 1.3, 2.1))
    if abs(a - b) > 1e-15 * abs(a):
        problems.append(f"row sum vs mpmath.nsum: {a} vs {b}")
    print(f"reference self-check: {'ok' if not problems else 'FAILED'}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for wl in (w["name"] for w in spec["workloads"]):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            t0 = time.perf_counter()
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=180)
            tag = f"{wl} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{tag}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            res = json.loads(done.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{tag}: {res['correct']=} {res['failed']=}")
            print(f"{tag}: {res['attempted']} operations, "
                  f"{time.perf_counter() - t0:.1f} s, "
                  f"{'ok' if res['correct'] else 'WRONG'}")
    for line in problems:
        print(line, file=sys.stderr)
    print("self-test", "passed" if not problems else "FAILED")
    return 0 if not problems else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if args.child:
        return child(args)
    try:
        return measure(args)
    except RuntimeError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
