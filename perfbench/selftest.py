#!/usr/bin/env python3
"""Self-test of the benchmark harness, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks, through perfbench/run.py:
  * every workload, untraced and traced, prints a last line with exactly
    the keys correct/attempted/failed/metrics, zero failures, and every
    metric BENCHMARK.json names for that mode, with its unit;
  * on rpc-closed, serve.submit_us plus the codec times plus
    net.residual_us adds up to client.p50_us, and the residual is not
    negative (the probed layers do not take longer than the client's
    median);
  * a deliberately corrupted engine output (suite-sweep) or RPC reply
    (rpc-closed, rpc-pipelined) is counted as a failed operation and makes
    the run exit non-zero; the run records show that rpc-closed checked
    replies by recomputing them and rpc-pipelined by projection, the
    checks each takes at full size.
Exits 0 when every check passes.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CODECS = ("net.diff_us", "net.req_encode_us", "net.req_decode_us",
          "net.reply_encode_us", "net.reply_decode_us")

SEED = 3
failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def record(workload):
    """The run record of the last untraced run of `workload`."""
    path = os.path.join(build_dir(), "perfbench-trace",
                        f"{workload}-seed{SEED}.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def run(workload, trace, corrupt=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--tiny", "1"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return p.returncode, None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, out = run(w, trace)
            tag = f"{w} trace={trace}"
            expect(rc == 0 and out is not None, f"{tag}: exit 0 with a result")
            if out is None:
                continue
            expect(set(out) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys")
            expect(out["correct"] is True and out["failed"] == 0
                   and out["attempted"] >= 1,
                   f"{tag}: {out['attempted']} attempted, none failed")
            metrics = out["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                expect(got is not None and got["unit"] == m["unit"]
                       and isinstance(got["value"], (int, float))
                       and math.isfinite(got["value"]),
                       f"{tag}: {m['name']} [{m['unit']}]")
            expect(set(metrics) == {m["name"] for m in spec[key]},
                   f"{tag}: no metric beyond BENCHMARK.json")
            if w == "rpc-closed" and trace == 1:
                parts = metrics["serve.submit_us"]["value"] + sum(
                    metrics[c]["value"] for c in CODECS)
                total = parts + metrics["net.residual_us"]["value"]
                expect(abs(total - metrics["client.p50_us"]["value"]) < 1e-6,
                       f"{tag}: submit + codecs + residual = client.p50_us")
                expect(metrics["net.residual_us"]["value"] >= 0,
                       f"{tag}: net.residual_us "
                       f"{metrics['net.residual_us']['value']:.1f} >= 0")

    for w, corrupt in (("suite-sweep", "y"), ("rpc-closed", "reply"),
                       ("rpc-pipelined", "reply")):
        rc, out = run(w, 0, corrupt)
        expect(rc != 0 and out is not None and out["correct"] is False
               and out["failed"] >= 1,
               f"{w} --corrupt {corrupt}: counted as failed, exit {rc}")
        if corrupt == "reply":
            want = "recompute" if w == "rpc-closed" else "projection"
            got = record(w).get("reply_check")
            expect(got == want, f"{w} --corrupt reply: checked by {got}")

    print(f"selftest: {len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
