#!/usr/bin/env python3
"""Fine-tune benchmark for the VELA runtime.

    python3 perfbench/run.py --workload vela_bulk|vela_drift|ep_bulk \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (the VELA library from src/ plus the vela_perfbench driver) under
$CARGO_TARGET_DIR (default .bench_build). Each run then executes one workload
as a closed loop with one client, checks its losses, and prints as its last
stdout line one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. See perfbench/README.md for what each workload and metric is for.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every workload the driver can run. BENCHMARK.json lists the ones the
# benchmark runs; README.md says why vela_drift is not among them.
WORKLOADS = ("vela_bulk", "vela_drift", "ep_bulk")
DEADLINE_S = 170  # the whole run, build excluded, must end within 180 s
BLOCK_STEPS = 10  # tokens_per_s is the median throughput of 10-step blocks

# End-to-end metrics: name -> unit. Same set on every workload.
END_TO_END = {
    "tokens_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_tail_ms": "ms",
    "cpu_ms_per_ktok": "ms",
    "setup_s": "s",
    "external_mb_per_step": "MB",
    "modeled_step_s": "s",
    "peak_rss_mb": "MB",
    "step_success_rate": "ratio",
}

# Per-layer metrics from the traced run: name -> (unit, the end-to-end
# metric it should move, the workload it should move it on, the workloads
# whose run exercises the layer). On any other workload the layer is
# bypassed: the metric reads 0 and the tagged report says "bypassed".
VELA = ("vela_bulk", "vela_drift")
ALL = WORKLOADS
PER_LAYER = {
    "core.profile_s": ("s", "setup_s", "vela_bulk, vela_drift", VELA),
    "core.placement_s": ("s", "setup_s", "vela_bulk, vela_drift", VELA),
    "core.requests_per_step": ("1/step", "step_p50_ms", "vela_drift", VELA),
    "core.replans_evaluated": ("1/step", "step_tail_ms",
                               "vela_drift (0 on vela_bulk)", VELA),
    "core.replans_adopted": ("1/step", "step_tail_ms",
                             "vela_drift (0 on vela_bulk)", VELA),
    "core.dist_overhead_ratio": ("ratio", "step_p50_ms",
                                 "vela_drift most, vela_bulk least", ALL),
    "model.fwd_ms": ("ms", "tokens_per_s, step_p50_ms", "vela_bulk, ep_bulk",
                     ALL),
    "autograd.bwd_ms": ("ms", "tokens_per_s, step_p50_ms",
                        "vela_bulk, ep_bulk", ALL),
    "model.local_tokens_per_s": ("1/s", "tokens_per_s", "vela_bulk, ep_bulk",
                                 ALL),
    "nn.expert_fwd_bwd_us": ("us", "cpu_ms_per_ktok", "vela_bulk, ep_bulk",
                             ALL),
    "moe.gate_us": ("us", "step_p50_ms", "vela_bulk", ALL),
    "comm.total_mb_per_step": ("MB", "cpu_ms_per_ktok", "vela_bulk", ALL),
    "comm.messages_per_step": ("1/step", "step_p50_ms", "vela_drift", VELA),
    "comm.roundtrip_us": ("us", "step_p50_ms", "vela_bulk (inproc)", ALL),
    "comm.socket_roundtrip_us": ("us", "step_p50_ms", "vela_drift", ALL),
    "comm.codec_mb_per_s": ("MB/s", "cpu_ms_per_ktok", "vela_bulk (inproc)",
                            ALL),
    "placement.lp_ms": ("ms", "tokens_per_s, step_p50_ms", "vela_drift",
                        VELA),
    "placement.lp_iterations": ("count", "setup_s", "vela_bulk", VELA),
    "store.paged_mb_per_step": ("MB", "step_p50_ms, cpu_ms_per_ktok",
                                "vela_drift (0 on vela_bulk)", VELA),
    "store.pin_miss_us": ("us", "step_p50_ms", "vela_drift", VELA),
    "util.cpu_util": ("ratio", "tokens_per_s",
                      "ep_bulk (~3.0), vela_* (~1.3-1.6)", ALL),
    "trace.overhead_ms": ("ms", "step_p50_ms", "all", ALL),
    "clock.measured_over_modeled": ("ratio", "modeled_step_s", "all", ALL),
}


def tail_percentile(samples, beyond=10):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample_count): the (beyond+1)-th largest
    sample and the share of samples at or below its rank, in percent.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    ordered = sorted(samples)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def block_throughput(walls, tokens_per_step, block=BLOCK_STEPS):
    """Median tokens/s over consecutive `block`-step blocks (last partial
    block dropped): a contended stretch of the run moves fewer blocks than
    it moves the run's total time."""
    sums = [sum(walls[i:i + block])
            for i in range(0, len(walls) - block + 1, block)]
    return statistics.median(block * tokens_per_step / s for s in sums)


def end_to_end_metrics(raw):
    win = raw["window"]
    walls = win["wall_s"]
    tail, pct, n = tail_percentile(walls)
    return {
        "tokens_per_s": block_throughput(walls, raw["tokens_per_step"]),
        "step_p50_ms": 1e3 * statistics.median(walls),
        "step_tail_ms": 1e3 * tail,
        "cpu_ms_per_ktok": 1e6 * win["cpu_s"] / win["tokens"],
        "setup_s": statistics.median(raw["setup_s"]),
        "external_mb_per_step": win["external_mb"],
        "modeled_step_s": win["modeled_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "step_success_rate": (raw["attempted"] - raw["failed"]) / raw["attempted"],
    }, {"tail_percentile": pct, "tail_samples": n}


def per_layer_metrics(raw):
    win, traced, probes = raw["window"], raw["traced"], raw["probes"]
    p50_s = statistics.median(win["wall_s"])
    local_ms = probes["local_fwd_ms"] + probes["local_bwd_ms"]
    measured = {
        "core.profile_s": probes["profile_s"],
        "core.placement_s": probes["placement_s"],
        "core.requests_per_step": traced["requests"],
        "core.replans_evaluated": traced["replans_evaluated"],
        "core.replans_adopted": traced["replans_adopted"],
        "core.dist_overhead_ratio": 1e3 * p50_s / local_ms,
        "model.fwd_ms": probes["local_fwd_ms"],
        "autograd.bwd_ms": probes["local_bwd_ms"],
        "model.local_tokens_per_s": raw["tokens_per_step"] / (local_ms / 1e3),
        "nn.expert_fwd_bwd_us": probes["expert_fwd_bwd_us"],
        "moe.gate_us": probes["gate_us"],
        "comm.total_mb_per_step": traced["total_mb"],
        "comm.messages_per_step": traced["messages"],
        "comm.roundtrip_us": probes["roundtrip_us"],
        "comm.socket_roundtrip_us": probes["socket_roundtrip_us"],
        "comm.codec_mb_per_s": probes["payload_bytes"] / probes["roundtrip_us"],
        "placement.lp_ms": probes.get("lp_ms", 0.0),
        "placement.lp_iterations": probes.get("lp_iterations", 0.0),
        "store.paged_mb_per_step": traced["paged_mb"],
        "store.pin_miss_us": probes.get("pin_miss_us", 0.0),
        "util.cpu_util": win["cpu_s"] / sum(win["wall_s"]),
        "trace.overhead_ms": 1e3 * (statistics.median(traced["wall_s"]) - p50_s),
        "clock.measured_over_modeled": p50_s / win["modeled_s"],
    }
    workload = raw["workload"]
    return {name: (value if workload in PER_LAYER[name][3] else 0.0)
            for name, value in measured.items()}


def check_outputs(raw, reference):
    """Returns the list of failed correctness checks (empty when correct)."""
    problems = []
    losses = raw["losses"]
    if any(loss is None for loss in losses):
        problems.append("a step produced a non-finite loss")
    if raw["failed"] or raw["error"]:
        problems.append(f"{raw['failed']} failed step(s) {raw['error']}".strip())
    band = reference[raw["workload"]]
    window = losses[band["first_step"]:band["last_step"] + 1]
    if len(window) != band["last_step"] - band["first_step"] + 1 or None in window:
        problems.append("too few finite losses for the reference band")
    elif not band["lo"] <= statistics.fmean(window) <= band["hi"]:
        problems.append(f"mean loss {statistics.fmean(window):.6f} of steps "
                        f"{band['first_step']}-{band['last_step']} outside "
                        f"[{band['lo']}, {band['hi']}]")
    expected = "identical" if raw["workload"] == "vela_drift" else "n/a"
    if raw["transport_check"] != expected:
        problems.append(f"socket vs inproc losses: {raw['transport_check']}")
    return problems


def build(build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "vela_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return build_dir / "vela_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: the VELA sources (src/) are not in this checkout",
              file=sys.stderr)
        return 2
    out_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out_root.is_absolute():
        out_root = ROOT / out_root
    binary = build(out_root / "perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    started = time.monotonic()
    nproc = len(os.sched_getaffinity(0))
    env = {k: v for k, v in os.environ.items() if not k.startswith("VELA_")}
    env["VELA_THREADS"] = str(nproc)
    work_dir = out_root / "perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    trace_dir = out_root / "perfbench" / "traces"
    trace_file = trace_dir / f"{args.workload}-seed{args.seed}.json"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--trace-out", str(trace_file)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        print("perfbench: the workload did not finish in time", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"perfbench: vela_perfbench exited {proc.returncode}",
              file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    reference = json.loads((HERE / "reference.json").read_text())
    problems = check_outputs(raw, reference)
    for problem in problems:
        print(f"check failed: {problem}")

    e2e, tail_info = end_to_end_metrics(raw)
    diagnostics = {
        "steal_share": raw["window"]["steal_share"],
        "lanes": raw["lanes"],
        "nproc": raw["nproc"],
        "vela_threads": nproc,
        "ref_loop_ms": raw["ref_loop_ms"],
        "timed_steps": len(raw["window"]["wall_s"]),
        "run_s": time.monotonic() - started,
        **tail_info,
    }
    print(f"workload {args.workload} seed {args.seed}: "
          f"step_tail_ms is p{tail_info['tail_percentile']:.1f} of "
          f"{tail_info['tail_samples']} timed steps")
    print("diagnostics: " + json.dumps(diagnostics))

    if args.trace:
        values = per_layer_metrics(raw)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
        for name, (unit, moves, on, applies) in PER_LAYER.items():
            state = ("bypassed" if args.workload not in applies
                     else f"moves {moves} on {on}")
            print(f"layer {name} = {values[name]:.6g} {unit} [{state}]")
        modeled = raw["window"]["modeled_s"]
        measured = statistics.median(raw["window"]["wall_s"])
        print(f"model gap: modeled_step_s {modeled:.6f} s vs measured step "
              f"p50 {measured:.6f} s; residual {measured - modeled:+.6f} s")
        print(f"trace: {len(raw['traced']['wall_s'])} traced steps; spans in "
              f"{trace_file}")
    else:
        values, units = e2e, END_TO_END
    result = {
        "correct": not problems,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
