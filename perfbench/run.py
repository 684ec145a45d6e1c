#!/usr/bin/env python3
"""regpu benchmark: host speed of the simulator, end to end and by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload static-re --seed 1 --seconds 20 --trace 0

Builds perfbench/regpu_bench (CMake, into .bench_build/perfbench) on first
use, runs the workload's (scene, technique) cells through it for about
--seconds seconds, rotating the cells through all ten scene seeds
starting at the one --seed selects, checks the modelled outputs against
perfbench/expected_digests.json and prints one metric per line, then one
JSON object as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
README.md explains the workloads, the metrics and the correctness gate.
"""

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OBS_DIR = ROOT / ".bench_build" / "obs"
REFERENCE = Path(__file__).resolve().parent / "expected_digests.json"

# --seed N starts the rotation at scene seed (N - 1) % SCENE_SEEDS + 1;
# the reference digests cover every scene seed.
SCENE_SEEDS = 10
# A reported percentile needs at least this many samples above it.
MIN_TAIL_SAMPLES = 10

STATIC = ("ccs", "cde", "coc", "ctr", "hop")
MOTION = ("abi", "csn", "mst", "ter", "tib")
WORKLOADS = {
    # >90%-redundant class: RE skips most tiles, host time sits in the
    # raster stages and their ground-truth shadow renders.
    "static-re": {"cells": [(a, "re") for a in STATIC], "tile_jobs": 1},
    # Every tile rendered; base writes every tile, te hashes each tile
    # and skips most writes, memo runs the serial tile loop.
    "motion-full": {"cells": [(a, t) for a in MOTION
                              for t in ("base", "te", "memo")],
                    "tile_jobs": 1},
    # The only workload that runs the tile pool's record/replay merge.
    "motion-pool": {"cells": [(a, t) for a in MOTION for t in ("base", "te")],
                    "tile_jobs": 3},
}

END_TO_END_UNITS = {
    "frames_per_cpu_s": "1/s",
    "frame_cpu_ms_p50": "ms",
    "frame_cpu_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cells_passed_pct": "%",
}
PER_LAYER_UNITS = {
    "scene.emit_ms": "ms",
    "gpu.geometry_ms": "ms",
    "gpu.raster_ms": "ms",
    "gpu.raster_ns_per_fragment": "ns",
    "re.hooks_ms": "ms",
    "te.hooks_ms": "ms",
    "timing.mem_ms": "ms",
    "timing.ns_per_mem_event": "ns",
    "sim.unattributed_ms": "ms",
    "sim.frame_ms": "ms",
    "timing.mem_events_per_frame": "count",
    "timing.texture_hit_pct": "%",
    "timing.l2_hit_pct": "%",
    "timing.dram_bytes_per_frame": "B",
    "re.tiles_skipped_pct": "%",
    "re.false_positives": "count",
    "gpu.shadow_tiles_per_frame": "count",
    "te.flushes_elided_pct": "%",
    "memo.reuse_pct": "%",
    "gpu.tiles_rendered_pct": "%",
    "gpu.fragments_per_frame": "count",
    "gpu.texel_fetches_per_frame": "count",
    "sim.cycles_per_frame": "cycles",
    "power.energy_pj_per_frame": "pJ",
    "obs.overhead_pct": "%",
    "bench.trace_overhead_pct": "%",
    "gpu.cores_busy": "cores",
}
LAYER_KEYS = ("emit_ms", "geometry_ms", "hooks_ms", "raster_ms", "mem_ms")


def cell_labels(workload):
    return [f"{a}:{t}" for a, t in WORKLOADS[workload]["cells"]]


# ---- Percentiles ----------------------------------------------------------

def percentile_rank(n, q):
    """1-based nearest-rank index of the q-th percentile of n samples."""
    return max(1, math.ceil(q / 100.0 * n))


def samples_beyond(n, q):
    return n - percentile_rank(n, q)


def percentile(values, q):
    """Nearest-rank percentile; refuses one with fewer than
    MIN_TAIL_SAMPLES samples above it."""
    if samples_beyond(len(values), q) < MIN_TAIL_SAMPLES and q < 100:
        raise ValueError(f"p{q} of {len(values)} samples has only "
                         f"{samples_beyond(len(values), q)} beyond it")
    return sorted(values)[percentile_rank(len(values), q) - 1]


def min_samples_for(q):
    """Fewest samples for which percentile(values, q) is allowed."""
    n = 1
    while samples_beyond(n, q) < MIN_TAIL_SAMPLES:
        n += 1
    return n


def scene_seed(seed):
    return (seed - 1) % SCENE_SEEDS + 1


def scene_seeds(seed):
    """The scene seeds a run with --seed seed rotates its cells through:
    all of them, starting at scene_seed(seed)."""
    return [scene_seed(seed + k) for k in range(SCENE_SEEDS)]


# ---- Building and running regpu_bench --------------------------------------

def build():
    """Configure (once) and build regpu_bench; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"{ROOT} is not a regpu checkout (no "
                           "CMakeLists.txt or src/)")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"),
                        "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j4",
                    "--target", "regpu_bench"],
                   check=True, stdout=sys.stderr)
    return BUILD_DIR / "regpu_bench"


def bench_command(binary, workload, seeds, seconds, trace):
    """seeds lists the scene seeds handed to makeBenchmark; regpu_bench
    rotates the cells through them."""
    cmd = [str(binary), "--cells", ",".join(cell_labels(workload)),
           "--tile-jobs", str(WORKLOADS[workload]["tile_jobs"]),
           "--seeds", ",".join(map(str, seeds)), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--obs-dir", str(OBS_DIR)]
    return cmd


def bench_timeout(seconds):
    """regpu_bench finishes the repetition it has started, and its untimed
    warm-up pass and first repetitions may run past a short budget to
    sample enough frames; no repetition of any workload takes a
    minute."""
    return 2 * seconds + 60


def run_bench(cmd, timeout):
    """Runs regpu_bench; returns (records, error). error is None only when
    it exited 0 and every line parsed, ending with its summary record."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return [], f"regpu_bench exceeded {timeout} s"
    except OSError as e:
        return [], f"regpu_bench did not start: {e}"
    records = []
    for line in proc.stdout.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            return records, f"unparseable regpu_bench output: {line[:80]!r}"
    if proc.returncode != 0:
        return records, f"regpu_bench exited with code {proc.returncode}"
    if not records or records[-1].get("type") != "summary":
        return records, "regpu_bench output ends without a summary record"
    return records, None


def run_workload(binary, workload, seeds, seconds, trace):
    """Runs one workload through regpu_bench, rotating its cells through
    the scene seeds seeds; returns (records, error)."""
    shutil.rmtree(OBS_DIR, ignore_errors=True)
    if trace:
        OBS_DIR.mkdir(parents=True)
    try:
        return run_bench(bench_command(binary, workload, seeds, seconds,
                                       trace), bench_timeout(seconds))
    finally:
        shutil.rmtree(OBS_DIR, ignore_errors=True)


def load_reference():
    """Maps each scene seed (as a string) to a map from cell label to the
    cell's reference digest."""
    return json.loads(REFERENCE.read_text())["digests"]


# ---- Correctness gate -----------------------------------------------------

def unattributed_ms(rec):
    """Per-frame traced frame time not covered by any timed layer."""
    return [rec["frame_ms"][i] - sum(rec[k][i] for k in LAYER_KEYS)
            for i in range(len(rec["frame_ms"]))]


def cell_failures(records, labels, trace, error, expected):
    """Maps every cell label to the list of reasons it failed (empty when
    it passed). expected is load_reference()'s map from scene seed to
    cell to reference digest. A regpu_bench error fails every cell."""
    if error is not None:
        return {c: [error] for c in labels}
    failures = {c: [] for c in labels}
    passes = ("plain", "traced", "obs") if trace else ("plain",)
    for cell in labels:
        recs = [r for r in records
                if r.get("type") == "pass" and r.get("cell") == cell]
        why = failures[cell]
        for p in passes:
            if not any(r["pass"] == p for r in recs):
                why.append(f"no {p} pass")
        for r in recs:
            tag = f"{r['pass']} rep {r['rep']}"
            if r["frames_done"] < r["frames_requested"]:
                why.append(f"{tag}: {r['frames_done']} of "
                           f"{r['frames_requested']} frames")
            clocks = ("frame_ms",)
            if r["pass"] == "plain":
                clocks += ("frame_cpu_ms",)
            for key in clocks:
                if len(r[key]) != r["frames_done"]:
                    why.append(f"{tag}: {len(r[key])} {key} values for "
                               f"{r['frames_done']} frames")
            if r["conservation_violations"] > 0:
                why.append(f"{tag}: {r['conservation_violations']} memory "
                           "conservation violations")
            if r["re_false_positives"] > 0:
                why.append(f"{tag}: {r['re_false_positives']} RE false "
                           "positives")
            if r["pass"] == "traced" and min(unattributed_ms(r)) < -1e-6:
                why.append(f"{tag}: layer times exceed the frame time")
        wrong = set()
        for r in recs:
            reference = expected[str(r["scene_seed"])][cell]
            if r["digest"] != reference:
                wrong.add((r["scene_seed"], r["pass"], r["digest"],
                           reference))
        for seed, p, digest, reference in sorted(wrong):
            why.append(f"scene seed {seed} {p}: modelled digest {digest} "
                       f"differs from the reference {reference}")
    return failures


# ---- Metrics ----------------------------------------------------------------

def passes_of(records, name):
    return [r for r in records
            if r.get("type") == "pass" and r["pass"] == name]


def setup_seconds(plain):
    """Median over repetitions of the set-up time summed over cells."""
    reps = {}
    for r in plain:
        reps[r["rep"]] = reps.get(r["rep"], 0.0) + r["setup_s"]
    return statistics.median(reps.values())


def end_to_end(records):
    """Frame rate and frame times are taken on the CPU-time clock (all
    threads of regpu_bench); README.md says why."""
    plain = passes_of(records, "plain")
    frames = [ms for r in plain for ms in r["frame_cpu_ms"]]
    summary = records[-1]
    metrics = {
        "frames_per_cpu_s": (sum(r["frames_done"] for r in plain)
                             / sum(r["run_cpu_s"] for r in plain)),
        "frame_cpu_ms_p50": percentile(frames, 50),
        "frame_cpu_ms_p95": percentile(frames, 95),
        "setup_s": setup_seconds(plain),
        "peak_rss_mb": summary["peak_rss_kb"] / 1024.0,
    }
    notes = {
        "frame_cpu_ms_p50": f"{len(frames)} frames",
        "frame_cpu_ms_p95": f"{len(frames)} frames, "
                            f"{samples_beyond(len(frames), 95)} beyond p95",
        "frames_per_cpu_s": f"{summary['reps']} repetitions",
    }
    return metrics, notes


def ratio_pct(num, den):
    return 100.0 * num / den if den else 0.0


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def per_layer(records):
    traced = passes_of(records, "traced")
    plain = passes_of(records, "plain")
    obs = passes_of(records, "obs")

    def frames_of(key, technique=None):
        return [v for r in traced
                if technique is None or r["technique"] == technique
                for v in r[key]]

    def total(recs, key, technique=None):
        return sum(r["model"][key] for r in recs
                   if technique is None or r["technique"] == technique)

    n_frames = sum(r["frames_done"] for r in traced)
    raster_ns = sum(frames_of("raster_ms")) * 1e6
    mem_ns = sum(frames_of("mem_ms")) * 1e6
    mem_events = sum(r["mem_events"] for r in traced)
    first_rep = [r for r in plain if r["rep"] == 0]
    m = {
        "scene.emit_ms": statistics.median(frames_of("emit_ms")),
        "gpu.geometry_ms": statistics.median(frames_of("geometry_ms")),
        "gpu.raster_ms": statistics.median(frames_of("raster_ms")),
        "gpu.raster_ns_per_fragment":
            raster_ns / max(1, total(traced, "fragments_generated")),
        "re.hooks_ms": median_or_zero(frames_of("hooks_ms", "RE")),
        "te.hooks_ms": median_or_zero(frames_of("hooks_ms", "TE")),
        "timing.mem_ms": statistics.median(frames_of("mem_ms")),
        "timing.ns_per_mem_event": mem_ns / max(1, mem_events),
        "sim.unattributed_ms":
            statistics.median(v for r in traced for v in unattributed_ms(r)),
        "sim.frame_ms": statistics.median(frames_of("frame_ms")),
        "timing.mem_events_per_frame": mem_events / n_frames,
        "timing.texture_hit_pct":
            ratio_pct(sum(r["texture_hits"] for r in traced),
                      sum(r["texture_accesses"] for r in traced)),
        "timing.l2_hit_pct":
            ratio_pct(sum(r["l2_hits"] for r in traced),
                      sum(r["l2_accesses"] for r in traced)),
        "timing.dram_bytes_per_frame": total(traced, "dram_bytes") / n_frames,
        "re.tiles_skipped_pct":
            ratio_pct(total(traced, "tiles_skipped", "RE"),
                      total(traced, "tiles_total", "RE")),
        "re.false_positives": sum(r["re_false_positives"] for r in first_rep),
        "gpu.shadow_tiles_per_frame":
            total(traced, "tiles_skipped") / n_frames,
        "te.flushes_elided_pct":
            ratio_pct(total(traced, "flushes_elided", "TE"),
                      total(traced, "tiles_rendered", "TE")),
        "memo.reuse_pct":
            ratio_pct(total(traced, "fragments_memo_reused", "Memo"),
                      total(traced, "fragments_memo_reused", "Memo")
                      + total(traced, "fragments_shaded", "Memo")),
        "gpu.tiles_rendered_pct":
            ratio_pct(total(traced, "tiles_rendered"),
                      total(traced, "tiles_total")),
        "gpu.fragments_per_frame":
            total(traced, "fragments_generated") / n_frames,
        "gpu.texel_fetches_per_frame":
            total(traced, "texel_fetches") / n_frames,
        "sim.cycles_per_frame": total(traced, "cycles") / n_frames,
        "power.energy_pj_per_frame": total(traced, "energy_pj") / n_frames,
        "obs.overhead_pct":
            ratio_pct(sum(r["run_s"] for r in obs),
                      sum(r["run_s"] for r in plain)) - 100.0,
        "bench.trace_overhead_pct":
            ratio_pct(sum(r["run_s"] for r in traced),
                      sum(r["run_s"] for r in plain)) - 100.0,
        "gpu.cores_busy": (sum(r["run_cpu_s"] for r in plain)
                           / sum(r["run_s"] for r in plain)),
    }
    # Mean ms per frame by layer: these add up exactly to the traced
    # frame time (the medians above need not).
    means = {k: sum(frames_of(k)) / n_frames for k in LAYER_KEYS}
    means["unattributed_ms"] = (sum(v for r in traced
                                    for v in unattributed_ms(r)) / n_frames)
    means["frame_ms"] = sum(frames_of("frame_ms")) / n_frames
    return m, means


# ---- Main -------------------------------------------------------------------

def evaluate(records, error, workload, trace, expected):
    """Applies the gate and computes the metrics of one run; returns the
    result object and the lines to print above it. expected is
    load_reference()'s map from scene seed to cell to reference digest."""
    labels = cell_labels(workload)
    try:
        failures = cell_failures(records, labels, trace, error, expected)
    except (KeyError, TypeError) as e:
        error = f"malformed regpu_bench record or reference: {e!r}"
        failures = cell_failures(records, labels, trace, error, expected)
    failed = sum(1 for why in failures.values() if why)
    lines = [f"FAILED {cell}: {'; '.join(why)}"
             for cell, why in failures.items() if why]
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    values, notes = dict.fromkeys(units, 0.0), {}
    if error is None:
        try:
            if trace:
                values, means = per_layer(records)
                lines.append("reconciliation, mean ms per traced frame: "
                             + " + ".join(f"{k[:-3]} {v:.4f}"
                                          for k, v in means.items()
                                          if k != "frame_ms")
                             + f" = {means['frame_ms']:.4f}")
            else:
                values, notes = end_to_end(records)
        except (ValueError, KeyError, ZeroDivisionError,
                statistics.StatisticsError) as e:
            lines.append(f"FAILED metrics: {type(e).__name__}: {e}")
            failed = len(labels)
    if not trace:
        values["cells_passed_pct"] = 100.0 * (len(labels) - failed) / len(labels)
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name:30s} {values[name]:16.6f} {unit}{note}")
    result = {
        "correct": failed == 0,
        "attempted": len(labels),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        return 2

    seeds = scene_seeds(args.seed)
    try:
        expected = load_reference()
    except (OSError, ValueError, KeyError) as e:
        print(f"[perfbench] cannot read the reference digests in "
              f"{REFERENCE}: {e!r}", file=sys.stderr)
        return 2

    start = time.monotonic()
    records, error = run_workload(binary, args.workload, seeds,
                                  args.seconds, args.trace == 1)

    result, lines = evaluate(records, error, args.workload, args.trace == 1,
                             expected)
    print(f"workload {args.workload}, seed {args.seed} (scene seeds "
          f"{seeds[0]}, {seeds[1]}, ... {seeds[-1]}), "
          f"{'traced' if args.trace else 'untraced'}, "
          f"{time.monotonic() - start:.1f} s")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
