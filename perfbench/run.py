"""Certification benchmark for the hotelling library.

    python3 perfbench/run.py --workload certify-pure --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` beside this file's directory. One
process, one thread, closed loop: each op starts when the previous one
returns. The op list of a workload is run in whole passes, each in a new
seeded order, as many as fit in ``--seconds`` but at least two. Times are
normalised to a reference machine speed (see ``gauge.py``). Every answer is
checked outside the timed interval. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the run's details (input counts, Python version, commit,
nproc, seed, sample counts).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
untraced pass, one traced pass (spans around every public function of every
``hotelling`` module) and one pass under ``cProfile``, and reports the
per-layer metrics. Results and spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import gauge
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is timed at least this many times per run; the median is reported.
SETUP_REPEATS = 9
# Every op runs at least this often per run, so each has a median.
MIN_PASSES = 2
# A tail percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYERS = ("core", "payoff", "mixed", "oracle", "equilibrium", "serialize", "cli")


def _is_hotelling(name: str) -> bool:
    return name == "hotelling" or name.startswith("hotelling.")


def _purge() -> None:
    for name in [n for n in sys.modules if _is_hotelling(n)]:
        del sys.modules[name]


def _import_and_generate(workload: str, seed: int, work_dir: Path):
    hot = importlib.import_module("hotelling")
    importlib.import_module("hotelling.cli")
    return hot, workloads.WORKLOADS[workload](hot, seed, work_dir)


def set_up(meter: gauge.Gauge, workload: str, seed: int, work_dir: Path):
    """Fresh import of hotelling plus the workload's inputs:
    ((normalised seconds, wall seconds), module, ops)."""
    _purge()
    outcome, error, wall, normalised = meter.time(lambda: _import_and_generate(workload, seed, work_dir))
    if error is not None:
        raise error
    return (normalised, wall), *outcome


def time_set_up(meter: gauge.Gauge, workload: str, seed: int, work_dir: Path) -> tuple[float, float]:
    """Time one more set-up, then restore the modules the ops are bound to."""
    kept = {name: module for name, module in sys.modules.items() if _is_hotelling(name)}
    try:
        return set_up(meter, workload, seed, work_dir)[0]
    finally:
        _purge()
        sys.modules.update(kept)


class Runner:
    """Runs passes over the op list and counts attempts and failures."""

    def __init__(self, ops, seed: int, meter: gauge.Gauge):
        self.ops = ops
        self.rng = random.Random(seed)
        self.meter = meter
        self.verdicts: dict = {}
        self.attempted = 0
        self.failed = 0
        self.reported: set[int] = set()

    def _check(self, index: int, result) -> bool:
        try:
            key = (index, result)
            if key in self.verdicts:
                return self.verdicts[key]
        except TypeError:  # unhashable result: check it every time
            key = None
        try:
            ok = bool(self.ops[index].check(result))
        except Exception as exc:
            self._report(index, exc)
            ok = False
        if key is not None:
            self.verdicts[key] = ok
        return ok

    def _report(self, index: int, error: Exception | None) -> None:
        if index in self.reported:
            return
        self.reported.add(index)
        print(f"op {self.ops[index].label} failed", file=sys.stderr)
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)

    def run_pass(self, tracer=None, profiler=None) -> tuple[list[float], list[float], int]:
        """One pass in a fresh seeded order: per-op normalised seconds, wall
        seconds, and the number of exhaustive oracle results."""
        order = list(range(len(self.ops)))
        self.rng.shuffle(order)
        normalised = [0.0] * len(self.ops)
        wall = [0.0] * len(self.ops)
        exhaustive = 0
        for index in order:
            op = self.ops[index]
            call = op.call if profiler is None else (lambda: profiler.runcall(op.call))
            if tracer is not None:
                tracer.op_id = index
            result, error, wall[index], normalised[index] = self.meter.time(call)
            if tracer is not None:
                tracer.op_id = None
            self.attempted += 1
            if error is None and op.oracle:
                exhaustive += sum(bool(getattr(r, "exhaustive", True)) for r in result)
            if error is not None or not self._check(index, result):
                self._report(index, error)
                self.failed += 1
        return normalised, wall, exhaustive


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    position = (len(sorted_values) - 1) * q
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (position - low)


def tail_level(ops: int) -> float:
    """0.9, or the highest level with TAIL_SAMPLES samples beyond it in
    MIN_PASSES passes; fixed per workload, so it does not move with the
    number of passes that fit."""
    return max(0.5, min(0.9, 1 - TAIL_SAMPLES / (ops * MIN_PASSES)))


def end_to_end(passes: list[list[float]], setup_seconds: list[float]) -> tuple[dict, dict]:
    """Each op counts with its median over the passes: the percentiles are
    over the op list, so one slow sample of a cheap op cannot move them."""
    per_op = sorted(statistics.median(s) for s in zip(*passes))
    level = tail_level(len(per_op))
    values = {
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": 1e3 * quantile(per_op, 0.5),
        "op_p90_ms": 1e3 * quantile(per_op, level),
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {"passes": len(passes), "samples": len(passes) * len(per_op), "tail_level": level}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, details


def _is_construction(name: str) -> bool:
    return name.startswith("equilibrium.construct_") or name == "equilibrium.two_player_equilibrium"


def _is_encoder(name: str) -> bool:
    return name.startswith("serialize.") and (
        name.endswith("_to_json") or name in ("serialize.profile_document", "serialize.format_fraction")
    )


def _is_decoder(name: str) -> bool:
    return name.startswith("serialize.parse_") or (
        name.startswith("serialize.") and name.endswith("_from_json")
    )


def per_layer(tracer: spans.Tracer, exhaustive: int, props: dict, share: float, overhead: float) -> dict:
    calls, self_s = tracer.totals()

    def self_of(match) -> float:
        return sum((v for name, v in self_s.items() if match(name)), 0.0)

    def named(name: str) -> float:
        return self_s.get(name, 0.0)

    best_response_calls = calls.get("oracle.best_response", 0)
    values = {
        "oracle.best_response.calls": (best_response_calls, "count"),
        "oracle.best_response.self_s": (named("oracle.best_response"), "s"),
        "oracle.certify_no_deviation.self_s": (named("oracle.certify_no_deviation"), "s"),
        # vacuously 1 when the oracle never ran: nothing was capped
        "oracle.exhaustive_ratio": (exhaustive / best_response_calls if best_response_calls else 1.0,
                                    "ratio"),
        "oracle.family_size_mean": (props["oracle.family_size_mean"], "count"),
        "oracle.draws_total": (props["oracle.draws_total"], "count"),
        "oracle.subset_space_total": (props["oracle.subset_space_total"], "count"),
        "mixed.mixed_payoff.calls": (calls.get("mixed.mixed_payoff", 0), "count"),
        "mixed.mixed_payoff.self_s": (named("mixed.mixed_payoff"), "s"),
        "mixed.support_total": (props["mixed.support_total"], "count"),
        "payoff.masses.calls": (calls.get("payoff.masses", 0), "count"),
        "payoff.masses.self_s": (named("payoff.masses"), "s"),
        "equilibrium.verify.self_s": (self_of(lambda n: n.startswith("equilibrium.verify_")), "s"),
        "equilibrium.construct.self_s": (self_of(_is_construction), "s"),
        "core.classify.self_s": (named("core.classify"), "s"),
        "core.flatten.self_s": (named("core.flatten"), "s"),
        "serialize.encode.self_s": (self_of(_is_encoder), "s"),
        "serialize.decode.self_s": (self_of(_is_decoder), "s"),
        "cli.main.self_s": (named("cli.main"), "s"),
        "fractions.self_share": (share, "ratio"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (self_of(lambda n: n.startswith(layer + ".")), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def commit() -> str:
    """The checkout's commit when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hotelling" / "__init__.py").is_file():
        print(f"error: no hotelling sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        return run(args, tag, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, tag: str, work_dir: Path) -> int:
    # ticks would run the reference loop inside spans and profiles
    meter = gauge.Gauge(ticks=not args.trace)
    setup, hot, ops = set_up(meter, args.workload, args.seed, work_dir)
    if not Path(hot.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported hotelling from {hot.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setups = [setup]
    props = workloads.input_properties(ops)
    runner = Runner(ops, args.seed, meter)

    if args.trace:
        untraced, _, _ = runner.run_pass()
        tracer = spans.Tracer()
        tracer.install(hot)
        try:
            traced, _, exhaustive = runner.run_pass(tracer=tracer)
        finally:
            tracer.uninstall()
        profiler = cProfile.Profile()
        runner.run_pass(profiler=profiler)
        overhead = sum(traced) / sum(untraced) - 1
        metrics = per_layer(tracer, exhaustive, props, spans.fractions_share(profiler), overhead)
        tracer.write(OUT / f"spans-{tag}.jsonl.gz")
        details = {"passes": 3, "spans": len(tracer.spans)}
        raw = {"untraced_s": untraced, "traced_s": traced}
    else:
        passes, wall = [], []
        start = time.perf_counter()
        while True:
            normalised, seconds, _ = runner.run_pass()
            passes.append(normalised)
            wall.append(seconds)
            setups.append(time_set_up(meter, args.workload, args.seed, work_dir))
            elapsed = time.perf_counter() - start
            # stop unless one more pass of average length still fits
            if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        while len(setups) < SETUP_REPEATS:
            setups.append(time_set_up(meter, args.workload, args.seed, work_dir))
        metrics, details = end_to_end(passes, [normalised for normalised, _ in setups])
        raw = {"pass_s": passes, "wall_pass_s": wall, "setup_s": setups}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "inputs": props,
        "fail_frac": runner.failed / runner.attempted,
        **details,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"info": info, "result": result, "ops": [op.label for op in ops], "raw": raw}) + "\n"
    )
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"{'fail_frac':40s} {info['fail_frac']:.6g} ({runner.failed}/{runner.attempted})", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
