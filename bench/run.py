"""ramseykit benchmark: one seeded workload per process, end-to-end metrics
untraced, per-layer metrics from a separate traced run.

    python3 bench/run.py --workload sweep_rainbow --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --record        # re-record bench/digests.json

Run from the root of a source checkout; the library is imported from
``src/`` next to this directory and nowhere else.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it print every metric with its unit.

A run has these phases:

* set-up (timed as ``setup_s``): import and building the seeded trial
  inputs.  Four fresh interpreters repeat it and the median of the five
  timings is reported.
* ``--trace 0``: a discarded warm-up of at least two seconds (the first
  sweep pass runs about 15% slower), then trials one at a time over the
  workload's distinct inputs for ``--seconds`` (at least 1000 trials, so
  the 99th percentile has ten trials beyond it).  ``trials_per_s`` is the
  median over blocks of trials of verified trials per wall-clock second.
  The latency percentiles are over each trial's wall time, less host
  stalls in trials that never wait (see ``Session.trial``).
* ``--trace 1``: a discarded warm-up pass over the first ``trace_pass``
  inputs, then untraced and traced passes over them alternate; per-layer
  values are medians over the traced passes and tracing overhead is the
  ratio of the median pass times.  The sweeps then spend the last 40% of
  ``--seconds`` running a whole-grid sweep back to back with ``threads=1``
  and ``threads=2``; ``harness.scaling_eff_2w`` is the median over those
  pairs.

Durations (``setup_s``, trial times, trials per second) are scaled to a
reference machine speed with ``yardstick()``, timed in the same process
right after set-up and between trials; the unscaled rate and percentiles
are printed beside the metrics.  Per-layer times are wall times, not scaled.

The first run of each input is fully re-verified, outside its timing, and
fixes the digest every later run of that input must reproduce; at a
recorded seed it must also equal ``digests.json``.  A trial fails when it
raises, when a check on its output fails, or when its digest differs.  A
failed trial counts as +inf in the latency percentiles.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One worker means one core: OpenBLAS would otherwise spread the 2^n cut-norm
# matmul over every core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
SPANS_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017
SETUP_PROBES = 4
MIN_TIMED_TRIALS = 1000
WARM_UP_S = 2.0
MIN_TRACED_PASSES = 2
MIN_SCALING_PAIRS = 3
SCALING_SHARE = 0.4
MAX_REPORTED_FAILURES = 5
INF = float("inf")
# Durations are reported at the speed where one round of each yardstick part
# takes these times, about the usual speed of a 2-vCPU x86 VM with Python 3.11
# and OpenBLAS.
YARDSTICK_PY_S = 0.00024
YARDSTICK_KERNEL_S = 0.0009
SETUP_YARDSTICK_ROUNDS = 40

E2E_UNITS = {"trials_per_s": "1/s", "trial_ms_p50": "ms", "trial_ms_p99": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


def yardstick(rounds: int = 1, with_kernel: bool = False) -> tuple[float, float]:
    """CPU seconds of this thread for ``rounds`` rounds of two fixed
    reference computations, as (interpreter part, kernel part); the kernel
    part is skipped, and reads 0, unless ``with_kernel``.

    The shared 2-vCPU hosts this benchmark runs on switch between speed
    regimes up to 2x apart, often every few milliseconds and sometimes for
    seconds, and the regimes slow interpreter-bound and array-bound code by
    different amounts.  Timing a round between consecutive trials and
    scaling by reference times over their times reports every duration at
    one reference speed.  The
    interpreter part mixes dict updates keyed by tuples and big-int bit
    operations; the kernel part is one 4096-row chunk of the exhaustive
    cut-norm kernel at n = 19.  Cyclic GC is off while they run, so
    collections of the objects the workload keeps alive are charged to the
    workload, not to the yardstick.
    """
    import numpy as np

    n = 19
    weights = (np.arange(n * n, dtype=np.float64).reshape(n, n) % 3.0) - 1.0
    shifts = np.arange(n, dtype=np.uint32)
    rows = np.arange(4096, dtype=np.uint32)
    mask = (1 << 120) - 1
    gc.disable()
    try:
        start = time.thread_time()
        for _ in range(rounds):
            counts: dict[tuple[int, int], int] = {}
            for i in range(300):
                key = ((i * 7919) & 1023, i & 7)
                counts[key] = counts.get(key, 0) + (mask & (mask >> (i & 63)) & ~(1 << (i % 120))).bit_count()
        middle = time.thread_time()
        for r in range(rounds if with_kernel else 0):
            members = (((rows + np.uint32(r * 4096))[:, None] >> shifts) & 1).astype(np.float64)
            sums = members @ weights
            np.maximum(sums, 0.0).sum(axis=1).max()
            np.maximum(-sums, 0.0).sum(axis=1).max()
        end = time.thread_time()
    finally:
        gc.enable()
    return middle - start, end - middle


def _cpu_and_blocks() -> tuple[float, int]:
    """CPU seconds of this process (every thread) and of its reaped
    children, and how many times either gave up the CPU voluntarily."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (time.process_time() + kids.ru_utime + kids.ru_stime,
            own.ru_nvcsw + kids.ru_nvcsw)


def nearest_rank(ordered: list[float], q: float) -> float:
    return ordered[math.ceil(q * len(ordered)) - 1]


class Session:
    """One workload at one seed: its inputs, expected outputs and failures."""

    def __init__(self, name: str, seed: int) -> None:
        # imported here, not at the top, so the imports count as set-up
        import ramseykit
        import workloads

        if Path(ramseykit.__file__).resolve().parent != SRC / "ramseykit":
            raise ImportError(f"ramseykit imported from {ramseykit.__file__}, not {SRC}")
        self.w = workloads
        self.name = name
        self.seed = seed
        self.wl = workloads.make(name, seed)
        self.size = self.wl.size
        self.recorded = _recorded(name, seed)
        self.expected: list[str | None] = [None] * self.size
        self.next_input = 0
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.messages) < MAX_REPORTED_FAILURES:
            self.messages.append(what)

    def trial(self, i: int, tracer=None) -> tuple[float, float]:
        """Run trial ``i``; returns its wall time and its latency, both +inf
        if it failed.

        The latency is the wall time, except when the process never gave up
        the CPU voluntarily during the trial (no wait on a lock, a pipe, a
        worker or the disk): then it is at most the CPU time of the process
        and its reaped children.  That leaves out the milliseconds-long
        stalls when the host takes the core away, which hit 1-2% of trials
        and would set the 99th percentile of the short ones, while work on
        other threads or in other processes, and every wait, still count.
        """
        self.attempted += 1
        first = self.expected[i] is None
        cpu0, blocks0 = _cpu_and_blocks()
        start = time.perf_counter()
        try:
            if tracer is None:
                out = self.wl.run(i)
            else:
                with tracer.trial(i):
                    out = self.wl.run(i)
            wall = time.perf_counter() - start
            cpu, blocks = _cpu_and_blocks()
            elapsed = wall, wall if blocks > blocks0 else min(wall, cpu - cpu0)
            line = self.wl.line(i, out)
            if first:
                self.wl.verify(i, out)
        except Exception as exc:  # a failing trial is reported, not fatal
            self.expected[i] = "failed"
            self.fail(f"trial {i}: {type(exc).__name__}: {exc}")
            return INF, INF
        got = self.w.digest(line)
        if first:
            self.expected[i] = got
            if self.recorded is not None and self.recorded["inputs"][i] != got:
                self.fail(f"trial {i}: digest differs from the recorded one")
                return INF, INF
        elif got != self.expected[i]:
            self.fail(f"trial {i}: output differs from this input's first run")
            return INF, INF
        return elapsed

    def next_trial(self) -> tuple[int, tuple[float, float]]:
        """Run the next input in order, cycling through all of them; returns
        its index, wall time and latency."""
        i = self.next_input
        self.next_input = (i + 1) % self.size
        return i, self.trial(i)

    def timed(self, seconds: float):
        """Trials one at a time, with one yardstick round between each two.
        Each trial is scaled to the reference speed by the mean of the rounds
        on either side of it, weighting their two parts by the trial's
        ``wl.kernel_share``.  Regimes switch every few milliseconds, so a
        round further away would often time another regime than the trial:
        scaled that way, the 99th percentile of short trials moved by up to
        11% between runs, against 1% with neighbouring rounds.

        Returns each trial's wall time and latency, unscaled, with its
        scale, and each block of ``wl.block`` trials' scaled verified trials
        per wall-clock second.
        """
        with_kernel = any(self.wl.kernel_share(i) > 0 for i in range(self.size))
        trials: list[tuple[float, float]] = []
        scales: list[float] = []
        rates: list[float] = []
        before = yardstick(with_kernel=with_kernel)
        start = time.perf_counter()
        while len(trials) < MIN_TIMED_TRIALS or time.perf_counter() - start < seconds:
            ok = 0
            scaled_wall = 0.0
            for _ in range(self.wl.block):
                i, (wall, latency) = self.next_trial()
                after = yardstick(with_kernel=with_kernel)
                py_slow = (before[0] + after[0]) / (2.0 * YARDSTICK_PY_S)
                kernel_slow = (before[1] + after[1]) / (2.0 * YARDSTICK_KERNEL_S)
                before = after
                share = self.wl.kernel_share(i)
                scale = 1.0 / ((1.0 - share) * py_slow + share * kernel_slow)
                ok += wall != INF
                scaled_wall += wall * scale
                trials.append((wall, latency))
                scales.append(scale)
            rates.append(ok / scaled_wall)
        return trials, scales, rates

    def scaling(self, seconds: float) -> list[float]:
        """rate(threads=2) / (2 * rate(threads=1)) of whole-grid sweeps run
        back to back, alternating which runs first, after one discarded
        two-worker sweep.  That sweep is fully verified and fixes the
        expected per-cell outputs, which must equal the recorded ones at a
        recorded seed."""
        recorded = self.recorded["grid"] if self.recorded else None
        _, expected = self._grid_run(2, recorded, verify=True)
        ratios: list[float] = []
        start = time.perf_counter()
        while len(ratios) < MIN_SCALING_PAIRS or time.perf_counter() - start < seconds:
            order = (1, 2) if len(ratios) % 2 == 0 else (2, 1)
            rate = {threads: self._grid_run(threads, expected)[0] for threads in order}
            ratios.append(rate[2] / (2.0 * rate[1]) if rate[1] > 0 else 0.0)
        return ratios

    def _grid_run(self, threads: int, expected, verify: bool = False):
        """One whole-grid sweep; returns verified trials per second and the
        output digest of each cell."""
        cfg = self.wl.grid_config
        cells = len(cfg.n_grid) * len(cfg.c_grid)
        self.attempted += cells * cfg.trials
        start = time.perf_counter()
        try:
            lines, per_cell, out = self.wl.grid_pass(threads)
            elapsed = time.perf_counter() - start
            if verify:
                self.wl.verify_grid(out)
        except Exception as exc:  # a failing sweep is reported, not fatal
            self.fail(f"grid sweep, threads={threads}: {type(exc).__name__}: {exc}",
                      cells * cfg.trials)
            return 0.0, ["failed"] * cells
        digests = [self.w.digest(line) for line in lines]
        ok = 0
        for cell, got in enumerate(digests):
            if expected is not None and got != expected[cell]:
                self.fail(f"grid sweep, threads={threads}, cell {cell}: output differs "
                          "from the expected one", per_cell)
            else:
                ok += per_cell
        return ok / elapsed, digests


def _recorded(name: str, seed: int):
    """Recorded digests at this seed: {"inputs": [...], "grid": [...]} or None."""
    if not DIGESTS.is_file():
        return None
    entry = json.loads(DIGESTS.read_text())["workloads"].get(name, {}).get(str(seed))
    return None if entry is None else {key: value.split() for key, value in entry.items()}


def _setup_probe_seconds(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fail_line(s: Session) -> str:
    return f"# fail_ratio {s.failed / max(1, s.attempted):.6g} ({s.failed}/{s.attempted})"


def run_plain(s: Session, seconds: float, setup_main: float) -> dict:
    setups = [setup_main] + [_setup_probe_seconds(s.name, s.seed) for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    while time.perf_counter() - start < WARM_UP_S:
        for _ in range(s.wl.block):
            s.next_trial()
    trials, scales, rates = s.timed(seconds)
    times = sorted(latency * scale for (_, latency), scale in zip(trials, scales))
    p99 = nearest_rank(times, 0.99)
    metrics = {
        "trials_per_s": statistics.median(rates),
        "trial_ms_p50": statistics.median(times) * 1e3,
        "trial_ms_p99": p99 * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_mb(),
    }
    beyond = sum(1 for t in times if t > p99)
    walls = sorted(wall for wall, _ in trials)
    raw = sorted(latency for _, latency in trials)
    print(f"# {len(times)} trials in {len(rates)} blocks of {s.wl.block}, {beyond} beyond p99; "
          f"set-up samples (s, scaled): {', '.join(f'{x:.4f}' for x in setups)}")
    print(f"# unscaled: {sum(w != INF for w in walls) / sum(walls):.2f} trials/s overall; "
          f"latency p50 {statistics.median(raw) * 1e3:.4f} ms, p99 {nearest_rank(raw, 0.99) * 1e3:.4f} ms; "
          f"wall time p50 {statistics.median(walls) * 1e3:.4f} ms, p99 {nearest_rank(walls, 0.99) * 1e3:.4f} ms")
    print(_fail_line(s))
    return {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in metrics.items()}


def run_traced(s: Session, seconds: float) -> dict:
    import tracer as tr

    sweeps = hasattr(s.wl, "grid_pass")
    inputs = range(s.wl.trace_pass)
    for i in inputs:
        s.trial(i)
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    values: list[dict[str, float]] = []
    first_counts = None
    first_spans = None
    trace_seconds = seconds * (1.0 - SCALING_SHARE) if sweeps else seconds
    start = time.perf_counter()
    while len(values) < MIN_TRACED_PASSES or time.perf_counter() - start < trace_seconds:
        t0 = time.perf_counter()
        for i in inputs:
            s.trial(i)
        plain_walls.append(time.perf_counter() - t0)
        tracer = tr.Tracer()
        with tracer.installed():
            t0 = time.perf_counter()
            for i in inputs:
                s.trial(i, tracer)
            traced_walls.append(time.perf_counter() - t0)
        counts = tr.exact_counts(tracer)
        if first_counts is None:
            first_counts, first_spans = counts, tracer.spans
        elif counts != first_counts:
            changed = sorted(k for k in counts if counts[k] != first_counts[k])
            s.fail(f"traced pass {len(values)}: counts differ from the first pass: {changed}")
        values.append(tr.layer_values(tracer.self_time, tracer.counts))

    metrics = {name: statistics.median(v[name] for v in values) for name in values[0]}
    metrics["trace.overhead"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    ratios = s.scaling(seconds * SCALING_SHARE) if sweeps else []
    metrics["harness.scaling_eff_2w"] = statistics.median(ratios) if ratios else 0.0

    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{s.name}-seed{s.seed}.jsonl"
    with open(spans_path, "w") as fh:
        for span in first_spans:
            fh.write(json.dumps(span.as_json()) + "\n")
    print(f"# {len(values)} traced passes of {len(inputs)} trials; untraced pass "
          f"{statistics.median(plain_walls):.3f} s, traced {statistics.median(traced_walls):.3f} s; "
          f"{len(ratios)} threads=1/threads=2 sweep pairs; {len(first_spans)} spans of the "
          f"first traced pass in {spans_path.relative_to(ROOT)}")
    print(_fail_line(s))
    return {name: {"value": metrics[name], "unit": unit} for name, unit in tr.LAYER_METRICS}


def record() -> int:
    """Write digests.json: the digest of every input's verified output (and
    per-cell digests of the two-worker grid sweep) at the default and
    held-out seeds, space-separated in input order."""
    import workloads

    data = {"note": "sha256[:12] of each trial's canonical output line, in input "
                    "order; re-record with: python3 bench/run.py --record",
            "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
            "workloads": {}}
    for name in workloads.WORKLOADS:
        per_seed = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            wl = workloads.make(name, seed)
            digests = []
            for i in range(wl.size):
                out = wl.run(i)
                line = wl.line(i, out)
                wl.verify(i, out)
                digests.append(workloads.digest(line))
            entry = {"inputs": " ".join(digests)}
            if hasattr(wl, "grid_pass"):
                lines, _, out = wl.grid_pass(2)
                wl.verify_grid(out)
                entry["grid"] = " ".join(workloads.digest(line) for line in lines)
            per_seed[str(seed)] = entry
            print(f"recorded {name} seed {seed}: {len(digests)} trials", file=sys.stderr)
        data["workloads"][name] = per_seed
    DIGESTS.write_text(json.dumps(data, indent=1) + "\n")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="sweep_rainbow")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record digests.json and exit")
    parser.add_argument("--setup-probe", action="store_true",
                        help="time set-up only and print the seconds (internal)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ramseykit" / "__init__.py").is_file():
        print(f"error: no ramseykit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record:
        return record()

    start = time.perf_counter()
    session = Session(args.workload, args.seed)
    setup_main = time.perf_counter() - start
    # set-up is imports and Python object building: interpreter-bound
    setup_main *= SETUP_YARDSTICK_ROUNDS * YARDSTICK_PY_S / yardstick(SETUP_YARDSTICK_ROUNDS)[0]
    if args.setup_probe:
        print(repr(setup_main))
        return 0
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}; digests {'recorded' if session.recorded else 'not recorded'} "
          "for this seed")
    if args.trace:
        metrics = run_traced(session, args.seconds)
    else:
        metrics = run_plain(session, args.seconds, setup_main)
    for message in session.messages:
        print(f"# FAILED {message}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": session.failed == 0, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
