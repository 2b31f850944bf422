#!/usr/bin/env python3
"""Closed-loop benchmark of flagstab: one client, one op at a time.

    python3 bench/run.py --workload witness_qq --seed 1107 --seconds 25 --trace 0

Imports `flagstab` from the `src/` next to this directory (never an
installed copy), builds the workload's corpus from the seed, sets up
several times, then runs ops back to back for `--seconds`.  Every op's
output is checked: certificates by `verify_witness` after a print/parse
round trip, small ops by an exact identity or membership check, and, at
the default seed, every input and output against the digests in
`reference.json`.

With `--trace 0` the last stdout line carries the end-to-end metrics.
With `--trace 1` the run alternates untraced and traced passes over the
corpus for `--seconds`, writes the spans to `bench/out/`, and reports
the per-layer metrics per corpus pass.  Lines before the last one are a
readable summary: every metric with its unit, the percentile and sample
count behind each timing, and the machine it ran on.

Host speed.  The machine this was built on shifts between a fast and a
slow state (up to 1.6x apart, for a fraction of a second to several
seconds), and the share of time in the fast state drifts between a
tenth and two thirds from one minute to the next.  That moves every raw
time by tens of percent between runs of the same code, in CPU time as
well as wall time.  So the harness probes the host speed with a fixed
~0.4 ms kernel before and after every timed interval and scales the
interval by REF_PROBE_MS over the mean of those two probe times: every
reported time is "ms at reference host speed".  The probe touches no library
code, so a slower program still reads slower.  Raw times and the probe
statistics are kept in the result file and the summary.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 1107
SETUP_REPEATS = 3
MIN_BEYOND_TAIL = 10
REF_PROBE_MS = 0.5
PROBE_RUNS = 3

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("call_p50_ms", "ms"),
    ("call_tail_ms", "ms"),
    ("check_p50_ms", "ms"),
    ("check_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


class HarnessError(Exception):
    """The benchmark cannot measure the program it was asked to."""


def import_package():
    """Import flagstab from this checkout's src/; returns (seconds, path)."""
    if not (SRC / "flagstab" / "__init__.py").is_file():
        raise HarnessError(f"no flagstab package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import flagstab  # noqa: F401
    import workloads  # noqa: F401

    elapsed = time.perf_counter() - t0
    path = Path(flagstab.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise HarnessError(f"flagstab resolved to {path}, outside {SRC}")
    return elapsed, path


def git_commit():
    """HEAD of the checkout, read without running git; None outside a repo."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "flagstab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def percentile(sorted_values, pct):
    """Nearest-rank percentile; returns (value, samples beyond it)."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100 * n))
    return sorted_values[rank - 1], n - rank


def load_reference(name, seed):
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text())["workloads"][name]


# -- host speed -------------------------------------------------------------


def _probe_kernel():
    """Fixed pure-Python work of the library's kind: small-int and
    Fraction arithmetic with short-lived objects."""
    x = Fraction(1, 3)
    acc = 0
    for i in range(2000):
        acc += i * i % 7
        if i % 40 == 0:
            x = x * Fraction(i + 1, i + 2) + 1
    return acc, x


class Speed:
    """Probe times (ms), one between every two timed intervals.

    A probe is the best of PROBE_RUNS back-to-back kernel runs with the
    garbage collector off, so that a collection, or a cache left cold by
    a long op, does not read as a slow host.
    """

    def __init__(self):
        self.samples = []
        self._last = self._probe()

    def _probe(self):
        gc.disable()
        try:
            best = float("inf")
            for _ in range(PROBE_RUNS):
                t0 = time.perf_counter()
                _probe_kernel()
                best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
        ms = best * 1000
        self.samples.append(ms)
        return ms

    def scale(self):
        """Scale for the interval since the previous probe, which is
        REF_PROBE_MS over the mean probe time around it; probes again."""
        before = self._last
        self._last = self._probe()
        return REF_PROBE_MS / ((before + self._last) / 2)

    def summary(self):
        s = sorted(self.samples)
        return {"probes": len(s), "min_ms": s[0], "median_ms": statistics.median(s), "max_ms": s[-1]}


# -- set-up and the timed loop ----------------------------------------------


def setup(workload, seed, per_class, ref, speed):
    """Build and validate the corpus, then warm up on its first entry.

    Returns (corpus, indices whose inputs differ from the reference,
    raw seconds, scaled seconds).
    """
    corpus = []
    raw = scaled = 0.0
    entries = workload.entries(seed, per_class)
    while True:
        t0 = time.perf_counter()
        item = next(entries, None)
        dt = time.perf_counter() - t0
        raw += dt
        scaled += dt * speed.scale()
        if item is None:
            break
        corpus.append(item)
    t0 = time.perf_counter()
    bad = set()
    if ref is not None:
        for i, item in enumerate(corpus):
            if i >= len(ref["inputs"]) or item.digest != ref["inputs"][i]:
                bad.add(i)
    workload.op(corpus[0])
    dt = time.perf_counter() - t0
    return corpus, bad, raw + dt, scaled + dt * speed.scale()


class Phase:
    """Per-op records of the timed ops of one mode (raw seconds)."""

    def __init__(self):
        self.index = []
        self.op_s = []
        self.call_s = []
        self.check_s = []
        self.scale = []
        self.ok = []
        self.elapsed = 0.0
        self.errors = []
        self.digests = {}  # corpus index -> digest of its first output

    @property
    def attempted(self):
        return len(self.ok)

    @property
    def failed(self):
        return self.ok.count(False)

    def scaled_total(self):
        return sum(t * k for t, k in zip(self.op_s, self.scale))


def run_ops(phase, workload, corpus, bad, ref, speed, seconds=None, count=None, tracer=None):
    """Closed loop over the corpus, for `seconds` or for `count` ops,
    appending to `phase`."""
    from workloads import canon, digest

    start = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif time.perf_counter() - start >= seconds:
            break
        idx = i % len(corpus)
        span = tracer.begin_op(phase.attempted) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            res = workload.op(corpus[idx])
            err = None
        except Exception as exc:  # an op failure is counted, not fatal
            res, err = None, exc
        op_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op(span)
        phase.scale.append(speed.scale())
        ok = err is None and idx not in bad
        if err is None:
            out = res.output if isinstance(res.output, str) else canon(res.output)
            d = digest(out)
            if phase.digests.setdefault(idx, d) != d:
                ok = False
                phase.errors.append(f"output of input {idx} changed between repeats")
            if ref is not None and d != ref["outputs"][idx]:
                ok = False
                phase.errors.append(f"output of input {idx} differs from the reference")
        else:
            phase.errors.append(
                f"input {idx}: "
                + "".join(traceback.format_exception_only(type(err), err)).strip()
            )
        phase.index.append(idx)
        phase.op_s.append(op_s)
        phase.call_s.append(res.call_s if res else 0.0)
        phase.check_s.append(res.check_s if res else 0.0)
        phase.ok.append(ok)
        i += 1
    phase.elapsed += time.perf_counter() - start
    return phase


# -- metrics ----------------------------------------------------------------


def end_to_end(phase, classes, tail_pct, setup_s):
    """End-to-end metrics over the ops that completed and checked out;
    `classes[i]` is the input class of corpus entry i.  Times are scaled
    to reference host speed; the raw ones go into the notes."""
    good = [k for k, ok in enumerate(phase.ok) if ok]
    if not good:
        raise HarnessError("no op completed and checked out")
    metrics = {}
    notes = {}
    for key, values in (("op", phase.op_s), ("call", phase.call_s), ("check", phase.check_s)):
        ms = sorted(values[k] * phase.scale[k] * 1000 for k in good)
        raw = sorted(values[k] * 1000 for k in good)
        tail, beyond = percentile(ms, tail_pct)
        metrics[f"{key}_p50_ms"] = statistics.median(ms)
        metrics[f"{key}_tail_ms"] = tail
        notes[key] = {
            "samples": len(ms),
            "tail_pct": tail_pct,
            "beyond_tail": beyond,
            "raw_p50_ms": statistics.median(raw),
            "raw_tail_ms": percentile(raw, tail_pct)[0],
        }
    # Throughput of the class mix at each input class's median op time,
    # so that one costly input moves it little, scaled by the share of
    # good ops.
    per_class = {}
    for k in good:
        per_class.setdefault(classes[phase.index[k]], []).append(phase.op_s[k] * phase.scale[k])
    mix_s = sum(statistics.median(v) for v in per_class.values())
    metrics["ops_per_s"] = len(per_class) / mix_s * len(good) / phase.attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["setup_s"] = setup_s
    return metrics, notes


def per_layer(tracer, traced, plain, passes):
    """Per-layer metrics per corpus pass.  Counts are exact; seconds are
    scaled to reference host speed by the traced ops' mean scale."""
    totals, self_total = tracer.summarize()
    raw_op = sum(traced.op_s)
    factor = traced.scaled_total() / raw_op if raw_op else 1.0
    metrics = {}
    for key, value in totals.items():
        if key.endswith(".calls"):
            value = value // passes if value % passes == 0 else value / passes
        elif key.endswith("_s"):
            value = value * factor / passes
        metrics[key] = value
    metrics["trace.overhead_ratio"] = traced.scaled_total() / plain.scaled_total() - 1
    return metrics, self_total


def layer_unit(key):
    if key.endswith(".calls"):
        return "count"
    if key.endswith("_s"):
        return "s"
    if key.endswith("max_bits"):
        return "bits"
    return "ratio"


# -- main -------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--per-class",
        type=int,
        default=None,
        help="corpus entries per input class (default: the workload's own)",
    )
    args = parser.parse_args(argv)

    if not __debug__:
        # -O strips the certificate asserts inside construct_witness and
        # extend_witness, so it would time a different program.
        print("error: refusing to run under python -O", file=sys.stderr)
        return 2
    try:
        import_s, package_path = import_package()
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    ref = load_reference(workload.name, args.seed)
    speed = Speed()
    errors = []
    warnings = []

    repeats = SETUP_REPEATS if args.trace == 0 else 1
    import_scaled = import_s * REF_PROBE_MS / speed.samples[0]
    setup_raw, setup_scaled, digests = [], [], set()
    for _ in range(repeats):
        corpus, bad, raw, scaled = setup(workload, args.seed, args.per_class, ref, speed)
        setup_raw.append(import_s + raw)
        setup_scaled.append(import_scaled + scaled)
        digests.add(tuple(item.digest for item in corpus))
    if len(digests) != 1:
        errors.append("corpus differs between set-ups of the same seed")
    if bad:
        errors.append(f"{len(bad)} inputs differ from the reference digests")

    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "reference_checked": ref is not None,
        "corpus_size": len(corpus),
        "corpus_digest": workloads.digest("".join(item.digest for item in corpus)),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "package_path": str(package_path),
        "setup_repeats": repeats,
        "setup_raw_s": setup_raw,
        "setup_scaled_s": setup_scaled,
        "seconds": args.seconds,
        "trace": args.trace,
        "ref_probe_ms": REF_PROBE_MS,
    }

    classes = [item.cls for item in corpus]
    if args.trace == 0:
        phase = run_ops(Phase(), workload, corpus, bad, ref, speed, seconds=args.seconds)
        phases = [phase]
        metrics, notes = end_to_end(
            phase, classes, workload.tail_pct, statistics.median(setup_scaled)
        )
        meta["timing"] = notes
        units = dict(END_TO_END)
        for key, note in notes.items():
            if note["beyond_tail"] < MIN_BEYOND_TAIL:
                warnings.append(
                    f"{key}_tail_ms: only {note['beyond_tail']} samples beyond "
                    f"p{note['tail_pct']}, fewer than {MIN_BEYOND_TAIL}"
                )
    else:
        # Whole passes, so that per-pass counts are exact; alternating,
        # so that both modes see the same host.
        plain, traced = Phase(), Phase()
        tracer = Tracer(extra_modules=("workloads",))
        deadline = time.perf_counter() + args.seconds
        passes = 0
        while passes == 0 or time.perf_counter() < deadline:
            run_ops(plain, workload, corpus, bad, ref, speed, count=len(corpus))
            with tracer:
                run_ops(traced, workload, corpus, bad, ref, speed, count=len(corpus), tracer=tracer)
            passes += 1
        phases = [plain, traced]
        metrics, self_total = per_layer(tracer, traced, plain, passes)
        units = {key: layer_unit(key) for key in metrics}
        meta["passes"] = passes
        meta["spans"] = len(tracer.span_start)
        meta["traced_wall_s"] = traced.elapsed
        meta["self_time_total_s"] = self_total
        if self_total > traced.elapsed:
            errors.append(
                f"span self times sum to {self_total:.6f}s, more than the traced "
                f"wall time {traced.elapsed:.6f}s"
            )
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.tsv.gz")

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        errors.extend(p.errors)
    meta["speed"] = speed.summary()
    meta["attempted"] = attempted
    meta["failed"] = failed
    meta["fail_ratio"] = failed / attempted
    meta["errors"] = errors[:50]
    meta["warnings"] = warnings
    correct = failed == 0 and not errors

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=1) + "\n"
    )
    for line in summary(meta, result):
        print(line)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    for e in errors[:10]:
        print(f"error: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def summary(meta, result):
    sp = meta["speed"]
    yield (
        f"# {meta['workload']} seed={meta['seed']} trace={meta['trace']} "
        f"nproc={meta['nproc']} python={meta['python']} platform={meta['platform']}"
    )
    yield f"# commit={meta['git_commit']} source={meta['source_digest']} package={meta['package_path']}"
    yield (
        f"# attempted={meta['attempted']} failed={meta['failed']} "
        f"fail_ratio={meta['fail_ratio']:.4f} correct={result['correct']} "
        f"corpus={meta['corpus_size']} reference_checked={meta['reference_checked']}"
    )
    yield (
        f"# host probe: median {sp['median_ms']:.3f} ms over {sp['probes']} probes "
        f"(min {sp['min_ms']:.3f}, max {sp['max_ms']:.3f}); times below are scaled "
        f"to a {meta['ref_probe_ms']} ms probe"
    )
    if "passes" in meta:
        yield f"# per-layer values are per corpus pass, over {meta['passes']} traced passes"
    timing = meta.get("timing", {})
    for name, m in result["metrics"].items():
        line = f"{name} = {m['value']:.6g} {m['unit']}"
        key = name.split("_", 1)[0]
        if name.endswith(("_p50_ms", "_tail_ms")):
            t = timing[key]
            tail = name.endswith("_tail_ms")
            pct = t["tail_pct"] if tail else 50
            raw = t["raw_tail_ms"] if tail else t["raw_p50_ms"]
            line += f"  [p{pct} of {t['samples']} samples"
            if tail:
                line += f", {t['beyond_tail']} beyond"
            line += f"; raw {raw:.6g} ms]"
        elif name == "setup_s":
            line += (
                f"  [median of {meta['setup_repeats']}; raw "
                f"{statistics.median(meta['setup_raw_s']):.6g} s]"
            )
        yield line


if __name__ == "__main__":
    sys.exit(main())
