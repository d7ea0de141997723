#!/usr/bin/env python3
"""Gate a benchmark JSON document against a committed baseline.

Usage:
    python3 tools/bench_check.py --current out.json \
        [--baseline bench/baselines/inference_throughput.json] \
        [--max-regression 0.20]

The benchmark format is auto-detected from the document's "bench"
field; documents without one are the original inference format.

inference_throughput: absolute rows/sec numbers do not transfer
between machines, so the check compares *ratios*: each flat
configuration's speedup_vs_legacy is measured against the same
configuration in the committed baseline, and the build fails if any
configuration lost more than --max-regression (default 20%) of its
baseline speedup. Correctness gates are absolute: bit_identical and
startup.first_score_identical must both hold. A same-run gate needs no
baseline: at threads=1 the avx2 kernel's rows_per_sec must be at least
the scalar kernel's for every batch size (skipped when the host has no
AVX2 or CLOUDSURV_FORCE_SCALAR is set).

telemetry_ingest: the columnar-vs-struct ingest ratio must not lose
more than --max-regression vs the baseline ratio; the columnar
bytes/database (deterministic accounting, machine-portable) must stay
under the baseline value plus the same tolerance; and two absolute
gates from the capacity model in docs/telemetry.md: the struct layout
must cost >= 3x the columnar bytes/database, and column_reallocs must
be zero (Reserve() pre-sizes segment arenas).

feature_extraction: bit-identity of the batch matrix against the
scalar reference, a 100k-database scale floor, and an absolute 5x
best-batch-speedup floor (the win is algorithmic, so it transfers
between machines); per-(mode, threads) speedups are additionally held
to the committed baseline within --max-regression.

provisioning_policy: the deployment replay is fully deterministic (no
timing numbers), so the gates are dominance gates, not tolerance
bands. Absolute: the longevity policy must beat naive on total dollar
cost while holding SLA violations no worse (the paper's section 3.1
claim, priced); every policy must place every database (rejected ==
0). Relative: the naive/longevity cost and ops advantages must not
lose more than --max-regression vs the committed baseline ratios.

training_throughput: absolute fit times do not transfer between
machines, so the gates are a ratio and a correctness check. Both forest
fits run on one thread over the same matrix, so
speedup_exact_to_histogram must not lose more than --max-regression vs
the baseline (whose rows/features/trees must match the current run's).
Absolute: grid_search.identical must hold (grid search at 1 and N
threads scores every cell bit-identically).

serving_throughput: absolute gates only, so no baseline is read.
The 1-thread and N-thread replays of the same region must score the
same number of databases (more than zero) with the same
confident_fraction; a thread count that changes what is scored is a
bug. Timing is not gated: absolute events/sec does not transfer
between machines, and the N-thread speedup depends on the host's cores.

Coverage rules:
  - scalar rows must be present in the current output;
  - avx2 rows must be present iff the current host reports
    simd.avx2_available (a silent fallback to scalar would otherwise
    pass the regression check while benching the wrong kernel);
  - baseline rows with no matching current row fail the check unless
    the kernel is legitimately unavailable on the current host
    (avx2 without AVX2, quantized when the forest did not quantize).

Only the Python standard library is used.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        sys.exit(f"bench_check: cannot load {path}: {exc}")


def flat_runs(doc):
    """Index flat runs by (batch_rows, threads, traversal)."""
    out = {}
    for run in doc.get("runs", []):
        if run.get("mode") != "flat":
            continue
        key = (run["batch_rows"], run["threads"],
               run.get("traversal", "scalar"))
        out[key] = run
    return out


def check_telemetry(current, baseline, max_regression):
    """Gates for the telemetry_ingest format. Returns (failures, summary)."""
    failures = []
    cur_col = current.get("columnar", {})
    base_col = baseline.get("columnar", {})
    cur_ratios = current.get("ratios", {})
    base_ratios = baseline.get("ratios", {})

    # Absolute gates from the capacity model: never waived.
    bytes_ratio = cur_ratios.get("struct_vs_columnar_bytes", 0.0)
    if bytes_ratio < 3.0:
        failures.append(
            f"struct_vs_columnar_bytes is {bytes_ratio:.2f}, below the "
            "3x capacity-model floor (docs/telemetry.md)")
    reallocs = cur_col.get("column_reallocs", -1)
    if reallocs != 0:
        failures.append(
            f"column_reallocs is {reallocs} (Reserve() should pre-size "
            "segment arenas so bulk ingest never reallocates mid-segment)")

    # Ingest speed: ratio-of-ratios, machine-portable.
    base_ingest = base_ratios.get("columnar_vs_struct_ingest", 0.0)
    cur_ingest = cur_ratios.get("columnar_vs_struct_ingest", 0.0)
    if base_ingest > 0.0:
        floor = base_ingest * (1.0 - max_regression)
        if cur_ingest < floor:
            failures.append(
                f"ingest ratio regression: columnar_vs_struct_ingest "
                f"{cur_ingest:.3f} vs baseline {base_ingest:.3f} "
                f"(floor {floor:.3f})")

    # Memory footprint ceiling: accounting is deterministic, so the
    # baseline value transfers between machines; the tolerance only
    # absorbs allocator-driven capacity jitter.
    base_bpd = base_col.get("bytes_per_database", 0.0)
    cur_bpd = cur_col.get("bytes_per_database", 0.0)
    if base_bpd > 0.0:
        ceiling = base_bpd * (1.0 + max_regression)
        if cur_bpd > ceiling:
            failures.append(
                f"bytes_per_database grew to {cur_bpd:.1f} vs baseline "
                f"{base_bpd:.1f} (ceiling {ceiling:.1f})")

    summary = (f"telemetry_ingest: {cur_bpd:.1f} bytes/database "
               f"({bytes_ratio:.2f}x under struct layout), ingest ratio "
               f"{cur_ingest:.3f}")
    return failures, summary


def policy_reports(doc):
    """Index deployment reports by policy name."""
    out = {}
    for entry in doc.get("policies", []):
        name = entry.get("policy")
        if name:
            out[name] = entry.get("report", {})
    return out


def check_provisioning(current, baseline, max_regression):
    """Gates for the provisioning_policy format. Returns (failures, summary)."""
    failures = []
    reports = policy_reports(current)
    for required in ("naive", "longevity", "oracle"):
        if required not in reports:
            failures.append(f"policy '{required}' missing from current run")
    if failures:
        return failures, "provisioning_policy: incomplete run"

    naive = reports["naive"]
    longevity = reports["longevity"]

    # Absolute dominance gates: never waived. The longevity policy must
    # be cheaper than naive at no-worse SLA, and nothing may be
    # unplaceable under any policy (the default tier hosts every SLO).
    if longevity.get("total_cost", 0.0) >= naive.get("total_cost", 0.0):
        failures.append(
            f"longevity total_cost {longevity.get('total_cost')} does not "
            f"beat naive {naive.get('total_cost')}")
    if longevity.get("sla_violations", 0) > naive.get("sla_violations", 0):
        failures.append(
            f"longevity sla_violations {longevity.get('sla_violations')} "
            f"exceed naive {naive.get('sla_violations')}")
    for name, report in sorted(reports.items()):
        if report.get("rejected", 0) != 0:
            failures.append(
                f"policy '{name}' rejected {report.get('rejected')} "
                "databases (default tier must host every SLO)")

    # Relative gates: the measured advantage must not shrink by more
    # than the tolerance vs the committed baseline.
    cur_ratios = current.get("ratios", {})
    base_ratios = baseline.get("ratios", {})
    for key in ("naive_vs_longevity_cost", "naive_vs_longevity_ops"):
        base_value = base_ratios.get(key, 0.0)
        cur_value = cur_ratios.get(key, 0.0)
        if base_value <= 0.0:
            continue
        floor = base_value * (1.0 - max_regression)
        if cur_value < floor:
            failures.append(
                f"advantage regression: {key} {cur_value:.4f} vs baseline "
                f"{base_value:.4f} (floor {floor:.4f})")

    cost_ratio = cur_ratios.get("naive_vs_longevity_cost", 0.0)
    summary = (f"provisioning_policy: longevity "
               f"${longevity.get('total_cost', 0.0):.0f} vs naive "
               f"${naive.get('total_cost', 0.0):.0f} "
               f"({cost_ratio:.3f}x advantage), sla "
               f"{longevity.get('sla_violations', 0)} vs "
               f"{naive.get('sla_violations', 0)}")
    return failures, summary


def feature_runs(doc):
    """Index feature-extraction runs by (mode, threads)."""
    out = {}
    for run in doc.get("runs", []):
        out[(run.get("mode"), run.get("threads"))] = run
    return out


def check_features(current, baseline, max_regression):
    """Gates for the feature_extraction format. Returns (failures, summary).

    Absolute gates, never waived: the batch matrix must be bit-identical
    to the scalar reference; the run must cover at least 100k databases
    (the scale the docs/features.md claim is made at); and the best
    batch speedup must stay >= 5x. The speedup floor is absolute rather
    than host-relative because the win is algorithmic (sibling tables
    built once per subscription instead of re-scanned per target), so it
    holds at any core count. Relative: each (mode, threads) speedup is
    held to the committed baseline within --max-regression.
    """
    failures = []
    if not current.get("bit_identical", False):
        failures.append("bit_identical is false (batch extraction diverged "
                        "from the scalar reference)")
    num_dbs = current.get("num_databases", 0)
    if num_dbs < 100000:
        failures.append(
            f"num_databases is {num_dbs}, below the 100000-database floor "
            "the speedup claim is made at (set CLOUDSURV_BENCH_DBS)")
    best = current.get("best_batch_speedup", 0.0)
    if best < 5.0:
        failures.append(
            f"best_batch_speedup is {best:.2f}x, below the absolute 5x "
            "floor (docs/features.md)")

    cur_runs = feature_runs(current)
    for key, base_run in sorted(feature_runs(baseline).items()):
        mode, threads = key
        if mode == "scalar":
            continue
        cur_run = cur_runs.get(key)
        if cur_run is None:
            failures.append(f"baseline config {key} missing from current run")
            continue
        base_speedup = base_run.get("speedup_vs_scalar", 0.0)
        if base_speedup <= 0.0:
            continue
        floor = base_speedup * (1.0 - max_regression)
        cur_speedup = cur_run.get("speedup_vs_scalar", 0.0)
        if cur_speedup < floor:
            failures.append(
                f"speedup regression at mode={mode} threads={threads}: "
                f"{cur_speedup:.2f}x vs baseline {base_speedup:.2f}x "
                f"(floor {floor:.2f}x)")

    summary = (f"feature_extraction: best batch speedup {best:.2f}x over "
               f"scalar at {num_dbs} databases, bit-identical")
    return failures, summary


def check_training(current, baseline, max_regression):
    """Gates for the training_throughput format. Returns (failures, summary)."""
    failures = []
    if not current.get("grid_search", {}).get("identical", False):
        failures.append("grid_search.identical is false (grid search at 1 "
                        "and N threads scored some cell differently)")
    for key in ("rows", "features", "trees"):
        if current.get(key) != baseline.get(key):
            failures.append(
                f"{key} is {current.get(key)} but the baseline was measured "
                f"at {baseline.get(key)}; the speedup ratio is only "
                "comparable at the same shape")
    base_speedup = baseline.get("speedup_exact_to_histogram", 0.0)
    cur_speedup = current.get("speedup_exact_to_histogram", 0.0)
    if base_speedup > 0.0:
        floor = base_speedup * (1.0 - max_regression)
        if cur_speedup < floor:
            failures.append(
                f"speedup regression: speedup_exact_to_histogram "
                f"{cur_speedup:.2f}x vs baseline {base_speedup:.2f}x "
                f"(floor {floor:.2f}x)")
    summary = (f"training_throughput: histogram fit {cur_speedup:.2f}x "
               f"faster than exact, grid search identical")
    return failures, summary


def check_serving(current):
    """Gates for the serving_throughput format. Returns (failures, summary)."""
    failures = []
    single = current.get("single_thread", {})
    multi = current.get("multi_thread", {})
    scored = single.get("scored", 0)
    if scored <= 0:
        failures.append("single_thread scored no databases")
    for key in ("scored", "confident_fraction"):
        if single.get(key) != multi.get(key):
            failures.append(
                f"{key} differs between single_thread ({single.get(key)}) "
                f"and multi_thread at {multi.get('threads')} threads "
                f"({multi.get(key)})")
    summary = (f"serving_throughput: {scored} databases scored, confident "
               f"fraction {single.get('confident_fraction')}, equal at 1 "
               f"and {multi.get('threads')} threads")
    return failures, summary


def report(failures, summary):
    if failures:
        for failure in failures:
            print(f"bench_check: FAIL: {failure}", file=sys.stderr)
        sys.exit(1)
    print(f"bench_check: OK ({summary})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--current", required=True,
                    help="bench JSON produced by this run")
    ap.add_argument("--baseline",
                    default="bench/baselines/inference_throughput.json",
                    help="committed baseline JSON (not read for "
                         "serving_throughput)")
    ap.add_argument("--max-regression", type=float, default=0.20,
                    help="maximum allowed fractional speedup loss vs "
                         "baseline (default 0.20)")
    args = ap.parse_args()

    current = load(args.current)
    kind = current.get("bench", "inference_throughput")
    if kind == "serving_throughput":
        report(*check_serving(current))
        return

    baseline = load(args.baseline)
    failures = []
    notes = []

    base_kind = baseline.get("bench", "inference_throughput")
    if kind != base_kind:
        sys.exit(f"bench_check: current is '{kind}' but baseline is "
                 f"'{base_kind}' — wrong --baseline?")

    if kind in ("telemetry_ingest", "provisioning_policy",
                "feature_extraction", "training_throughput"):
        check = {"telemetry_ingest": check_telemetry,
                 "provisioning_policy": check_provisioning,
                 "feature_extraction": check_features,
                 "training_throughput": check_training}[kind]
        report(*check(current, baseline, args.max_regression))
        return

    # Correctness gates: absolute, never waived.
    if not current.get("bit_identical", False):
        failures.append(
            f"bit_identical is false ({current.get('mismatches', '?')} "
            "mismatching predictions vs the legacy path)")
    startup = current.get("startup", {})
    if not startup.get("first_score_identical", False):
        failures.append("startup.first_score_identical is false "
                        "(artifact round-trip changed a score)")

    simd = current.get("simd", {})
    avx2_available = bool(simd.get("avx2_available", False))
    forced_scalar = bool(simd.get("force_scalar", False))
    quantized = bool(current.get("compile", {}).get("quantized", False))

    cur_flat = flat_runs(current)
    base_flat = flat_runs(baseline)

    # Coverage: the sweep must have exercised every kernel this host has.
    kinds_seen = {k[2] for k in cur_flat}
    if "scalar" not in kinds_seen:
        failures.append("no scalar flat runs in current output")
    if avx2_available and not forced_scalar and "avx2" not in kinds_seen:
        failures.append("host reports AVX2 but no avx2 runs were benched")
    if not avx2_available and "avx2" in kinds_seen:
        failures.append("avx2 runs present but simd.avx2_available is "
                        "false — output is inconsistent")

    # Same-run gate: a ratio of two kernels measured on this host, so it
    # needs no baseline and transfers between machines.
    if avx2_available and not forced_scalar:
        for (batch_rows, threads, traversal), run in sorted(cur_flat.items()):
            if threads != 1 or traversal != "avx2":
                continue
            scalar = cur_flat.get((batch_rows, 1, "scalar"))
            if scalar and run["rows_per_sec"] < scalar["rows_per_sec"]:
                failures.append(
                    f"avx2 slower than scalar at batch_rows={batch_rows} "
                    f"threads=1: {run['rows_per_sec']:.0f} vs "
                    f"{scalar['rows_per_sec']:.0f} rows/s")

    # Ratio regression per configuration.
    for key, base_run in sorted(base_flat.items()):
        batch_rows, threads, traversal = key
        cur_run = cur_flat.get(key)
        if cur_run is None:
            if traversal == "avx2" and not avx2_available:
                notes.append(f"skip {key}: AVX2 unavailable on this host")
                continue
            if traversal == "quantized" and not quantized:
                notes.append(f"skip {key}: forest did not quantize")
                continue
            failures.append(f"baseline config {key} missing from current "
                            "run")
            continue
        base_speedup = base_run.get("speedup_vs_legacy", 0.0)
        cur_speedup = cur_run.get("speedup_vs_legacy", 0.0)
        if base_speedup <= 0.0:
            notes.append(f"skip {key}: baseline speedup is {base_speedup}")
            continue
        floor = base_speedup * (1.0 - args.max_regression)
        if cur_speedup < floor:
            failures.append(
                f"speedup regression at batch_rows={batch_rows} "
                f"threads={threads} traversal={traversal}: "
                f"{cur_speedup:.2f}x vs baseline {base_speedup:.2f}x "
                f"(floor {floor:.2f}x)")

    for note in notes:
        print(f"bench_check: {note}")
    if failures:
        for failure in failures:
            print(f"bench_check: FAIL: {failure}", file=sys.stderr)
        sys.exit(1)
    best = current.get("best_speedup_at_batch_4096", 0.0)
    print(f"bench_check: OK ({len(base_flat)} baseline configs checked, "
          f"best speedup at batch>=4096: {best:.2f}x)")


if __name__ == "__main__":
    main()
