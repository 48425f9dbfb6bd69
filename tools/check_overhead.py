#!/usr/bin/env python3
"""Gate on observability overhead using the E8/E9 driver-sweep bench.

bench_analysis_perf (with SYNAT_BENCH_OUT set) times each optional piece of
instrumentation as 30 interleaved off/on sweep pairs over the corpus
repeated under suffixed names, alternating which side runs first. For each
it records the median overhead ratio (on/off - 1) and a fixed-seed
bootstrap 95% interval, plus an off/off A/A series whose interval is the
noise floor of this machine. This script reads that fresh JSON and the
checked-in baseline BENCH_driver.json:

  * obs_enabled_overhead — tracing+metrics ON vs off — fails when its
    whole interval lies above --budget (default 5%);
  * events_overhead — a wide-event log written to disk vs none — fails
    the same way;
  * recorder_only_overhead (ring mirroring only, no disk) and
    provenance_overhead (derivation records collected) must be present;
    they are reported for trajectory, not gated;
  * overhead_sweep_ms — the median of every flags-off sweep, tracing and
    provenance disabled — is held against the baseline's: it fails when
    the fresh interval's low end is more than --budget (default 5%) above
    the baseline interval's high end, and again at --prov-budget (default
    1%): with provenance collection branch-gated off
    (InferOptions::provenance), having it compiled in must be
    indistinguishable from not having it at all (DESIGN.md §3f).

A gate fails only when the interval clears the budget, never on a median
that noise alone pushed over it. Wall-clock numbers only transfer between
identical machines, so the baseline comparison is skipped (with a notice)
unless hardware_concurrency and host.cpu_model both match; the
machine-local ratio checks still run.

Usage: check_overhead.py FRESH.json BASELINE.json [--budget 0.05]
           [--prov-budget 0.01]
"""

import argparse
import json
import sys


def interval(doc, key):
    """(median, lo, hi) of `key`, or None when the run lacks it."""
    if key not in doc or key + "_ci" not in doc:
        return None
    lo, hi = doc[key + "_ci"]
    return doc[key], lo, hi


def describe(est):
    med, lo, hi = est
    return f"{med:+.1%} (95% CI {lo:+.1%} .. {hi:+.1%})"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("fresh")
    ap.add_argument("baseline")
    ap.add_argument("--budget", type=float, default=0.05)
    ap.add_argument("--prov-budget", type=float, default=0.01)
    args = ap.parse_args()

    with open(args.fresh, encoding="utf-8") as f:
        fresh = json.load(f)
    with open(args.baseline, encoding="utf-8") as f:
        base = json.load(f)

    rc = 0
    floor = fresh.get("noise_floor")
    if floor is None:
        print("check_overhead: fresh run lacks noise_floor", file=sys.stderr)
        rc = 1
    else:
        print(f"check_overhead: A/A noise floor {floor:.1%} over "
              f"{fresh.get('overhead_pairs')} pairs "
              f"(off/off {describe(interval(fresh, 'aa_overhead'))})")

    gated = [("obs_enabled_overhead", "tracing-enabled"),
             ("events_overhead", "wide-event log")]
    for key, what in gated:
        est = interval(fresh, key)
        if est is None:
            print(f"check_overhead: fresh run lacks {key} and its interval",
                  file=sys.stderr)
            rc = 1
        elif est[1] > args.budget:
            print(f"check_overhead: FAIL {what} overhead {describe(est)} "
                  f"lies above budget {args.budget:.0%}", file=sys.stderr)
            rc = 1
        else:
            print(f"check_overhead: {what} overhead {describe(est)} "
                  f"within {args.budget:.0%}")

    reported = [("recorder_only_overhead",
                 "recorder-only (ring) overhead",
                 "trajectory only; expected to be noise"),
                ("provenance_overhead", "provenance-enabled overhead",
                 "trajectory only; collection is opt-in")]
    for key, what, note in reported:
        est = interval(fresh, key)
        if est is None:
            print(f"check_overhead: fresh run lacks {key} and its interval",
                  file=sys.stderr)
            rc = 1
        else:
            print(f"check_overhead: {what} {describe(est)} ({note})")

    hw_fresh = fresh.get("hardware_concurrency")
    hw_base = base.get("hardware_concurrency")
    cpu_fresh = fresh.get("host", {}).get("cpu_model")
    cpu_base = base.get("host", {}).get("cpu_model")
    if hw_fresh != hw_base or cpu_fresh != cpu_base:
        print(f"check_overhead: SKIP baseline comparison (hardware_concurrency "
              f"{hw_fresh} vs {hw_base}, cpu_model {cpu_fresh!r} vs "
              f"{cpu_base!r}; wall-clock numbers do not transfer)")
        return rc

    now = interval(fresh, "overhead_sweep_ms")
    then = interval(base, "overhead_sweep_ms")
    if now is None or then is None or then[1] <= 0:
        print("check_overhead: overhead_sweep_ms interval missing from the "
              "fresh run or the baseline", file=sys.stderr)
        return 1
    # Ratio interval of fresh over baseline, widened by both runs' own
    # sampling intervals.
    low = now[1] / then[2] - 1.0
    high = now[2] / then[1] - 1.0
    mid = now[0] / then[0] - 1.0
    shown = (f"{now[0]:.3f}ms vs baseline {then[0]:.3f}ms: {mid:+.1%} "
             f"(95% CI {low:+.1%} .. {high:+.1%})")
    for budget, what in [(args.budget, "tracing-disabled"),
                         (args.prov_budget, "provenance-disabled")]:
        if low > budget:
            print(f"check_overhead: FAIL {what} sweep {shown} lies above "
                  f"budget {budget:.0%}", file=sys.stderr)
            return 1
        print(f"check_overhead: {what} sweep {shown}, within {budget:.0%}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
