#!/usr/bin/env python
"""Compare a fresh benchmark JSON against the committed baseline.

``make bench-json`` writes ``BENCH_chase_scaling.json`` (a
pytest-benchmark artifact); the repo commits a baseline recorded the
same way at ``benchmarks/BENCH_baseline.json``, a path no make target
writes to.  This checker recomputes each benchmark's mean-time ratio
(fresh / baseline) and fails when any benchmark regressed by more
than the allowed factor **relative to the run-wide median ratio** --
the median normalizes away machine-speed differences between the
baseline host and the current one, so only *relative* regressions
(one family suddenly slower than its peers) trip the gate.

Benchmarks present on only one side are reported but never fail the
check (families come and go across PRs); timings under 5 ms on both
sides are skipped as noise.  A missing or unreadable file, or a
baseline sharing no benchmark with the fresh run, fails the check: a
gate that compares nothing must not pass.

Usage::

    python tools/check_bench.py BASELINE.json FRESH.json [--allow 1.3]

Exit status 1 on regression or when there is nothing to compare, 0
otherwise.
"""

import argparse
import json
import statistics
import sys

#: Ratio over the median beyond which a benchmark counts as regressed.
DEFAULT_ALLOWANCE = 1.3

#: Means under this many seconds on both sides are noise, not signal.
MIN_SECONDS = 0.005


def load_means(path):
    with open(path) as handle:
        payload = json.load(handle)
    means = {}
    for bench in payload.get("benchmarks", []):
        name = bench.get("fullname") or bench.get("name")
        mean = bench.get("stats", {}).get("mean")
        if name and isinstance(mean, (int, float)) and mean > 0:
            means[name] = mean
    return means


def check(baseline_path, fresh_path, allowance=DEFAULT_ALLOWANCE,
          out=sys.stdout):
    loaded = []
    for role, path in (("baseline", baseline_path), ("fresh", fresh_path)):
        try:
            loaded.append(load_means(path))
        except (OSError, ValueError) as error:
            print(f"error: cannot read the {role} benchmark JSON "
                  f"{path!r}: {error}", file=out)
            return 1
    baseline, fresh = loaded
    common = sorted(set(baseline) & set(fresh))
    if not common:
        print(f"error: the baseline ({len(baseline)} benchmark(s)) and "
              f"the fresh run ({len(fresh)}) share no benchmark; "
              "nothing was compared", file=out)
        return 1

    for name in sorted(set(baseline) ^ set(fresh)):
        side = "baseline" if name in baseline else "fresh"
        print(f"note: {name} only in the {side} run", file=out)

    ratios = {name: fresh[name] / baseline[name] for name in common}
    comparable = [name for name in common
                  if baseline[name] >= MIN_SECONDS
                  or fresh[name] >= MIN_SECONDS]
    if not comparable:
        print("all common benchmarks under the noise floor "
              f"({MIN_SECONDS * 1000:.0f} ms); nothing to compare",
              file=out)
        return 0

    median = statistics.median(ratios[name] for name in comparable)
    print(f"{len(comparable)} comparable benchmark(s); median "
          f"fresh/baseline ratio {median:.3f} (machine-speed "
          "normalizer)", file=out)

    failures = []
    for name in comparable:
        normalized = ratios[name] / median
        flag = ""
        if normalized > allowance:
            failures.append(name)
            flag = f"  <-- REGRESSED (>{allowance:.2f}x the median)"
        print(f"  {name}: {baseline[name] * 1000:8.1f} ms -> "
              f"{fresh[name] * 1000:8.1f} ms  ratio {ratios[name]:.3f} "
              f"(normalized {normalized:.3f}){flag}", file=out)

    if failures:
        print(f"\n{len(failures)} benchmark(s) regressed beyond "
              f"{allowance:.2f}x the run-wide median:", file=out)
        for name in failures:
            print(f"  - {name}", file=out)
        return 1
    print("\nbenchmarks within allowance", file=out)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("fresh", help="freshly produced benchmark JSON")
    parser.add_argument("--allow", type=float, default=DEFAULT_ALLOWANCE,
                        help="normalized ratio beyond which a benchmark "
                             f"fails (default {DEFAULT_ALLOWANCE})")
    args = parser.parse_args(argv)
    return check(args.baseline, args.fresh, allowance=args.allow)


if __name__ == "__main__":
    sys.exit(main())
