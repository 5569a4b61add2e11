"""Child process for the `verify-all` workload: one cold acceptance battery.

Usage: python3 battery.py SRC_DIR

Runs `frobjets.acceptance.run_all()` in this fresh interpreter, so every
lru_cache starts empty as it does for a user. Prints one JSON line per
criterion as it finishes, then a summary line with the pass flags and this
process's peak RSS. The parent reads the lines as they arrive, so a battery
cut off by the time limit still tells which criteria finished.

A criterion's line holds {"t0", "t1", "ref", "line"}: its start and end on
this thread's CPU clock (the clock meter.py uses), with the time spent
sampling the host taken out of t1, and the mean time of the reference work
over the samples taken just before, during and just after it. Criteria run
for up to seconds, over which the host's speed drifts, so a SIGPROF timer
also runs the reference work every SAMPLE_EVERY_S of CPU time.
"""

import json
import resource
import signal
import sys

from meter import clock, reference_seconds

SAMPLE_EVERY_S = 0.25


def main():
    sys.path.insert(0, sys.argv[1])
    from frobjets import acceptance

    samples = [reference_seconds()]
    sampling = [0.0]  # CPU time spent in sample() during the current criterion

    def sample(signum, frame):
        t0 = clock()
        samples.append(reference_seconds())
        sampling[0] += clock() - t0

    start = [clock()]

    def echo(line):
        end = clock() - sampling[0]
        samples.append(reference_seconds())
        stamp = {"t0": start[0], "t1": end, "ref": sum(samples) / len(samples), "line": line}
        print(json.dumps(stamp), flush=True)
        del samples[:-1]
        sampling[0] = 0.0
        start[0] = clock()

    signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        results = acceptance.run_all(echo=echo)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
    summary = {
        "passed": [r.passed for r in results],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    main()
