"""Time dhlab's sampler in a fresh process and print what it produced.

    python3 perfbench/sample_child.py SAMPLES BINS LO HI THREADS TRACE SEED [SEED ...]

The benchmark runs this once per density round instead of calling the
sampler in its own process.  A fresh process makes the same allocations in
the same order on every run, as a user's script does; inside the
benchmark's larger heap, whether glibc hands each chunk's temporaries back
to the system or keeps them varies from call to call, and with it the
sampler's time (about 1.3 s or 2.0 s for the same 8 M samples).

Prints one JSON list with, per seed, the timings and the raw histogram and
normalized estimate for the benchmark's checks.  With TRACE = 1 it also
times bare numpy Philox generation of the same words.
"""

from __future__ import annotations

import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from dhlab import (CutWindow, SamplerConfig, analytic_dh_density, compare, normalize,
                   sample_pushforward, standard_construction, verify_construction)


def philox_words(seed: int, samples: int, chunk: int, threads: int) -> None:
    """Bare numpy Philox generation of the sampler's 8 words per sample,
    chunked and threaded as the sampler is."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)

    def one(start: int):
        n = min(chunk, samples - start)
        np.random.Generator(np.random.Philox(key=key, counter=2 * start)).random((n, 8))

    starts = range(0, samples, chunk)
    if threads == 1:
        for s in starts:
            one(s)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one, starts))


def main(argv: list[str]) -> int:
    samples, bins, threads, trace = int(argv[0]), int(argv[1]), int(argv[4]), argv[5] == "1"
    window = CutWindow(float(argv[2]), float(argv[3]))
    _, _, omega = standard_construction(window)
    report = verify_construction(omega, window)
    analytic = analytic_dh_density(report, window)
    out = []
    for seed in (int(s) for s in argv[6:]):
        cfg = SamplerConfig(samples, bins, window, seed)
        start = time.perf_counter()
        hist = sample_pushforward(report.top_power_poly, cfg, threads=threads)
        sample_s = time.perf_counter() - start
        start = time.perf_counter()
        est = normalize(hist)
        compare(est, analytic, window)
        merge_s = time.perf_counter() - start
        record = {"seed": seed, "sample_s": sample_s, "merge_s": merge_s,
                  "chunks": math.ceil(samples / cfg.chunk_size),
                  "weight_sums": hist.weight_sums.tolist(),
                  "weight_sq_sums": hist.weight_sq_sums.tolist(),
                  "density": est.density.tolist(), "stderr": est.stderr.tolist()}
        if trace:
            start = time.perf_counter()
            philox_words(seed, samples, cfg.chunk_size, threads)
            record["philox_s"] = time.perf_counter() - start
        out.append(record)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
