#!/usr/bin/env python3
"""Survey the random matrix-twist family.

Draws seeded invertible pairs (r, s) over M_n, certifies both the
normalized (idempotent) and raw instances, and tallies certificate modes,
central elements and timings.  Useful as a quick end-to-end exercise of
the whole derivation pipeline.

    python scripts/twist_family_survey.py --count 40 --sizes 2,3 --seed 7
"""

import argparse
import random
import time
from collections import Counter

import sepidem as sd


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=30)
    ap.add_argument("--sizes", default="2,3", help="comma-separated matrix sizes")
    ap.add_argument("--seed", type=int, default=20260810)
    args = ap.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    rng = random.Random(args.seed)
    modes = Counter()
    oracle_matches = 0
    t0 = time.perf_counter()
    for i in range(args.count):
        n = sizes[i % len(sizes)]
        r, s = sd.random_twisted_pair(n, rng)
        e = sd.twisted_idempotent(r, s)
        cert = sd.certify(e)
        modes[cert.mode] += 1
        if cert.ok:
            data = sd.derive_all(e)
            cf = sd.twisted_closed_forms(r, s)
            if (data.antipode == cf.antipode
                    and data.left_integral == cf.left_integral
                    and data.modular == cf.modular):
                oracle_matches += 1
        # the raw (unnormalized) pair usually fails idempotency
        raw = sd.twisted_idempotent(r, rng.choice([1, 2, 3]) * s)
        modes[sd.certify(raw).mode] += 1
    dt = time.perf_counter() - t0

    print(f"{2 * args.count} instances over sizes {sizes} in {dt:.2f}s")
    for mode, k in sorted(modes.items()):
        print(f"  {mode:<28} {k}")
    print(f"closed-form oracle matches: {oracle_matches}/{modes['separability_idempotent']}")


if __name__ == "__main__":
    main()
