#!/usr/bin/env python3
"""How often is a random closure system completely distributive?

Samples seeded random closure-system lattices per ground-set size and
reports the fraction passing the Raney join criterion, the fraction
that are smooth, and the size spread.  Three distributivity routes are
cross-checked on every draw: the transform criterion, the triple scan
and the binding pairs (`is_distributive`).
"""

import argparse
from dataclasses import dataclass

import latq


@dataclass(frozen=True)
class CensusConfig:
    sizes: tuple[int, ...] = (3, 4, 5, 6, 7)
    samples: int = 200
    seed0: int = 10_000


def census(config: CensusConfig) -> None:
    header = (f"{'bits':>4}{'samples':>9}{'cd rate':>9}{'smooth':>8}"
              f"{'min n':>7}{'mean n':>8}{'max n':>7}")
    print(header)
    print("-" * len(header))
    seed = config.seed0
    for bits in config.sizes:
        cd = smooth = 0
        sizes = []
        for _ in range(config.samples):
            L = latq.generate(
                latq.GeneratorSpec("random", seed=seed, n=bits))
            seed += 1
            res = latq.raney_join_criterion(L)
            if not (res.holds == latq.distributive_oracle(L).holds
                    == L.is_distributive):
                raise AssertionError(
                    f"criteria disagree on seed {seed - 1}")
            cd += res.holds
            smooth += latq.classify_lattice(L).smooth
            sizes.append(L.n)
        mean = sum(sizes) / len(sizes)
        print(f"{bits:>4}{config.samples:>9}"
              f"{cd / config.samples:>9.3f}{smooth / config.samples:>8.3f}"
              f"{min(sizes):>7}{mean:>8.2f}{max(sizes):>7}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--seed", type=int, default=10_000)
    ap.add_argument("--sizes", type=str, default="3,4,5,6,7",
                    help="comma-separated ground-set sizes")
    args = ap.parse_args()
    census(CensusConfig(
        sizes=tuple(int(s) for s in args.sizes.split(",")),
        samples=args.samples,
        seed0=args.seed,
    ))


if __name__ == "__main__":
    main()
