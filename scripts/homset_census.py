#!/usr/bin/env python3
"""Census of join-continuous endomap homsets over the built-in corpus.

For every corpus member small enough to enumerate, print the carrier
profile, the homset size, and the sizes of the cyclic / central /
dualizing element classes.  A homset that `enumerate_homset` refuses
under DEFAULT_CAP shows `(> cap)`; one larger than --max-homset shows
its size and no classes.  A quick way to see the rigidity results:
the center never grows past two members, and the cyclic class collapses
onto {constant-top, o}.
"""

import argparse

import latq


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-homset", type=int, default=4096,
                    help="skip carriers whose homset is larger than this")
    ap.add_argument("--max-n", type=int, default=8,
                    help="skip carriers with more elements than this")
    args = ap.parse_args()

    header = (f"{'name':<10}{'n':>3}  {'flags':<7}"
              f"{'|Q|':>7}{'cyclic':>8}{'central':>9}{'dualizing':>11}")
    print(header)
    print("-" * len(header))
    for L in latq.builtin_corpus():
        if L.n > args.max_n:
            continue
        profile = latq.classify_lattice(L)
        flags = "".join((
            "c" if profile.chain else "-",
            "d" if profile.distributive else "-",
            "D" if profile.completely_distributive else "-",
            "s" if profile.smooth else "-",
            "p" if profile.spatial else "-",
        ))
        try:
            Q = latq.enumerate_homset(L, L, latq.DEFAULT_CAP)
        except latq.CapExceeded:
            print(f"{L.name:<10}{L.n:>3}  {flags:<7}"
                  f"{'(> cap)':>7}{'':>8}{'':>9}{'':>11}")
            continue
        if len(Q) > args.max_homset:
            print(f"{L.name:<10}{L.n:>3}  {flags:<7}"
                  f"{len(Q):>7}{'':>8}{'':>9}{'':>11}")
            continue
        cyc = len(latq.cyclic_elements(Q))
        cen = len(latq.central_elements(Q))
        dua = len(latq.dualizing_elements(Q))
        print(f"{L.name:<10}{L.n:>3}  {flags:<7}"
              f"{len(Q):>7}{cyc:>8}{cen:>9}{dua:>11}")
    print()
    print("flags: c chain, d distributive, D completely distributive, "
          "s smooth, p spatial")


if __name__ == "__main__":
    main()
