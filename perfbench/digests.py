#!/usr/bin/env python3
"""Rewrite perfbench/digests.json from the codec in this checkout.

Run from the repository root after a deliberate format change, and say in
CHANGES.md that the digests moved:

    python3 perfbench/digests.py

It encodes every container of every corpus seed once (a few minutes).
"""

import json
import sys

from run import use_checkout_src


def main() -> int:
    use_checkout_src()
    import workloads

    table = {
        "size": workloads.SIZE,
        "corpus_seeds": workloads.CORPUS_SEEDS,
        "digests": {
            str(seed): workloads.compute_digests(seed)
            for seed in range(workloads.CORPUS_SEEDS)
        },
    }
    with open(workloads.DIGESTS_PATH, "w", encoding="ascii") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {workloads.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
