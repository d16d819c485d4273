"""Record the outputs that bench/run.py checks every ``train`` call against.

    python3 bench/record_reference.py

For every workload and each seed in ``SEEDS``, trains once and writes the
accuracies plus the SHA-256 digest of the final state (fixed arithmetic) or
a sketch of the weights (real arithmetic) to ``reference.json``.  Record only
from a commit whose outputs are known good.
"""
from __future__ import annotations

import json

from run import pin_threads, use_checkout_source

SEEDS = range(32)


def main() -> None:
    pin_threads()
    use_checkout_source()
    from admmlsmr import admm

    import workloads

    recorded: dict[str, dict[str, dict]] = {}
    for name, w in workloads.WORKLOADS.items():
        for seed in SEEDS:
            state, report = admm.train(*workloads.setup(w, seed))
            recorded.setdefault(name, {})[str(seed)] = workloads.summary(w, state, report)
            print(name, seed, recorded[name][str(seed)], flush=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
