"""One set-up in a fresh interpreter, timed from outside by run.py.

    python3 perfbench/setup_once.py <workload> <seed> <workdir>

Imports thmc, builds the workload's design matrices and makes its inputs from
the seed, all under a host-speed probe; then prints one JSON line (the probe's
own time, its speed factor and the design build time) and exits.  The parent
times the span from spawning this interpreter to reading that line.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from speed import SpeedProbe

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    with SpeedProbe() as probe:
        sys.path.insert(0, str(SRC))
        import thmc
        import thmc.cli  # noqa: F401  (the fit and markov jobs call it)
        from workloads import WORKLOADS

        workdir.mkdir(parents=True, exist_ok=True)
        workload = WORKLOADS[name](thmc, seed, workdir)
    # the samples taken on entry and exit fall inside the parent's timing too
    spent = probe.spent + probe.samples[0] + probe.samples[-1]
    print(json.dumps({"spent": spent, "factor": probe.factor, "design_s": workload.design_s}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
