"""Record the reference outputs that ``run.py`` checks operations against.

    python3 perfbench/record_reference.py --workload NAME --seeds 0-15

For each seed this sets the workload up, runs its first operations
(as many as the reference covers: four steps of train-step-default, one
operation elsewhere), checks their invariants and stores what it
observed in ``perfbench/reference.json``. Record only from a commit whose
outputs are known to be right: from then on a seed's outputs must match.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run

REFERENCE = run.HERE / "reference.json"


def _seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, required=True, help="N or LO-HI")
    args = p.parse_args(argv)
    run._pin_blas_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    refs = json.loads(REFERENCE.read_text())
    workdir = run.ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    try:
        for seed in args.seeds:
            workloads.clear(workdir)
            state = wl.setup(seed, workdir)
            observations = []
            for _ in range(wl.reference_ops):
                problems, obs = wl.observe(state, wl.run(state))
                if problems:
                    print(f"seed {seed}: {problems}", file=sys.stderr)
                    return 1
                observations.append(obs)
            state = None
            refs.setdefault(wl.name, {})[str(seed)] = wl.record(observations)
            REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
            print(f"{wl.name} seed {seed}: recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
