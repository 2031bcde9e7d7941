"""Rewrite ``reference.json``: each workload's fingerprint at the default seed.

Run from the repository root: ``python3 bench/make_reference.py``. Do this
only for a deliberate behaviour change, and say in ``CHANGES.md`` which
fingerprint moved and why.
"""

import json
import sys

import run


def main() -> int:
    run.cap_blas_threads()
    sys.path.insert(0, str(run.SRC))
    env = run.child_env()
    run.OUT_DIR.mkdir(exist_ok=True)
    import workloads

    doc = {"seed": workloads.DEFAULT_SEED}
    for name in run.WORKLOADS:
        doc[name] = run.make_workload(name, workloads.DEFAULT_SEED, env).fingerprints()
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
