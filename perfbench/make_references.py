"""Regenerate references.json, the stored outputs the op checks compare to.

    python3 perfbench/make_references.py

Run it from the repository root only after a change that is meant to alter
spoonarm's outputs, and say in the change why the references moved.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    refs = workloads.compute_references(BENCH_DIR / "out")
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(workloads.REFERENCES)
