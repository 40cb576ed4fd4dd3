"""Rebuild references.json: expected answers for the shipped seeds.

    python3 perfbench/make_references.py 0 20

Solves every instance of the tour and count-cover mixes for
seeds FIRST..LAST twice, directly and on a randomly relabelled copy, and
keeps the answer only when both agree.  Instances whose answer is fixed by
construction are checked that way on every run instead and are not stored.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import instances  # noqa: E402
import verify  # noqa: E402

WORKLOADS = ("tour", "count-cover")


def main(first: int, last: int) -> int:
    table = verify.load_references() if verify.REFERENCES.is_file() else {}
    for seed in range(first, last + 1):
        for workload in WORKLOADS:
            refs = table.setdefault(workload, {})
            for inst in instances.build_mix(workload, seed):
                if inst.known is not None:
                    continue
                g = verify.parse_text(inst.text)
                direct, relabelled = verify.solve(inst, g, inst.endpoints), verify.solve_relabelled(inst, g)
                if direct != relabelled:
                    print(f"{inst.name} (seed {seed}): {direct!r} != {relabelled!r}", file=sys.stderr)
                    return 1
                refs[instances.text_digest(inst.text)] = direct
            print(f"seed {seed} {workload}: {len(refs)} references", flush=True)
    for workload in table:
        table[workload] = dict(sorted(table[workload].items()))
    verify.REFERENCES.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
