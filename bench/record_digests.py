"""Record the sha256 of every --json stdout, one pass per workload and seed.

    python3 bench/record_digests.py 0 1 2

Updates bench/digests.json for the given seeds. worker.py compares each run
on a recorded seed against it, because --json output must stay
byte-identical. Record only from a commit whose outputs are known good: a
step that fails its checks here stops the recording.
"""

from __future__ import annotations

import json
import shutil
import sys

import worker  # first: it puts the repository's src/ on the import path
import ladders  # noqa: E402


def main(seeds: list[int]) -> int:
    table = json.loads(worker.DIGESTS.read_text()) if worker.DIGESTS.exists() else {}
    for seed in seeds:
        for name in ladders.WORKLOADS:
            work = worker.BENCH / ".work" / f"record-{name}-{seed}"
            work.mkdir(parents=True)
            try:
                ladder = ladders.BY_NAME[name](seed, work)
                results = worker.run_pass(ladder)
                verdicts = worker.judge(ladder, ladder.steps, results, None)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            wrong = {label: why for label, why in verdicts.items() if why is not None}
            if wrong:
                print(f"seed {seed} {name}: not recording, failed steps: {wrong}",
                      file=sys.stderr)
                return 1
            table.setdefault(str(seed), {})[name] = worker.json_digests(ladder, results)
            print(f"seed {seed} {name}: {len(table[str(seed)][name])} digests", flush=True)
    worker.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
