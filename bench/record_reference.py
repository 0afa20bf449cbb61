"""Record the reference outputs that the benchmark's output check uses.

    python3 bench/record_reference.py [WORKLOAD ...]

Runs every seed of each workload's pool once and writes the compared
parts of its reports to bench/reference/<workload>.json. Run it only on a
commit whose outputs are trusted: the benchmark counts every later
difference beyond the tolerance as a failed command.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from source import use_checkout_source


def main(names: list) -> int:
    use_checkout_source()
    from workloads import (REFERENCE_DIR, WORKLOADS, read_reports, reference_path,
                           run_command, run_dir)

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        recorded = {}
        out = Path(tempfile.mkdtemp(dir=run_dir()))
        try:
            for seed in range(1, workload.seed_pool + 1):
                seconds, error = run_command(workload, seed, out, workload.threads)
                if error:
                    print(f"{name} seed {seed}: {error}", file=sys.stderr)
                    return 1
                recorded[str(seed)] = read_reports(workload.command, out)
                print(f"{name} seed {seed}: {seconds:.2f} s", file=sys.stderr)
        finally:
            shutil.rmtree(out)
        reference_path(workload).write_text(json.dumps(recorded, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
