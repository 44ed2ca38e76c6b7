"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-100 --seed 1 --seconds 45

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
decomposed, per-layer flow instead. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SRC  # noqa: E402

WORKLOADS = ("batch-100", "serve-wal")

#: scratch space inside the checkout (trace files, WAL directories).
WORK_DIR = ROOT / ".perfbench_work"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        if args.workload == "serve-wal":
            import serve_wal

            serve_wal.run(args.seed, args.seconds, bool(args.trace), workdir)
        else:
            import batch

            batch.run(args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
