"""Write the open-series reference tables for the default workload seed.

    python3 perfbench/capture_reference.py

Runs the first REFERENCE_ITEMS open-series items of the default seed (see
workloads.py) and stores each results.csv, gzipped, under
perfbench/reference/.  The benchmark compares later runs of those items
against these files and fails an item whose file is missing, so rewrite
them only when a change to the results is intended and explained.
"""

import argparse
import gzip
import shutil
import tempfile
from pathlib import Path

import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args()
    run.OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="reference-", dir=run.OUT)
    try:
        wl = run.build("open-series", run.DEFAULT_SEED, Path(scratch))
        from workloads import REFERENCE_ITEMS
        for k in range(REFERENCE_ITEMS):
            item = wl.prepare(k)
            result = wl.execute(item)
            code, stderr = result
            if code != 0:
                raise SystemExit(f"item {k} failed its check: {stderr}")
            path = wl.reference_path(k)
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(gzip.compress(wl.output(item, result), mtime=0))
            wl.cleanup(item)
            print(f"wrote {path}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
