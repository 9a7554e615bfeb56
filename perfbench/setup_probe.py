"""Set-up probe, run by run.py in a fresh interpreter:

    python3 perfbench/setup_probe.py WORKLOAD WARMUP_DIR

Times a cold ``import modscramble.cli`` and then the workload's warm-up
operation on the inputs run.py wrote to WARMUP_DIR, and prints
``{"import_s": ..., "warmup_s": ...}``.
"""

import json
import sys
import time
from pathlib import Path


def main():
    name, warmup_dir = sys.argv[1], Path(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import modscramble.cli  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads

    warmup = workloads.load_warmup(name, warmup_dir)
    start = time.perf_counter()
    warmup()
    warmup_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "warmup_s": warmup_s}))


if __name__ == "__main__":
    main()
