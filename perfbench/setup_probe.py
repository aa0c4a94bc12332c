"""Print the set-up seconds of one workload, measured in this fresh process.

    python3 perfbench/setup_probe.py {solve-window,basins,verify}

run.py starts it to take more set-up samples per run.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import workloads

    workloads.setup(sys.argv[1])
    print(time.perf_counter() - t0)
