"""Pin BLAS to one thread before anything imports numpy.

Every matrix in these tests is small, so extra BLAS threads only contend
for the cores; benchmarks/workload.py pins the benchmark the same way. A
value already set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
