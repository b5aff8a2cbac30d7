"""Time the KNN fill of one sweep pattern at a config's full size.

Usage:
    PYTHONPATH=src python3 scripts/time_knn.py CONFIG PATTERN [PATTERN ...]

Builds repetition 0 of CONFIG, fits the KNN imputer (k = 5) on its
training split, and for each PATTERN (one 0/1 digit per feature) fills the
test split under the union of the pattern and the split's own missingness
with `baselines.impute`, as the sweep does. Prints one JSON line: the
split sizes, and per pattern the wall and CPU seconds of the `impute` call
alone (`time.perf_counter`, `time.process_time`; CPU time is the steadier
reading on a shared host) and the sha256 of the filled split's bytes.

Set OPENBLAS_NUM_THREADS=1 (and OMP_/MKL_) for one-thread timings; run the
script under two source trees in alternation to compare them.
"""

import hashlib
import json
import sys
import time

import numpy as np

from knockout.baselines import fit_imputer, impute
from knockout.config import parse_config
from knockout.runner import build_repetition


def main(config_path: str, patterns: list[str]) -> dict:
    with open(config_path) as fh:
        cfg = parse_config(fh.read())
    data = build_repetition(cfg, 0)
    imputer = fit_imputer("knn", data.z_train, data.train_observed, k=5)
    out = {"train_rows": int(data.z_train.shape[0]), "test_rows": int(data.z_test.shape[0])}
    for bits in patterns:
        pattern = np.array([int(b) for b in bits], dtype=np.uint8)
        mask = np.maximum(np.broadcast_to(pattern, data.z_test.shape), data.test_observed)
        wall, cpu = time.perf_counter(), time.process_time()
        filled = impute(imputer, data.z_test, mask)
        out[bits] = {
            "s": time.perf_counter() - wall,
            "cpu_s": time.process_time() - cpu,
            "sha256": hashlib.sha256(filled.tobytes()).hexdigest(),
        }
    return out


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    print(json.dumps(main(sys.argv[1], sys.argv[2:])))
