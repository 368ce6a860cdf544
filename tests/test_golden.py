"""Pinned digests of a short seed-7 run.

Training is deterministic, so a 40-epoch run at seed 7 must reproduce its
loss trace and saved model byte for byte across commits, not only between
two runs of the same code.  A change that moves the numerics on purpose
re-records the digest it moves and says why.  The digests were recorded
with numpy 2.4 on OpenBLAS; another BLAS may round the matmuls differently.

The trace digest was re-recorded when ``loss_b`` started reporting the
source loss minus the mean *capped* target crs, the value whose gradient
step B applies; it had subtracted the uncapped mean.  Only the ``loss_b``
column moved (554 of the 560 rows); the model digest did not change.
"""

import hashlib

from twohead import TrainConfig
from twohead.nn import save_model_csv
from twohead.trainer import train

TRACE_SHA256 = "24a035934bb124a62a19a9b922da9b64821ae6d4f420305664fcefe5813b0cc9"
MODEL_SHA256 = "0b70fc6d5c58e5fdbfd8201bdbac8561c4b6e51c93a14d6bb5a112483373a21a"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_seed7_trace_and_model_digests(toy_data, tmp_path):
    source, target = toy_data
    state = train(source, target, TrainConfig(seed=7, epochs=40))
    state.trace_to_csv(tmp_path / "loss_trace.csv")
    save_model_csv(state.model, tmp_path / "model.csv")
    assert _sha256(tmp_path / "loss_trace.csv") == TRACE_SHA256
    assert _sha256(tmp_path / "model.csv") == MODEL_SHA256
