"""The pinned output digest: every output mecshare computes on the grid of
`tools/output_digest.py`, as one SHA-256.

This is the one home of the value. It holds on every supported Python and under
any string-hash seed, so no output may depend on the interpreter's float sum or
on set order. A change that moves an output updates the value here and says
which outputs moved and by how much.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mecshare

DIGEST = "f3ca17ccc4ebb8e496fcab66e737b818dbc90e0413649365d517122aee0fef02"

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_outputs_have_the_pinned_digest(hash_seed):
    src = str(Path(mecshare.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == DIGEST
