"""Golden outputs: the reproduction's artifacts, pinned by hash.

``scripts/reproduce_all.py --envs 6 --workers 1`` regenerates every
table, figure and stats file; these hashes were recorded from it for
the default backend and for ``--backend tensor``.  A refactor that
changes any byte of them changed a number, so the test fails until the
change is understood and the hashes are re-recorded on purpose.
``summary.txt`` and ``campaign_report.txt`` carry wall times and are
not pinned.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "reproduce_all.py"

#: Shared by both backends: Tables 2-4 do not run the tuning campaign.
TABLES = {
    "table2.txt": "aa780e020eb4658cd595c24ea58d373913a3b998cd3f611cbc8560abec85384d",
    "table3.txt": "cbbe28ee92af9fff7833c86d4360725a1fb445615807928eb0ce16c165e61cb7",
    "table4.txt": "aa76caa65dce576d5819491301ffd6fc9636d8d99a664530d5351300a5e2c845",
}

GOLDEN = {
    "analytic": {
        "figure5_scores.txt": "94e298d4a7adc5cdc4aade774980e324d7fe3c4bfdcf920989b2aa1d2cda63cc",
        "figure5_rates.txt": "c9f1cb1255cfb99a7e8274c306edc5d207b6c178d3a1805cfe321b6ba06793c0",
        "figure6.txt": "aac9c3ca6e7a1d40349901f0eb10be179ac0a0232238c427294d620a9fdc2547",
        "pte.json": "050fa49b774b217b25eb8d874f2b29aafd2520c3e30f124218708d7a9e3a39d6",
        "pte_baseline.json": "7793e2632a3cf73f29a330c53c3a0fdc202fa87b94bcb308f6c880597f8cd92f",
        "site.json": "f6d04afec76cad64f86a5ed907612b549b183ad699109148b61551775f294848",
        "site_baseline.json": "55b6df01cdde3412499b26d2d82cc96db94e7ba033eb478b4ea8e76c5b1f3ac1",
        **TABLES,
    },
    "tensor": {
        "figure5_scores.txt": "90c16a07740bd2dbfcdabfe4ee92e76d8732b4686148593b901a0c513597baee",
        "figure5_rates.txt": "26263e0e500dfc9339acfc85042378407a958298343e6e6b2015c56e1a7a846d",
        "figure6.txt": "eb319547501c6966691dd1a32558991b05d520fb482373097dbe5cdeb4803243",
        "pte.json": "ce179d9101ce4c63eb087c9c9a994fa4123122699860c67717b0bb765c792d57",
        "pte_baseline.json": "569707c0e3d04756b13a5368c49e9a407d2f40c4b56d6c20a980c1fd4bc968b2",
        "site.json": "5bcc8103186287b73ff3e74ab6604be93128ea1c7c321ccbb979df8171086187",
        "site_baseline.json": "23fd36d97632b0600797efa101cace8d81c357554781fedfe8036b318dd94eac",
        **TABLES,
    },
}


def reproduce(results, backend):
    # No inherited store or ledger: the run must start from nothing.
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    argv = [sys.executable, str(SCRIPT), str(results), "--envs", "6",
            "--workers", "1"]
    if backend != "analytic":
        argv += ["--backend", backend]
    result = subprocess.run(
        argv, capture_output=True, text=True, env=env, timeout=600
    )
    assert result.returncode == 0, result.stderr[-2000:]


@pytest.mark.parametrize("backend", sorted(GOLDEN))
def test_reproduce_all_outputs_are_pinned(backend, tmp_path):
    reproduce(tmp_path, backend)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN[backend]
    }
    assert digests == GOLDEN[backend]
