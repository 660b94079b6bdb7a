"""Golden digests: fleet and mesh results pinned byte for byte.

Eight runs long enough that every cross-node path fires (directives,
quarantine, a partition-deferred directive, upstream sheds, tower moves,
shard cancels).  A refactor of the epoch machinery must leave each
digest unchanged; a deliberate behaviour change must update them here
and say why.  The runs execute in one subprocess under
``PYTHONHASHSEED=0`` (about 6 s in total).
"""

import os
import subprocess
import sys

import pytest

GOLDEN = {
    "fleet:none":
        "ab56ff6058c9ee4d1710d7acc5eaa11b6bfd18daed6afe99718db7c8636c5271",
    "fleet:local":
        "204a81f239b21a282ea431870a67f17910be3fb745c2895d6c318ebfd4971458",
    "fleet:coordinated":
        "098a15924e36c9d12863a0c2d47f3198c6a5406f7689eecf734b4a992b26881b",
    "fleet:coordinated+partition":
        "fb055e01abfa2e94b8c2cd2e9d29b3ef6f3710e34575ca397b6f923150ca75fb",
    "dag:none":
        "9b902f53f44a214a05c9b9ecfdb82ea18b1a22cdce2bf9200c3ab8e6ce50b0ef",
    "dag:atropos":
        "477eba78d4b022146a6b0d140ab930d6adf371735c7e680226070cf3f38c974f",
    "dag:dagor":
        "3e1e46a4375b9707764482051543e0ad5bddd0b9b4a94642bcfeb4c929c2746a",
    "dag:autothrottle":
        "313892808eef64727f6ec04b961126d1c7aa8c392211497b22543d82f9bd1990",
}

_SCRIPT = """
from repro.cluster import demo_fleet, run_dag, run_fleet
from repro.workloads.dag import dag_storm

for mode in ("none", "local", "coordinated"):
    spec = demo_fleet(3, duration=15.0, mode=mode)
    print(f"fleet:{mode}", run_fleet(spec, jobs=1).digest())
spec = demo_fleet(3, duration=15.0, mode="coordinated",
                  partitions=[("node-1", 6.0, 9.0)])
print("fleet:coordinated+partition", run_fleet(spec, jobs=1).digest())
for controller in ("none", "atropos", "dagor", "autothrottle"):
    spec = dag_storm(2, duration=12.0)
    print(f"dag:{controller}", run_dag(spec, controller, jobs=1).digest())
"""


@pytest.fixture(scope="module")
def digests():
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.setdefault("PYTHONPATH", "src")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return dict(line.split() for line in proc.stdout.splitlines())


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_digest_matches_golden(digests, run):
    assert digests.get(run) == GOLDEN[run]
