"""Run-level behaviour pin: SHA-256 digests of CLI artifacts.

Each case runs `voxevo.cli.main` on a tiny seeded config and compares the
digest of every listed output file against a value recorded from the code
as it stood before the array-action refactor; the checkpoint digests, which
pin the controller serialization, were recorded before the controller
became one genome type. A change that keeps the
arithmetic the same must keep these digests; a change that reorders float
sums may change them, and must say why where the digests are updated.
"""

import hashlib
import os

import pytest

from voxevo.cli import main

CO_OPTIMIZE_MODULAR = """
[run]
seed = 11
generations = 2
mode = co-optimize
paradigm = modular

[evolution]
mu = 2
lambda = 2

[episode]
max_steps = 40
"""

MULTI_BODY_GLOBAL = """
[run]
seed = 12
generations = 2
mode = multi-body
paradigm = global

[evolution]
mu = 2
lambda = 1

[episode]
max_steps = 40

[experiment]
catalog_bodies = biped, worm
"""

TRANSFER = """
[run]
seed = 13

[episode]
max_steps = 40

[experiment]
distances = 1, 2
samples_per_distance = 2
one_shot_lambda = 1
"""

DIGESTS = {
    "co-optimize-modular": {
        "generations.csv": "07d3b7b51826df49ed22a3cf50598b109709d7b34b8289454c6fd4b3f606e0b3",
        "lineage.csv": "460064e00a035e4698b70ec1410a582b749077fbb87d0b7f2b366bf8bba7fd66",
        "champion.ckpt": "2fc923a7d2106fe2e0b6f12e40b3e8a07262a50854f6fbdc6b030bc753ad6bb7",
        "population_final.ckpt":
            "0bc53ccf262f59bedba111233f58c802376702cea1a142f4b77f1c2b26287b5f",
    },
    "multi-body-global": {
        "generations.csv": "bcba690169d9bf8fcaee7aeac785c69107649a749241a589d6d341e041e9f8d0",
        "lineage.csv": "78238d4aa7742c102aaa7f2c716d68e265b13ff199169d2fec5c58012ad0a69f",
        "champion.ckpt": "e886b301fba9cd5f5c36fae9c768a10f8d8db8e32cce6c641c5ef3839c77c123",
        "population_final.ckpt":
            "4680b66464612ea41c75b31462ee635b98689bd72847daa282a89dd7175f38a2",
    },
    "transfer": {
        "transfer.csv": "2243176a3aee51e5b8042f7ebcc25a1de7efd7f4a70aff98a621392397a4726f",
    },
}


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _evolve(tmp_path, name, text, workers=1):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    out = str(tmp_path / name)
    assert main(["evolve", "--config", str(cfg), "--out", out,
                 "--workers", str(workers)]) == 0
    return out


def _check(out, case):
    got = {name: _digest(os.path.join(out, name)) for name in DIGESTS[case]}
    assert got == DIGESTS[case]


@pytest.mark.parametrize("case, text", [
    ("co-optimize-modular", CO_OPTIMIZE_MODULAR),
    ("multi-body-global", MULTI_BODY_GLOBAL),
])
def test_evolve_digests(tmp_path, case, text):
    _check(_evolve(tmp_path, case, text), case)


# each worker steps its contiguous run of the jobs' episodes as one joined
# world, so the run boundaries move with the worker count and the bits may not
@pytest.mark.parametrize("workers", [2, 3])
def test_multi_body_digests_any_worker_count(tmp_path, workers):
    case = "multi-body-global"
    _check(_evolve(tmp_path, case, MULTI_BODY_GLOBAL, workers), case)


# the zero-shot episodes are one multi-body job, so the transfer's episodes
# are cut into one joined run per worker, and the run boundaries move with
# the worker count
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_transfer_digest(tmp_path, workers):
    source = _evolve(tmp_path, "source", CO_OPTIMIZE_MODULAR)
    cfg = tmp_path / "transfer.cfg"
    cfg.write_text(TRANSFER)
    out = str(tmp_path / "transfer")
    assert main(["transfer", "--config", str(cfg), "--out", out,
                 "--champion", os.path.join(source, "champion.ckpt"),
                 "--workers", str(workers)]) == 0
    _check(out, "transfer")
