"""Every reader refuses a damaged artifact cleanly: a seeded gate.

A command that reads a damaged file must exit 0, or exit 2 with exactly one
`error:` line and no output; a traceback, or a `.partial` left behind,
fails. The damage is a fixed list drawn from a seeded generator: truncations
and single-bit flips of a small run's `champion.ckpt`, read through
`transfer` and `replay`, and of its `generations.csv` and `lineage.csv`, read
through `report`, with three hand-found CSV cases besides. No command reads a
population checkpoint yet, so the damage drawn the same way from the run's
`population_final.ckpt`, and every single-bit flip of its bytes outside the
controller parameters, goes straight to `load_population`, which must load
it or raise `CheckpointIntegrityError`.
"""

import os
import shutil

import numpy as np
import pytest

from voxevo.checkpoints import (
    _COUNT,
    _CTRL_HEAD,
    _HEADER,
    _RECORD_FIXED,
    CheckpointIntegrityError,
    load_population,
)
from voxevo.cli import main
from voxevo.morphology import GRID_SIZE

from helpers import tree

CONFIG = """
[run]
seed = 3
generations = 2

[evolution]
mu = 2
lambda = 2

[episode]
max_steps = 10

[experiment]
distances = 1
samples_per_distance = 1
one_shot_lambda = 1
"""

SEED = 18
DRAWS = 40  # truncations, and as many bit flips, of each file


def _on_line_3(data: bytes, edit) -> bytes:
    """`data` with its third line (the second row of a CSV) edited."""
    lines = data.split(b"\n")
    lines[2] = edit(lines[2])
    return b"\n".join(lines)


# (file, case, damage) found by hand: a byte that is not UTF-8, a field over
# csv's 131,072-character limit, and a NUL, which csv refuses before
# Python 3.11 and a field's parser refuses after
HAND_CASES = [
    ("lineage.csv", "a byte that is not UTF-8", lambda d: _on_line_3(d, lambda l: l + b"\xff")),
    ("generations.csv", "an oversized field",
     lambda d: _on_line_3(d, lambda l: b"1" * 200_000 + l)),
    ("lineage.csv", "a NUL byte", lambda d: _on_line_3(d, lambda l: b"\x00" + l)),
]


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """The config and directory of one small finished run."""
    base = tmp_path_factory.mktemp("reader_gate")
    config = base / "run.cfg"
    config.write_text(CONFIG)
    run_dir = base / "run"
    assert main(["evolve", "--config", str(config), "--out", str(run_dir),
                 "--workers", "1"]) == 0
    return config, run_dir


def drawn_damage(data: bytes, stream: int) -> list[tuple[str, bytes]]:
    """DRAWS truncations and DRAWS single-bit flips of `data`, each with its name."""
    rng = np.random.default_rng([SEED, stream])
    cases = [(f"truncated to {at} bytes", data[:at])
             for at in rng.integers(len(data), size=DRAWS).tolist()]
    for at, bit in zip(rng.integers(len(data), size=DRAWS).tolist(),
                       rng.integers(8, size=DRAWS).tolist()):
        flipped = bytearray(data)
        flipped[at] ^= 1 << bit
        cases.append((f"bit {bit} of byte {at} flipped", bytes(flipped)))
    return cases


def breach(argv, case_dir, capsys) -> str | None:
    """How the command `argv`, run in `case_dir`, breaks the reader
    contract, or None when it keeps it."""
    before = tree(case_dir)
    try:
        status = main(argv)
    except Exception as exc:  # a traceback on the command line
        return f"raised {exc!r}"
    err = capsys.readouterr().err.splitlines()
    partial = [name for name in tree(case_dir) if name.endswith(".partial")]
    if partial:
        return f"left {partial}"
    if status == 2 and (len(err) != 1 or not err[0].startswith("error: ")):
        return f"exit 2 with stderr {err}"
    if status == 2 and tree(case_dir) != before:
        return "exit 2 with output made"
    if status not in (0, 2):
        return f"exit {status}"
    return None


def damaged_run(run_dir, case_dir, name: str, data: bytes) -> None:
    """A copy of the run's read artifacts in `case_dir`, with `name` replaced by `data`."""
    os.makedirs(case_dir)
    for artifact in ("generations.csv", "lineage.csv", "champion.ckpt"):
        shutil.copy(run_dir / artifact, case_dir / artifact)
    (case_dir / name).write_bytes(data)


def test_damaged_champion_through_transfer_and_replay(run, tmp_path, capsys):
    config, run_dir = run
    data = (run_dir / "champion.ckpt").read_bytes()
    breaches = []
    for n, (case, damaged) in enumerate(drawn_damage(data, 0)):
        case_dir = tmp_path / f"case_{n}"
        damaged_run(run_dir, case_dir, "champion.ckpt", damaged)
        champion = str(case_dir / "champion.ckpt")
        for argv in (["transfer", "--config", str(config), "--champion", champion,
                      "--out", str(case_dir / "transfer"), "--workers", "1"],
                     ["replay", "--config", str(config), "--champion", champion,
                      "--out", str(case_dir / "replay" / "replay.jsonl")]):
            problem = breach(argv, case_dir, capsys)
            if problem:
                breaches.append(f"champion.ckpt {case} through {argv[0]}: {problem}")
    assert breaches == []


def structure_flips(data: bytes, population) -> list[tuple[str, bytes]]:
    """Every single-bit flip of `data`, the checkpoint of `population`,
    outside its controller parameters, which hold nearly all of its bytes: the
    header, the count, and each record's fixed part, body digits and
    controller head."""
    head = _RECORD_FIXED.size + GRID_SIZE * GRID_SIZE + _CTRL_HEAD.size
    at = _HEADER.size + _COUNT.size
    spine = list(range(at))
    for ind in population:
        spine += range(at, at + head)
        at += head + 8 * ind.controller.to_flat().size
    cases = []
    for at in spine:
        for bit in range(8):
            flipped = bytearray(data)
            flipped[at] ^= 1 << bit
            cases.append((f"bit {bit} of byte {at} flipped", bytes(flipped)))
    return cases


def test_damaged_population_through_its_loader(run, tmp_path):
    _, run_dir = run
    source = run_dir / "population_final.ckpt"
    data = source.read_bytes()
    cases = drawn_damage(data, 3) + structure_flips(data, load_population(str(source)))
    path = tmp_path / "population.ckpt"
    breaches = []
    for case, damaged in cases:
        path.write_bytes(damaged)
        try:
            load_population(str(path))
        except CheckpointIntegrityError:
            pass
        except Exception as exc:
            breaches.append(f"population_final.ckpt {case}: raised {exc!r}")
    assert breaches == []


@pytest.mark.parametrize("name, stream", [("generations.csv", 1), ("lineage.csv", 2)])
def test_damaged_csv_through_report(run, tmp_path, capsys, name, stream):
    _, run_dir = run
    data = (run_dir / name).read_bytes()
    cases = drawn_damage(data, stream) + [
        (case, damage(data)) for file, case, damage in HAND_CASES if file == name]
    breaches = []
    for n, (case, damaged) in enumerate(cases):
        case_dir = tmp_path / f"case_{n}"
        damaged_run(run_dir, case_dir, name, damaged)
        problem = breach(["report", str(case_dir)], case_dir, capsys)
        if problem:
            breaches.append(f"{name} {case}: {problem}")
    assert breaches == []


# each escaped `report` as a traceback: the decode error and csv's own
# errors were raised outside the refusal of a bad row
@pytest.mark.parametrize("name, case, damage", HAND_CASES, ids=[c for _, c, _ in HAND_CASES])
def test_hand_case_is_refused_at_file_and_line(run, tmp_path, capsys, name, case, damage):
    _, run_dir = run
    case_dir = tmp_path / "case"
    damaged_run(run_dir, case_dir, name, damage((run_dir / name).read_bytes()))
    before = tree(case_dir)
    assert main(["report", str(case_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {case_dir / name}: line 3: ")
    assert tree(case_dir) == before
