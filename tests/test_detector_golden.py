"""Golden pin for the race detector's observable output.

Slim recording runs the FastTrack detector on every field, static and
array access, so the detector's hot path is worth optimising — and any
rewrite of it must leave every result the detector feeds untouched.
This suite replays a fixed set of seeded recordings and compares
against values stored in ``golden/detector_golden.json``:

* the race list (``Race.describe()`` strings, in report order);
* every closed region as ``(index, racy, n_accesses, [race
  descriptions])``, plus the final ``racy_regions`` set;
* the ``stats`` dict (accesses, sync edges, GC invalidations);
* the sha256 of the sealed ``record --slim`` trace file;
* the race list and stats of ``detect_races`` (``repro races``) over
  that trace.

``racy_cells`` exists for the naming paths the bundled workloads never
reach: its races sit on an instance field, an ``[I`` element and an
``[LObject;`` element.  ``gc_churn`` runs on a semispace small enough
to collect, so the detector's GC invalidation (drop every address-keyed
entry) is exercised under both recording and replay.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import repro.explore.detector as detector_mod
from repro.api import GuestProgram, record, replay
from repro.explore.detector import detect_races
from repro.vm.machine import VMConfig
from repro.workloads import (
    gc_churn,
    philosophers,
    racy_bank,
    server,
    sorter,
    synced_bank,
)

from .conftest import jitter_knobs

SEED = 13
CFG = VMConfig(semispace_words=60_000)
#: small enough that gc_churn collects several times during the run
GC_CFG = VMConfig(semispace_words=6_000)
GOLDEN_PATH = Path(__file__).parent / "golden" / "detector_golden.json"

# two workers race on an instance field, an int-array element and an
# object-array element (each a read-modify-write or a blind store)
RACY_CELLS_SRC = """
.class Cell
.field count I

.class Worker
.super Thread
.method run ()V
    iconst 0
    istore 1
loop:
    iload 1
    iconst 12
    if_icmpge done
    getstatic Main.cell LCell;
    getstatic Main.cell LCell;
    getfield Cell.count I
    iconst 1
    iadd
    putfield Cell.count I
    iload 1
    iconst 3
    irem
    istore 2
    getstatic Main.slots [I
    iload 2
    getstatic Main.slots [I
    iload 2
    iaload
    iconst 1
    iadd
    iastore
    getstatic Main.refs [LObject;
    iload 1
    iconst 2
    irem
    new Object
    aastore
    getstatic Main.refs [LObject;
    iconst 0
    aaload
    pop
    iinc 1 1
    goto loop
done:
    return
.end

.class Main
.field static cell LCell;
.field static slots [I
.field static refs [LObject;
.method static main ()V
    new Cell
    putstatic Main.cell LCell;
    iconst 3
    newarray
    putstatic Main.slots [I
    iconst 2
    anewarray LObject;
    putstatic Main.refs [LObject;
    new Worker
    astore 1
    new Worker
    astore 2
    aload 1
    invokestatic Thread.start(LThread;)V
    aload 2
    invokestatic Thread.start(LThread;)V
    aload 1
    invokestatic Thread.join(LThread;)V
    aload 2
    invokestatic Thread.join(LThread;)V
    getstatic Main.cell LCell;
    getfield Cell.count I
    invokestatic System.printInt(I)V
    return
.end
"""


def racy_cells() -> GuestProgram:
    return GuestProgram.from_source(RACY_CELLS_SRC, name="racy_cells")


#: name -> (program factory, VM config)
WORKLOADS = {
    "racy_bank": (lambda: racy_bank(), CFG),
    "server": (lambda: server(3, 40, 5, work_scale=40), CFG),
    "philosophers": (lambda: philosophers(), CFG),
    "synced_bank": (lambda: synced_bank(4, 120), CFG),
    "sorter": (lambda: sorter(2, 40), CFG),
    "racy_cells": (racy_cells, CFG),
    "gc_churn": (lambda: gc_churn(iters=200), GC_CFG),
}


def _region_row(summary) -> list:
    return [
        summary.index,
        summary.racy,
        summary.n_accesses,
        [race.describe() for race in summary.races],
    ]


def observe(name: str, tmp_dir: Path, monkeypatch) -> dict:
    """Slim-record workload *name* to a file, then run ``detect_races``
    over the recording; return everything the golden file pins."""
    factory, config = WORKLOADS[name]
    attached = []

    class Capturing(detector_mod.RaceDetector):
        def __init__(self, vm):
            super().__init__(vm)
            attached.append(self)

    out = tmp_dir / f"{name}.djv"
    with monkeypatch.context() as patch:
        patch.setattr(detector_mod, "RaceDetector", Capturing)
        run = record(factory(), config=config, slim=True, out=out,
                     **jitter_knobs(SEED))
    (detector,) = attached
    report = detect_races(factory(), run.trace, config=config)
    return {
        "races": [race.describe() for race in detector.races],
        "regions": [_region_row(r) for r in detector.regions],
        "racy_regions": sorted(detector.racy_regions),
        "stats": dict(detector.stats),
        "slim_trace_sha256": hashlib.sha256(out.read_bytes()).hexdigest(),
        "replay_races": [race.describe() for race in report.races],
        "replay_stats": dict(report.stats),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_detector_output_matches_golden(name, golden, tmp_path, monkeypatch):
    got = observe(name, tmp_path, monkeypatch)
    want = golden[name]
    assert got["races"] == want["races"]
    assert got["regions"] == want["regions"]
    assert got["racy_regions"] == want["racy_regions"]
    assert got["stats"] == want["stats"]
    assert got["slim_trace_sha256"] == want["slim_trace_sha256"]
    assert got["replay_races"] == want["replay_races"]
    assert got["replay_stats"] == want["replay_stats"]


def test_racy_cells_names_fields_and_elements(golden):
    """The extra workload does reach the field and element namers."""
    locations = {d.split(":")[0] for d in golden["racy_cells"]["races"]}
    assert {"race on Cell.count", "race on [I[0]"} <= locations
    assert any(loc.startswith("race on [LObject;[") for loc in locations)


def test_gc_invalidation_is_exercised(golden, tmp_path, monkeypatch):
    """On a collecting heap the detector drops its address-keyed state at
    every collection, during recording and during replay alike, and the
    slim recording still replays to the full recording's behaviour."""
    factory, config = WORKLOADS["gc_churn"]
    got = observe("gc_churn", tmp_path, monkeypatch)
    assert got["stats"]["gc_invalidations"] > 0
    assert got["replay_stats"]["gc_invalidations"] > 0
    assert got["races"] == golden["gc_churn"]["races"]
    assert got["regions"] == golden["gc_churn"]["regions"]

    full = record(factory(), config=config, **jitter_knobs(SEED))
    slim = record(factory(), config=config, slim=True, **jitter_knobs(SEED))
    assert slim.result.behavior_key() == full.result.behavior_key()
    replayed = replay(factory(), slim.trace, config=config)
    assert replayed.behavior_key() == full.result.behavior_key()
