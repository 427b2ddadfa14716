"""Golden pin for the device model: engine output bytes and timing.

Every number here was produced by the per-pair engine and timer this
pin was generated with; a later engine must reproduce them exactly — the
output images (sha256), every ``TimingReport`` field, three
``simulate_synthetic`` points and every ``SystemResult`` number of a
1 GB ``simulate_fillrandom`` in both modes.  A mismatch is a changed
model, never a reason to regenerate.

Regenerate (only for a deliberate model change, and say so)::

    PYTHONPATH=src:. python tests/test_device_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random

import pytest

from repro.fpga.config import (
    CONFIG_2_INPUT,
    CONFIG_9_INPUT,
    FpgaConfig,
    PipelineVariant,
)
from repro.fpga.engine import CompactionEngine, simulate_synthetic
from repro.lsm.internal import (
    InternalKeyComparator,
    TYPE_DELETION,
    TYPE_VALUE,
    encode_internal_key,
)
from repro.lsm.options import Options
from repro.sim.system import SystemConfig, simulate_fillrandom

from tests.conftest import build_table_image
from tests.test_pipeline_fastpath import REPORT_FIELDS

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "device_timing.json")

#: KV-FIFO depth per variant (and shifted by one for N = 9), so the
#: matrix also crosses backpressure settings.
DEPTHS = (1, 2, 4, 16)
#: Value sizes drawn per pair; 700 exceeds the 512-byte block size.
VALUE_SIZES = (0, 8, 40, 120, 700)


def _cases():
    for vi, variant in enumerate(PipelineVariant):
        for n in (2, 9):
            for compression in ("none", "snappy"):
                for drop in (False, True):
                    yield (f"{variant.value}-n{n}-{compression}-"
                           f"{'drop' if drop else 'keep'}",
                           vi, variant, n, compression, drop)


def _inputs(seed: int, n: int) -> list[list[list[tuple[bytes, bytes]]]]:
    """``n`` sorted runs over one key space, as lists of tables.

    Runs share user keys (older versions are shadowed), carry tombstones
    and some values larger than a block; input 0 spans three tables,
    inputs 0 and 1 hold one identical internal key with different
    values (the tie goes to the lower input), and with ``n`` = 9 input 4
    is empty."""
    rng = random.Random(seed)
    pairs = 120 if n == 2 else 40
    tied = b"%08d" % 300
    runs = []
    for i in range(n):
        if n == 9 and i == 4:
            runs.append([])
            continue
        users = set(rng.sample(range(600), pairs))
        if i < 2:
            users.add(300)
        run = []
        for user in sorted(users):
            key = b"%08d" % user
            if key == tied and i < 2:
                run.append((encode_internal_key(key, 5, TYPE_VALUE),
                            b"tie-from-input-%d" % i))
                continue
            sequence = (n - i) * 1000 + user
            if rng.random() < 0.1:
                run.append((encode_internal_key(key, sequence,
                                                TYPE_DELETION), b""))
            else:
                size = rng.choice(VALUE_SIZES)
                run.append((encode_internal_key(key, sequence, TYPE_VALUE),
                            (b"%d:" % user * 200)[:size]))
        cuts = [0, len(run) // 3, 2 * len(run) // 3, len(run)] if i == 0 \
            else [0, len(run)]
        runs.append([run[a:b] for a, b in zip(cuts, cuts[1:])])
    return runs


def _report(report) -> dict:
    return {name: getattr(report, name) for name in REPORT_FIELDS}


def _engine_case(vi, variant, n, compression, drop) -> dict:
    base = CONFIG_2_INPUT if n == 2 else CONFIG_9_INPUT
    config = dataclasses.replace(
        base, variant=variant, kv_fifo_depth=DEPTHS[(vi + (n == 9)) % 4])
    options = Options(block_size=512, sstable_size=4096,
                      compression=compression)
    icmp = InternalKeyComparator(options.comparator)
    images = [[build_table_image(table, options, icmp) for table in tables]
              for tables in _inputs(1000 * vi + n, n)]
    engine = CompactionEngine(config, options, check_resources=False)
    result = engine.run_on_images(images, drop_deletions=drop)
    digest = hashlib.sha256()
    for output in result.outputs:
        digest.update(len(output.data).to_bytes(8, "little"))
        digest.update(output.data)
    return {"outputs": len(result.outputs), "sha256": digest.hexdigest(),
            "timing": _report(result.timing)}


SYNTHETIC = (
    ("n2-v64", CONFIG_2_INPUT, [1500, 1200], 16, 64, 0.0),
    ("n9-v512-drop", CONFIG_9_INPUT, [200] * 9, 16, 512, 0.1),
    ("basic-v2048", FpgaConfig(variant=PipelineVariant.BASIC,
                               kv_fifo_depth=4), [150, 300], 24, 2048, 0.05),
)


def _system(mode: str) -> dict:
    result = simulate_fillrandom(SystemConfig(
        mode=mode, options=Options(value_length=512),
        data_size_bytes=1 << 30))
    numbers = dataclasses.asdict(result)
    numbers["throughput_mbps"] = result.throughput_mbps
    numbers["pcie_fraction"] = result.pcie_fraction
    return numbers


def generate() -> dict:
    return {
        "engine": {name: _engine_case(*spec) for name, *spec in _cases()},
        "synthetic": {
            name: _report(simulate_synthetic(config, pairs, key, value,
                                             drop_fraction=drop))
            for name, config, pairs, key, value, drop in SYNTHETIC},
        "system": {mode: _system(mode) for mode in ("leveldb", "fcae")},
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("case", list(_cases()), ids=lambda c: c[0])
def test_engine_case(golden, case):
    name, *spec = case
    assert _engine_case(*spec) == golden["engine"][name]


@pytest.mark.parametrize("point", SYNTHETIC, ids=lambda p: p[0])
def test_synthetic_point(golden, point):
    name, config, pairs, key, value, drop = point
    report = simulate_synthetic(config, pairs, key, value,
                                drop_fraction=drop)
    assert _report(report) == golden["synthetic"][name]


@pytest.mark.parametrize("mode", ["leveldb", "fcae"])
def test_fillrandom_1gb(golden, mode):
    assert _system(mode) == golden["system"][mode]


if __name__ == "__main__":
    with open(GOLDEN, "w") as f:
        json.dump(generate(), f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN}")
