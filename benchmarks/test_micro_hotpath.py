"""Gated hot-path microbenchmarks: the overhaul's speedup floors.

Runs :mod:`repro.bench.hotpath` once and asserts each gated row's p50
against the committed *seed* (pre-optimization) baseline in
``benchmarks/baselines/BENCH_hotpath.json``:

* ``block_decode`` — >= 3x faster than seed (bulk zero-copy decode)

Later baselines, each measured with the rows as they are now.  Two are
the commit before internal keys got a native sort key (neither row
existed before it; 627,835 / 457 us against 102,426 / 40 us after):

* ``memtable_add`` — >= 3x faster than that parent (measured 6.1x:
  the skiplist descends on native tuple compares, no callback)
* ``bloom_build_190`` — >= 5x faster than that parent (measured 11x:
  the numpy leg of ``create_filter``)

``sstable_build`` and ``cpu_merge_4way`` are re-recorded from a run of
the commit before table writing became cut -> encode -> lay out:
5,061 / 19,422 us.  No floor: the rows write without compression, so
they time the cutter and the layout, not the encoder (``sstable_build``
/ ``cpu_merge_4way`` measured 1.00x / 1.05x over 8 alternating pairs),
and the no-slower rule below holds them.  The
``encode_blocks_120*`` rows are the median of five runs of that change.
``block_seek`` is the change that made block searches compare native
sort keys (448 / 482 us at its parent, 246 / 243 us after, run
alternately); the seed's 1,033 us predates both.

The two CRC rows are another: they checksum 64 *distinct*
payloads per sample (the seed's row looped over one, which kept a 4 MiB
table hot and read 19 us where a running store paid 41), so their
baseline is the commit before the two-level kernel, measured with the
rows as they are now — 2,626.6 us (41 us a block) at 4 KiB and
1,254.5 us (19.6 us) at 2 KiB, against 941.8 and 733.4 us after:

* ``crc32c_4k`` — >= 2x faster than that parent (measured 2.8x)
* ``crc32c_2k`` — >= 1.3x faster than that parent (measured 1.7x)

``encode_blocks_120`` is gated *within the same run* against
``encode_blocks_120_host``: the block encoder with its helper process
must compress 120 blocks >= 1.1x faster than this thread alone (with
two or more CPUs; with fewer the encoder starts no helper).

``snappy_compress_4k`` is gated the same way against
``snappy_compress_4k_scalar``: the numpy leg of the block compressor
must stay >= 2x the scalar loop it is checked against.

Every other row only has to be *no slower* than seed (within noise).
The baseline file is the contract: re-baselining means deliberately
committing new numbers, not silently absorbing a regression.

These tests live in ``benchmarks/`` (excluded from the tier-1
``pytest`` run) because wall-clock gates belong in the perf-smoke lane,
not the functional one.  ``REPRO_HOTPATH_REPEAT``/``_WARMUP`` shrink
them for CI quick mode.
"""

import json
import pathlib

import pytest

from repro.bench import hotpath

BASELINE = (pathlib.Path(__file__).parent / "baselines"
            / "BENCH_hotpath.json")

#: bench name -> minimum speedup over the baseline p50 (the seed's, but
#: for the CRC, memtable and bloom rows a later parent: see above).
SPEEDUP_FLOORS = {
    "crc32c_4k": 2.0,
    "crc32c_2k": 1.3,
    "block_decode": 3.0,
    "memtable_add": 3.0,
    "bloom_build_190": 5.0,
}
#: Ungated rows may be up to this much slower than seed before failing
#: (wall-clock noise allowance on a shared CI box).
NOISE_REL_TOL = 0.35

#: Same-run floor: `snappy.compress`'s numpy leg vs its scalar leg on one
#: 4 KiB half-compressible data block.  Measured 2.7-2.9x; the block
#: compressor is the top row of the e2e write budget, so it is gated.
SNAPPY_BULK_MIN_SPEEDUP = 2.0

#: Same-run floor: 120 e2e-shaped 4 KiB blocks through the block encoder
#: (this thread + the helper process) vs this thread alone.  Measured
#: 1.08-1.58x (median 1.37x) over twelve quick-mode runs and 1.13-1.51x
#: (median 1.39x) over five default ones, on a 2-vCPU VM shared with
#: other tenants: how much the second CPU gives varies from run to run,
#: and back-to-back builds with nothing else for this thread to do leave
#: it waiting for the helper's last chunk.
ENCODE_HELPER_MIN_SPEEDUP = 1.1

#: Enabled windows + journal may not slow the put/get loop by more than
#: this factor.
OBS_ENABLED_MAX_SLOWDOWN = 1.6


@pytest.fixture(scope="module")
def measured():
    doc = json.loads(BASELINE.read_text())
    assert doc["scale"] == 1.0, "baseline recorded at scale 1.0"
    base_exp = doc["experiments"]["hotpath"]
    p50_col = base_exp["columns"].index("p50_us")
    base = {row[0]: row[p50_col] for row in base_exp["rows"]}

    result = hotpath.run(scale=1.0)
    run_p50 = result.columns.index("p50_us")
    run = {row[0]: row[run_p50] for row in result.rows}
    return base, run


def test_baseline_covers_all_benches(measured):
    base, run = measured
    assert set(base) == set(run), (
        "bench set drifted from the committed baseline; re-baseline "
        "with: PYTHONPATH=src python -m repro.bench hotpath "
        "--bench-json benchmarks/baselines/BENCH_hotpath.json")


@pytest.mark.parametrize("bench,floor", sorted(SPEEDUP_FLOORS.items()))
def test_speedup_floor(measured, bench, floor):
    from repro.lsm import filter as bloom

    if bench == "bloom_build_190" and bloom._np is None:
        pytest.skip("numpy absent: create_filter is the scalar loop")
    base, run = measured
    speedup = base[bench] / run[bench]
    assert speedup >= floor, (
        f"{bench}: {speedup:.2f}x over seed ({base[bench]}us -> "
        f"{run[bench]}us), floor is {floor}x")


def test_snappy_numpy_leg_beats_scalar_leg(measured):
    from repro.compress import snappy

    if snappy._np is None:
        pytest.skip("numpy absent: snappy_compress_4k is the scalar leg")
    _, run = measured
    ratio = run["snappy_compress_4k_scalar"] / run["snappy_compress_4k"]
    assert ratio >= SNAPPY_BULK_MIN_SPEEDUP, (
        f"snappy_compress_4k only {ratio:.2f}x faster than its scalar leg "
        f"({run['snappy_compress_4k_scalar']}us vs "
        f"{run['snappy_compress_4k']}us), floor is "
        f"{SNAPPY_BULK_MIN_SPEEDUP}x")


def test_encode_helper_beats_this_thread_alone(measured):
    from repro.compress import encoder

    if encoder._cpus() < 2:
        pytest.skip("one CPU: the block encoder starts no helper")
    _, run = measured
    ratio = run["encode_blocks_120_host"] / run["encode_blocks_120"]
    assert ratio >= ENCODE_HELPER_MIN_SPEEDUP, (
        f"encode_blocks_120 only {ratio:.2f}x faster than this thread "
        f"alone ({run['encode_blocks_120_host']}us vs "
        f"{run['encode_blocks_120']}us), floor is "
        f"{ENCODE_HELPER_MIN_SPEEDUP}x")


def test_obs_enabled_cost_bounded(measured):
    _, run = measured
    slowdown = run["obs_put_get_on"] / run["obs_put_get_off"]
    assert slowdown <= OBS_ENABLED_MAX_SLOWDOWN, (
        f"windows+journal slow the put/get loop {slowdown:.2f}x "
        f"(bound {OBS_ENABLED_MAX_SLOWDOWN}x)")


def test_no_bench_slower_than_seed(measured):
    base, run = measured
    slower = {
        bench: (base[bench], run[bench])
        for bench in base
        if run[bench] > base[bench] * (1 + NOISE_REL_TOL)
    }
    assert not slower, f"rows regressed below seed performance: {slower}"
