"""Extension bench: the write-pause tail."""

from repro.bench import write_pause


def test_bench_write_pause(benchmark, attach_rows):
    result = benchmark.pedantic(write_pause.run, kwargs={"scale": 0.25},
                                rounds=1, iterations=1)
    attach_rows(benchmark, result)
    rows = {row[0]: row for row in result.rows}
    assert rows["LevelDB-FCAE"][4] < rows["LevelDB"][4]
