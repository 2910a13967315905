"""Self-time subtraction and call-site instrumentation."""
import pytest

from spans import Tracer, group_totals, instrument, layer_of, self_durations


def columns(spans):
    """Span log from ``(name, start, end, parent, iteration)`` tuples."""
    return {"name": [s[0] for s in spans], "start": [s[1] for s in spans],
            "end": [s[2] for s in spans], "parent": [s[3] for s in spans],
            "iteration": [s[4] for s in spans],
            "value": [0.0 for _ in spans]}


def test_self_time_subtracts_nested_children():
    #   root [0, 10]
    #     a  [1, 4]
    #       b [2, 3]
    #     c  [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_durations(starts, ends, parents) == pytest.approx(
        [3.0, 2.0, 1.0, 4.0])


def test_overlapping_children_are_counted_once_and_clipped():
    # Two threads' children overlap inside the root; one runs past it.
    starts = [0.0, 1.0, 2.0, 8.0]
    ends = [10.0, 5.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    own = self_durations(starts, ends, parents)
    # Covered: [1, 6] and [8, 10] -> 7 of 10 seconds.
    assert own[0] == pytest.approx(3.0)


def test_group_totals_count_entries_from_outside_the_layer():
    log = columns([
        ("bench.sweep", 0.0, 10.0, -1, 1),
        ("workloads.JpegWorkload.run", 1.0, 9.0, 0, 1),
        ("fxp.drop_lsbs", 2.0, 4.0, 1, 1),
        ("fxp.wrap_to_width", 2.5, 3.0, 2, 1),   # fxp calling fxp
        ("core.backends.lut", 5.0, 8.0, 1, 1),
        ("core.backends.build", 6.0, 7.0, 4, 1),
        ("bench.sweep", 20.0, 21.0, -1, 2),
    ])
    totals = group_totals(log, layer_of)
    first = totals[1]
    assert first["fxp"].calls == 1
    assert first["fxp"].busy_s == pytest.approx(2.0)
    assert first["fxp"].self_s == pytest.approx(2.0)
    assert first["core.backends"].self_s == pytest.approx(2.0)
    assert first["core.backends.build"].busy_s == pytest.approx(1.0)
    assert first["workloads"].self_s == pytest.approx(3.0)
    assert first["bench"].self_s == pytest.approx(2.0)
    assert totals[2]["bench"].busy_s == pytest.approx(1.0)
    assert layer_of("hardware.characterize") == "hardware"
    assert layer_of("bench.front") == "bench"


def test_tracer_nests_spans_per_thread():
    tracer = Tracer()
    ident = tracer.new_iteration()
    with tracer.span("bench.outer"):
        with tracer.span("fxp.inner"):
            pass
    log = tracer.columns()
    assert log["name"] == ["bench.outer", "fxp.inner"]
    assert log["parent"] == [-1, 0]
    assert log["iteration"] == [ident, ident]
    assert log["end"][1] <= log["end"][0]


def test_instrumentation_patches_call_sites_and_restores_them():
    import repro.apps.images as images
    import repro.workloads.jpeg as jpeg_workload
    from repro.core.backends import DirectBackend

    original = images.synthetic_image
    original_execute = DirectBackend.__dict__["execute"]
    tracer = Tracer()
    with instrument(tracer):
        # The workload's own binding is wrapped, not only the defining one.
        assert jpeg_workload.synthetic_image is not original
        assert images.synthetic_image is jpeg_workload.synthetic_image
        assert DirectBackend.__dict__["execute"] is not original_execute
        image = jpeg_workload.synthetic_image(32, seed=5)
    assert jpeg_workload.synthetic_image is original
    assert images.synthetic_image is original
    assert DirectBackend.__dict__["execute"] is original_execute
    assert image.shape == (32, 32)
    log = tracer.columns()
    assert log["name"] == ["apps.images.synthetic_image"]
    assert log["value"][0] != 0.0
