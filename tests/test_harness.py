import csv
from pathlib import Path

import numpy as np
import pytest

from evc import (
    CLIP_KINDS,
    CSV_FIELDS,
    ExperimentConfig,
    PipelineError,
    StreamFormatError,
    crf_params,
    ingest_y4m,
    load_frames,
    load_raw,
    read_stream,
    report,
    run_pipeline,
    synth_clip,
    worker_count,
    write_raw,
    write_y4m,
)
from evc import harness
from evc.fastdet import RING
from evc.reconstruct import PSNR_CAP


def small_clip(n=6, w=20, h=14, seed=1):
    return synth_clip("walk", w, h, n, seed=seed)


def test_y4m_roundtrip(tmp_path):
    frames = small_clip()
    path = tmp_path / "clip.y4m"
    write_y4m(path, frames, fps=30.0)
    back, fps = ingest_y4m(path)
    assert fps == 30.0
    assert len(back) == len(frames)
    for a, b in zip(frames, back):
        assert np.array_equal(a, b)


def test_y4m_header_geometry_sets_stream_clock(tmp_path):
    # one second of 640x360 at 30 fps puts 255 * 30 = 7650 ticks on the clock
    path = tmp_path / "wide.y4m"
    frame = bytes(640 * 360)
    with open(path, "wb") as fp:
        fp.write(b"YUV4MPEG2 W640 H360 F30:1 Cmono\n")
        fp.write(b"FRAME\n" + frame)
    frames, fps = ingest_y4m(path)
    assert frames[0].shape == (360, 640)
    assert round(255 * fps) == 7650


def test_y4m_chroma_is_skipped(tmp_path):
    path = tmp_path / "c420.y4m"
    luma = np.arange(12, dtype=np.uint8).reshape(3, 4)
    with open(path, "wb") as fp:
        fp.write(b"YUV4MPEG2 W4 H3 F25:1 C420jpeg\n")
        fp.write(b"FRAME\n" + luma.tobytes() + bytes(2 * 2 * 2))
    frames, fps = ingest_y4m(path)
    assert fps == 25.0
    assert np.array_equal(frames[0], luma)


def test_y4m_truncated_frame_names_index(tmp_path):
    path = tmp_path / "cut.y4m"
    with open(path, "wb") as fp:
        fp.write(b"YUV4MPEG2 W4 H3 F30:1 Cmono\n")
        fp.write(b"FRAME\n" + bytes(12))
        fp.write(b"FRAME\n" + bytes(5))
    with pytest.raises(StreamFormatError, match="frame 1"):
        ingest_y4m(path)


def test_y4m_rejects_bad_magic_and_header(tmp_path):
    path = tmp_path / "bad.y4m"
    path.write_bytes(b"JUNK\n")
    with pytest.raises(StreamFormatError):
        ingest_y4m(path)
    path.write_bytes(b"YUV4MPEG2 W4 H3\n")  # no rate
    with pytest.raises(StreamFormatError):
        ingest_y4m(path)


def test_raw_sidecar_roundtrip(tmp_path):
    frames = small_clip()
    path = tmp_path / "clip.gray"
    write_raw(path, frames)
    assert (tmp_path / "clip.gray.dims").read_text().split() == ["20", "14"]
    back = load_raw(path)
    assert len(back) == len(frames)
    assert all(np.array_equal(a, b) for a, b in zip(frames, back))


def test_raw_without_sidecar_fails(tmp_path):
    path = tmp_path / "clip.gray"
    path.write_bytes(bytes(100))
    with pytest.raises(StreamFormatError, match="sidecar"):
        load_raw(path)


def test_load_frames_dispatches_on_extension(tmp_path):
    frames = small_clip()
    y4m, gray = tmp_path / "a.y4m", tmp_path / "a.gray"
    write_y4m(y4m, frames, fps=24.0)
    write_raw(gray, frames)
    via_y4m, fps = load_frames(y4m)
    via_raw, no_fps = load_frames(gray)
    assert fps == 24.0 and no_fps is None
    assert np.array_equal(via_y4m[3], via_raw[3])


def test_synth_kinds_shapes_and_determinism():
    for kind in CLIP_KINDS:
        a = synth_clip(kind, 24, 16, 5, seed=11)
        b = synth_clip(kind, 24, 16, 5, seed=11)
        assert len(a) == 5
        assert a[0].shape == (16, 24)
        assert a[0].dtype == np.uint8
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_synth_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        synth_clip("static", 0, 16, 5)
    with pytest.raises(ValueError):
        synth_clip("static", 16, 16, 0)
    with pytest.raises(ValueError):
        synth_clip("plasma", 16, 16, 5)


def test_moving_box_events_follow_the_box(tmp_path):
    # events away from refresh boundaries should sit on the box trajectory
    config = ExperimentConfig(crf=3, out_dir=str(tmp_path))
    frames = synth_clip("moving_box", 48, 32, 10, seed=2)
    run_pipeline(config, frames=frames)
    _, events = read_stream(str(Path(tmp_path) / "clip.adder"))
    box = np.zeros((32, 48), bool)
    for frame in frames:
        box |= frame > 0
    hits = np.count_nonzero(box[events["y"], events["x"]])
    assert hits / len(events) > 0.5


def test_pipeline_writes_artifacts_and_csv(tmp_path):
    config = ExperimentConfig(crf=2, out_dir=str(tmp_path))
    result = run_pipeline(config, frames=small_clip())
    for key in ("raw", "compressed", "recon_raw", "recon_comp", "metrics"):
        assert Path(result.paths[key]).exists()
    with open(result.paths["metrics"]) as fp:
        rows = list(csv.reader(fp))
    assert tuple(rows[0]) == CSV_FIELDS
    assert len(rows) - 1 == 6 == len(result.rows)
    assert all(row.raw_bits >= 0 and row.comp_bits >= 0
               for row in result.rows)


def test_pipeline_is_deterministic(tmp_path):
    frames = small_clip(seed=4)
    blobs = []
    for name in ("one", "two"):
        out = tmp_path / name
        config = ExperimentConfig(crf=4, out_dir=str(out))
        result = run_pipeline(config, frames=frames)
        blobs.append([Path(result.paths[k]).read_bytes()
                      for k in sorted(result.paths)])
    assert blobs[0] == blobs[1]


def test_lossless_static_pipeline_caps_after_warmup(tmp_path):
    frames = synth_clip("static", 24, 16, 40, seed=0)
    config = ExperimentConfig(crf=0, dt_max=10 * 255, out_dir=str(tmp_path))
    result = run_pipeline(config, frames=frames)
    warm = result.rows[10:]
    assert all(row.psnr_comp == PSNR_CAP for row in warm)
    assert all(row.psnr_raw == PSNR_CAP for row in warm)
    assert (Path(result.paths["compressed"]).stat().st_size
            < Path(result.paths["raw"]).stat().st_size)


def test_pipeline_errors_carry_stage_labels(tmp_path):
    config = ExperimentConfig(input=str(tmp_path / "missing.y4m"),
                              out_dir=str(tmp_path))
    with pytest.raises(PipelineError, match="ingest") as info:
        run_pipeline(config)
    assert info.value.stage == "ingest"


def test_feature_adaptation_raises_bitrate_and_psnr(tmp_path):
    frames = synth_clip("walk", 32, 24, 30, seed=6)
    runs = {}
    for feat in (False, True):
        out = tmp_path / ("on" if feat else "off")
        config = ExperimentConfig(crf=9, feature_adaptation=feat,
                                  out_dir=str(out))
        result = run_pipeline(config, frames=frames)
        runs[feat] = report(result.rows, 32 * 24)
    assert runs[True]["events"] > runs[False]["events"]
    assert runs[True]["mean_psnr_raw"] > runs[False]["mean_psnr_raw"]


def lattice_clip():
    """A 16x16 field stepping 128 -> 64 -> 128, with dark holes on a
    2-pixel lattice.  Power-of-two values end each run on a frame boundary,
    so no interval marker darkens the detector's image after a run closes,
    and one event can complete several corners at once."""
    frames = []
    for value in (128, 128, 64, 64, 128, 128):
        frame = np.full((16, 16), value, np.uint8)
        frame[4:12:2, 4:12:2] = 0
        frames.append(frame)
    return frames


def feature_loop_log(monkeypatch, mode):
    """Run ``transcode_clip`` with feature adaptation on over the lattice
    clip, recording in order each ``on_event`` call with the corners it
    added and removed, each ``set_sensitivity`` call, and the start of the
    final flush.

    Returns (config, emitted events, log).
    """
    log = []

    class RecordingDetector(harness.Detector):
        def on_event(self, *event):
            # Python ints, never fixed-width numpy scalars that can wrap
            assert [type(v) for v in event] == [int] * 4
            added, removed = super().on_event(*event)
            log.append(("event", event, list(added), list(removed)))
            return added, removed

    class RecordingTranscoder(harness.Transcoder):
        def set_sensitivity(self, x, y, radius, duration=None):
            log.append(("boost", x, y, radius))
            super().set_sensitivity(x, y, radius, duration)

        def flush_all(self):
            log.append(("flush",))
            return super().flush_all()

    monkeypatch.setattr(harness, "Detector", RecordingDetector)
    monkeypatch.setattr(harness, "Transcoder", RecordingTranscoder)
    config = ExperimentConfig(crf=3, feature_adaptation=True,
                              detector_mode=mode)
    frames, header = harness.ingest(config, lattice_clip())
    events, _, _ = harness.transcode_clip(config, header, frames)
    return config, events, log


@pytest.mark.parametrize("mode", ["paper", "exact"])
def test_feature_loop_boosts_each_fresh_corner_once(monkeypatch, mode):
    config, events, log = feature_loop_log(monkeypatch, mode)
    radius = crf_params(config.crf).feature_radius
    # every emitted event reaches the detector once, in emission order,
    # the final flush's included
    assert [entry[1] for entry in log if entry[0] == "event"] == \
        events.tolist()
    # each corner an event freshly adds gets exactly one boost right after
    # that event; nothing else boosts, and the flush's corners boost nothing
    expected = []
    flushed = False
    for entry in log:
        if entry[0] == "flush":
            flushed = True
            expected.append(entry)
        elif entry[0] == "event":
            expected.append(entry)
            if not flushed:
                expected.extend(("boost", x, y, radius)
                                for x, y in entry[2])
    assert log == expected
    assert any(entry[0] == "boost" for entry in log)
    if mode == "exact":
        before_flush = log[:log.index(("flush",))]
        assert any(len(entry[2]) > 1 for entry in before_flush
                   if entry[0] == "event")


def test_persisting_corners_and_unrelated_events_boost_nothing(monkeypatch):
    _, _, log = feature_loop_log(monkeypatch, "exact")
    corners = set()
    persisting = unrelated = 0
    for entry, after in zip(log, log[1:] + [None]):
        if entry[0] != "event":
            continue
        _, (x, y, _, _), added, removed = entry
        if not added:
            retested = {(x + dx, y + dy) for dx, dy in RING}
            retested.add((x, y))
            if (corners & retested) - set(removed):
                persisting += 1
            else:
                unrelated += 1
            assert after is None or after[0] != "boost"
        corners = (corners | set(added)) - set(removed)
    assert persisting > 0 and unrelated > 0


def test_ticks_past_32_bits_fail_the_run(tmp_path):
    # frame 3 ends at tick 3 * 2**31, past the 32-bit timestamp field
    config = ExperimentConfig(crf=0, dt_ref=1 << 31, dt_max=1 << 31,
                              fps=1, out_dir=str(tmp_path))
    frames = [np.full((4, 4), 200, np.uint8)] * 3
    with pytest.raises(PipelineError,
                       match="timestamp exceeds 32-bit range") as err:
        run_pipeline(config, frames=frames)
    assert err.value.stage == "transcode"


def test_report_values(tmp_path):
    config = ExperimentConfig(crf=3, out_dir=str(tmp_path))
    result = run_pipeline(config, frames=small_clip(seed=5))
    summary = report(result.rows, 20 * 14)
    assert summary["frames"] == 6
    assert summary["events"] == sum(r.events for r in result.rows)
    raw = sum(r.raw_bits for r in result.rows)
    comp = sum(r.comp_bits for r in result.rows)
    assert summary["compression_ratio"] == pytest.approx(raw / comp)
    per_pixel = summary["events_per_pixel_frame"]
    assert per_pixel == pytest.approx(summary["events"] / (20 * 14 * 6))
    assert 0.0 <= summary["work_ratio"]


def test_report_rejects_empty():
    with pytest.raises(ValueError):
        report([], 100)


def test_worker_count_env_override(monkeypatch):
    monkeypatch.setenv("EVC_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.delenv("EVC_THREADS")
    assert worker_count() >= 1
