import csv
from pathlib import Path

import pytest

from evc import (
    ExperimentConfig,
    detect_frame,
    read_compressed,
    read_stream,
    reconstruct_at_boundaries,
    run_pipeline,
    synth_clip,
    write_y4m,
)
from evc.cli import main
from evc.fastdet import DEFAULT_THRESHOLD


def test_bench_runs_the_grid_on_worker_processes(tmp_path, monkeypatch):
    monkeypatch.setenv("EVC_THREADS", "2")
    out = tmp_path / "bench"
    assert main(["bench", "--kind", "walk", "--size", "16x16",
                 "--frames", "4", "--out", str(out)]) == 0
    with open(out / "bench.csv", newline="") as fp:
        rows = list(csv.DictReader(fp))
    assert [(r["crf"], r["features"]) for r in rows] == [
        (str(crf), feat) for crf in (0, 3, 6, 9) for feat in ("off", "on")]
    assert all(int(r["events"]) > 0 for r in rows)
    assert (out / "crf0-feat-off" / "walk.adderc").is_file()


def pipeline_stream(tmp_path, pos=None, value=None):
    """A pipeline run's compressed stream, with header byte ``pos`` set to
    ``value`` when given; returns (result, path)."""
    config = ExperimentConfig(input="clip.y4m", crf=3, out_dir=str(tmp_path))
    result = run_pipeline(config, frames=synth_clip("walk", 16, 16, 4))
    blob = bytearray(Path(result.paths["compressed"]).read_bytes())
    if pos is not None:
        blob[pos] = value
    stream = tmp_path / "patched.adderc"
    stream.write_bytes(bytes(blob))
    return result, stream


@pytest.mark.parametrize("codec", [1, 7])
@pytest.mark.parametrize("verb", ["play", "decompress", "detect"])
def test_unknown_codec_id_fails_cleanly(tmp_path, capsys, codec, verb):
    # byte 12 of the header is the source codec id
    _, stream = pipeline_stream(tmp_path, 12, codec)
    out = tmp_path / "out"
    assert main([verb, str(stream), "--out", str(out)]) == 1
    assert f"unsupported source codec {codec}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["play", "decompress", "detect"])
def test_three_channel_stream_fails_cleanly(tmp_path, capsys, verb):
    # byte 10 of the header is the channel count
    _, stream = pipeline_stream(tmp_path, 10, 3)
    out = tmp_path / "out"
    assert main([verb, str(stream), "--out", str(out)]) == 1
    assert "only mono streams are supported" in capsys.readouterr().err
    assert not out.exists()


def test_transcode_writes_the_pipelines_raw_stream(tmp_path):
    clip = tmp_path / "clip.y4m"
    write_y4m(clip, synth_clip("walk", 24, 16, 12, seed=3), fps=25.0)
    streams = {}
    for features, mode in (("off", "paper"), ("on", "exact")):
        out = tmp_path / f"{features}.adder"
        assert main(["transcode", str(clip), "--crf", "9", "--features",
                     features, "--mode", mode, "--dt-max", "2550",
                     "--out", str(out)]) == 0
        config = ExperimentConfig(
            input=str(clip), crf=9, feature_adaptation=features == "on",
            dt_max=2550, detector_mode=mode, out_dir=str(tmp_path / features))
        result = run_pipeline(config)
        streams[features] = out.read_bytes()
        assert streams[features] == Path(result.paths["raw"]).read_bytes()
    # the detector steered the transcoder
    assert streams["on"] != streams["off"]


@pytest.mark.parametrize("kind", ["raw", "compressed"])
def test_exact_detect_rows_match_a_full_frame_scan(tmp_path, kind):
    result, _ = pipeline_stream(tmp_path)
    out = tmp_path / "features.csv"
    assert main(["detect", result.paths[kind], "--mode", "exact",
                 "--out", str(out)]) == 0
    found = {}
    with open(out, newline="") as fp:
        for row in csv.DictReader(fp):
            found.setdefault(int(row["frame"]), set()).add(
                (int(row["x"]), int(row["y"])))
    if kind == "raw":
        header, events = read_stream(result.paths[kind])
    else:
        with open(result.paths[kind], "rb") as fp:
            header, events = read_compressed(fp)
    n_frames = max(e.t for e in events) // header.dt_ref
    frames = reconstruct_at_boundaries(events, header, n_frames)
    assert set(found) <= set(range(n_frames))
    for k, image in enumerate(frames):
        assert found.get(k, set()) == detect_frame(image, DEFAULT_THRESHOLD)
    assert any(found.values())
