import csv
import io
import struct
import time
from pathlib import Path

import numpy as np
import pytest

import evc
from evc import (
    CODEC_COMPRESSED,
    EVENT,
    ExperimentConfig,
    StreamHeader,
    build_adus,
    encode_adu,
    load_raw,
    read_compressed,
    read_stream,
    reconstruct_at_boundaries,
    run_pipeline,
    synth_clip,
    write_header,
    write_raw,
    write_stream,
    write_y4m,
)
from evc.cli import main
from evc.fastdet import DEFAULT_THRESHOLD, Detector, detect_at_boundaries
from fastdet_oracle import detect_frame


def test_bench_runs_the_grid_on_worker_processes(tmp_path, monkeypatch):
    monkeypatch.setenv("EVC_THREADS", "2")
    out = tmp_path / "bench"
    assert main(["bench", "--kind", "walk", "--size", "16x16",
                 "--frames", "4", "--out", str(out)]) == 0
    with open(out / "bench.csv", newline="") as fp:
        rows = list(csv.DictReader(fp))
    assert [r["crf"] for r in rows] == ["0", "3", "6", "9"]
    assert "features" not in rows[0]
    assert all(int(r["events"]) > 0 for r in rows)
    assert all((out / f"crf{crf}" / "walk.adderc").is_file()
               for crf in (0, 3, 6, 9))


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


@pytest.mark.parametrize("codec", [1, 2, 3, 5, 7])
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


@pytest.mark.parametrize("verb", ["play", "decompress", "detect"])
def test_oversized_header_fails_fast(tmp_path, capsys, verb):
    # a 65535x65535 header (bytes 6-9) in front of one empty ADU
    hdr = StreamHeader(16, 16, dt_max=7650, source_codec=CODEC_COMPRESSED)
    blob = bytearray(write_header(hdr))
    blob[6:10] = struct.pack("<HH", 65535, 65535)
    empty = encode_adu(build_adus(np.empty(0, EVENT), hdr)[0], hdr)
    stream = tmp_path / "huge.adderc"
    stream.write_bytes(bytes(blob) + struct.pack("<I", len(empty)) + empty)
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main([verb, str(stream), "--out", str(out)]) == 1
    assert time.perf_counter() - start < 2.0
    assert "pixel limit" in capsys.readouterr().err
    assert not out.exists()


def test_compress_then_decompress_gives_back_the_raw_events(tmp_path):
    clip = tmp_path / "clip.y4m"
    write_y4m(clip, synth_clip("walk", 24, 16, 40, seed=7), fps=25.0)
    raw, coded, back = (tmp_path / name
                        for name in ("s.adder", "s.adderc", "back.adder"))
    assert main(["transcode", str(clip), "--crf", "3", "--dt-max", "2550",
                 "--out", str(raw)]) == 0
    assert main(["compress", str(raw), "--out", str(coded)]) == 0
    assert main(["decompress", str(coded), "--out", str(back)]) == 0
    header, events = read_stream(str(raw))
    header_back, decoded = read_stream(str(back))
    assert header_back == header and header.crf == 3
    # the decoder yields each unit pixel by pixel, the transcoder by time
    key = ("y", "x", "t")
    assert np.array_equal(np.sort(decoded, order=key),
                          np.sort(events, order=key))


def test_transcode_writes_the_pipelines_raw_stream(tmp_path):
    clip = tmp_path / "clip.y4m"
    write_y4m(clip, synth_clip("walk", 24, 16, 12, seed=3), fps=25.0)
    out = tmp_path / "clip.adder"
    assert main(["transcode", str(clip), "--crf", "9", "--dt-max", "2550",
                 "--out", str(out)]) == 0
    config = ExperimentConfig(input=str(clip), crf=9, dt_max=2550,
                              out_dir=str(tmp_path / "pipeline"))
    result = run_pipeline(config)
    assert out.read_bytes() == Path(result.paths["raw"]).read_bytes()
    # content adaptation and its flag are gone
    with pytest.raises(SystemExit):
        main(["transcode", str(clip), "--features", "on"])


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
    n_frames = int(events["t"].max()) // header.dt_ref
    frames = reconstruct_at_boundaries(events, header, n_frames)
    assert set(found) <= set(range(n_frames))
    for k, image in enumerate(frames):
        assert found.get(k, set()) == detect_frame(image, DEFAULT_THRESHOLD)
    assert any(found.values())


def test_exact_detect_gives_the_pipelines_feature_counts(tmp_path):
    # `evc detect` and the features-off detect stage share one offline
    # path: the CLI reconstructs the boundary images the pipeline reuses
    config = ExperimentConfig(input="clip.y4m", crf=3, detector_mode="exact",
                              out_dir=str(tmp_path))
    result = run_pipeline(config, frames=synth_clip("moving_box", 32, 24, 10))
    out = tmp_path / "features.csv"
    assert main(["detect", result.paths["raw"], "--mode", "exact",
                 "--out", str(out)]) == 0
    found = {}
    with open(out, newline="") as fp:
        for row in csv.DictReader(fp):
            found.setdefault(int(row["frame"]), set()).add(
                (int(row["x"]), int(row["y"])))
    n_frames = len(result.rows)
    assert [len(found.get(k, ())) for k in range(n_frames)] == [
        row.features for row in result.rows]
    last = load_raw(result.paths["recon_raw"])[-1]
    assert found[n_frames - 1] == detect_frame(last, DEFAULT_THRESHOLD) != set()


@pytest.mark.parametrize("mode", ["paper", "exact"])
def test_detect_csv_is_each_boundarys_sorted_corner_set(tmp_path, capsys,
                                                        mode):
    # the CSV as written when each boundary's corners went out as their
    # sorted (x, y) set, one csv row each: byte for byte, with the summary
    config = ExperimentConfig(input="clip.y4m", crf=3, detector_mode=mode,
                              out_dir=str(tmp_path))
    result = run_pipeline(config, frames=synth_clip("moving_box", 40, 32,
                                                    12, seed=2))
    header, events = read_stream(result.paths["raw"])
    n_frames = int(events["t"].max()) // header.dt_ref
    images = reconstruct_at_boundaries(events, header, n_frames)
    detector = Detector(header, DEFAULT_THRESHOLD, mode)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(("frame", "x", "y"))
    for k, _ in enumerate(detect_at_boundaries(detector, events, images,
                                               header.dt_ref)):
        for x, y in sorted(detector.features):
            writer.writerow((k, x, y))
    out = tmp_path / "features.csv"
    capsys.readouterr()
    assert main(["detect", result.paths["raw"], "--mode", mode,
                 "--out", str(out)]) == 0
    assert out.read_bytes() == want.getvalue().encode()
    assert len(want.getvalue().splitlines()) > n_frames
    ratio = detector.test_count / (header.width * header.height * n_frames)
    assert capsys.readouterr().out == (
        f"{out}: {len(detector.features)} features at the last boundary, "
        f"{detector.test_count} tests (work ratio {ratio:.4f})\n")


@pytest.mark.parametrize("rows", [
    [(1, 2, 5, 600)],
    [(1, 2, 5, 300), (0, 0, 7, 255), (1, 2, 6, 900), (3, 3, 255, 1000)],
], ids=["one", "many"])
def test_play_and_detect_take_streams_of_one_or_many_events(tmp_path, rows):
    stream = tmp_path / "s.adder"
    write_stream(str(stream), StreamHeader(4, 4), np.array(rows, EVENT))
    # up to the frame the last tick falls in: a lone event at tick 600
    # shows on frame 2
    frames = (max(t for *_, t in rows) - 1) // 255 + 1
    play = tmp_path / "s.gray"
    assert main(["play", str(stream), "--out", str(play)]) == 0
    assert play.stat().st_size == frames * 16
    assert main(["detect", str(stream), "--out",
                 str(tmp_path / "f.csv")]) == 0


def test_play_shows_the_frame_of_the_last_tick(tmp_path):
    # a constant clip's last crossings fall inside its last frame, which
    # whole frame intervals alone would drop
    config = ExperimentConfig(input="clip.y4m", crf=3, out_dir=str(tmp_path))
    result = run_pipeline(config, frames=[np.full((2, 2), 100, np.uint8)] * 4)
    play = tmp_path / "s.gray"
    assert main(["play", result.paths["compressed"], "--out", str(play)]) == 0
    assert np.array_equal(load_raw(play), load_raw(result.paths["recon_comp"]))
    assert len(load_raw(play)) == 4


@pytest.mark.parametrize("verb", ["play", "detect"])
def test_play_refuses_a_stream_of_no_events(tmp_path, capsys, verb):
    # detect used to exit 0 and write a one-frame CSV
    stream = tmp_path / "s.adder"
    write_stream(str(stream), StreamHeader(4, 4), np.empty(0, EVENT))
    assert main([verb, str(stream), "--out", str(tmp_path / "out")]) == 1
    assert "stream holds no events" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("row, message", [
    ((1, 2, 200, 300), "decimation out of range: 200"),
    ((1, 2, 5, 0), "out-of-order event for pixel (1, 2): t=0 after t=0"),
    ((4, 2, 5, 300), "event outside image bounds: (4, 2)"),
], ids=["d-200", "tick-0", "x-outside"])
def test_compress_refuses_what_the_replay_refuses(tmp_path, capsys, row,
                                                  message):
    # d = 200 and a first tick of 0 used to compress, with exit 0, to units
    # that play and decompress refused
    stream = tmp_path / "s.adder"
    write_stream(str(stream), StreamHeader(4, 4),
                 np.array([(0, 0, 5, 255), row], EVENT))
    out = tmp_path / "s.adderc"
    assert main(["compress", str(stream), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not out.exists()
    assert main(["play", str(stream), "--out", str(tmp_path / "s.gray")]) == 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("dt_adu", ["0", "-5", str(1 << 32)])
@pytest.mark.parametrize("verb", ["compress", "bench"])
def test_dt_adu_outside_32_bits_is_a_usage_error(tmp_path, capsys, verb,
                                                  dt_adu):
    stream = tmp_path / "s.adder"
    write_stream(str(stream), StreamHeader(4, 4),
                 np.array([(1, 2, 5, 600)], EVENT))
    args = {"compress": [str(stream), "--out", str(tmp_path / "s.adderc")],
            "bench": ["--size", "8x8", "--frames", "2",
                      "--out", str(tmp_path / "bench")]}[verb]
    with pytest.raises(SystemExit) as exit_:
        main([verb, *args, "--dt-adu", dt_adu])
    assert exit_.value.code == 2
    assert "--dt-adu" in capsys.readouterr().err
    assert not any(p.suffix == ".adderc" for p in tmp_path.rglob("*"))
    assert not (tmp_path / "bench").exists()
    # the largest unit length still fits the ADU prefix
    if verb == "compress":
        assert main([verb, *args, "--dt-adu", str((1 << 32) - 1)]) == 0


# each frame rate that cannot make a header, with the error it gives
BAD_FRAME_RATES = {
    "-30": "dt_s does not fit 32 bits",
    "1e12": "dt_s does not fit 32 bits",
    "inf": "frame rate inf is not finite",
    "nan": "frame rate nan is not finite",
    "0": "dt_s must be at least one tick",
    "1e-9": "dt_s must be at least one tick",
}


@pytest.mark.parametrize("fps", list(BAD_FRAME_RATES))
def test_frame_rate_outside_the_header_fails_cleanly(tmp_path, capsys, fps):
    # ticks per second (dt_ref * fps) must be finite and fit the header's
    # 32-bit dt_s, and a second must hold at least one tick
    clip = tmp_path / "clip.gray"
    write_raw(clip, synth_clip("walk", 8, 8, 2))
    out = tmp_path / "clip.adder"
    assert main(["transcode", str(clip), f"--fps={fps}",
                 "--out", str(out)]) == 1
    assert f"error: {BAD_FRAME_RATES[fps]}" in capsys.readouterr().err
    assert not out.exists()


# each frame rate that a .y4m header's F ratio cannot carry, with the
# error it gives; these once wrote F0:1 or F-5:1, which transcode then
# refused, or ended in an OverflowError traceback
UNWRITABLE_FRAME_RATES = {
    "0": "frame rate 0.0 does not round to a positive F ratio",
    "1e-6": "frame rate 1e-06 does not round to a positive F ratio",
    "-5": "frame rate -5.0 does not round to a positive F ratio",
    "inf": "frame rate inf is not finite",
}


@pytest.mark.parametrize("fps", list(UNWRITABLE_FRAME_RATES))
def test_synth_refuses_a_rate_no_header_can_carry(tmp_path, capsys, fps):
    out = tmp_path / "static.y4m"
    assert main(["synth", "static", "--size", "8x8", "--frames", "2",
                 f"--fps={fps}", "--out", str(out)]) == 1
    assert f"error: {UNWRITABLE_FRAME_RATES[fps]}" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_y4m_header_token_fails_cleanly(tmp_path, capsys):
    # a rate token with no colon once ended in an IndexError traceback
    clip = tmp_path / "clip.y4m"
    clip.write_bytes(b"YUV4MPEG2 W8 H8 F30 Cmono\nFRAME\n" + bytes(64))
    out = tmp_path / "clip.adder"
    assert main(["transcode", str(clip), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: bad YUV4MPEG2 header token 'F30'\n")
    assert not out.exists()


@pytest.mark.parametrize("dt_adu", [None, 300])
def test_compress_writes_the_pipelines_compressed_stream(tmp_path, dt_adu):
    config = ExperimentConfig(crf=3, dt_adu=dt_adu, out_dir=str(tmp_path))
    result = run_pipeline(config, frames=synth_clip("walk", 16, 16, 8))
    out = tmp_path / "cli.adderc"
    flags = [] if dt_adu is None else ["--dt-adu", str(dt_adu)]
    assert main(["compress", result.paths["raw"], "--out", str(out),
                 *flags]) == 0
    assert out.read_bytes() == Path(result.paths["compressed"]).read_bytes()


def test_every_exported_name_resolves_once():
    assert len(set(evc.__all__)) == len(evc.__all__)
    missing = [name for name in evc.__all__ if not hasattr(evc, name)]
    assert missing == []
