import csv

import pytest

from evc import ExperimentConfig, run_pipeline, synth_clip
from evc.cli import main


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


@pytest.mark.parametrize("codec", [1, 7])
@pytest.mark.parametrize("verb", ["play", "decompress", "detect"])
def test_unknown_codec_id_fails_cleanly(tmp_path, capsys, codec, verb):
    config = ExperimentConfig(input="clip.y4m", crf=3, out_dir=str(tmp_path))
    result = run_pipeline(config, frames=synth_clip("walk", 16, 16, 4))
    blob = bytearray(open(result.paths["compressed"], "rb").read())
    # byte 12 of the header is the source codec id
    blob[12] = codec
    stream = tmp_path / "old.adderc"
    stream.write_bytes(bytes(blob))
    out = tmp_path / "out"
    assert main([verb, str(stream), "--out", str(out)]) == 1
    assert f"unsupported source codec {codec}" in capsys.readouterr().err
    assert not out.exists()
