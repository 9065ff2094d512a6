import importlib.util
from pathlib import Path

import pytest

AB_BENCH = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_ab_bench_refuses_fewer_than_two_pairs_before_running(
        tmp_path, monkeypatch, capsys, pairs):
    # one pair used to run every benchmark pass, then crash in compare,
    # whose quartiles need two points
    spec = importlib.util.spec_from_file_location("ab_bench", AB_BENCH)
    ab_bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_bench)
    monkeypatch.setattr(ab_bench, "run_once", lambda *args: pytest.fail(
        "a benchmark pass ran"))
    with pytest.raises(SystemExit) as info:
        ab_bench.main([str(tmp_path), str(tmp_path), "--pairs", pairs])
    assert info.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
