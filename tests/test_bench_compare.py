import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_compare.py"
spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)


def _doc(rev, runs):
    """A BENCH file holding untraced fine_fit runs at seed 13 plus one
    traced run, which the comparison must ignore."""
    out = [{"workload": "fine_fit", "seed": 13, "trace": 0,
            "result": {"metrics": {k: {"value": v, "unit": "s"} for k, v in m.items()}}}
           for m in runs]
    out.append({"workload": "fine_fit", "seed": 13, "trace": 1,
                "result": {"metrics": {"query_s": {"value": 1e9, "unit": "s"}}}})
    return {"revision": rev, "runs": out}


PARENT = _doc("a" * 40, [{"query_s": 1.0 + 0.01 * k, "fit_s": 2.0 + 0.1 * k}
                         for k in range(10)])
# query_s: better in all 10 pairs, by far more than the parent's IQR;
# fit_s: better in 8 pairs only
CHANGE = _doc("b" * 40, [{"query_s": 0.5 + 0.01 * k,
                          "fit_s": 2.0 + 0.1 * k + (-0.05 if k < 8 else 0.05)}
                         for k in range(10)])
METRICS = [{"name": "fit_s", "better": "lower", "bound": 0.01},
           {"name": "query_s", "better": "lower", "bound": 0.24}]


def test_rule_needs_nine_in_ten_wins_and_a_gap_beyond_the_iqr():
    rows = {r["metric"]: r for r in bench_compare.compare(PARENT, CHANGE, METRICS)}
    q = rows["query_s"]
    assert (q["pairs"], q["wins"], q["gain"], q["worse"]) == (10, 10, True, False)
    assert q["parent"] == pytest.approx(1.045)
    assert (q["q1"], q["q3"]) == pytest.approx((1.0225, 1.0675))
    assert q["rel"] == pytest.approx(-0.5 / 1.045)
    f = rows["fit_s"]
    assert (f["wins"], f["gain"], f["worse"]) == (8, False, False)
    assert f["change"] == pytest.approx(2.4)


def test_gap_inside_the_iqr_is_no_gain_and_the_bound_marks_worse():
    other = _doc("c" * 40, [{"query_s": 1.0 + 0.01 * k - 0.005, "fit_s": 2.1 + 0.1 * k}
                            for k in range(10)])
    rows = {r["metric"]: r for r in bench_compare.compare(PARENT, other, METRICS)}
    assert rows["query_s"]["wins"] == 10 and not rows["query_s"]["gain"]
    assert not rows["query_s"]["worse"]
    # 2.55 against 2.45 is 4% worse, beyond the 1% bound
    assert rows["fit_s"]["wins"] == 0 and rows["fit_s"]["worse"]


def test_main_prints_one_row_per_metric(tmp_path, capsys):
    a, b = tmp_path / "A.json", tmp_path / "B.json"
    a.write_text(json.dumps(PARENT))
    b.write_text(json.dumps(CHANGE))
    assert bench_compare.main([str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    query = [ln for ln in lines if "query_s" in ln]
    assert len(query) == 1 and "10/10" in query[0] and "holds" in query[0]
    assert "no" in [ln for ln in lines if "fit_s" in ln][0].split()


def test_main_rejects_files_without_common_runs(tmp_path):
    a, b = tmp_path / "A.json", tmp_path / "B.json"
    a.write_text(json.dumps(PARENT))
    b.write_text(json.dumps({"revision": "d" * 40, "runs": []}))
    assert bench_compare.main([str(a), str(b)]) == 2
    assert bench_compare.main([str(a), str(tmp_path / "missing.json")]) == 2
