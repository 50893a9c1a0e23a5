"""The benchmark's output checks accept the reference and reject changes."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from checks import REPORT_HEADER, check_report, check_speed  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def _write_report(path, err_m_scale=1.0, last_err_m=None):
    ref = REFERENCE["sweep"]
    rows = [REPORT_HEADER]
    for k, eps in enumerate(ref["epsilons"]):
        err_m = ref["err_m"][k] * err_m_scale
        if last_err_m is not None and k == len(ref["epsilons"]) - 1:
            err_m = last_err_m
        rows.append(",".join(f"{v:.17g}" for v in (eps, ref["err_p"][k], err_m))
                    + ",nan,nan")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_report_matching_reference_passes(tmp_path):
    assert check_report(_write_report(tmp_path / "report.csv"), REFERENCE["sweep"]) == []


def test_perturbed_report_is_rejected(tmp_path):
    path = _write_report(tmp_path / "report.csv", err_m_scale=1.0 + 1e-4)
    problems = check_report(path, REFERENCE["sweep"])
    assert len(problems) == 4 and all("err_m" in p for p in problems)


def test_exit_zero_garbage_is_rejected(tmp_path):
    # the unstable small-eps case finishes with err_m in the thousands
    for garbage in (1694.0, float("nan")):
        path = _write_report(tmp_path / "report.csv", last_err_m=garbage)
        assert check_report(path, REFERENCE["sweep"]), garbage


def test_short_or_missing_report_is_rejected(tmp_path):
    path = tmp_path / "report.csv"
    path.write_text(REPORT_HEADER + "\n0.3,0.1,0.01,nan,nan\n", encoding="utf-8")
    assert check_report(path, None)
    assert check_report(tmp_path / "absent.csv", None)


def test_speed_check():
    ref = REFERENCE["front"]
    assert check_speed(f"speed {ref['speed']:.10g}\n", ref) == []
    assert check_speed(f"speed {ref['speed'] * 1.001:.10g}\n", ref)
    assert check_speed("speed nan\n", None)
    assert check_speed("nothing printed\n", None)
