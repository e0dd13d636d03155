"""tools/ab.py: the summary of alternating timings of two trees."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("ab", os.path.join(ROOT, "tools", "ab.py"))
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

COMMANDS = [{"workload": "w", "kind": "check", "argv": ["check", "a.json"], "expect_exit": 0},
            {"workload": "w", "kind": "check", "argv": ["check", "b.json"], "expect_exit": 3},
            {"workload": "w", "kind": "moments", "argv": ["moments", "m.json"],
             "expect_exit": 0}]


def side(seconds, exits=(0, 3, 0)):
    return {"seconds": list(seconds), "exits": list(exits)}


def synthetic(rounds, factor):
    """Rounds whose old times drift by a few percent and whose new check
    times are `factor` times the old, the moments time unchanged but one
    round in two a little faster."""
    results = []
    for r in range(rounds):
        drift = 1.0 + 0.01 * (r % 5)
        old = [1.0 * drift, 2.0 * drift, 4.0 * drift]
        new = [old[0] * factor, old[1] * factor, old[2] * (0.999 if r % 2 else 1.001)]
        results.append((side(old), side(new)))
    return results


def test_median_interval_takes_the_binomial_order_statistics():
    # n = 10: [x_(2), x_(9)] covers the median with probability 1 - 22/1024
    assert ab.median_interval(range(10)) == (1, 8)
    assert ab.median_interval(range(20)) == (5, 14)
    assert ab.median_interval([3.0, 1.0, 2.0]) == (1.0, 3.0)  # too few: min and max
    assert ab.median_interval([7.0]) == (7.0, 7.0)


def test_kinds_sum_their_commands_and_the_pass_sums_all():
    times = ab.kind_times(COMMANDS, [1.0, 2.0, 4.0])
    assert times == {("w", "check"): 3.0, ("w", "moments"): 4.0, ("w", "pass"): 7.0}
    assert list(times)[-1] == ("w", "pass")


def test_summary_of_a_uniform_gain():
    rows = ab.summarize(COMMANDS, synthetic(10, 0.9))
    by_kind = {row[1]: row for row in rows}
    _, _, ratio, wins, n, (lo, hi), old, new = by_kind["check"]
    assert ratio == pytest.approx(0.9) and (wins, n) == (10, 10)
    assert lo == pytest.approx(0.9) and hi == pytest.approx(0.9)
    assert old == pytest.approx(3.0 * 1.02) and new == pytest.approx(0.9 * 3.0 * 1.02)
    # an unchanged kind wins half the rounds, its interval straddling 1
    _, _, ratio, wins, n, (lo, hi), _, _ = by_kind["moments"]
    assert ratio == pytest.approx(1.0) and wins == 5 and lo < 1.0 < hi
    assert [row[1] for row in rows] == ["check", "moments", "pass"]


def test_formatted_rows():
    lines = ab.format_rows(ab.summarize(COMMANDS, synthetic(4, 0.5)))
    assert lines[0].split() == ["workload", "kind", "ratio", "wins", "interval",
                                "revision", "ms", "tree", "ms"]
    assert lines[1].split() == ["w", "check", "0.500", "4/4", "[0.500,", "0.500]",
                                "3045.000", "1522.500"]


def test_wrong_exit_codes_are_named():
    results = synthetic(2, 1.0)
    assert ab.wrong_exits(COMMANDS, results) == []
    results[1] = (results[1][0], side([1.0, 2.0, 4.0], exits=(0, 0, 0)))
    assert ab.wrong_exits(COMMANDS, results) == ["w check b.json: exits ['0', '3'], expected 3"]


def test_the_working_tree_against_itself(tmp_path):
    commands = ab.build_commands(["applications"], 5, "smoke", str(tmp_path))
    src = os.path.join(ROOT, "src")
    results = ab.run_rounds(src, src, commands, rounds=2, reps=1, workdir=str(tmp_path))
    assert len(results) == 2 and ab.wrong_exits(commands, results) == []
    rows = ab.summarize(commands, results)
    assert {row[1] for row in rows} >= {"check", "moments", "signal", "slowdemo", "pass"}
    assert all(row[2] > 0 and row[4] == 2 for row in rows)


def test_kinds_keep_only_their_commands(tmp_path):
    commands = ab.build_commands(["applications"], 5, "smoke", str(tmp_path),
                                 kinds=["moments", "reject"])
    assert {cmd["kind"] for cmd in commands} == {"moments", "reject"}
    every = ab.build_commands(["applications"], 5, "smoke", str(tmp_path))
    assert commands == [cmd for cmd in every if cmd["kind"] in ("moments", "reject")]
    # the pass row sums only the kept commands
    times = ab.kind_times(commands, [1.0] * len(commands))
    assert times[("applications", "pass")] == len(commands) < len(every)


def test_unknown_kinds_are_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        ab.main(["HEAD", "--kinds", "moments", "moment"])
    assert exc.value.code == 2
    assert "unknown kinds moment; the kinds are check, " in capsys.readouterr().err
