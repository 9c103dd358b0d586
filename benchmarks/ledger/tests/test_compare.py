"""``run.py compare``: rows, verdicts and the reasons to exit non-zero."""

import json

import compare

SPEC = {
    "workloads": [{"name": "w1", "why": ""}, {"name": "w2", "why": ""}],
    "end_to_end": [
        {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.05},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.05},
    ],
    "per_layer": [
        {"name": "ledger.modeled_ms", "unit": "ms", "better": "lower"},
        {"name": "runtime.barriers", "unit": "count", "better": "lower"},
        {"name": "kernels.total_s", "unit": "s", "better": "lower"},
    ],
}


def run(workload, seed, trace, metrics, failed=0):
    return {
        "workload": workload, "seed": seed, "seconds": 16.0, "trace": trace,
        "attempted": 40, "failed": failed,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
    }


def end_to_end(scale=1.0, failed=0):
    return [
        run(w, seed, 0, {"latency_p50_s": scale * (1.0 + 0.001 * seed),
                          "ops_per_s": (1.0 + 0.001 * seed) / scale}, failed)
        for w in ("w1", "w2") for seed in range(5)
    ]


def traced(modeled=12.5, barriers=80.0, kernels=0.2):
    return [run("w1", 0, 1, {"ledger.modeled_ms": modeled, "runtime.barriers": barriers,
                             "kernels.total_s": kernels})]


def test_same_code_twice_is_all_ok():
    rows, problems = compare.compare_runs(end_to_end() + traced(), end_to_end(1.01) + traced(), SPEC)
    assert problems == []
    assert sum(row.endswith(" ok") for row in rows) == 4
    assert any("1 traced run pair" in row for row in rows)


def test_a_slowdown_beyond_the_bound_is_worse_on_both_metrics():
    rows, problems = compare.compare_runs(end_to_end(), end_to_end(1.10), SPEC)
    assert sum(row.endswith(" worse") for row in rows) == 4
    assert "w1 latency_p50_s is worse" in problems and "w2 ops_per_s is worse" in problems


def test_a_higher_failed_share_is_a_problem_even_when_times_agree():
    _rows, problems = compare.compare_runs(end_to_end(), end_to_end(failed=1), SPEC)
    assert any("failed share rose" in p for p in problems)


def test_counts_and_modeled_time_must_repeat_exactly_but_times_need_not():
    _rows, problems = compare.compare_runs(traced(), traced(kernels=0.3), SPEC)
    assert problems == []
    _rows, problems = compare.compare_runs(traced(), traced(modeled=12.5000001, barriers=81.0), SPEC)
    assert len(problems) == 2 and all("differs" in p for p in problems)


def test_main_exit_status(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    a.write_text(json.dumps({"runs": end_to_end()}))
    b.write_text(json.dumps({"runs": end_to_end(1.01)}))
    c.write_text(json.dumps({"runs": end_to_end(1.2)}))
    assert compare.main([str(a), str(b)], SPEC) == 0
    assert compare.main([str(a), str(c)], SPEC) == 1
    assert "PROBLEM" in capsys.readouterr().out
    assert compare.main([str(a)], SPEC) == 2
