"""Each correctness check accepts a right output and rejects a wrong one."""

import checks


def rows(n=4, **override):
    out = []
    for k in range(n):
        row = {
            "window": str(k),
            "phase": "static",
            "speed": "12",
            "height": "14",
            "info_msgs": "79",
            "info_rounds": "3",
            "grad_msgs": "5",
            "grad_rounds": "3",
            "max_info_per_pair_step": "4",
            "max_info_per_step": "16",
        }
        row.update(override)
        out.append(row)
    return out


def test_run_rows():
    assert checks.run_rows(rows(4), 4) == []
    assert checks.run_rows(rows(3), 4)
    shuffled = rows(4)
    shuffled[1]["window"] = "2"
    assert checks.run_rows(shuffled, 4)


def test_mass_balance():
    assert checks.mass_balance(10.0, 7.5, 2.5) == []
    assert checks.mass_balance(10.0, 7.5, 2.4)
    assert checks.mass_balance(0.0, 0.0, 0.0)


def test_message_bounds():
    assert checks.message_bounds(rows()) == []
    assert checks.message_bounds(rows(max_info_per_pair_step="11"))
    assert checks.message_bounds(rows(max_info_per_step="31"))
    assert checks.message_bounds(rows(grad_rounds="1000"))


BOUNDS = {"speed": (5.0, 21.0), "height": (8.0, 16.0)}
OPTIMUM = {"speed": 21.0, "height": 11.2}
INITIAL = {"speed": 12.0, "height": 14.0}


def bowl(sp):
    return (sp["speed"] - 21.0) ** 2 + (sp["height"] - 11.2) ** 2


def test_optimization_accepts_progress():
    final = {"speed": 17.0, "height": 11.4}
    assert checks.optimization(rows(), INITIAL, final, OPTIMUM, BOUNDS, bowl) == []


def test_optimization_rejects_out_of_bounds():
    final = {"speed": 17.0, "height": 11.4}
    bad = rows(height="7.5")
    assert checks.optimization(bad, INITIAL, final, OPTIMUM, BOUNDS, bowl)


def test_optimization_rejects_moving_away():
    final = {"speed": 17.0, "height": 15.0}
    assert checks.optimization(rows(), INITIAL, final, OPTIMUM, BOUNDS, lambda sp: 0.0)


def test_optimization_rejects_loss_that_does_not_fall():
    final = {"speed": 17.0, "height": 11.4}
    assert checks.optimization(rows(), INITIAL, final, OPTIMUM, BOUNDS, lambda sp: -bowl(sp))


def states(n, truth, time_s="330"):
    return [{"time_s": time_s, "mean": "1.0", "std": "0.1", "truth": truth} for _ in range(n)]


def test_coverage():
    failures, value = checks.coverage(states(120, "1.15"), 300.0)
    assert failures == [] and value == 1.0
    failures, value = checks.coverage(states(120, "1.25"), 300.0)
    assert failures and value == 0.0
    # too few pairs, and pairs before the warm-up do not count
    assert checks.coverage(states(50, "1.0"), 300.0)[0]
    assert checks.coverage(states(120, "1.0", time_s="270"), 300.0)[0]


def test_routed_totals():
    assert checks.routed_totals(rows(2), 168) == []
    assert checks.routed_totals(rows(2), 167)


def test_traced_matches():
    base = {"run_csv_sha256": "ab", "fusions": 10}
    assert checks.traced_matches(base, dict(base)) == []
    assert checks.traced_matches(base, {**base, "fusions": 11})


def test_node_messages():
    assert checks.node_messages(5, 5) == []
    assert checks.node_messages(5, 6)
