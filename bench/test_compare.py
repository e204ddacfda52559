from bench.compare import verdict

BASE = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]


def test_worse_beyond_the_bound():
    new = [v * 1.3 for v in BASE]
    assert verdict(BASE, new, "lower", 0.2) == "worse"
    assert verdict(BASE, new, "higher", 0.2) == "better"


def test_within_the_bound_is_unchanged_not_better():
    new = [v * 1.1 for v in BASE]
    assert verdict(BASE, new, "lower", 0.2) == "unchanged"
    # a small gain that does not win nine pairs in ten is no gain
    mixed = [v * 0.98 if i % 3 else v * 1.02 for i, v in enumerate(BASE)]
    assert verdict(BASE, mixed, "lower", 0.2) == "unchanged"


def test_better_needs_nine_in_ten_pairs_and_a_gap_wider_than_the_iqr():
    new = [v * 0.9 for v in BASE]
    assert verdict(BASE, new, "lower", 0.2) == "better"
    ties = BASE[:2] + [v * 0.9 for v in BASE[2:]]
    assert verdict(BASE, ties, "lower", 0.2) == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [5.0, 15.0, 6.0, 14.0, 10.0, 7.0, 13.0, 8.0, 12.0, 10.0]
    assert verdict(noisy, [v * 0.97 for v in noisy], "lower", 0.1) == "unresolved"
    assert verdict(noisy, [v * 0.2 for v in noisy], "lower", 0.1) == "better"


def test_per_layer_metrics_have_no_bound():
    assert verdict([3, 3, 3], [3, 3, 3], "lower", None) == "same"
    assert verdict(BASE, [v * 0.5 for v in BASE], "lower", None) == "better"
    assert verdict(BASE, [v * 2 for v in BASE], "lower", None) == "worse"
    assert verdict(BASE, BASE[::-1], "lower", None) == "unresolved"
