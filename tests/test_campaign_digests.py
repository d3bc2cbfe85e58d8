import json

from make_campaign_digests import PATH, compute, mismatch_message, moved_trials, platform_tag


def test_campaign_and_kernel_digests_are_unchanged():
    """Every seeded trial of `make_campaign_digests.CONFIGS` gives the bits on
    file: the assigned totals and SIC counts, and on fig4a and far pairs
    every table field of the solve kernel and the pull-in and split-cap
    coverage counts.  A failure lists every moved (config, trial)."""
    stored = json.loads(PATH.read_text())
    got = compute()
    assert set(got) == set(stored["configs"])
    for name, entry in stored["configs"].items():
        assert [len(got[name].get(k, [])) for k in ("campaign", "kernel")] == [
            len(entry.get(k, [])) for k in ("campaign", "kernel")
        ]
    # The pinned trials reach the pull-in round and the second cap piece.
    assert all(stored["configs"][n]["pull_in_pairs"] > 0 for n in ("fig4a", "far_pairs"))
    assert all(stored["configs"][n]["split_caps"] > 0 for n in ("fig4a", "far_pairs"))
    moved = moved_trials(stored, got)
    assert not moved, mismatch_message(stored, moved)


def test_mismatch_report_names_each_moved_trial_and_both_platforms():
    stored = {
        "numpy": "0.0", "scipy": "0.1", "platform": "elsewhere", "machine": "none",
        "configs": {"a": {"campaign": ["x", "y"], "kernel": ["k"], "split_caps": 1}},
    }
    got = {"a": {"campaign": ["x", "z"], "kernel": ["j"], "split_caps": 2}}
    moved = moved_trials(stored, got)
    assert moved == ["a campaign trial 1", "a kernel trial 0", "a split_caps: 1 -> 2"]
    message = mismatch_message(stored, moved)
    assert "numpy 0.0 and scipy 0.1 on elsewhere" in message and "Another numpy or libm" in message
    assert "another scipy" in message
    assert "Another" not in mismatch_message({**stored, **platform_tag()}, moved)
    # Another scipy alone is named too: ties may then resolve elsewhere.
    message = mismatch_message({**stored, **platform_tag(), "scipy": "0.1"}, moved)
    assert "and scipy 0.1 on" in message and "another scipy" in message
