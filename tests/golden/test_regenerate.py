"""The golden check names each differing key and field."""

from tests.golden.regenerate import differences

_ENTRY = {
    "analyze": "a" * 64,
    "scores": "b" * 64,
    "shards": ["c" * 64, "d" * 64, "e" * 64],
    "stats": "f" * 64,
    "table_sha": "0" * 64,
}


def test_identical_documents_have_no_differences():
    assert differences({"k": dict(_ENTRY)}, {"k": dict(_ENTRY)}) == []


def test_each_differing_field_is_named():
    fresh = dict(_ENTRY, stats="9" * 64, shards=["c" * 64, "9" * 64, "e" * 64])
    lines = differences({"k": dict(_ENTRY)}, {"k": fresh})
    assert lines == [
        "k: shards differ at positions [1]",
        f"k: stats differs ({'f' * 64!r} -> {'9' * 64!r})",
    ]


def test_missing_and_extra_keys_are_named():
    lines = differences({"old": dict(_ENTRY)}, {"new": dict(_ENTRY)})
    assert lines == [
        "new: generated but not committed",
        "old: committed but no longer generated",
    ]


def test_shard_count_change_lists_the_extra_positions():
    fresh = dict(_ENTRY, shards=_ENTRY["shards"][:1])
    assert differences({"k": dict(_ENTRY)}, {"k": fresh}) == [
        "k: shards differ at positions [1, 2]"
    ]
