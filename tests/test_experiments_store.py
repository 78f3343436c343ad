"""ResultsStore: append-only JSONL with resume semantics."""

from repro.experiments import ResultsStore


def _row(digest, status="ok", **extra):
    return {"schema": 1, "config_hash": digest, "status": status, **extra}


def test_append_and_read_roundtrip(tmp_path):
    store = ResultsStore(tmp_path / "r.jsonl")
    assert store.rows() == []
    assert len(store) == 0
    store.append(_row("aa", result={"x": 1.5}))
    store.append(_row("bb"))
    rows = store.rows()
    assert [row["config_hash"] for row in rows] == ["aa", "bb"]
    assert rows[0]["result"] == {"x": 1.5}
    assert len(store) == 2


def test_completed_hashes_excludes_error_rows(tmp_path):
    store = ResultsStore(tmp_path / "r.jsonl")
    store.append(_row("aa"))
    store.append(_row("bb", status="error", error="boom"))
    assert store.completed_hashes() == {"aa"}
    assert [row["config_hash"] for row in store.ok_rows()] == ["aa"]


def test_truncated_final_line_is_skipped_not_fatal(tmp_path):
    path = tmp_path / "r.jsonl"
    store = ResultsStore(path)
    store.append(_row("aa"))
    # Simulate a crash mid-append: a partial JSON line at the tail.
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"schema": 1, "config_hash": "bb", "stat')
    rows = store.rows()
    assert [row["config_hash"] for row in rows] == ["aa"]
    assert store.skipped_lines == 1
    # The store stays appendable after corruption... the damaged point
    # simply re-runs because its hash never registered as completed.
    store.append(_row("cc"))
    assert {row["config_hash"] for row in store.rows()} == {"aa", "cc"}


def test_non_dict_lines_are_skipped(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text('[1, 2, 3]\n"just a string"\n{"schema": 1, "config_hash": "aa", "status": "ok"}\n')
    store = ResultsStore(path)
    assert [row["config_hash"] for row in store.rows()] == ["aa"]
    assert store.skipped_lines == 2


def test_store_creates_parent_directories(tmp_path):
    store = ResultsStore(tmp_path / "deep" / "nested" / "r.jsonl")
    store.append(_row("aa"))
    assert store.completed_hashes() == {"aa"}


# ------------------------------------------------------------------ read-back


def test_a_caller_mutating_rows_leaves_the_store_unchanged(tmp_path):
    store = ResultsStore(tmp_path / "r.jsonl")
    store.append(_row("aa"))
    rows = store.rows()
    rows.clear()
    assert [row["config_hash"] for row in store.rows()] == ["aa"]


def test_an_appended_row_reads_back_as_its_canonical_json(tmp_path):
    store = ResultsStore(tmp_path / "r.jsonl")
    store.append(_row("aa"))
    store.rows()
    store.append(_row("bb", result={"point": (1, 2)}))
    rows = store.rows()
    assert [row["config_hash"] for row in rows] == ["aa", "bb"]
    # What the file holds (tuples become lists), not the caller's dict.
    assert rows[1]["result"] == {"point": [1, 2]}
    fresh = ResultsStore(store.path)
    assert fresh.rows() == rows


def test_rows_another_writer_appends_are_read(tmp_path):
    path = tmp_path / "r.jsonl"
    store = ResultsStore(path)
    store.append(_row("aa"))
    store.rows()
    # Another process appends behind our back.
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"schema": 1, "config_hash": "zz", "status": "ok"}\n')
    assert {row["config_hash"] for row in store.rows()} == {"aa", "zz"}
    # Appending after an external write also stays correct.
    store.append(_row("cc"))
    assert {row["config_hash"] for row in store.rows()} == {"aa", "zz", "cc"}


def test_every_read_reports_the_skipped_line_count(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text('not json\n{"schema": 1, "config_hash": "aa", "status": "ok"}\n')
    store = ResultsStore(path)
    store.rows()
    assert store.skipped_lines == 1
    store.rows()
    assert store.skipped_lines == 1


def test_timings_sidecar_roundtrip_and_tolerant_load(tmp_path):
    store = ResultsStore(tmp_path / "r.jsonl")
    assert store.timings_path.name == "r.jsonl.timings.json"
    assert store.load_timings() == {}  # missing sidecar is not an error
    store.save_timings({"aa": 1.5, "bb": 0.25})
    assert store.load_timings() == {"aa": 1.5, "bb": 0.25}
    # Corrupt or wrong-shaped sidecars degrade to "no timings" — the
    # sidecar is advisory scheduling state, never load-bearing.
    store.timings_path.write_text("not json")
    assert store.load_timings() == {}
    store.timings_path.write_text('["a", "b"]')
    assert store.load_timings() == {}
    store.timings_path.write_text('{"aa": 2.0, "bb": "fast", "cc": null}')
    assert store.load_timings() == {"aa": 2.0}
