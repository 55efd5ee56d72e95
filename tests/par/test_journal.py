"""Sweep journal: append-only checkpoint log, torn tails, resume."""

import json

import pytest

from repro.par import (
    JOURNAL_SCHEMA,
    SweepJournal,
    journal_path,
    read_journal,
)


def _path(tmp_path):
    return journal_path(str(tmp_path), "abc123")


class TestWriteAndRead:
    def test_fresh_journal_writes_start_header(self, tmp_path):
        path = _path(tmp_path)
        with SweepJournal(path, "abc123", tasks=5):
            pass
        records = read_journal(path)
        assert records[0] == {"kind": "sweep_start",
                              "schema": JOURNAL_SCHEMA,
                              "sweep_id": "abc123", "tasks": 5}

    def test_shard_done_and_finish_round_trip(self, tmp_path):
        path = _path(tmp_path)
        with SweepJournal(path, "abc123", tasks=3) as journal:
            journal.shard_done(0, key="k0")
            journal.shard_done(2)
            journal.shard_done(1)
            journal.finish()
        kinds = [r["kind"] for r in read_journal(path)]
        assert kinds == ["sweep_start", "shard_done", "shard_done",
                         "shard_done", "sweep_end"]
        records = read_journal(path)
        assert records[1] == {"kind": "shard_done", "index": 0, "key": "k0"}
        assert records[2] == {"kind": "shard_done", "index": 2}
        assert records[-1] == {"kind": "sweep_end", "completed": 3}

    def test_lines_are_canonical_json(self, tmp_path):
        path = _path(tmp_path)
        with SweepJournal(path, "abc123", tasks=1) as journal:
            journal.shard_done(0)
        with open(path) as fh:
            for line in fh:
                record = json.loads(line)
                assert line.rstrip("\n") == json.dumps(
                    record, sort_keys=True, separators=(",", ":"))

    def test_write_after_close_raises(self, tmp_path):
        journal = SweepJournal(_path(tmp_path), "abc123", tasks=1)
        journal.close()
        with pytest.raises(ValueError):
            journal.shard_done(0)


class TestTornTail:
    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = _path(tmp_path)
        with SweepJournal(path, "abc123", tasks=4) as journal:
            journal.shard_done(0)
            journal.shard_done(1)
        with open(path, "a") as fh:
            fh.write('{"kind":"shard_done","ind')  # SIGKILL mid-write
        records = read_journal(path)
        assert [r["kind"] for r in records] == ["sweep_start",
                                                "shard_done", "shard_done"]

    def test_lines_after_a_tear_are_still_read(self, tmp_path):
        # a resumed run appends after the torn line of the killed one
        path = _path(tmp_path)
        with SweepJournal(path, "abc123", tasks=4) as journal:
            journal.shard_done(0)
        with open(path, "a") as fh:
            fh.write('{"kind":"shard_done","ind\n')
            fh.write('{"kind":"shard_done","index":3}\n')
        indices = [r["index"] for r in read_journal(path)
                   if r["kind"] == "shard_done"]
        assert indices == [0, 3]

    @pytest.mark.parametrize("resume", [False, True])
    def test_the_writer_ends_a_torn_line_first(self, tmp_path, resume):
        path = _path(tmp_path)
        with SweepJournal(path, "abc123", tasks=4) as journal:
            journal.shard_done(0)
        with open(path, "a") as fh:
            fh.write('{"kind":"shard_done","index":1')  # torn
        with SweepJournal(path, "abc123", tasks=4, resume=resume) as journal:
            journal.shard_done(2)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[2] == '{"kind":"shard_done","index":1'
        assert [r["kind"] for r in read_journal(path)][-2:] == \
            ["sweep_resume" if resume else "sweep_start", "shard_done"]


class TestResume:
    def test_resume_collects_done_indices(self, tmp_path):
        path = _path(tmp_path)
        with SweepJournal(path, "abc123", tasks=6) as journal:
            journal.shard_done(1)
            journal.shard_done(4)
        resumed = SweepJournal(path, "abc123", tasks=6, resume=True)
        try:
            assert resumed.resumed
            assert resumed.done == {1, 4}
        finally:
            resumed.close()
        # the resume itself is journaled
        tail = read_journal(path)[-1]
        assert tail == {"kind": "sweep_resume", "done": 2, "tasks": 6}

    def test_resume_of_missing_journal_starts_fresh(self, tmp_path):
        path = _path(tmp_path)
        with SweepJournal(path, "abc123", tasks=2, resume=True) as journal:
            assert not journal.resumed
            assert journal.done == set()
        assert read_journal(path)[0]["kind"] == "sweep_start"

    def test_resume_refuses_a_different_sweep(self, tmp_path):
        path = _path(tmp_path)
        with SweepJournal(path, "abc123", tasks=2):
            pass
        with pytest.raises(ValueError, match="different sweep"):
            SweepJournal(path, "OTHER", tasks=2, resume=True)

    def test_resume_survives_a_torn_tail(self, tmp_path):
        path = _path(tmp_path)
        with SweepJournal(path, "abc123", tasks=4) as journal:
            journal.shard_done(0)
        with open(path, "a") as fh:
            fh.write('{"kind":"shard_done","index":1')  # torn
        resumed = SweepJournal(path, "abc123", tasks=4, resume=True)
        try:
            assert resumed.done == {0}
        finally:
            resumed.close()
