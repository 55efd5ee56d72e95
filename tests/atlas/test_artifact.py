"""Atlas artifact format: roundtrip, byte-determinism, failure modes."""

import json

import numpy as np
import pytest

from repro.atlas import (
    ATLAS_SCHEMA,
    Atlas,
    AtlasFormatError,
    AtlasGridSpec,
    load_atlas,
    read_header,
    save_atlas,
)


def tiny_atlas(seed: int = 3) -> Atlas:
    spec = AtlasGridSpec(node_counts=(2, 4), msg_counts=(8, 16),
                         dup_fractions=(0.0,), sizes=(10.0, 100.0, 1000.0))
    labels = ["A (staged)", "B (staged)", "C (device-aware)"]
    rng = np.random.default_rng(seed)
    times = rng.uniform(1e-6, 1e-3, (len(labels),) + spec.shape)
    return Atlas(machine="lassen", spec=spec, labels=labels, times=times)


def rewrite_header(path, edit, sign) -> None:
    """Drop a saved artifact's header digest, update the header with
    ``edit`` and, if ``sign``, digest it again as a writer would."""
    from repro.atlas.artifact import _header_digest
    from repro.obs.ledger import canonical_dumps

    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head[len(b"RPRATLAS "):])
    header.pop("header_sha256")
    header.update(edit)
    if sign:
        header["header_sha256"] = _header_digest(header)
    path.write_bytes(b"RPRATLAS " + canonical_dumps(header).encode()
                     + b"\n" + payload)


def test_frontier_counts_winner_changes():
    atlas = tiny_atlas()
    flat = atlas.winners_idx.reshape(-1).tolist()
    assert atlas.frontier_cells() == sum(a != b for a, b in zip(flat,
                                                                flat[1:]))
    assert sum(atlas.winner_counts().values()) == atlas.cells


class TestRoundtrip:
    def test_save_load_identity(self, tmp_path):
        atlas = tiny_atlas()
        path = tmp_path / "t.atlas"
        header = save_atlas(atlas, str(path))
        assert header["schema"] == ATLAS_SCHEMA
        loaded = load_atlas(str(path))
        assert loaded.machine == atlas.machine
        assert loaded.labels == atlas.labels
        assert loaded.spec == atlas.spec
        assert np.array_equal(loaded.times, atlas.times)
        assert np.array_equal(loaded.winners_idx, atlas.winners_idx)
        # the tensor is the whole content: no stored winner copy
        assert set(header) == {"schema", "machine", "axes", "labels",
                               "tensor", "header_sha256"}

    def test_two_saves_are_byte_identical(self, tmp_path):
        atlas = tiny_atlas()
        a, b = tmp_path / "a.atlas", tmp_path / "b.atlas"
        save_atlas(atlas, str(a))
        save_atlas(atlas, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_read_header_alone(self, tmp_path):
        atlas = tiny_atlas()
        path = tmp_path / "t.atlas"
        save_atlas(atlas, str(path))
        header = read_header(str(path))
        assert header["machine"] == "lassen"
        assert header["labels"] == atlas.labels

    def test_shape_validation_in_constructor(self):
        atlas = tiny_atlas()
        with pytest.raises(ValueError, match="times tensor shape"):
            Atlas(machine="m", spec=atlas.spec, labels=atlas.labels,
                  times=atlas.times[:, :1])


class TestFailureModes:
    """Every torn/corrupt artifact reads as a clean AtlasFormatError."""

    @pytest.fixture()
    def saved(self, tmp_path):
        path = tmp_path / "t.atlas"
        save_atlas(tiny_atlas(), str(path))
        return path

    def test_bad_magic(self, saved):
        saved.write_bytes(b"NOTATLAS" + saved.read_bytes()[8:])
        with pytest.raises(AtlasFormatError, match="bad magic"):
            load_atlas(str(saved))

    def test_torn_header(self, saved):
        blob = saved.read_bytes()
        saved.write_bytes(blob[:40])  # mid-header, no newline
        with pytest.raises(AtlasFormatError, match="torn header"):
            load_atlas(str(saved))

    def test_truncated_payload(self, saved):
        blob = saved.read_bytes()
        saved.write_bytes(blob[:-100])
        with pytest.raises(AtlasFormatError, match="truncated payload"):
            load_atlas(str(saved))

    def test_corrupted_payload(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[-1] ^= 0xFF
        saved.write_bytes(bytes(blob))
        with pytest.raises(AtlasFormatError, match="checksum"):
            load_atlas(str(saved))

    @pytest.mark.parametrize("edit,sign,match", [
        # a future writer signs its header; schema 1 carried no digest
        ({"schema": ATLAS_SCHEMA + 1}, True,
         f"schema {ATLAS_SCHEMA + 1} .*expects {ATLAS_SCHEMA}"),
        ({"schema": 1}, False, f"schema 1 .*expects {ATLAS_SCHEMA}"),
        ({}, False, "missing 'header_sha256'"),
        # a signed header from a writer with a bug
        ({"tensor": []}, True, "invalid header field"),
        ({"labels": 5}, True, "invalid header field"),
        ({"axes": {"node_counts": "x"}}, True, "invalid header field"),
    ], ids=["future-schema", "schema-1", "no-digest", "tensor-list",
            "labels-int", "axes-str"])
    def test_rewritten_header(self, saved, edit, sign, match):
        rewrite_header(saved, edit, sign)
        with pytest.raises(AtlasFormatError, match=match):
            load_atlas(str(saved))

    def test_unreadable_header_json(self, saved):
        saved.write_bytes(b"RPRATLAS {not json\n")
        with pytest.raises(AtlasFormatError, match="unreadable header"):
            load_atlas(str(saved))

    def test_error_message_names_reader_schema(self, saved):
        saved.write_bytes(b"junk")
        with pytest.raises(AtlasFormatError,
                           match=f"atlas schema {ATLAS_SCHEMA} reader"):
            load_atlas(str(saved))


def test_every_flip_and_truncation_loads_equal_or_fails_cleanly(tmp_path):
    """Every header bit flipped, one bit per payload byte flipped, every
    truncation: an equal atlas or an AtlasFormatError, nothing else."""
    atlas = tiny_atlas()
    path = tmp_path / "t.atlas"
    save_atlas(atlas, str(path))
    blob = path.read_bytes()
    head = blob.index(b"\n") + 1
    flips = [(pos, 1 << bit) for pos in range(head) for bit in range(8)]
    flips += [(pos, 1 << pos % 8) for pos in range(head, len(blob))]
    mutants = [blob[:pos] + bytes([blob[pos] ^ mask]) + blob[pos + 1:]
               for pos, mask in flips]
    errors = 0
    for mutant in mutants + [blob[:cut] for cut in range(len(blob))]:
        path.write_bytes(mutant)
        try:
            loaded = load_atlas(str(path))
        except AtlasFormatError:
            errors += 1
            continue
        assert (loaded.machine, loaded.spec, loaded.labels) == (
            atlas.machine, atlas.spec, atlas.labels)
        assert np.array_equal(loaded.times, atlas.times)
    assert errors > len(blob)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            AtlasGridSpec(node_counts=(4, 2))
        with pytest.raises(ValueError, match="must not be empty"):
            AtlasGridSpec(sizes=())
        with pytest.raises(ValueError, match="below 1.0"):
            AtlasGridSpec(dup_fractions=(0.0, 1.0))
        with pytest.raises(ValueError, match="msg_count must be >="):
            AtlasGridSpec(node_counts=(2, 64), msg_counts=(32, 128))

    def test_dict_roundtrip(self):
        spec = AtlasGridSpec(node_counts=(2, 4), msg_counts=(8,),
                             dup_fractions=(0.0, 0.5),
                             sizes=(1.0, 10.0))
        assert AtlasGridSpec.from_dict(spec.to_dict()) == spec

    def test_scenarios_are_valid(self):
        from repro.atlas import default_grid

        for smoke in (False, True):
            spec = default_grid(smoke=smoke)
            for i in range(len(spec.node_counts)):
                for j in range(len(spec.msg_counts)):
                    for k in range(len(spec.dup_fractions)):
                        sc = spec.scenario_at(i, j, k)
                        # no silent clamping: coordinates are the scenario
                        assert sc.num_dest_nodes == spec.node_counts[i]
                        assert sc.num_messages == spec.msg_counts[j]
