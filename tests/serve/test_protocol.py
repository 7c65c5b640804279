"""Wire-format tests: the ``repro-report/v1`` schema and its validation."""

from __future__ import annotations

import gzip
import hashlib
import json
import tracemalloc
import zlib

import pytest

from repro.serve.protocol import (
    MAX_BODY_BYTES,
    REPORT_SCHEMA,
    ProtocolError,
    RunReport,
    decode_body,
    encode_batch,
    report_from_wire,
    validate_payload,
)

TABLE_SHA = "f" * 64

#: A fixed two-report batch: one report with a stack and a steering
#: stamp, one with neither.
PINNED_BATCH = [
    RunReport(
        seed=7,
        failed=True,
        site_obs={4: 2, 0: 1},
        pred_true={9: 2},
        stack=("main", "read_block"),
        bugs=("bug1",),
        steering="v3",
    ),
    RunReport(seed=8, failed=False, site_obs={0: 3}, pred_true={}, stack=None, bugs=()),
]

#: SHA-256 of the pinned batch's uncompressed JSON document.
PINNED_DOCUMENT_SHA = "10c2130dea229052adea88fbd3d129341c3728f0cfad5788762c4b8ab912f26e"


def _report(seed=0, **overrides) -> RunReport:
    base = dict(
        seed=seed,
        failed=bool(seed % 2),
        site_obs={1: 3, 0: 1},
        pred_true={2: 4},
        stack=("f", "g") if seed % 2 else None,
        bugs=("bug1",) if seed % 2 else (),
    )
    base.update(overrides)
    return RunReport(**base)


def _valid(reports, **overrides):
    payload = {
        "schema": REPORT_SCHEMA,
        "subject": "demo",
        "table_sha": TABLE_SHA,
        "reports": [r.to_wire() for r in reports],
    }
    payload.update(overrides)
    return payload


def _validate(payload):
    return validate_payload(
        payload,
        subject="demo",
        table_sha=TABLE_SHA,
        n_sites=10,
        n_predicates=10,
        bug_ids=["bug1", "bug2"],
    )


class TestEncodeDecode:
    def test_gzip_round_trip(self):
        reports = [_report(0), _report(1)]
        body, headers = encode_batch(reports, "demo", TABLE_SHA, compress=True)
        assert headers["Content-Encoding"] == "gzip"
        payload = decode_body(body, headers.get("Content-Encoding"))
        decoded = _validate(payload)
        assert decoded == reports

    def test_identity_round_trip(self):
        body, headers = encode_batch([_report(5)], "demo", TABLE_SHA, compress=False)
        assert "Content-Encoding" not in headers
        decoded = _validate(decode_body(body, None))
        assert decoded[0].seed == 5

    def test_gzip_bytes_are_deterministic(self):
        one, _ = encode_batch([_report(3)], "demo", TABLE_SHA)
        two, _ = encode_batch([_report(3)], "demo", TABLE_SHA)
        assert one == two
        one, _ = encode_batch(PINNED_BATCH, "demo", TABLE_SHA)
        two, _ = encode_batch(PINNED_BATCH, "demo", TABLE_SHA)
        assert one == two

    def test_broken_gzip_rejected(self):
        with pytest.raises(ProtocolError) as err:
            decode_body(b"not actually gzip", "gzip")
        assert err.value.reason == "bad-encoding"

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ProtocolError) as err:
            decode_body(b"{}", "br")
        assert err.value.reason == "bad-encoding"

    def test_unparseable_json_rejected(self):
        with pytest.raises(ProtocolError) as err:
            decode_body(b"{nope", None)
        assert err.value.reason == "bad-json"

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError) as err:
            decode_body(b"[1, 2]", None)
        assert err.value.reason == "bad-schema"

    def test_oversized_body_rejected(self):
        # A gzip bomb decompresses far past the wire size; the guard
        # fires on the decompressed length.
        body = gzip.compress(b" " * (MAX_BODY_BYTES + 1))
        with pytest.raises(ProtocolError) as err:
            decode_body(body, "gzip")
        assert err.value.reason == "too-large"

    def test_bomb_is_refused_within_bounded_memory(self):
        # 256 MiB of zeros in ~256 KB of gzip, built a MiB at a time.
        bomb_size = 256 << 20
        deflate = zlib.compressobj(9, zlib.DEFLATED, 16 + zlib.MAX_WBITS)
        zeros = bytes(1 << 20)
        body = b"".join(deflate.compress(zeros) for _ in range(bomb_size >> 20))
        body += deflate.flush()
        assert len(body) < 512 * 1024
        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError) as err:
                decode_body(body, "gzip")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.reason == "too-large"
        # Bounded by the limit, not by the bomb.
        assert peak < 1.25 * MAX_BODY_BYTES < bomb_size / 3


class TestGzipAcceptance:
    """``decode_body`` accepts exactly what :func:`gzip.decompress` does."""

    PAYLOAD = {"schema": REPORT_SCHEMA, "subject": "demo"}

    def _member(self, text: bytes) -> bytes:
        return gzip.compress(text, mtime=0)

    def test_multi_member_body_accepted(self):
        text = json.dumps(self.PAYLOAD).encode()
        body = self._member(text[:10]) + self._member(text[10:])
        assert decode_body(body, "gzip") == self.PAYLOAD

    def test_zero_padding_after_member_tolerated(self):
        body = self._member(json.dumps(self.PAYLOAD).encode()) + b"\x00" * 16
        assert decode_body(body, "gzip") == self.PAYLOAD

    @pytest.mark.parametrize("trailer", [b"junk", b"\x1f", b"\x00\x00junk"])
    def test_other_trailing_bytes_rejected(self, trailer):
        body = self._member(json.dumps(self.PAYLOAD).encode()) + trailer
        with pytest.raises(ProtocolError) as err:
            decode_body(body, "gzip")
        assert err.value.reason == "bad-encoding"

    @pytest.mark.parametrize("keep", [2, 10, -8, -1])
    def test_truncated_stream_rejected(self, keep):
        body = self._member(json.dumps(self.PAYLOAD).encode())
        with pytest.raises(ProtocolError) as err:
            decode_body(body[:keep], "gzip")
        assert err.value.reason == "bad-encoding"

    def test_corrupt_trailer_rejected(self):
        body = bytearray(self._member(json.dumps(self.PAYLOAD).encode()))
        body[-8] ^= 0xFF  # CRC-32
        with pytest.raises(ProtocolError) as err:
            decode_body(bytes(body), "gzip")
        assert err.value.reason == "bad-encoding"

    def test_multi_step_member_accepted(self):
        # Past one inflate step (1 MiB), output arrives in several pieces.
        text = json.dumps({"pad": "x" * (3 << 20)}).encode()
        assert decode_body(self._member(text), "gzip") == {"pad": "x" * (3 << 20)}

    @pytest.mark.parametrize("encoding", [None, "gzip"])
    def test_empty_body_is_bad_json(self, encoding):
        with pytest.raises(ProtocolError) as err:
            decode_body(b"", encoding)
        assert err.value.reason == "bad-json"


class TestPinnedBytes:
    """The uncompressed wire bytes do not depend on the gzip level."""

    def _document(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "subject": "demo",
            "table_sha": TABLE_SHA,
            "reports": [r.to_wire() for r in PINNED_BATCH],
        }

    def test_json_document_is_pinned(self):
        body, headers = encode_batch(PINNED_BATCH, "demo", TABLE_SHA)
        assert headers["Content-Encoding"] == "gzip"
        text = gzip.decompress(body)
        assert text == json.dumps(self._document(), sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest() == PINNED_DOCUMENT_SHA

    def test_level_9_body_decodes_the_same(self):
        # What a client that compressed at gzip's default level sends.
        body, headers = encode_batch(PINNED_BATCH, "demo", TABLE_SHA)
        old = gzip.compress(gzip.decompress(body), compresslevel=9, mtime=0)
        assert old != body
        payload = decode_body(old, "gzip")
        assert payload == decode_body(body, headers["Content-Encoding"])
        assert payload == self._document()
        assert _validate(payload) == PINNED_BATCH


class TestValidation:
    def test_wrong_schema(self):
        with pytest.raises(ProtocolError) as err:
            _validate(_valid([_report()], schema="repro-report/v0"))
        assert err.value.reason == "bad-schema"

    def test_wrong_subject(self):
        with pytest.raises(ProtocolError) as err:
            _validate(_valid([_report()], subject="other"))
        assert err.value.reason == "wrong-subject"

    def test_table_mismatch(self):
        with pytest.raises(ProtocolError) as err:
            _validate(_valid([_report()], table_sha="0" * 64))
        assert err.value.reason == "table-mismatch"

    def test_empty_reports(self):
        with pytest.raises(ProtocolError) as err:
            _validate(_valid([]))
        assert err.value.reason == "bad-schema"

    def test_duplicate_seed_in_batch(self):
        with pytest.raises(ProtocolError) as err:
            _validate(_valid([_report(4), _report(4)]))
        assert err.value.reason == "bad-report"

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None, 2**63])
    def test_bad_seed(self, seed):
        wire = _report().to_wire()
        wire["seed"] = seed
        with pytest.raises(ProtocolError):
            report_from_wire(wire, 10, 10, ["bug1"])

    def test_largest_seed_and_count_are_accepted(self):
        wire = _report().to_wire()
        wire["seed"] = 2**63 - 1
        wire["site_obs"] = {"1": 2**63 - 1}
        report = report_from_wire(wire, 10, 10, ["bug1"])
        assert (report.seed, report.site_obs) == (2**63 - 1, {1: 2**63 - 1})

    def test_site_index_out_of_range(self):
        wire = _report().to_wire()
        wire["site_obs"] = {"10": 1}
        with pytest.raises(ProtocolError):
            report_from_wire(wire, 10, 10, ["bug1"])

    def test_pred_index_out_of_range(self):
        wire = _report().to_wire()
        wire["pred_true"] = {"-1": 1}
        with pytest.raises(ProtocolError):
            report_from_wire(wire, 10, 10, ["bug1"])

    @pytest.mark.parametrize("count", [0, -2, 1.5, True, "3", 2**63])
    def test_bad_counter_value(self, count):
        wire = _report().to_wire()
        wire["site_obs"] = {"1": count}
        with pytest.raises(ProtocolError):
            report_from_wire(wire, 10, 10, ["bug1"])

    def test_unknown_bug_id(self):
        wire = _report(1).to_wire()
        wire["bugs"] = ["not-a-bug"]
        with pytest.raises(ProtocolError):
            report_from_wire(wire, 10, 10, ["bug1"])

    def test_bad_stack(self):
        wire = _report().to_wire()
        wire["stack"] = [1, 2]
        with pytest.raises(ProtocolError):
            report_from_wire(wire, 10, 10, ["bug1"])

    def test_failed_must_be_bool(self):
        wire = _report().to_wire()
        wire["failed"] = 1
        with pytest.raises(ProtocolError):
            report_from_wire(wire, 10, 10, ["bug1"])

    def test_wire_dict_is_json_clean(self):
        wire = _report(7).to_wire()
        assert json.loads(json.dumps(wire)) == wire
