"""Wire-format tests: parse_message / encode_message round-trips and
strict rejection of malformed lines."""

from __future__ import annotations

import json

import pytest

from repro.errors import MessageError
from repro.service import (
    Advance,
    Close,
    HealthQuery,
    InjectFault,
    MetricsQuery,
    Submit,
    encode_message,
    parse_message,
)
from repro.sim.job import Job


class TestParse:
    def test_submit_roundtrip(self):
        message = Submit(
            "t0", Job(jid=7, release=1.5, workload=2.0, deadline=4.5, value=6.0)
        )
        parsed = parse_message(encode_message(message))
        assert parsed == message

    def test_fault_roundtrips(self):
        for message in (
            InjectFault("t1", "kill", 3.0, retain=0.5),
            InjectFault("t1", "evict", 4.0),
            InjectFault("t1", "crash", 9.0),
        ):
            assert parse_message(encode_message(message)) == message

    def test_advance_and_close_roundtrip(self):
        assert parse_message(encode_message(Advance("a", 10.0))) == Advance(
            "a", 10.0
        )
        assert parse_message(encode_message(Close("a"))) == Close("a")

    def test_accepts_bytes_and_dicts(self):
        line = encode_message(Close("t0"))
        assert parse_message(line.encode()) == Close("t0")
        assert parse_message(json.loads(line)) == Close("t0")

    def test_metrics_and_health_roundtrip(self):
        for message in (
            MetricsQuery("t0"),
            MetricsQuery("*"),  # fleet scrape
            HealthQuery("t0"),
            HealthQuery("*"),
        ):
            assert parse_message(encode_message(message)) == message
        assert json.loads(encode_message(MetricsQuery("*"))) == {
            "type": "metrics",
            "tenant": "*",
        }

    def test_metrics_and_health_still_require_a_tenant(self):
        with pytest.raises(MessageError, match="tenant"):
            parse_message('{"type": "metrics"}')
        with pytest.raises(MessageError, match="non-empty"):
            parse_message('{"type": "health", "tenant": ""}')


class TestRejection:
    @pytest.mark.parametrize(
        "raw, hint",
        [
            ("not json", "undecodable"),
            ("[1, 2]", "JSON object"),
            ('{"tenant": "t"}', "type"),
            ('{"type": "warp", "tenant": "t"}', "unknown message type"),
            ('{"type": "close"}', "tenant"),
            ('{"type": "close", "tenant": ""}', "non-empty"),
            ('{"type": "submit", "tenant": "t"}', "job"),
            ('{"type": "submit", "tenant": "t", "job": [1]}', "object"),
            (
                '{"type": "submit", "tenant": "t", "job": {"jid": 1}}',
                "missing required field",
            ),
            (
                '{"type": "submit", "tenant": "t", "job": {"jid": 1, '
                '"release": 0, "workload": -1, "deadline": 5, "value": 1}}',
                "invalid job",
            ),
            ('{"type": "fault", "tenant": "t", "op": "melt", "time": 1}', "op"),
            (
                '{"type": "fault", "tenant": "t", "op": "kill", "time": "x"}',
                "number",
            ),
            (
                '{"type": "fault", "tenant": "t", "op": "kill", "time": 1, '
                '"retain": 1.5}',
                "retain",
            ),
            ('{"type": "advance", "tenant": "t", "time": true}', "number"),
        ],
    )
    def test_bad_lines_raise_message_error(self, raw, hint):
        with pytest.raises(MessageError, match=hint):
            parse_message(raw)

    def test_encode_rejects_foreign_objects(self):
        with pytest.raises(MessageError, match="cannot encode"):
            encode_message(object())


class TestNonFiniteNumbers:
    """JSON's ``NaN``/``Infinity`` (and integers no float can hold) are
    refused at the wire: a NaN release used to be admitted, a NaN advance
    ran the kernel to its horizon, and an infinite jid escaped as an
    ``OverflowError`` instead of an error ack."""

    @staticmethod
    def _submit(**job):
        base = {"jid": 1, "release": 0, "workload": 1, "deadline": 5, "value": 1}
        base.update(job)
        return {"type": "submit", "tenant": "t", "job": base}

    @pytest.mark.parametrize(
        "job, hint",
        [
            ({"release": float("nan")}, "'release' must be finite"),
            ({"workload": float("nan")}, "'workload' must be finite"),
            ({"deadline": float("inf")}, "'deadline' must be finite"),
            ({"value": float("-inf")}, "'value' must be finite"),
            ({"jid": float("inf")}, "'jid' must be finite"),
            ({"jid": 10**400}, "'jid' must be finite"),
            ({"jid": 1.5}, "'jid' must be an integer"),
        ],
    )
    def test_submit_fields(self, job, hint):
        with pytest.raises(MessageError, match=hint):
            parse_message(self._submit(**job))

    @pytest.mark.parametrize(
        "line, hint",
        [
            ('{"type": "advance", "tenant": "t", "time": NaN}', "'time'"),
            ('{"type": "advance", "tenant": "t", "time": -Infinity}', "'time'"),
            ('{"type": "fault", "tenant": "t", "op": "evict", "time": NaN}',
             "'time'"),
            ('{"type": "fault", "tenant": "t", "op": "kill", "time": 1, '
             '"retain": NaN}', "'retain'"),
            ('{"type": "submit", "tenant": "t", "job": {"jid": Infinity, '
             '"release": 0, "workload": 1, "deadline": 5, "value": 1}}',
             "'jid'"),
        ],
    )
    def test_wire_lines(self, line, hint):
        with pytest.raises(MessageError, match=hint + " must be finite"):
            parse_message(line)

    def test_integral_float_jid_still_accepted(self):
        message = parse_message(self._submit(jid=3.0))
        assert message.job.jid == 3 and isinstance(message.job.jid, int)
        big = parse_message(self._submit(jid=2**60 + 1))
        assert big.job.jid == 2**60 + 1  # exact: never routed via a float
