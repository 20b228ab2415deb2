"""One value through the production CDR codec, for tests that check a
round trip or an encode-side refusal without building a stream."""

from __future__ import annotations

from repro.orb.cdr import CDRDecoder, CDREncoder, decode_value, encode_value


def encode_one(tc, value) -> bytes:
    """Encode a single value to bytes."""
    enc = CDREncoder()
    encode_value(enc, tc, value)
    return enc.getvalue()


def decode_one(tc, data: bytes):
    """Decode a single value from bytes."""
    return decode_value(CDRDecoder(data), tc)
