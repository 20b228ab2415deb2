"""Seeded wire-fuzz of the GIOP/CDR decoder (``fuzz`` marker).

Contract under test: for any byte string, ``giop.decode_message``
either returns a message whose decoded sizes are bounded by the frame
length, or raises a ``SystemException`` — never a raw Python exception.
Run standalone with ``make fuzz``.
"""

import pytest

from repro.orb import codegen, giop
from repro.orb.cdr import Any, CDRDecoder
from repro.orb.exceptions import MARSHAL, SystemException
from repro.orb.fuzz import (FuzzReport, check_bounded, check_value_bounded,
                            codec_corpus, corpus, hostile_corpus,
                            hostile_requests, mutate, run_codec_fuzz,
                            run_fuzz)

pytestmark = pytest.mark.fuzz

SEEDS = [0, 1, 2, 3, 4]


def test_corpus_is_valid():
    for frame in corpus():
        message = giop.decode_message(frame)
        check_bounded(message, frame)


def test_hostile_requests_unmutated():
    # Slot count 2^32-1, slot length past the frame and 33 slots are
    # refused as they stand; a 7-byte trace slot and an unknown id are
    # not the framing layer's business and decode, bounded.
    outcomes = []
    for frame, decodes in hostile_requests():
        if decodes:
            check_bounded(giop.decode_message(frame), frame)
        else:
            with pytest.raises(SystemException):
                giop.decode_message(frame)
        outcomes.append(decodes)
    assert outcomes == [False, False, False, True, True]


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_no_escapes(seed):
    report = run_fuzz(seed, iterations=2000)
    detail = "\n".join(
        f"  iter {i}: {exc!r} on {len(m)}-byte mutant {m[:48].hex()}..."
        for i, m, exc in report.failures[:10])
    assert report.ok, (
        f"seed {seed}: {len(report.failures)} contract breaches\n{detail}")
    assert report.iterations == 2000
    assert report.decoded + report.rejected == report.iterations
    # The corpus must exercise both outcomes, or the fuzz proves nothing.
    assert report.rejected > 0
    assert report.decoded > 0


def test_codec_corpus_is_valid():
    # Every corpus frame decodes cleanly through the generated decoder
    # and the decoded value passes its own bound check.
    for dec_fn, frame in codec_corpus():
        value = dec_fn(CDRDecoder(frame))
        check_value_bounded(value, frame)


def test_hostile_corpus_is_refused_unmutated():
    for dec_fn, frame in hostile_corpus():
        with pytest.raises(MARSHAL):
            dec_fn(CDRDecoder(frame))


@pytest.mark.parametrize("seed", SEEDS)
def test_codec_fuzz_no_escapes(seed):
    report = run_codec_fuzz(seed, iterations=2000)
    detail = "\n".join(
        f"  iter {i}: {exc!r} on {len(m)}-byte mutant {m[:48].hex()}..."
        for i, m, exc in report.failures[:10])
    assert report.ok, (
        f"seed {seed}: {len(report.failures)} contract breaches\n{detail}")
    assert report.iterations == 2000
    assert report.decoded + report.rejected == report.iterations
    # Mutants must exercise both outcomes for the run to mean anything.
    assert report.rejected > 0
    assert report.decoded > 0
    # Hostile TypeCodes reach the generator through ``any``; it may
    # decline them, it may not fall over them.
    assert codegen.stats["errors"] == 0


def test_check_value_bounded_catches_overallocation():
    with pytest.raises(AssertionError):
        check_value_bounded(["x" * 64] * 8, b"\x00" * 8)


def test_check_value_bounded_descends_into_any():
    # An Any is not one leaf: the list it wraps is charged in full.
    from repro.orb.typecodes import sequence_tc, tc_string
    boxed = Any(sequence_tc(tc_string), ["x" * 64] * 8)
    with pytest.raises(AssertionError):
        check_value_bounded(boxed, b"\x00" * 8)
    with pytest.raises(AssertionError):
        check_value_bounded({"payload": boxed}, b"\x00" * 8)


def test_mutate_is_deterministic():
    import numpy as np
    frame = corpus()[0]
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(99)
        runs.append([mutate(frame, rng) for _ in range(50)])
    assert runs[0] == runs[1]


def test_report_ok_property():
    report = FuzzReport(seed=0)
    assert report.ok
    report.failures.append((0, b"", RuntimeError("x")))
    assert not report.ok


def test_check_bounded_catches_overallocation():
    # A reply claiming a body larger than its own frame must trip.
    msg = giop.ReplyMessage(request_id=1, status=giop.NO_EXCEPTION,
                            body=b"\x00" * 64)
    with pytest.raises(AssertionError):
        check_bounded(msg, b"\x00" * 8)


def test_check_bounded_catches_oversized_slot():
    msg = giop.RequestMessage(1, True, "h", "a", "k", "op", b"",
                              service_context=((1, b"\x00" * 64),))
    with pytest.raises(AssertionError, match="service-context"):
        check_bounded(msg, b"\x00" * 32)
