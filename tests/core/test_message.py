"""Unit and property tests for x-kernel style messages."""

import pytest
from hypothesis import given, strategies as st

from repro.core import Msg


class TestMsgBasics:
    def test_empty_message(self):
        msg = Msg()
        assert len(msg) == 0
        assert msg.to_bytes() == b""
        assert bool(msg)  # an empty message is still a message

    def test_initial_payload(self):
        msg = Msg(b"payload")
        assert len(msg) == 7
        assert msg.to_bytes() == b"payload"

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            Msg("text")  # type: ignore[arg-type]

    def test_meta_is_copied(self):
        meta = {"k": 1}
        msg = Msg(b"", meta=meta)
        msg.meta["k"] = 2
        assert meta["k"] == 1


class TestPushPop:
    def test_push_prepends(self):
        msg = Msg(b"data")
        msg.push(b"HDR:")
        assert msg.to_bytes() == b"HDR:data"
        assert len(msg) == 8

    def test_pop_strips_header(self):
        msg = Msg(b"data")
        msg.push(b"HDR:")
        assert msg.pop(4) == b"HDR:"
        assert msg.to_bytes() == b"data"

    def test_nested_headers_pop_in_reverse_order(self):
        msg = Msg(b"payload")
        msg.push(b"UDP.")   # transport pushes first
        msg.push(b"IPv4")   # then network
        msg.push(b"ETH-")   # then link
        assert msg.pop(4) == b"ETH-"
        assert msg.pop(4) == b"IPv4"
        assert msg.pop(4) == b"UDP."
        assert msg.to_bytes() == b"payload"

    def test_pop_across_chunk_boundary(self):
        msg = Msg(b"cd")
        msg.push(b"ab")
        assert msg.pop(3) == b"abc"
        assert msg.to_bytes() == b"d"

    def test_partial_pop_then_push(self):
        msg = Msg(b"abcdef")
        msg.pop(2)
        msg.push(b"XY")
        assert msg.to_bytes() == b"XYcdef"

    def test_pop_too_much_raises(self):
        msg = Msg(b"abc")
        with pytest.raises(ValueError):
            msg.pop(4)
        assert msg.to_bytes() == b"abc"  # unchanged on failure

    def test_pop_negative_raises(self):
        with pytest.raises(ValueError):
            Msg(b"abc").pop(-1)

    def test_push_empty_is_noop(self):
        msg = Msg(b"abc")
        msg.push(b"")
        assert msg.to_bytes() == b"abc"


class TestPeek:
    def test_peek_does_not_consume(self):
        msg = Msg(b"abcdef")
        assert msg.peek(3) == b"abc"
        assert len(msg) == 6
        assert msg.to_bytes() == b"abcdef"

    def test_peek_at_offset(self):
        msg = Msg(b"abcdef")
        assert msg.peek(2, at=3) == b"de"

    def test_peek_spanning_chunks(self):
        msg = Msg(b"world")
        msg.push(b"hello ")
        assert msg.peek(8, at=3) == b"lo world"
        assert msg.peek(8, at=2) == b"llo worl"

    def test_peek_after_partial_pop(self):
        msg = Msg(b"abcdef")
        msg.pop(2)
        assert msg.peek(2) == b"cd"
        assert msg.peek(2, at=2) == b"ef"

    def test_peek_out_of_range_raises(self):
        msg = Msg(b"abc")
        with pytest.raises(ValueError):
            msg.peek(4)
        with pytest.raises(ValueError):
            msg.peek(1, at=3)
        with pytest.raises(ValueError):
            msg.peek(-1)


class TestSplitJoin:
    def test_split_takes_prefix(self):
        msg = Msg(b"abcdefgh")
        head = msg.split(3)
        assert head.to_bytes() == b"abc"
        assert msg.to_bytes() == b"defgh"

    def test_split_copies_meta(self):
        msg = Msg(b"abcd", meta={"src": "eth0"})
        head = msg.split(2)
        assert head.meta["src"] == "eth0"

    def test_fragment_reassemble_roundtrip(self):
        original = bytes(range(256)) * 4
        msg = Msg(original)
        fragments = []
        mtu = 100
        while len(msg) > mtu:
            fragments.append(msg.split(mtu))
        fragments.append(msg)
        assert Msg.join(fragments).to_bytes() == original

    def test_join_skips_empty_pieces(self):
        joined = Msg.join([Msg(b"a"), Msg(), Msg(b"b")])
        assert joined.to_bytes() == b"ab"


class TestCopyAndFootprint:
    def test_copy_is_independent(self):
        msg = Msg(b"abcdef")
        msg.push(b"H")
        dup = msg.copy()
        dup.pop(3)
        assert msg.to_bytes() == b"Habcdef"
        assert dup.to_bytes() == b"cdef"

    def test_footprint_counts_live_chunks(self):
        msg = Msg(b"abcdef")
        assert msg.footprint() == 6
        msg.pop(2)
        # the partially consumed chunk is still fully resident
        assert msg.footprint() == 6
        msg.push(b"XY")  # materializes the remainder, then adds 2
        assert msg.footprint() == 6

    def test_repr_truncates(self):
        assert "Msg(len=100" in repr(Msg(b"x" * 100))


# -- property-based tests ----------------------------------------------------

_chunks = st.lists(st.binary(min_size=0, max_size=32), min_size=0, max_size=8)


@given(_chunks)
def test_pushes_concatenate_in_reverse(chunks):
    msg = Msg()
    for chunk in chunks:
        msg.push(chunk)
    expected = b"".join(reversed(chunks))
    assert msg.to_bytes() == expected
    assert len(msg) == len(expected)


@given(st.binary(max_size=256), st.data())
def test_pop_sequence_reproduces_contents(payload, data):
    msg = Msg(payload)
    collected = b""
    while len(msg):
        take = data.draw(st.integers(min_value=1, max_value=len(msg)))
        collected += msg.pop(take)
    assert collected == payload


@given(st.binary(min_size=1, max_size=128), st.data())
def test_peek_matches_slice(payload, data):
    msg = Msg(payload[len(payload) // 2:])
    msg.push(payload[: len(payload) // 2])  # force a chunk boundary
    at = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
    n = data.draw(st.integers(min_value=0, max_value=len(payload) - at))
    assert msg.peek(n, at=at) == payload[at : at + n]


@given(st.binary(max_size=200), st.integers(min_value=1, max_value=50))
def test_split_join_identity(payload, mtu):
    msg = Msg(payload)
    pieces = []
    while len(msg) > mtu:
        pieces.append(msg.split(mtu))
    pieces.append(msg)
    assert Msg.join(pieces).to_bytes() == payload


_edits = st.lists(st.one_of(
    st.tuples(st.just("push"), st.binary(max_size=24)),
    st.tuples(st.just("pop"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("strip"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("join"), _chunks),
), max_size=12)


@given(st.binary(max_size=96), _edits, st.data())
def test_peek_matches_to_bytes_after_edits(payload, edits, data):
    """Whatever chunk layout a push/pop/strip/join history leaves — the
    first-chunk slice and the cross-chunk copy alike — ``peek`` returns
    the ``to_bytes()`` slice, and refuses exactly the windows outside
    the message."""
    msg = Msg(payload)
    for op, arg in edits:
        if op == "push":
            msg.push(arg)
        elif op == "join":
            msg = Msg.join([msg] + [Msg(chunk) for chunk in arg])
        else:
            getattr(msg, op)(min(arg, len(msg)))
    contents = msg.to_bytes()
    assert len(contents) == len(msg)
    at = data.draw(st.integers(min_value=0, max_value=len(msg) + 4))
    n = data.draw(st.integers(min_value=0, max_value=len(msg) + 4))
    if at + n <= len(msg):
        window = msg.peek(n, at=at)
        assert type(window) is bytes
        assert window == contents[at:at + n]
    else:
        with pytest.raises(ValueError):
            msg.peek(n, at=at)
