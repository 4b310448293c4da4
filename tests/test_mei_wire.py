"""MEI programs and pixel blocks on the cluster wire: no pickle, every
damaged payload refused with a ``ValueError`` or read as a record the
checks accept, nothing executed."""

import ast
import inspect
import pickle
import random

import numpy as np
import pytest

from repro.cluster.runtime import messages
from repro.cluster.runtime.messages import (
    decode_block,
    decode_block_hmsg,
    decode_plan_hmsg,
    decode_plan_msg,
    decode_subpicture,
    encode_block,
    encode_block_hmsg,
    encode_plan_hmsg,
    encode_plan_msg,
    encode_subpicture,
)
from repro.mem import Handle
from repro.mpeg2.constants import PictureType
from repro.mpeg2.frames import Frame
from repro.mpeg2.parser import PictureScanner
from repro.mpeg2.structures import SequenceHeader
from repro.parallel.mb_splitter import MacroblockSplitter
from repro.parallel.mei import BWD, FWD, PEER, MEIProgram, PixelBlock
from repro.parallel.pdecoder import TileDecoder
from repro.wall.layout import TileLayout

N_TILES = 4


def _joined(buffers) -> bytes:
    return b"".join(bytes(b) for b in buffers) if isinstance(buffers, list) else buffers


@pytest.fixture(scope="module")
def split(small_stream):
    """A P picture's plans and programs on a 2x2 wall."""
    sequence, pictures = PictureScanner(small_stream).scan()
    layout = TileLayout(sequence.width, sequence.height, 2, 2)
    splitter = MacroblockSplitter(sequence, layout)
    results = [splitter.split_plans(u, i) for i, u in enumerate(pictures)]
    result = max(results, key=lambda r: r.mei.total_exchanges())
    assert result.mei.total_exchanges() > 0
    return splitter, result


def _checked(program: MEIProgram) -> None:
    rows = np.concatenate((program.sends, program.recvs))
    assert 0 <= program.tile < N_TILES
    assert ((rows[:, PEER] >= 0) & (rows[:, PEER] < N_TILES)).all()
    assert (rows[:, PEER] != program.tile).all()
    assert np.isin(rows[:, 8], (FWD, BWD)).all()
    assert (rows[:, :8] >= 0).all()
    assert (rows[:, [2, 3, 6, 7]] >= rows[:, [0, 1, 4, 5]]).all()


def _damage(payload: bytes, start: int, rng: random.Random, n: int):
    """Every truncation, then ``n`` payloads with one to three bytes at or
    past ``start`` overwritten."""
    for cut in range(len(payload)):
        yield payload[:cut]
    for _ in range(n):
        damaged = bytearray(payload)
        for _ in range(rng.choice((1, 1, 2, 3))):
            damaged[rng.randrange(start, len(damaged))] = rng.randrange(256)
        yield bytes(damaged)


class TestProgramMessages:
    def test_round_trips(self, split):
        splitter, result = split
        for tid in range(N_TILES):
            program, tp = result.mei.program(tid), result.plans[tid]
            stamps = (1.5, 2.5)
            wire = _joined(encode_subpicture(3, b"sub-picture", program, stamps))
            anid, sp, got, st = decode_subpicture(wire, N_TILES)
            assert (anid, bytes(sp), st) == (3, b"sub-picture", stamps)
            handle = Handle(pool="p", slab=1, generation=2, nbytes=3)
            anid, h, got_h, st = decode_plan_hmsg(
                encode_plan_hmsg(2, handle, program, stamps), N_TILES
            )
            assert (anid, h, st) == (2, handle, stamps)
            anid, _, got_p, _ = decode_plan_msg(
                _joined(encode_plan_msg(1, tp, program, stamps)), splitter.matrices, N_TILES
            )
            for other in (got, got_h, got_p):
                assert (other.tile, other.picture_index) == (tid, result.picture_index)
                assert np.array_equal(other.sends, program.sends)
                assert np.array_equal(other.recvs, program.recvs)

    @pytest.mark.parametrize("kind", ["subpicture", "plan", "plan_h"])
    def test_every_truncation_and_mutation_is_refused_or_a_checked_program(self, split, kind):
        splitter, result = split
        program = max(
            (result.mei.program(t) for t in range(N_TILES)),
            key=lambda p: len(p.sends) + len(p.recvs),
        )
        if kind == "subpicture":
            wire = _joined(encode_subpicture(1, b"sp" * 20, program))

            def decode(data):
                return decode_subpicture(data, N_TILES)[2]
        elif kind == "plan":
            wire = _joined(encode_plan_msg(1, result.plans[program.tile], program))

            def decode(data):
                return decode_plan_msg(data, splitter.matrices, N_TILES)[2]
        else:
            wire = encode_plan_hmsg(1, Handle("p", 1, 2, 3), program)

            def decode(data):
                return decode_plan_hmsg(data, N_TILES)[2]
        tail = len(wire) - len(program.to_bytes())
        outcomes = {"refused": 0, "program": 0}
        for damaged in _damage(wire, tail, random.Random(11), 2000):
            try:
                got = decode(damaged)
            except ValueError:
                outcomes["refused"] += 1
                continue
            _checked(got)
            outcomes["program"] += 1
        assert outcomes["refused"] > len(wire) and outcomes["program"] > 50

    def test_what_is_not_a_program_is_refused_not_run(self, tmp_path):
        class Touch:
            def __reduce__(self):
                return (open, (str(tmp_path / "ran"), "w"))

        for payload in (pickle.dumps(Touch()), pickle.dumps(MEIProgram(0, 0)), b""):
            with pytest.raises(ValueError):
                MEIProgram.from_bytes(payload, N_TILES)
            head = encode_plan_hmsg(0, Handle("p", 1, 2, 3), MEIProgram(0, 0))
            with pytest.raises(ValueError):
                decode_plan_hmsg(head[: -len(MEIProgram(0, 0).to_bytes())] + payload, N_TILES)
        assert not (tmp_path / "ran").exists()

    def test_the_message_module_does_not_pickle(self):
        tree = ast.parse(inspect.getsource(messages))
        names = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        } | {
            node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        }
        assert "pickle" not in names
        assert "pickle" not in {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        }


class TestBlockMessages:
    @pytest.fixture
    def decoders(self):
        sequence = SequenceHeader(96, 64)
        layout = TileLayout(96, 64, 2, 2)
        rng = np.random.default_rng(1)
        made = {}
        for t in layout:
            dec = TileDecoder(t, layout, sequence)
            frames = [Frame.blank(96, 64), Frame.blank(96, 64)]
            for f in frames:
                for plane in (f.y, f.cb, f.cr):
                    plane[...] = rng.integers(0, 256, plane.shape)
            dec.chain.prev_anchor, dec.chain.held = frames
            made[t.tid] = dec
        return made

    def _block(self, decoders) -> PixelBlock:
        rows = [
            [40, 8, 48, 24, 20, 4, 24, 12, FWD, 1],
            [60, 40, 77, 57, 30, 20, 39, 29, BWD, 1],
            [50, 0, 56, 2, 0, 0, 0, 0, FWD, 1],
        ]
        program = MEIProgram(0, 5, sends=np.array(rows, np.int32))
        (block,) = decoders[0].execute_sends(program, PictureType.B)
        return block

    def test_round_trip_by_value_and_by_handle(self, decoders):
        block = self._block(decoders)
        got = decode_block(_joined(encode_block(block)))
        handle = Handle("p", 3, 4, block.nbytes)
        slab = memoryview(block.pixels.tobytes())
        got_h, h = decode_block_hmsg(encode_block_hmsg(block, handle), lambda _: slab)
        assert h == handle
        for other in (got, got_h):
            assert (other.src, other.dest) == (0, 1)
            assert np.array_equal(other.rows, block.rows) and other.rows.dtype == np.int32
            assert np.array_equal(other.pixels, block.pixels)
        decoders[1].apply_recv(got, PictureType.B)

    def test_every_truncation_and_mutation_is_refused_or_applies(self, decoders):
        """Whatever the bytes say, the decoder and then the receiving tile
        either refuse them with a ``ValueError`` or write samples inside
        its planes — and a block they refuse leaves the planes as they
        were."""
        wire = _joined(encode_block(self._block(decoders)))
        dest = decoders[1]
        refs = (dest.chain.prev_anchor, dest.chain.held)
        outcomes = {"refused": 0, "applied": 0}
        for damaged in _damage(wire, 0, random.Random(12), 3000):
            before = [p.copy() for f in refs for p in (f.y, f.cb, f.cr)]
            try:
                block = decode_block(damaged)
                if block.dest != 1:
                    outcomes["refused"] += 1
                    continue
                dest.apply_recv(block, PictureType.B)
            except ValueError:
                after = [p for f in refs for p in (f.y, f.cb, f.cr)]
                assert all(np.array_equal(a, b) for a, b in zip(before, after))
                outcomes["refused"] += 1
                continue
            outcomes["applied"] += 1
        assert outcomes["refused"] > len(wire) and outcomes["applied"] > 50
