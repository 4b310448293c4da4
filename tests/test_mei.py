"""MEI programs as tables: dedup, duality, size accounting, the wire form."""

import random

import numpy as np
import pytest

from repro.mpeg2.motion import Rect
from repro.parallel.mei import (
    BWD,
    DEST,
    FWD,
    INSTRUCTION_BYTES,
    PEER,
    ROW_WIDTH,
    SRC,
    BlockXfer,
    MEIBatch,
    MEIProgram,
    payload_bytes,
)


def _xfer(x0=0, y0=0, w=17, h=17, direction=FWD):
    return BlockXfer(
        luma=Rect(x0, y0, x0 + w, y0 + h),
        chroma=Rect(x0 // 2, y0 // 2, x0 // 2 + w // 2, y0 // 2 + h // 2),
        direction=direction,
    )


def _row(xfer: BlockXfer, peer: int) -> list:
    l, c = xfer.luma, xfer.chroma
    return [l.x0, l.y0, l.x1, l.y1, c.x0, c.y0, c.x1, c.y1, xfer.direction, peer]


class TestBlockXfer:
    def test_payload_bytes(self):
        x = _xfer(w=16, h=16)
        assert x.payload_bytes == 16 * 16 + 2 * 8 * 8
        rows = np.array([_row(x, 1), _row(_xfer(w=17, h=3), 1)], np.int32)
        assert payload_bytes(rows).tolist() == [x.payload_bytes, _xfer(w=17, h=3).payload_bytes]

    def test_hashable_for_dedup(self):
        assert _xfer() == _xfer()
        assert len({_xfer(), _xfer()}) == 1


class TestMEIBatch:
    def test_send_recv_duality(self):
        batch = MEIBatch(0, 4)
        batch.add_exchange(0, 1, _xfer())
        batch.add_exchange(2, 3, _xfer(32, 0))
        batch.add_exchange(2, 1, _xfer(16, 0, direction=BWD))
        sends = sorted(
            (src, *r[:PEER], r[PEER])
            for src in range(4)
            for r in batch.program(src).sends.tolist()
        )
        recvs = sorted(
            (r[PEER], *r[:PEER], dst)
            for dst in range(4)
            for r in batch.program(dst).recvs.tolist()
        )
        assert sends == recvs and len(sends) == 3
        for t in range(4):
            p = batch.program(t)
            assert p.sends.dtype == p.recvs.dtype == np.int32
            assert p.sends.shape[1] == p.recvs.shape[1] == ROW_WIDTH
        assert batch.program(1).senders() == [0, 2]

    def test_duplicates_collapse(self):
        batch = MEIBatch(0, 2)
        batch.add_exchange(0, 1, _xfer())
        batch.add_exchange(0, 1, _xfer())
        assert batch.total_exchanges() == 1
        assert len(batch.program(0).sends) == 1

    def test_distinct_directions_kept(self):
        batch = MEIBatch(0, 2)
        batch.add_exchange(0, 1, _xfer(direction=FWD))
        batch.add_exchange(0, 1, _xfer(direction=BWD))
        assert batch.total_exchanges() == 2
        assert batch.program(1).recvs[:, 8].tolist() == [FWD, BWD]

    def test_self_exchange_rejected(self):
        with pytest.raises(ValueError):
            MEIBatch(0, 2).add_exchange(1, 1, _xfer())

    def test_instruction_byte_accounting(self):
        batch = MEIBatch(0, 2)
        batch.add_exchange(0, 1, _xfer())
        assert batch.program(0).instruction_bytes == INSTRUCTION_BYTES
        assert batch.program(1).instruction_bytes == INSTRUCTION_BYTES

    def test_payload_byte_sums(self):
        batch = MEIBatch(0, 3)
        batch.add_exchange(0, 1, _xfer())
        batch.add_exchange(2, 1, _xfer(48, 0))
        p1 = batch.program(1)
        assert p1.recv_payload_bytes == 2 * _xfer().payload_bytes
        assert p1.send_payload_bytes == 0
        assert batch.program(0).send_payload_bytes == _xfer().payload_bytes

    def test_programs_filter_the_exchange_table_in_order(self):
        """A bulk batch and one built exchange by exchange agree on every
        program, row for row; the rows keep the order they were added in."""
        one_by_one = MEIBatch(3, 3)
        adds = [(0, 1, _xfer(0, 0)), (2, 1, _xfer(32, 0)), (0, 2, _xfer(16, 16, direction=BWD)),
                (0, 1, _xfer(0, 0)), (1, 0, _xfer(8, 8))]
        for src, dest, x in adds:
            one_by_one.add_exchange(src, dest, x)
        table = one_by_one.exchanges
        assert table.shape == (4, DEST + 1) and table[:, SRC].tolist() == [0, 2, 0, 1]
        bulk = MEIBatch.from_exchanges(3, 3, table.copy())
        for t in range(3):
            a, b = one_by_one.program(t), bulk.program(t)
            assert np.array_equal(a.sends, b.sends) and np.array_equal(a.recvs, b.recvs)
        assert bulk.program(0).sends[:, PEER].tolist() == [1, 2]
        with pytest.raises(ValueError, match="final"):
            bulk.add_exchange(0, 1, _xfer(64, 0))  # a bulk table is final


# ---------------------------------------------------------------------- #
# the wire form: a struct head and the int32 table, nothing executed
# ---------------------------------------------------------------------- #


def _program() -> MEIProgram:
    batch = MEIBatch(7, 4)
    batch.add_exchange(1, 2, _xfer(0, 0))
    batch.add_exchange(1, 3, _xfer(16, 0, direction=BWD))
    batch.add_exchange(0, 1, _xfer(32, 16))
    batch.add_exchange(3, 1, _xfer(48, 16, w=9, h=16))
    return batch.program(1)


class TestProgramWire:
    def test_round_trip(self):
        p = _program()
        q = MEIProgram.from_bytes(p.to_bytes(), 4)
        assert (q.tile, q.picture_index) == (1, 7)
        assert np.array_equal(p.sends, q.sends) and np.array_equal(p.recvs, q.recvs)
        assert q.sends.dtype == q.recvs.dtype == np.int32
        empty = MEIProgram(0, 0)
        back = MEIProgram.from_bytes(empty.to_bytes(), 1)
        assert back.sends.shape == back.recvs.shape == (0, ROW_WIDTH)

    @pytest.mark.parametrize(
        "column, value, match",
        [
            (PEER, 4, "refused"),  # peer outside [0, n_tiles)
            (PEER, -1, "refused"),
            (PEER, 1, "itself"),  # the program's own tile
            (8, 2, "refused"),  # direction outside {FWD, BWD}
            (2, -5, "refused"),  # inverted luma rect
            (4, 9, "refused"),  # inverted chroma rect
            (0, -1, "refused"),  # negative corner
        ],
    )
    def test_refuses_rows_that_name_nothing_real(self, column, value, match):
        p = _program()
        p.sends = p.sends.copy()
        p.sends[0, column] = value
        with pytest.raises(ValueError, match=match):
            MEIProgram.from_bytes(p.to_bytes(), 4)

    def test_refuses_a_tile_outside_the_wall(self):
        with pytest.raises(ValueError, match="tile 1 of 1"):
            MEIProgram.from_bytes(MEIProgram(1, 0).to_bytes(), 1)

    def test_every_truncation_is_refused(self):
        data = _program().to_bytes()
        for n in range(len(data)):
            with pytest.raises(ValueError):
                MEIProgram.from_bytes(data[:n], 4)
        with pytest.raises(ValueError):
            MEIProgram.from_bytes(data + b"\0", 4)

    def test_every_mutation_parses_or_raises(self):
        """A byte flipped anywhere gives a program that passes every check
        or a ``ValueError``: never another exception, never a program that
        names a peer, a direction or a rect the checks refuse."""
        data = bytearray(_program().to_bytes())
        rng = random.Random(5)
        for _ in range(3000):
            damaged = bytearray(data)
            for _ in range(rng.choice((1, 1, 2, 3))):
                damaged[rng.randrange(len(damaged))] = rng.randrange(256)
            try:
                p = MEIProgram.from_bytes(bytes(damaged), 4)
            except ValueError:
                continue
            rows = np.concatenate((p.sends, p.recvs))
            assert 0 <= p.tile < 4
            assert ((rows[:, PEER] >= 0) & (rows[:, PEER] < 4) & (rows[:, PEER] != p.tile)).all()
            assert np.isin(rows[:, 8], (FWD, BWD)).all()
            assert (rows[:, :8] >= 0).all()
            assert (rows[:, [2, 3, 6, 7]] >= rows[:, [0, 1, 4, 5]]).all()
