"""The shared-memory frame pool: slab allocation, generation-tagged
handles, refcounted release, crash-safe purge — and the by-handle wire
paths built on top of it (plans, boundary blocks, tile frames) decoding
bit-identically to their by-value encodings.
"""

import numpy as np
import pytest

from repro.mem import (
    DoubleRelease,
    FramePool,
    Handle,
    PoolError,
    PoolExhausted,
    PoolRegistry,
    StaleHandle,
    purge_pools,
)
from repro.mem.pool import POOL_PREFIX
from repro.mpeg2 import plan_codec
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.mpeg2.parser import PictureScanner
from repro.parallel.mb_splitter import MacroblockSplitter
from repro.wall.layout import TileLayout
from repro.workloads.synthetic import moving_pattern_frames
from tests.oracles import assert_same_plan, compile_plans_reference, object_parse_picture


@pytest.fixture
def pool(tmp_path):
    p = FramePool.create("t-unit", [(64, 2), (256, 2)], shm_dir=tmp_path)
    yield p
    p.destroy()


class TestFramePool:
    def test_alloc_write_view_release_round_trip(self, pool, tmp_path):
        lease = pool.alloc(48)
        lease.buf[:] = bytes(range(48))
        consumer = FramePool.open(pool.name, shm_dir=tmp_path)
        got = consumer.view(lease.handle)
        assert bytes(got) == bytes(range(48))
        del got
        consumer.release(lease.handle)
        assert pool.slabs_in_use() == 0
        consumer.close()

    def test_smallest_fitting_class_wins(self, pool):
        small = pool.alloc(10)
        assert pool._sizes[small.handle.slab] == 64

    def test_small_payloads_leave_the_big_class_alone(self, pool):
        """However the allocations interleave, a small payload takes a big
        slab only once every small one is leased (boundary blocks used to
        take whichever slab followed the last frame's)."""
        big = pool.alloc(200)
        small = [pool.alloc(10) for _ in range(2)]
        assert [pool._sizes[s.handle.slab] for s in small] == [64, 64]
        pool.alloc(200)  # both big slabs went to the payloads that need them
        pool.release(big.handle)
        spill = pool.alloc(10)  # the small class is full: degrade, not fail
        assert pool._sizes[spill.handle.slab] == 256
        assert pool.stats.exhausted == 0

    def test_exhaustion_raises_for_by_value_fallback(self, pool):
        leases = [pool.alloc(200) for _ in range(2)]
        # the two 64-byte slabs cannot fit 200 bytes
        with pytest.raises(PoolExhausted):
            pool.alloc(200)
        assert pool.stats.exhausted == 1
        for held in leases:
            pool.release(held.handle)
        pool.alloc(200)  # freed slabs are reusable

    def test_double_release_raises(self, pool):
        lease = pool.alloc(32)
        pool.release(lease.handle)
        with pytest.raises(DoubleRelease):
            pool.release(lease.handle)

    def test_generation_mismatch_raises_stale_handle(self, pool):
        first = pool.alloc(200)
        stale = first.handle
        pool.release(stale)
        # force reuse of the same slab (only two large slabs, rotate once)
        second = pool.alloc(200)
        third = pool.alloc(200)
        reused = second if second.handle.slab == stale.slab else third
        assert reused.handle.slab == stale.slab
        assert reused.handle.generation != stale.generation
        with pytest.raises(StaleHandle):
            pool.view(stale)
        with pytest.raises(StaleHandle):
            pool.release(stale)

    def test_multi_lease_refcount(self, pool):
        lease = pool.alloc(16, leases=3)
        for _ in range(3):
            pool.release(lease.handle)
        with pytest.raises(DoubleRelease):
            pool.release(lease.handle)
        assert pool.slabs_in_use() == 0

    def test_cancel_unwinds_unsent_lease(self, pool):
        lease = pool.alloc(16)
        pool.cancel(lease)
        assert pool.slabs_in_use() == 0

    def test_only_owner_allocates(self, pool, tmp_path):
        consumer = FramePool.open(pool.name, shm_dir=tmp_path)
        with pytest.raises(PoolError, match="owner"):
            consumer.alloc(8)
        consumer.close()

    def test_handle_pack_unpack(self):
        h = Handle(pool=f"{POOL_PREFIX}abc-dec0", slab=7, generation=3, nbytes=999)
        packed = h.pack()
        out, end = Handle.unpack(b"xx" + packed, offset=2)
        assert out == h and end == 2 + len(packed)

    def test_purge_reaps_by_token(self, tmp_path):
        a = FramePool.create("tok1-dec0", [(64, 1)], shm_dir=tmp_path)
        b = FramePool.create("tok1-split0", [(64, 1)], shm_dir=tmp_path)
        c = FramePool.create("tok2-dec0", [(64, 1)], shm_dir=tmp_path)
        a.close()  # owners crash without unlinking
        b.close()
        removed = purge_pools("tok1", tmp_path)
        assert sorted(removed) == [
            f"{POOL_PREFIX}tok1-dec0",
            f"{POOL_PREFIX}tok1-split0",
        ]
        assert list(tmp_path.glob(f"{POOL_PREFIX}tok1-*")) == []
        assert (tmp_path / f"{POOL_PREFIX}tok2-dec0").exists()
        c.destroy()

    def test_registry_dispatches_on_pool_name(self, tmp_path):
        a = FramePool.create("reg-a", [(64, 1)], shm_dir=tmp_path)
        b = FramePool.create("reg-b", [(64, 1)], shm_dir=tmp_path)
        la, lb = a.alloc(4), b.alloc(4)
        la.buf[:] = b"aaaa"
        lb.buf[:] = b"bbbb"
        with PoolRegistry(tmp_path) as reg:
            assert bytes(reg.view(la.handle)) == b"aaaa"
            assert bytes(reg.view(lb.handle)) == b"bbbb"
            reg.release(la.handle)
            reg.release(lb.handle)
        assert a.slabs_in_use() == b.slabs_in_use() == 0
        with PoolRegistry(tmp_path) as reg:
            with pytest.raises(PoolError, match="non-pool"):
                reg.view(Handle(pool="passwd", slab=0, generation=0, nbytes=1))
        a.destroy()
        b.destroy()

    def test_destroy_with_outstanding_view_still_unlinks(self, tmp_path):
        p = FramePool.create("pin", [(64, 1)], shm_dir=tmp_path)
        lease = p.alloc(8)  # the memoryview pins the mapping
        p.destroy()
        assert not (tmp_path / f"{POOL_PREFIX}pin").exists()
        del lease


@pytest.fixture(scope="module")
def compiled_plans():
    clip = moving_pattern_frames(128, 96, 6, seed=13)
    stream = Encoder(EncoderConfig(gop_size=3, b_frames=1, search_range=5)).encode(clip)
    sequence, pictures = PictureScanner(stream).scan()
    layout = TileLayout(sequence.width, sequence.height, 2, 2)
    splitter = MacroblockSplitter(sequence, layout)
    results = [splitter.split_plans(u, i) for i, u in enumerate(pictures)]
    return splitter, layout, results


class TestPlanByHandle:
    def test_pool_slab_plan_decodes_identically_to_by_value(
        self, compiled_plans, tmp_path
    ):
        """encode_plan_into a leased slab == encode_plan_bytes, and the
        consumer-side decode of the shared-memory view is bit-identical."""
        splitter, layout, results = compiled_plans
        slab = max(
            plan_codec.plan_nbytes(tp)
            for r in results
            for tp in r.plans.values()
        )
        pool = FramePool.create("plans", [(slab, 4)], shm_dir=tmp_path)
        consumer = PoolRegistry(tmp_path)
        for r in results:
            for tid in range(layout.n_tiles):
                tp = r.plans[tid]
                nb = plan_codec.plan_nbytes(tp)
                lease = pool.alloc(nb)
                written = plan_codec.encode_plan_into(tp, lease.buf)
                assert written == nb == len(plan_codec.encode_plan_bytes(tp))
                out, end = plan_codec.decode_plan(
                    consumer.view(lease.handle), splitter.matrices
                )
                assert end == nb
                ref, _ = plan_codec.decode_plan(
                    plan_codec.encode_plan_bytes(tp), splitter.matrices
                )
                for name, *_ in plan_codec._ARRAYS:
                    assert np.array_equal(
                        getattr(out.plan, name), getattr(ref.plan, name)
                    ), name
                assert (out.n_coded, out.n_skipped) == (tp.n_coded, tp.n_skipped)
                consumer.release(lease.handle)
        consumer.close()
        pool.destroy()

    def test_wire_size_is_exact_and_under_the_slab_bound(self, compiled_plans):
        """Slabs are sized by ``plan_wire_bound`` and leased by
        ``plan_nbytes``: the first must cover the second for every plan,
        and no slab class may be larger than the dense (v1) rows made it —
        256 coefficient bytes per block then, at most 64 * 3 + 1 now."""
        _, layout, results = compiled_plans
        for r in results:
            for tp in r.plans.values():
                p = tp.plan
                nb = plan_codec.plan_nbytes(tp)
                assert nb == len(plan_codec.encode_plan_bytes(tp))
                assert nb <= plan_codec.plan_wire_bound(p.n_macroblocks, p.n_blocks)
        v1_block, v1_mb, v1_head = 64 * 4 + 3 * 8, 8 + 8 + 1 + 2 + 32 + 8, 36
        for n in (1, 24, 8160):
            v1_bound = v1_head + 6 * n * v1_block + n * v1_mb
            assert plan_codec.plan_wire_bound(n, 6 * n) < v1_bound

    def test_vectorized_compiler_matches_scalar_reference(self, compiled_plans):
        """compile_plans (vectorized) is bit-identical to the macroblock-
        at-a-time reference: plans, counts, and MEI programs."""
        splitter, layout, results = compiled_plans
        clip = moving_pattern_frames(128, 96, 6, seed=13)
        stream = Encoder(
            EncoderConfig(gop_size=3, b_frames=1, search_range=5)
        ).encode(clip)
        _, pictures = PictureScanner(stream).scan()
        for i, unit in enumerate(pictures):
            parsed = object_parse_picture(splitter.parser, unit.data)
            ref = compile_plans_reference(splitter, parsed, i)
            vec = results[i]
            assert np.array_equal(ref.mei.exchanges, vec.mei.exchanges)
            for tid in range(layout.n_tiles):
                pa = ref.mei.program(tid)
                pb = vec.mei.program(tid)
                assert np.array_equal(pa.sends, pb.sends)
                assert np.array_equal(pa.recvs, pb.recvs)
                a, b = ref.plans[tid], vec.plans[tid]
                assert (a.n_coded, a.n_skipped) == (b.n_coded, b.n_skipped)
                assert_same_plan(a.plan, b.plan, where=(i, tid))

    def test_bad_motion_vector_raises_like_reference(self, compiled_plans):
        """A corrupt record fails with the same ValueError in both paths."""
        splitter, _, _ = compiled_plans
        clip = moving_pattern_frames(128, 96, 3, seed=13)
        stream = Encoder(EncoderConfig(gop_size=3, b_frames=1)).encode(clip)
        _, pictures = PictureScanner(stream).scan()
        # pictures[1] is a P picture in this GOP structure; corrupt one MV
        parsed = splitter.parser.parse_picture(pictures[1].data)
        c = parsed.columns
        victim = int(np.flatnonzero(~c.intra)[0])
        c.motion[victim, 0] = True
        c.mv[victim, 0] = (10_000, 0)
        with pytest.raises(ValueError, match="outside plane") as vec_err:
            splitter.compile_plans(parsed, 1)
        with pytest.raises(ValueError, match="outside plane") as ref_err:
            compile_plans_reference(splitter, parsed, 1)
        assert str(vec_err.value) == str(ref_err.value)
