"""repro.cache.backends: the pluggable index-mapping seam.

Pins the contracts the LLC integration relies on:

* the keyed permutation primitive is a true permutation over the set
  space for any keys / tag (hypothesis);
* scalar ``flat_of`` and vectorised ``flats_of_many`` agree bit-for-bit
  for every backend (the memoized and batched paths interchange);
* the modulo backend reproduces the pre-backend inline formula exactly;
* epoch re-keying accounts every resident line (remapped + dropped ==
  resident before), bumps the epoch, and reseeds the memo;
* batched ``access_many`` / ``io_write_many`` stay equivalent to scalar
  loops under keyed and skewed backends (including batches a re-key
  lands inside);
* under a skewed backend a line only ever occupies its partition's ways;
* spec parsing and the CLI surface (``backends list`` / ``--backend``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.backends import (
    KeyedMapping,
    ModuloMapping,
    SkewedMapping,
    backend_infos,
    backend_names,
    make_mapping,
    parse_backend_spec,
)
from repro.cache.backends.base import keyed_permute_many
from repro.cache.cacheset import LINE_DIRTY, LINE_IO
from repro.cache.llc import SlicedLLC
from repro.cache.slicehash import IntelComplexHash
from repro.core.config import CacheGeometry
from repro.cli import main

GEOMETRY = CacheGeometry(n_slices=2, sets_per_slice=32, ways=6)

ALL_SPECS = ["modulo", "keyed:epoch=0", "keyed:epoch=64", "skewed", "skewed:partitions=3"]

u64 = st.integers(0, (1 << 64) - 1)


def _mapping(spec: str, seed: int = 7):
    return make_mapping(spec, GEOMETRY, IntelComplexHash(GEOMETRY.n_slices), seed=seed)


def _llc(spec: str, seed: int = 7) -> SlicedLLC:
    return SlicedLLC(geometry=GEOMETRY, backend=spec, seed=seed)


def _paddrs(rng: np.random.Generator, n: int) -> np.ndarray:
    # Line-aligned addresses over a few MB, duplicates allowed.
    return (rng.integers(0, 1 << 16, size=n) << GEOMETRY.offset_bits).astype(
        np.int64
    )


class TestPermutationPrimitive:
    @given(
        keys=st.lists(st.tuples(u64, u64), min_size=1, max_size=4),
        set_bits=st.integers(2, 10),
        tag=u64,
    )
    @settings(max_examples=60)
    def test_keyed_permute_is_a_permutation(self, keys, set_bits, tag):
        base = np.arange(1 << set_bits, dtype=np.uint64)
        tags = np.full(len(base), tag, dtype=np.uint64)
        out = keyed_permute_many(base, tags, tuple(keys), set_bits)
        assert sorted(out.tolist()) == list(range(1 << set_bits))

    @given(tag_a=u64, tag_b=u64)
    @settings(max_examples=30)
    def test_distinct_tags_usually_permute_differently(self, tag_a, tag_b):
        # Not a strict requirement per-pair, but the tweak must feed
        # through: identical tags must give identical permutations.
        mapping = _mapping("keyed:epoch=0")
        base = np.arange(GEOMETRY.total_sets, dtype=np.uint64)
        same_a = keyed_permute_many(
            base,
            np.full(len(base), tag_a, dtype=np.uint64),
            mapping._round_keys,
            mapping.flat_bits,
        )
        again_a = keyed_permute_many(
            base,
            np.full(len(base), tag_a, dtype=np.uint64),
            mapping._round_keys,
            mapping.flat_bits,
        )
        assert (same_a == again_a).all()


class TestMappingContracts:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_scalar_matches_vector(self, spec):
        mapping = _mapping(spec)
        rng = np.random.default_rng(11)
        paddrs = _paddrs(rng, 200)
        lines = paddrs >> GEOMETRY.offset_bits
        vec = mapping.flats_of_many(paddrs, lines)
        for i in range(len(paddrs)):
            assert mapping.flat_of(int(paddrs[i]), int(lines[i])) == int(vec[i])

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_flats_in_range_and_line_stable(self, spec):
        mapping = _mapping(spec)
        rng = np.random.default_rng(13)
        paddrs = _paddrs(rng, 500)
        lines = paddrs >> GEOMETRY.offset_bits
        flats = mapping.flats_of_many(paddrs, lines)
        assert flats.dtype == np.int64
        assert (flats >= 0).all() and (flats < GEOMETRY.total_sets).all()
        # Same line -> same flat (the memo identity every path assumes).
        by_line = {}
        for line, flat in zip(lines.tolist(), flats.tolist()):
            assert by_line.setdefault(line, flat) == flat

    def test_modulo_matches_legacy_inline_formula(self):
        slice_hash = IntelComplexHash(GEOMETRY.n_slices)
        mapping = ModuloMapping(GEOMETRY, slice_hash)
        rng = np.random.default_rng(17)
        for paddr in _paddrs(rng, 300).tolist():
            line = paddr >> GEOMETRY.offset_bits
            legacy = (
                slice_hash.slice_of(paddr) * GEOMETRY.sets_per_slice
                + (line & (GEOMETRY.sets_per_slice - 1))
            )
            assert mapping.flat_of(paddr, line) == legacy

    def test_keyed_scatters_page_stride_candidates(self):
        # The property that defeats eviction-set construction: addresses
        # sharing set-index bits (page-stride candidates) must not share
        # a flat set under the keyed mapping the way they do under modulo.
        modulo = _llc("modulo")
        keyed = _llc("keyed:epoch=0")
        stride = GEOMETRY.sets_per_slice << GEOMETRY.offset_bits
        paddrs = np.arange(64, dtype=np.int64) * stride
        m_flats = {modulo.flat_set_of(int(p)) for p in paddrs}
        k_flats = {keyed.flat_set_of(int(p)) for p in paddrs}
        assert len(m_flats) <= GEOMETRY.n_slices  # all share one set index
        assert len(k_flats) > len(m_flats)  # scattered over many sets

    def test_seed_changes_keyed_mapping(self):
        a = _mapping("keyed:epoch=0", seed=1)
        b = _mapping("keyed:epoch=0", seed=2)
        rng = np.random.default_rng(19)
        paddrs = _paddrs(rng, 128)
        lines = paddrs >> GEOMETRY.offset_bits
        assert (a.flats_of_many(paddrs, lines) != b.flats_of_many(paddrs, lines)).any()


class TestEpochRekeying:
    def test_rekey_accounts_every_resident_line(self):
        llc = _llc("keyed:epoch=64")
        rng = np.random.default_rng(23)
        for paddr in _paddrs(rng, 60).tolist():
            llc.cpu_access(paddr, write=bool(paddr & 64))
        resident = int((llc.engine.tags != -1).sum())
        assert resident > 0
        epoch_before = llc.mapping_epoch
        llc._rekey(now=0)
        snap = llc.mapping.stats.snapshot()
        assert snap["epochs"] == 1
        assert snap["lines_remapped"] + snap["lines_dropped"] == resident
        assert llc.mapping_epoch == epoch_before + 1
        assert int((llc.engine.tags != -1).sum()) == snap["lines_remapped"]
        # The memo was reseeded under the new keys: every resident line's
        # memoized flat matches where the engine actually holds it.
        for idx in np.flatnonzero(llc.engine.tags != -1).tolist():
            line = int(llc.engine.tags[idx])
            flat = idx // llc.engine.ways
            assert llc._flat_memo[line] == flat
            assert llc.mapping.flat_of(line << GEOMETRY.offset_bits, line) == flat

    def test_rekey_fires_on_schedule(self):
        period = 32
        llc = _llc(f"keyed:epoch={period}")
        paddr = 0
        for i in range(period):
            llc.cpu_access(paddr + (i << GEOMETRY.offset_bits))
        assert llc.mapping_epoch == 0
        assert llc.accesses_until_rekey() == 0
        llc.cpu_access(paddr)  # access period+1 triggers the re-key first
        assert llc.mapping_epoch == 1

    def test_epoch_zero_is_static(self):
        llc = _llc("keyed:epoch=0")
        for i in range(200):
            llc.cpu_access(i << GEOMETRY.offset_bits)
        assert llc.mapping_epoch == 0
        assert llc.mapping.stats.epochs == 0


def _random_ops(seed: int, n: int):
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n):
        kind = int(rng.integers(0, 3))
        paddr = int(rng.integers(0, 600)) << GEOMETRY.offset_bits
        ops.append((kind, paddr))
    return ops


def _apply_scalar(llc: SlicedLLC, ops):
    for kind, paddr in ops:
        if kind == 2:
            llc.io_write(paddr)
        else:
            llc.cpu_access(paddr, write=kind == 1)


def _apply_batched(llc: SlicedLLC, ops, chunk: int = 37):
    # Same op stream, but contiguous same-kind runs go through the
    # batched entry points in fixed-size chunks.
    i = 0
    while i < len(ops):
        kind = ops[i][0]
        j = i
        while j < len(ops) and ops[j][0] == kind and j - i < chunk:
            j += 1
        paddrs = np.asarray([p for _k, p in ops[i:j]], dtype=np.int64)
        if kind == 2:
            llc.io_write_many(paddrs)
        else:
            llc.access_many(paddrs, write=kind == 1)
        i = j


def _state(llc: SlicedLLC):
    return [
        llc.engine.lines_in_lru_order(flat) for flat in range(GEOMETRY.total_sets)
    ]


class TestBatchedScalarEquivalence:
    @pytest.mark.parametrize(
        "spec", ["keyed:epoch=0", "keyed:epoch=100", "skewed", "skewed:partitions=3"]
    )
    def test_batched_equals_scalar(self, spec):
        ops = _random_ops(29, 900)
        a, b = _llc(spec), _llc(spec)
        _apply_scalar(a, ops)
        _apply_batched(b, ops)
        assert _state(a) == _state(b)
        assert a.stats.snapshot() == b.stats.snapshot()
        assert a.mapping_epoch == b.mapping_epoch
        assert a.mapping.stats.snapshot() == b.mapping.stats.snapshot()

    def test_rekey_lands_mid_batch_identically(self):
        # A batch longer than the remaining epoch budget must replay
        # scalar so the re-key fires at the exact access it would in a
        # loop — pin it by crossing the boundary inside one batch.
        spec = "keyed:epoch=50"
        ops = [(0, (i % 120) << GEOMETRY.offset_bits) for i in range(400)]
        a, b = _llc(spec), _llc(spec)
        _apply_scalar(a, ops)
        _apply_batched(b, ops, chunk=400)
        assert a.mapping_epoch == b.mapping_epoch > 0
        assert _state(a) == _state(b)


class _EpochalSkewed(SkewedMapping):
    """A skewed mapping that also re-keys — exercises the way-restricted
    branch of the re-key (no shipped backend is both)."""

    epoch_period = 10**9

    def advance_epoch(self) -> None:
        fresh = SkewedMapping(
            self.geometry, self.slice_hash, self.seed + 1, self.n_partitions
        )
        self.seed = fresh.seed
        self._select_key = fresh._select_key
        self._round_keys = fresh._round_keys


def _reference_rekey(llc: SlicedLLC) -> None:
    """The per-line reinsert loop ``SlicedLLC._rekey`` replaced, kept as
    the reference: every resident line reinserted one ``insert`` (or
    ``insert_in``) at a time, in global LRU-to-MRU order."""
    engine = llc.engine
    occ = np.flatnonzero(engine.tags != -1)
    lines = engine.tags[occ]
    flags = engine.flags[occ]
    order = np.argsort(engine.stamps[occ], kind="stable")
    llc.mapping.advance_epoch()
    llc.mapping_epoch += 1
    llc._flat_memo.clear()
    engine.tags.fill(-1)
    engine.flags.fill(0)
    engine.stamps.fill(0)
    engine._size = [0] * engine.n_sets
    engine._n_io = [0] * engine.n_sets
    engine._dir.clear()
    stats = llc.mapping.stats
    stats.epochs += 1
    new_flats = llc.mapping.flats_of_many(lines << GEOMETRY.offset_bits, lines)
    llc._flat_memo.update(zip(lines.tolist(), new_flats.tolist()))
    dropped = 0
    for i in order.tolist():
        line, line_flags, flat = int(lines[i]), int(flags[i]), int(new_flats[i])
        if llc._skewed:
            evicted = engine.insert_in(flat, line, line_flags, *llc._way_range(line))
        else:
            evicted = engine.insert(flat, line, line_flags)
        if evicted is not None:
            dropped += 1
            llc.stats.invalidations += 1
            if llc.evict_hook is not None:
                llc.evict_hook(evicted[0])
            if evicted[1] & LINE_DIRTY:
                llc.stats.writebacks += 1
                llc.traffic.writes += 1
    stats.lines_remapped += len(occ) - dropped
    stats.lines_dropped += dropped


def _rekey_llc(kind: str) -> SlicedLLC:
    if kind == "keyed":
        return _llc("keyed:epoch=1000000000")
    mapping = _EpochalSkewed(GEOMETRY, IntelComplexHash(GEOMETRY.n_slices), 7, 3)
    return SlicedLLC(geometry=GEOMETRY, backend=mapping, seed=7)


class TestVectorisedRekey:
    @pytest.mark.parametrize("kind", ["keyed", "skewed"])
    @pytest.mark.parametrize("n_ops,seed", [(0, 1), (40, 2), (300, 3), (2500, 4), (6000, 5)])
    def test_matches_per_line_reinsert(self, kind, n_ops, seed):
        ops = _random_ops(seed, n_ops)
        fast, ref = _rekey_llc(kind), _rekey_llc(kind)
        hooks = {}
        for name, llc in (("fast", fast), ("ref", ref)):
            _apply_scalar(llc, ops)
            log = hooks[name] = []
            llc.evict_hook = log.append
        resident = int((fast.engine.tags != -1).sum())
        # Several rounds: later re-keys start from a re-keyed layout.
        for _ in range(3):
            fast._rekey(now=0)
            _reference_rekey(ref)
            a, b = fast.engine, ref.engine
            assert a.tags.tobytes() == b.tags.tobytes()
            assert a.flags.tobytes() == b.flags.tobytes()
            assert a.stamps.tobytes() == b.stamps.tobytes()
            assert a._tick == b._tick
            assert a._dir == b._dir
            assert a._size == b._size
            assert a._n_io == b._n_io
            assert fast._flat_memo == ref._flat_memo
            assert fast.stats.snapshot() == ref.stats.snapshot()
            assert fast.traffic.writes == ref.traffic.writes
            assert fast.mapping.stats.snapshot() == ref.mapping.stats.snapshot()
            assert hooks["fast"] == hooks["ref"]
            _apply_scalar(fast, ops[: n_ops // 4])
            _apply_scalar(ref, ops[: n_ops // 4])
        if n_ops >= 2500:
            # Near-full occupancy: dirty, I/O and dropped lines all occur.
            assert resident > 0.75 * GEOMETRY.total_sets * GEOMETRY.ways
            assert fast.mapping.stats.lines_dropped > 0
            assert hooks["fast"]
            assert fast.stats.writebacks > 0
            assert (fast.engine.flags & LINE_IO).any()


class TestSkewedPartitions:
    def test_lines_stay_in_their_partition_ways(self):
        llc = _llc("skewed:partitions=3")
        part_ways = GEOMETRY.ways // 3
        _apply_scalar(llc, _random_ops(31, 1500))
        occupied = np.flatnonzero(llc.engine.tags != -1)
        assert len(occupied)
        for idx in occupied.tolist():
            line = int(llc.engine.tags[idx])
            way = idx % GEOMETRY.ways
            p = llc.mapping.partition_of(line)
            assert p * part_ways <= way < (p + 1) * part_ways

    def test_partition_of_matches_vectorised_selector(self):
        mapping = _mapping("skewed:partitions=3")
        lines = np.arange(512, dtype=np.int64)
        parts = mapping.partitions_of_many(lines)
        for line, p in zip(lines.tolist(), parts.tolist()):
            assert mapping.partition_of(line) == p

    def test_partitions_must_divide_ways(self):
        with pytest.raises(ValueError):
            _mapping("skewed:partitions=5")


class TestSpecParsing:
    def test_known_names(self):
        assert backend_names() == ["modulo", "keyed", "skewed"]
        assert [info.name for info in backend_infos()] == backend_names()

    def test_spec_roundtrip(self):
        assert parse_backend_spec("keyed:epoch=5000") == ("keyed", {"epoch": 5000})
        assert parse_backend_spec("modulo") == ("modulo", {})

    @pytest.mark.parametrize(
        "spec", ["bogus", "keyed:interval=3", "keyed:epoch=abc", "modulo:x=1"]
    )
    def test_bad_specs_raise_value_error(self, spec):
        with pytest.raises(ValueError):
            parse_backend_spec(spec)

    def test_backend_instances(self):
        assert isinstance(_mapping("modulo"), ModuloMapping)
        assert isinstance(_mapping("keyed"), KeyedMapping)
        assert isinstance(_mapping("skewed"), SkewedMapping)


class TestCliSurface:
    def test_backends_list_exits_zero(self, capsys):
        assert main(["backends", "list"]) == 0
        out = capsys.readouterr().out
        for name in backend_names():
            assert name in out

    def test_backends_without_list_is_usage_error(self, capsys):
        assert main(["backends"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_backend_flag_is_usage_error(self, capsys):
        assert main(["fig5", "--backend", "bogus"]) == 2
        assert "unknown cache backend" in capsys.readouterr().err

    def test_bad_backend_param_is_usage_error(self, capsys):
        assert main(["fig5", "--backend", "keyed:nope=1"]) == 2
        assert "bad backend parameter" in capsys.readouterr().err

    def test_run_alias_requires_target(self, capsys):
        assert main(["run"]) == 2
        assert "usage" in capsys.readouterr().err
