"""The dual-representation index structure (Sections 3, 4.2, 4.3).

For every slope ``s_i`` in the predefined set ``S``, two B+-trees index
the relation: ``B^up_i`` keyed by ``TOP^P(s_i)`` and ``B^down_i`` keyed by
``BOT^P(s_i)``. Tuple records live in a heap file; tree entries point at
record RIDs. Every leaf carries four handicap aggregates::

    aux[0] = low_prev,  aux[1] = low_next    (min of tree keys of tuples
             assigned to the leaf by their strip TOP-maximum — used by
             EXIST(q(>=)) in B^up and ALL(q(>=)) in B^down)
    aux[2] = high_prev, aux[3] = high_next   (max of tree keys of tuples
             assigned by their strip BOT-minimum — used by ALL(q(<=)) in
             B^up and EXIST(q(<=)) in B^down)

Assignment keys are intercept-axis values, so one pair of *handicap
directories* per (slope, side) — B+-trees keyed by assignment key —
serves both the up and the down tree during dynamic maintenance.
Statically built indexes compute all aggregates in one merge pass and
need no directories.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.btree.tree import BPlusTree
from repro.constraints.relation import GeneralizedRelation
from repro.constraints.tuples import GeneralizedTuple
from repro.errors import IndexError_, QueryError
from repro.geometry import dual
from repro.geometry.polyhedron import warm_batch
from repro.geometry.vectorized import DualSurface
from repro.obs import trace as obs
from repro.storage.heap import HeapFile
from repro.storage.pager import Pager
from repro.storage.serialize import KeyCodec, decode_tuple, encode_tuple
from repro.storage.summary import SummaryFile
from repro.core.settle import summary_rows, summary_width
from repro.core.slope_set import SlopeSet

#: Leaf aux slot layout.
AUX_LOW_PREV = 0
AUX_LOW_NEXT = 1
AUX_HIGH_PREV = 2
AUX_HIGH_NEXT = 3
AUX_SLOTS = 4

#: Sentinels meaning "no tuple assigned to this leaf/strip".
NO_LOW = math.inf
NO_HIGH = -math.inf

_SIDES = ("prev", "next")


@dataclass
class EntryKeys:
    """All index keys derived from one tuple's geometry.

    ``top``/``bot`` are the tree keys per slope; ``assign_top``/
    ``assign_bot`` are the strip assignment keys per (slope, side) —
    ``None`` when the slope has no neighbour on that side.
    """

    top: list[float]
    bot: list[float]
    assign_top: list[dict[str, float | None]]
    assign_bot: list[dict[str, float | None]]


def needed_slopes(slopes: SlopeSet) -> list[float]:
    """Every slope the key derivation probes: the k tree slopes followed
    by each distinct strip midpoint toward a neighbour (k-1 of them)."""
    out: list[float] = list(slopes)
    seen = set(out)
    for i in range(len(slopes)):
        for side in _SIDES:
            strip = slopes.strip(i, side)
            if strip is not None and strip[1] not in seen:
                seen.add(strip[1])
                out.append(strip[1])
    return out


def compute_keys_batch(
    items: Iterable[tuple[int, GeneralizedTuple]],
    slopes: SlopeSet,
) -> tuple[dict[int, EntryKeys | None], np.ndarray]:
    """:class:`EntryKeys` and dual summaries for many tuples, one
    vectorized pass per slope.

    Each tuple's ``TOP``/``BOT`` is a max/min of one dual line per
    vertex, so :class:`~repro.geometry.vectorized.DualSurface` evaluates
    the whole relation at each of the 2k-1 probe slopes (k tree slopes
    plus k-1 strip midpoints) in one numpy pass. Returns ``tid ->
    EntryKeys`` with ``None`` marking unsatisfiable tuples (the build
    skips those), and the :func:`~repro.core.settle.summary_rows` of
    the satisfiable tuples in ``items`` order. Values are bit-identical
    to :meth:`DualIndex.compute_keys` per tuple: the surface mirrors the
    scalar support arithmetic, and the assignment keys are the same
    ``max``/``min`` of the same endpoint values.
    """
    result: dict[int, EntryKeys | None] = {}
    items = list(items)
    # One batched pass settles every tuple's emptiness (and warms the
    # vertices and boundedness the surface reads next).
    warm_batch([t.extension() for _tid, t in items])
    sat: list[tuple[int, GeneralizedTuple]] = []
    for tid, t in items:
        if t.extension().is_empty:
            result[tid] = None
        else:
            sat.append((tid, t))
    if not sat:
        return result, np.empty((0, summary_width(len(slopes))))
    surface = DualSurface.from_items(sat)
    keys, summaries = surface_keys(surface, slopes)
    for (tid, _t), entry in zip(sat, keys):
        result[tid] = entry
    return result, summaries


def surface_keys(
    surface: DualSurface, slopes: SlopeSet
) -> tuple[list[EntryKeys], np.ndarray]:
    """:class:`EntryKeys` and summary rows of every tuple of a surface of
    satisfiable tuples, in row order."""
    probe = needed_slopes(slopes)
    tops = {s: surface.top_at(s).tolist() for s in probe}
    bots = {s: surface.bot_at(s).tolist() for s in probe}
    strips = [
        {side: slopes.strip(i, side) for side in _SIDES}
        for i in range(len(slopes))
    ]
    keys: list[EntryKeys] = []
    for row in range(len(surface)):
        assign_top: list[dict[str, float | None]] = []
        assign_bot: list[dict[str, float | None]] = []
        for per_side in strips:
            at: dict[str, float | None] = {}
            ab: dict[str, float | None] = {}
            for side, strip in per_side.items():
                if strip is None:
                    at[side] = None
                    ab[side] = None
                else:
                    a, b = strip
                    # strip_top_max/strip_bot_min: the extremum over the
                    # strip is attained at an endpoint (TOP convex, BOT
                    # concave), so max/min of the two probed values.
                    at[side] = max(tops[a][row], tops[b][row])
                    ab[side] = min(bots[a][row], bots[b][row])
            assign_top.append(at)
            assign_bot.append(ab)
        keys.append(
            EntryKeys(
                [tops[s][row] for s in slopes],
                [bots[s][row] for s in slopes],
                assign_top,
                assign_bot,
            )
        )
    return keys, summary_rows(surface, slopes)


class KeysLRU:
    """Bounded LRU map ``rid -> EntryKeys`` for the catalog key cache.

    The cache is purely an optimisation: :meth:`DualIndex._tree_key_of`
    re-derives evicted entries from the heap record, so eviction can
    never change an answer — only cost extra record fetches. A bound
    matters because sustained insert/delete traffic would otherwise grow
    the dict without limit.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise IndexError_("keys cache capacity must be >= 1")
        self.capacity = capacity
        self._data: OrderedDict[int, EntryKeys] = OrderedDict()

    def get(self, rid: int) -> "EntryKeys | None":
        keys = self._data.get(rid)
        if keys is not None:
            self._data.move_to_end(rid)
        return keys

    def __setitem__(self, rid: int, keys: "EntryKeys") -> None:
        self._data[rid] = keys
        self._data.move_to_end(rid)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def pop(self, rid: int, default: "EntryKeys | None" = None):
        return self._data.pop(rid, default)

    def __contains__(self, rid: int) -> bool:
        return rid in self._data

    def __len__(self) -> int:
        return len(self._data)


@dataclass
class IndexSpace:
    """Page breakdown for Figure 10."""

    tree_pages: int
    directory_pages: int
    heap_pages: int
    #: Pages of the per-tuple dual summary file (the settle step's).
    summary_pages: int = 0

    @property
    def index_pages(self) -> int:
        """Query-structure pages (what Figure 10 compares)."""
        return self.tree_pages

    @property
    def total_pages(self) -> int:
        return (
            self.tree_pages + self.directory_pages + self.heap_pages
            + self.summary_pages
        )


class DualIndex:
    """The per-slope B+-tree forest with handicap maintenance.

    For every slope ``s_i`` of the predefined set ``S``, one tree keyed
    by ``TOP^P(s_i)`` (``up[i]``) and one by ``BOT^P(s_i)``
    (``down[i]``); records live in a heap file behind the same pager.
    Most callers go through :class:`~repro.core.planner.DualIndexPlanner`
    rather than using the index directly.

    Example::

        >>> from repro import GeneralizedRelation, parse_tuple
        >>> from repro.core.dual_index import DualIndex
        >>> r = GeneralizedRelation([
        ...     parse_tuple("y >= x and y <= 4 and x >= 0"),
        ... ])
        >>> index = DualIndex(slopes=[-1.0, 0.0, 1.0])
        >>> index.build(r)
        >>> index.size, len(index.up), len(index.down)
        (1, 3, 3)
        >>> index.up[1].search(4.0)          # TOP at slope 0 is max y = 4
        [0]
        >>> index.version                    # bumped by build/insert/delete
        1

    Parameters
    ----------
    pager:
        Storage stack shared by trees, directories, and the heap file.
    slopes:
        The predefined slope set ``S``.
    key_codec:
        Key width; the default 4 bytes matches the paper.
    dynamic:
        When True, handicap directories are maintained so inserts and
        deletes keep handicaps repairable in ``O(log_B n)`` amortised
        page accesses (Section 4.2 Step 2). Statically built benchmark
        indexes leave this off.
    keys_cache_entries:
        Capacity of the :class:`KeysLRU` catalog key cache. Eviction is
        answer-preserving (evicted keys are re-derived from the heap
        record on demand); the bound keeps memory flat under sustained
        update traffic.
    """

    def __init__(
        self,
        pager: Pager | None = None,
        slopes: SlopeSet | Iterable[float] = (0.0,),
        key_codec: KeyCodec | None = None,
        dynamic: bool = False,
        name: str = "dual",
        keys_cache_entries: int = 65536,
    ) -> None:
        self.pager = pager if pager is not None else Pager()
        self.slopes = slopes if isinstance(slopes, SlopeSet) else SlopeSet(slopes)
        self.codec = key_codec if key_codec is not None else KeyCodec(4)
        self.dynamic = dynamic
        self.name = name
        self.heap = HeapFile(self.pager)
        k = len(self.slopes)
        # Per-tuple dual summaries beside the heap, read by the T1/T2
        # settle step (repro.core.settle) instead of the records.
        self.summaries = SummaryFile(
            self.pager, summary_width(k), self.codec.key_bytes
        )
        self.up = [
            BPlusTree(self.pager, self.codec, AUX_SLOTS, f"{name}.up[{i}]")
            for i in range(k)
        ]
        self.down = [
            BPlusTree(self.pager, self.codec, AUX_SLOTS, f"{name}.down[{i}]")
            for i in range(k)
        ]
        # Handicap directories: per slope, per side, one tree keyed by
        # the TOP-strip-max assignment key and one by the BOT-strip-min.
        self.dir_top: list[dict[str, BPlusTree]] = [dict() for _ in range(k)]
        self.dir_bot: list[dict[str, BPlusTree]] = [dict() for _ in range(k)]
        if dynamic:
            for i in range(k):
                for side in _SIDES:
                    if self.slopes.strip(i, side) is None:
                        continue
                    self.dir_top[i][side] = BPlusTree(
                        self.pager, self.codec, 0, f"{name}.dirT[{i}.{side}]"
                    )
                    self.dir_bot[i][side] = BPlusTree(
                        self.pager, self.codec, 0, f"{name}.dirB[{i}.{side}]"
                    )
        # Catalog: tuple id -> heap RID (a real system's data dictionary;
        # :meth:`tids_for_rids` is the reverse), plus a key cache so
        # handicap maintenance does not have to fetch records to re-derive
        # tree keys (kept consistent by insert/delete).
        self.rid_of: dict[int, int] = {}
        self.keys_cache = KeysLRU(keys_cache_entries)
        # The vector path's dual surface: built from a heap scan on first
        # use, then patched by insert/delete (see :meth:`surface`).
        self._surface: DualSurface | None = None
        # Global assignment-key extrema per (tree name, side): a query
        # whose intercept lies beyond every assignment key can skip the
        # secondary sweep entirely (extension A7; conservative under
        # deletes — extrema only widen).
        self.assign_extrema: dict[tuple[str, str], tuple[float, float]] = {}
        self.size = 0
        self.skipped: list[int] = []  # unsatisfiable tuples seen at build
        #: Monotonic structure version: bumped by build/insert/delete.
        #: Batch-execution caches key their entries on it, so any change
        #: to the indexed relation invalidates every cached answer.
        self.version = 0

    # ------------------------------------------------------------------
    # key derivation
    # ------------------------------------------------------------------
    def compute_keys(self, t: GeneralizedTuple) -> EntryKeys:
        """Tree and strip-assignment keys for one satisfiable tuple."""
        poly = t.extension()
        if poly.is_empty:
            raise IndexError_("cannot index a tuple with an empty extension")
        tops: list[float] = []
        bots: list[float] = []
        assign_top: list[dict[str, float | None]] = []
        assign_bot: list[dict[str, float | None]] = []
        for i, s in enumerate(self.slopes):
            top_v = dual.top(poly, s)
            bot_v = dual.bot(poly, s)
            assert top_v is not None and bot_v is not None
            tops.append(top_v)
            bots.append(bot_v)
            at: dict[str, float | None] = {}
            ab: dict[str, float | None] = {}
            for side in _SIDES:
                strip = self.slopes.strip(i, side)
                if strip is None:
                    at[side] = None
                    ab[side] = None
                else:
                    at[side] = dual.strip_top_max(poly, strip[0], strip[1])
                    ab[side] = dual.strip_bot_min(poly, strip[0], strip[1])
            assign_top.append(at)
            assign_bot.append(ab)
        return EntryKeys(tops, bots, assign_top, assign_bot)

    # ------------------------------------------------------------------
    # bulk build
    # ------------------------------------------------------------------
    def build(self, relation: GeneralizedRelation, fill: float = 0.9) -> None:
        """Index a whole relation: heap records with their dual
        summaries, 2k bulk-loaded trees, one merge pass of handicap
        aggregates, and (in dynamic mode) the handicap directories.
        Unsatisfiable tuples are skipped and listed in :attr:`skipped`.

        Keys and summaries come from :func:`compute_keys_batch` — one
        vectorized pass per probe slope over the whole relation,
        bit-identical to :meth:`compute_keys` per tuple.
        """
        if self.size:
            raise IndexError_("build on a non-empty index")
        if relation.dimension not in (0, 2):
            raise IndexError_(
                "DualIndex is the 2-D structure; use DDimDualIndex for d > 2"
            )
        with obs.span("build", pager=self.pager, index=self.name,
                      tuples=len(relation)):
            keys, summaries = compute_keys_batch(relation, self.slopes)
            self._build(relation, fill, keys, summaries)

    def _build(
        self,
        relation: GeneralizedRelation,
        fill: float,
        keys: "Mapping[int, EntryKeys | None]",
        summaries: np.ndarray,
    ) -> None:
        """Stage ``relation`` under precomputed ``keys`` (``tid ->
        EntryKeys``, ``None`` marking an unsatisfiable tuple to skip)
        and ``summaries`` (one row per satisfiable tuple, in relation
        order)."""
        k = len(self.slopes)
        self._surface = None
        up_entries: list[list[tuple[float, int]]] = [[] for _ in range(k)]
        down_entries: list[list[tuple[float, int]]] = [[] for _ in range(k)]
        keys_by_rid: dict[int, EntryKeys] = {}
        # Cluster the heap by TOP at the middle slope: T2 candidate sets
        # are contiguous key ranges, so a key-clustered heap turns the
        # refinement fetch into (mostly) sequential page reads — the
        # standard clustered-index layout (see DESIGN.md §5).
        middle = len(self.slopes) // 2
        staged: list[tuple[float, int, GeneralizedTuple, EntryKeys, int]] = []
        for tid, t in relation:
            entry = keys.get(tid)
            if entry is None:
                self.skipped.append(tid)
                continue
            cluster_key = entry.top[middle]
            if not math.isfinite(cluster_key):
                cluster_key = math.copysign(1e30, cluster_key)
            staged.append((cluster_key, tid, t, entry, len(staged)))
        staged.sort(key=lambda item: item[0])
        rids: list[int] = []
        for _cluster_key, tid, t, entry, _row in staged:
            rid = self.heap.insert(encode_tuple(tid, t))
            rids.append(rid)
            self.rid_of[tid] = rid
            keys_by_rid[rid] = entry
            self.keys_cache[rid] = entry
            for i in range(k):
                up_entries[i].append((entry.top[i], rid))
                down_entries[i].append((entry.bot[i], rid))
            self.size += 1
        self.summaries.write(rids, summaries[[item[4] for item in staged]],
                             [item[1] for item in staged])
        for i in range(k):
            self.up[i].bulk_load(up_entries[i], fill)
            self.down[i].bulk_load(down_entries[i], fill)
        self._rebuild_handicaps(keys_by_rid)
        if self.dynamic:
            self._bulk_load_directories(keys_by_rid, fill)
        self.version += 1

    def _bulk_load_directories(
        self, keys_by_rid: dict[int, EntryKeys], fill: float
    ) -> None:
        for i in range(len(self.slopes)):
            for side in _SIDES:
                if side not in self.dir_top[i]:
                    continue
                self.dir_top[i][side].bulk_load(
                    (
                        (keys.assign_top[i][side], rid)
                        for rid, keys in keys_by_rid.items()
                    ),
                    fill,
                )
                self.dir_bot[i][side].bulk_load(
                    (
                        (keys.assign_bot[i][side], rid)
                        for rid, keys in keys_by_rid.items()
                    ),
                    fill,
                )

    # ------------------------------------------------------------------
    # handicap aggregates
    # ------------------------------------------------------------------
    def _rebuild_handicaps(self, keys_by_rid: dict[int, EntryKeys]) -> None:
        """Recompute every leaf's four aggregates in one pass per tree.

        Tree keys and assignment keys are quantised once per slope
        (vectorized) and shared between the up and the down tree — the
        assignment keys do not depend on the tree at all, so the old
        per-(tree, side) rescan of ``keys_by_rid`` did the same work
        ``2 × sides`` times over.
        """
        all_keys = list(keys_by_rid.values())
        quantize = self.codec.quantize_many
        for i in range(len(self.slopes)):
            tops_q = quantize([keys.top[i] for keys in all_keys]).tolist()
            bots_q = quantize([keys.bot[i] for keys in all_keys]).tolist()
            assigns: dict[str, tuple[list[float], list[float]]] = {}
            for side in _SIDES:
                if self.slopes.strip(i, side) is None:
                    continue
                a_top = [keys.assign_top[i][side] for keys in all_keys]
                a_bot = [keys.assign_bot[i][side] for keys in all_keys]
                assert None not in a_top and None not in a_bot
                assigns[side] = (
                    quantize(a_top).tolist(),
                    quantize(a_bot).tolist(),
                )
            for tree, values in ((self.up[i], tops_q), (self.down[i], bots_q)):
                assignments_low: dict[str, list[tuple[float, float]]] = {}
                assignments_high: dict[str, list[tuple[float, float]]] = {}
                for side, (a_top_q, a_bot_q) in assigns.items():
                    assignments_low[side] = list(zip(a_top_q, values))
                    assignments_high[side] = list(zip(a_bot_q, values))
                    if a_top_q:
                        self.assign_extrema[(tree.name, side)] = (
                            min(a_bot_q),
                            max(a_top_q),
                        )
                _write_aggregates(tree, assignments_low, assignments_high)

    def refresh_handicaps(self) -> int:
        """Dynamic-mode maintenance: recompute aggregates of every leaf
        whose handicap flag was invalidated by an update. Returns the
        number of refreshed leaves. Requires directories.
        """
        if not self.dynamic:
            raise IndexError_("refresh_handicaps requires dynamic mode")
        refreshed = 0
        with obs.span("maintain.handicaps", pager=self.pager):
            for i in range(len(self.slopes)):
                for tree, key_field in (
                    (self.up[i], "top"), (self.down[i], "bot")
                ):
                    refreshed += self._refresh_tree(i, tree, key_field)
            obs.incr("handicap.leaves_refreshed", refreshed)
        return refreshed

    def _refresh_tree(self, i: int, tree: BPlusTree, key_field: str) -> int:
        from repro.storage.disk import NULL_PAGE

        refreshed = 0
        for pid in sorted(tree.dirty_leaves):
            if pid not in tree.owned_pages:
                continue
            leaf = tree.read_leaf(pid)
            if leaf.handicaps_valid or not leaf.keys:
                tree.dirty_leaves.discard(pid)
                continue
            # Ownership range: [first key, next leaf's first key), with the
            # first leaf owning everything below its keys too.
            lo = -math.inf if leaf.prev == NULL_PAGE else leaf.keys[0]
            if leaf.next == NULL_PAGE:
                hi = math.inf
            else:
                nxt = tree.read_leaf(leaf.next)
                hi = nxt.keys[0] if nxt.keys else math.inf
            aux = [NO_LOW, NO_LOW, NO_HIGH, NO_HIGH]
            for side in _SIDES:
                if side not in self.dir_top[i]:
                    continue
                low_slot = AUX_LOW_PREV if side == "prev" else AUX_LOW_NEXT
                high_slot = AUX_HIGH_PREV if side == "prev" else AUX_HIGH_NEXT
                for rid in _directory_range(self.dir_top[i][side], lo, hi):
                    value = self._tree_key_of(rid, i, key_field)
                    if value < aux[low_slot]:
                        aux[low_slot] = value
                for rid in _directory_range(self.dir_bot[i][side], lo, hi):
                    value = self._tree_key_of(rid, i, key_field)
                    if value > aux[high_slot]:
                        aux[high_slot] = value
            leaf.set_handicaps(aux)
            tree.write_leaf(pid, leaf)
            refreshed += 1
        return refreshed

    def _tree_key_of(self, rid: int, i: int, key_field: str) -> float:
        """A tuple's tree key, from the catalog cache or (on a cache
        miss, e.g. after a restart) from its fetched record."""
        keys = self.keys_cache.get(rid)
        if keys is None:
            keys = self._record_keys(rid)
            self.keys_cache[rid] = keys
        value = getattr(keys, key_field)[i]
        return self.codec.quantize(value)

    def _record_keys(self, rid: int) -> EntryKeys:
        """A stored tuple's keys, by :meth:`insert`'s one-row pass."""
        tid, t = self.fetch_tuple(rid)
        [keys], _summary = surface_keys(DualSurface([tid], [t]), self.slopes)
        return keys

    # ------------------------------------------------------------------
    # dynamic updates
    # ------------------------------------------------------------------
    def insert(self, tid: int, t: GeneralizedTuple) -> None:
        """Insert one tuple into all 2k trees (+ directories).

        Affected leaves get their handicap flag cleared;
        :meth:`~repro.core.planner.DualIndexPlanner.query` runs
        :meth:`refresh_handicaps` lazily before its next T1/T2 query
        (write-deferred maintenance). The batch path (exact merged
        sweeps and the vector scan) reads no handicap, so it needs no
        refresh; a built :meth:`surface` gets the tuple's rows
        appended, and the summary file the tuple's summary record. An
        unsatisfiable tuple is rejected before anything is touched.
        """
        if tid in self.rid_of:
            raise IndexError_(f"tuple id {tid} already indexed")
        if t.extension().is_empty:
            raise IndexError_("cannot index a tuple with an empty extension")
        # One surface piece gives the keys, the summary and the rows a
        # built surface appends.
        piece = DualSurface([tid], [t])
        [keys], summary = surface_keys(piece, self.slopes)
        rid = self.heap.insert(encode_tuple(tid, t))
        self.summaries.write([rid], summary, [tid])
        self.rid_of[tid] = rid
        self.keys_cache[rid] = keys
        for i in range(len(self.slopes)):
            self.up[i].insert(keys.top[i], rid)
            self.down[i].insert(keys.bot[i], rid)
            if self.dynamic:
                for side in _SIDES:
                    if side not in self.dir_top[i]:
                        continue
                    a_top = keys.assign_top[i][side]
                    a_bot = keys.assign_bot[i][side]
                    assert a_top is not None and a_bot is not None
                    self.dir_top[i][side].insert(a_top, rid)
                    self.dir_bot[i][side].insert(a_bot, rid)
                    self._invalidate_owner(self.up[i], a_top)
                    self._invalidate_owner(self.up[i], a_bot)
                    self._invalidate_owner(self.down[i], a_top)
                    self._invalidate_owner(self.down[i], a_bot)
            for side in _SIDES:
                a_top = keys.assign_top[i][side]
                a_bot = keys.assign_bot[i][side]
                if a_top is None or a_bot is None:
                    continue
                for tree in (self.up[i], self.down[i]):
                    lo, hi = self.assign_extrema.get(
                        (tree.name, side), (math.inf, -math.inf)
                    )
                    self.assign_extrema[(tree.name, side)] = (
                        min(lo, tree.quantize(a_bot)),
                        max(hi, tree.quantize(a_top)),
                    )
        if self._surface is not None:
            self._surface.append(piece)
        self.size += 1
        self.version += 1

    def delete(self, tid: int) -> None:
        """Remove a tuple from trees, directories, the heap, the summary
        file (its record becomes NaN) and a built :meth:`surface`."""
        rid = self.rid_of.pop(tid, None)
        if rid is None:
            raise IndexError_(f"tuple id {tid} is not indexed")
        keys = self.keys_cache.pop(rid, None)
        if keys is None:
            keys = self._record_keys(rid)
        for i in range(len(self.slopes)):
            if not self.up[i].delete(keys.top[i], rid):
                raise IndexError_(f"up[{i}] entry missing for tuple {tid}")
            if not self.down[i].delete(keys.bot[i], rid):
                raise IndexError_(f"down[{i}] entry missing for tuple {tid}")
            if self.dynamic:
                for side in _SIDES:
                    if side not in self.dir_top[i]:
                        continue
                    a_top = keys.assign_top[i][side]
                    a_bot = keys.assign_bot[i][side]
                    assert a_top is not None and a_bot is not None
                    self.dir_top[i][side].delete(a_top, rid)
                    self.dir_bot[i][side].delete(a_bot, rid)
                    self._invalidate_owner(self.up[i], a_top)
                    self._invalidate_owner(self.up[i], a_bot)
                    self._invalidate_owner(self.down[i], a_top)
                    self._invalidate_owner(self.down[i], a_bot)
        self.heap.delete(rid)
        self.summaries.clear(rid)
        if self._surface is not None:
            self._surface.delete(tid)
        self.size -= 1
        self.version += 1

    def _invalidate_owner(self, tree: BPlusTree, assign_key: float) -> None:
        """Clear the handicap flag of the leaf owning an assignment key."""
        if tree.root is None:
            return
        pid = tree._descend_right((tree.quantize(assign_key), 0xFFFFFFFF))
        leaf = tree.read_leaf(pid)
        if leaf.handicaps_valid:
            leaf.invalidate_handicaps()
            tree.write_leaf(pid, leaf)

    # ------------------------------------------------------------------
    # accounting & helpers
    # ------------------------------------------------------------------
    def all_trees(self) -> Iterator[BPlusTree]:
        """Every B+-tree of the index, in a deterministic order."""
        yield from self.up
        yield from self.down
        for per_slope in (self.dir_top, self.dir_bot):
            for sides in per_slope:
                for side in _SIDES:
                    if side in sides:
                        yield sides[side]

    def catalog_payload(self) -> dict:
        """The index's non-page state as a JSON-serialisable catalog.

        Page images live in the pager; this payload is everything else a
        restored process needs: configuration (slopes, key width,
        dynamic flag), the tuple→RID catalog ``rid_of``, per-tree shape
        state, heap and summary-file bookkeeping, and the assignment-key
        extrema. Deliberately *not* persisted: ``keys_cache``
        (re-derived from heap records on miss), the summary file's tid
        column (rebuilt from ``rid_of`` by :meth:`restore_catalog`) and
        the dual surface (rebuilt on first use).
        """
        return {
            "name": self.name,
            "dynamic": self.dynamic,
            "key_bytes": self.codec.key_bytes,
            "slopes": list(self.slopes),
            "size": self.size,
            "version": self.version,
            "skipped": list(self.skipped),
            "rid_of": sorted(self.rid_of.items()),
            "assign_extrema": [
                [tree_name, side, lo, hi]
                for (tree_name, side), (lo, hi)
                in sorted(self.assign_extrema.items())
            ],
            "heap": self.heap.state_payload(),
            "summaries": self.summaries.state_payload(),
            "trees": {t.name: t.state_payload() for t in self.all_trees()},
        }

    def restore_catalog(self, payload: dict) -> None:
        """Inverse of :meth:`catalog_payload`, onto a freshly constructed
        index with matching slopes/key width/dynamic flag."""
        self.size = payload["size"]
        self.version = payload["version"]
        self.skipped = list(payload["skipped"])
        self.rid_of = {int(t): int(r) for t, r in payload["rid_of"]}
        self.assign_extrema = {
            (name, side): (lo, hi)
            for name, side, lo, hi in payload["assign_extrema"]
        }
        self.heap.restore_state(payload["heap"])
        if "summaries" in payload:
            self.summaries.restore_state(payload["summaries"])
        else:
            # A catalog written before the summary file existed: derive
            # it from one heap scan.
            records = [
                (rid, decode_tuple(data)) for rid, data in self.heap.scan()
            ]
            if records:
                surface = DualSurface.from_items(item for _rid, item in records)
                self.summaries.write(
                    [rid for rid, _item in records],
                    summary_rows(surface, self.slopes),
                    [tid for _rid, (tid, _t) in records],
                )
        self.summaries.set_tids(list(self.rid_of.values()), list(self.rid_of))
        trees = payload["trees"]
        for tree in self.all_trees():
            tree.restore_state(trees[tree.name])
        self._surface = None

    def surface(self) -> DualSurface:
        """The dual surface of the current index contents.

        The first call builds it from a heap scan (each heap page one
        logical read); :meth:`insert` and :meth:`delete` then patch the
        written tuple's rows in place, so it answers any number of
        non-restricted slopes without further I/O or rebuilds.
        """
        if self._surface is None:
            with obs.span("surface.build"):
                self._surface = DualSurface.from_items(
                    decode_tuple(data) for _rid, data in self.heap.scan()
                )
        return self._surface

    def space(self) -> IndexSpace:
        """Page breakdown (Figure 10 compares ``tree_pages``)."""
        tree_pages = sum(t.page_count for t in self.up + self.down)
        dir_pages = 0
        for per_slope in (self.dir_top, self.dir_bot):
            for sides in per_slope:
                dir_pages += sum(t.page_count for t in sides.values())
        return IndexSpace(
            tree_pages, dir_pages, self.heap.page_count,
            self.summaries.page_count,
        )

    def fetch_tuple(self, rid: int) -> tuple[int, GeneralizedTuple]:
        """Fetch and decode a record (one counted page read)."""
        return decode_tuple(self.heap.fetch(rid))

    def tids_for_rids(self, rids) -> "np.ndarray":
        """Tuple ids of indexed rids: one gather from the summary file's
        tid column, which every write keeps current (nothing to rebuild).
        The one rid→tid translation of the exact, T1/T2 and batch paths."""
        return self.summaries.tids_of(np.asarray(rids, dtype=np.int64))

    def margin(self, value: float) -> float:
        """Safety widening of sweep boundaries.

        Covers float32 key quantisation plus the oracle tolerance, so a
        candidate sweep can never drop a qualifying tuple; the refinement
        step discards the handful of extra candidates.
        """
        return self.margin_scale * max(1.0, abs(value))

    @property
    def margin_scale(self) -> float:
        """The relative widening behind :meth:`margin` (float32 keys
        round at about 6e-8 relative; 1e-5 leaves ample room)."""
        return 1e-5 if self.codec.key_bytes == 4 else 1e-8

    def trees_for(self, query_type: str, theta) -> tuple[list[BPlusTree], bool]:
        """Route a (type, θ) pair to its tree family and sweep direction.

        Returns ``(trees, upward)`` following Section 3:
        ALL(≥) → B^down up-sweep; ALL(≤) → B^up down-sweep;
        EXIST(≥) → B^up up-sweep; EXIST(≤) → B^down down-sweep.
        """
        from repro.constraints.theta import Theta

        if query_type == "ALL":
            if theta is Theta.GE:
                return self.down, True
            return self.up, False
        if query_type == "EXIST":
            if theta is Theta.GE:
                return self.up, True
            return self.down, False
        raise QueryError(f"unknown query type {query_type!r}")


# ----------------------------------------------------------------------
# module helpers
# ----------------------------------------------------------------------
def _write_aggregates(
    tree: BPlusTree,
    assignments_low: dict[str, list[tuple[float, float]]],
    assignments_high: dict[str, list[tuple[float, float]]],
) -> None:
    """One merge pass: per-leaf min/max of assigned tuple keys.

    The leaf owning an assignment key is found with one vectorized
    ``np.searchsorted`` over the leaf boundary keys, and the per-leaf
    extrema accumulate through ``np.minimum.at``/``np.maximum.at`` —
    both order-independent, so the aggregates are bit-identical to the
    old per-assignment binary-search loop.
    """
    pids: list[int] = []
    boundaries: list[float] = []
    for pid in tree.leaf_pids():
        leaf = tree.read_leaf(pid)
        pids.append(pid)
        boundaries.append(leaf.keys[0] if leaf.keys else math.inf)
    if not pids:
        return
    bounds = np.asarray(boundaries, dtype=np.float64)
    aggregates = np.empty((len(pids), AUX_SLOTS), dtype=np.float64)
    aggregates[:, (AUX_LOW_PREV, AUX_LOW_NEXT)] = NO_LOW
    aggregates[:, (AUX_HIGH_PREV, AUX_HIGH_NEXT)] = NO_HIGH

    def owners(assign_keys: np.ndarray) -> np.ndarray:
        return np.maximum(
            np.searchsorted(bounds, assign_keys, side="right") - 1, 0
        )

    for side, low_list in assignments_low.items():
        slot = AUX_LOW_PREV if side == "prev" else AUX_LOW_NEXT
        if low_list:
            pairs = np.asarray(low_list, dtype=np.float64)
            np.minimum.at(
                aggregates[:, slot], owners(pairs[:, 0]), pairs[:, 1]
            )
    for side, high_list in assignments_high.items():
        slot = AUX_HIGH_PREV if side == "prev" else AUX_HIGH_NEXT
        if high_list:
            pairs = np.asarray(high_list, dtype=np.float64)
            np.maximum.at(
                aggregates[:, slot], owners(pairs[:, 0]), pairs[:, 1]
            )
    for pid, aux in zip(pids, aggregates.tolist()):
        tree.set_handicaps(pid, aux)


def _directory_range(tree: BPlusTree, lo: float, hi: float) -> Iterator[int]:
    """RIDs with assignment key in ``[lo, hi)`` — except that ``hi ==
    +inf`` (the last leaf's ownership range) also admits keys exactly at
    ``+inf``. Unbounded-above tuples carry ``TOP ≡ +inf`` strip
    assignment keys, and the bulk build's ``searchsorted`` owner maps
    them to the last leaf; the dynamic refresh must agree or those
    tuples silently drop out of the refreshed aggregate and the T2
    secondary sweep never runs for them (false dismissals)."""
    start = lo if math.isfinite(lo) else None
    for visit in tree.sweep_up(start):
        for key, rid in zip(visit.leaf.keys, visit.leaf.rids):
            if key >= hi and not (hi == math.inf and key == math.inf):
                return
            if lo == -math.inf or key >= lo:
                yield rid
