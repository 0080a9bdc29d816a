"""Set-associative cache hierarchy simulator.

Models the paper's testbed (§V-A): per-core 32 KB 8-way L1D and 256 KB
8-way L2, and a 35 MB 16-way shared L3, all with 64-byte lines and LRU
replacement. The access path returns the level that hit so the timing
model can charge the corresponding latency and Table II can report the
L1D miss ratio.
"""

from __future__ import annotations

from typing import List, Tuple

from ..avx.costs import MEM_LATENCY

LINE_SIZE = 64

# Latency per hit level, precomputed as floats so the hot access path
# does no dict lookup or conversion. Index 0 is unused padding.
_LATENCY = (
    0.0,
    float(MEM_LATENCY[1]),
    float(MEM_LATENCY[2]),
    float(MEM_LATENCY[3]),
    float(MEM_LATENCY[4]),
)


class Cache:
    """One level: set-associative with LRU replacement.

    Sets are lists ordered most-recently-used first; associativity is
    small so list operations beat fancier structures in CPython.
    """

    def __init__(self, size: int, assoc: int, line_size: int = LINE_SIZE):
        if size % (assoc * line_size) != 0:
            raise ValueError("cache size must be a multiple of assoc*line")
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.num_sets = size // (assoc * line_size)
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]

    def access(self, line_addr: int) -> bool:
        """Touch a line; returns True on hit. Fills on miss."""
        cset = self._sets[line_addr % self.num_sets]
        # Membership test first: a raised ValueError from list.index is
        # far more expensive than a second C-level scan of a <=16-entry
        # list, and misses are not rare.
        if line_addr in cset:
            pos = cset.index(line_addr)
            if pos:
                cset.insert(0, cset.pop(pos))
            return True
        if len(cset) >= self.assoc:
            cset.pop()
        cset.insert(0, line_addr)
        return False

    def copy(self) -> "Cache":
        new = object.__new__(Cache)
        new.__dict__.update(self.__dict__)
        new._sets = [list(s) for s in self._sets]
        return new

    def reset(self) -> None:
        for cset in self._sets:
            cset.clear()


class StreamPrefetcher:
    """Next-line stream prefetcher (Haswell's L1/L2 streamers, much
    simplified): tracks a few ascending line streams; on a detected
    stream it pulls the next ``depth`` lines into the hierarchy, so
    sequential scans (linear_regression, histogram, memset) run at
    near-L1 speed while irregular patterns (hash probes, column walks)
    still pay full memory latency."""

    def __init__(self, nstreams: int = 8, depth: int = 3):
        self.depth = depth
        self._streams: List[int] = [-(2 + i) for i in range(nstreams)]
        self._clock = 0
        self._last_used: List[int] = [0] * nstreams

    def copy(self) -> "StreamPrefetcher":
        new = object.__new__(StreamPrefetcher)
        new.__dict__.update(self.__dict__)
        new._streams = list(self._streams)
        new._last_used = list(self._last_used)
        return new

    def advance(self, line: int) -> List[int]:
        """Record an access; returns lines to prefetch (empty if the
        access continues no known stream)."""
        self._clock += 1
        # A stream at index i continues when line == expected or
        # line == expected + 1, i.e. when streams[i] is line or line-1;
        # the first matching index wins. Two C-level list scans beat a
        # Python loop over the slots.
        streams = self._streams
        match = streams.index(line) if line in streams else -1
        prev = line - 1
        if prev in streams:
            j = streams.index(prev)
            if match < 0 or j < match:
                match = j
        if match >= 0:
            streams[match] = line + 1
            self._last_used[match] = self._clock
            return [line + k for k in range(1, self.depth + 1)]
        # Allocate the least-recently-used stream slot (first minimum,
        # matching min-with-key semantics).
        last_used = self._last_used
        victim = last_used.index(min(last_used))
        streams[victim] = line + 1
        last_used[victim] = self._clock
        return []


class CacheHierarchy:
    """L1D + L2 + L3 with a stream prefetcher. ``access`` returns
    (hit_level, latency_cycles) where hit_level is 1..3 or 4 for DRAM."""

    def __init__(
        self,
        l1_size: int = 32 << 10,
        l1_assoc: int = 8,
        l2_size: int = 256 << 10,
        l2_assoc: int = 8,
        l3_size: int = 35 << 20,
        l3_assoc: int = 16,
        prefetch: bool = True,
    ):
        # 35 MB is not a power of two; round the set count down to keep
        # the modulo indexing simple (35 MB / 64 B / 16 ways = 35840 sets).
        l3_size = (l3_size // (l3_assoc * LINE_SIZE)) * l3_assoc * LINE_SIZE
        self.l1 = Cache(l1_size, l1_assoc)
        self.l2 = Cache(l2_size, l2_assoc)
        self.l3 = Cache(l3_size, l3_assoc)
        self.prefetcher = StreamPrefetcher() if prefetch else None
        self.prefetches = 0

    def access(self, addr: int, size: int = 8) -> Tuple[int, float]:
        line = addr // LINE_SIZE
        # A straddling access touches the second line too (rare; charge
        # the first line's level).
        straddle = (addr + (size - 1 if size > 1 else 0)) // LINE_SIZE
        # Inline L1 probe: the overwhelmingly common case is an L1 hit
        # at the MRU position, which this path resolves with no method
        # calls. State evolution is identical to _access_line.
        l1 = self.l1
        l1_sets = l1._sets
        l1_nsets = l1.num_sets
        cset = l1_sets[line % l1_nsets]
        if cset and cset[0] == line:
            level = 1
        elif line in cset:
            cset.insert(0, cset.pop(cset.index(line)))
            level = 1
        else:
            if len(cset) >= l1.assoc:
                cset.pop()
            cset.insert(0, line)
            if self.l2.access(line):
                level = 2
            elif self.l3.access(line):
                level = 3
            else:
                level = 4
        if straddle != line:
            self._access_line(straddle)
        pf = self.prefetcher
        if pf is not None:
            # Inline StreamPrefetcher.advance (same state evolution;
            # see the comments there) plus the prefetch fills.
            pf._clock += 1
            streams = pf._streams
            match = streams.index(line) if line in streams else -1
            prev = line - 1
            if prev in streams:
                j = streams.index(prev)
                if match < 0 or j < match:
                    match = j
            if match >= 0:
                streams[match] = line + 1
                pf._last_used[match] = pf._clock
                depth = pf.depth
                self.prefetches += depth
                # Inline the fills' L1 probe: on a steady stream the
                # prefetched lines were filled by the previous access,
                # so they hit L1 at or near MRU — resolve that without
                # the _access_line/Cache.access call pair. State
                # evolution is identical to _access_line (fills ignore
                # the hit level).
                l1_assoc = l1.assoc
                for k in range(1, depth + 1):
                    fl = line + k
                    fset = l1_sets[fl % l1_nsets]
                    if fset and fset[0] == fl:
                        continue
                    if fl in fset:
                        fset.insert(0, fset.pop(fset.index(fl)))
                        continue
                    if len(fset) >= l1_assoc:
                        fset.pop()
                    fset.insert(0, fl)
                    if not self.l2.access(fl):
                        self.l3.access(fl)
            else:
                last_used = pf._last_used
                victim = last_used.index(min(last_used))
                streams[victim] = line + 1
                last_used[victim] = pf._clock
        return level, _LATENCY[level]

    def copy(self) -> "CacheHierarchy":
        """Independent copy (resume states)."""
        new = object.__new__(CacheHierarchy)
        new.__dict__.update(self.__dict__)
        new.l1 = self.l1.copy()
        new.l2 = self.l2.copy()
        new.l3 = self.l3.copy()
        if self.prefetcher is not None:
            new.prefetcher = self.prefetcher.copy()
        return new

    def _access_line(self, line: int) -> int:
        if self.l1.access(line):
            return 1
        if self.l2.access(line):
            return 2
        if self.l3.access(line):
            return 3
        return 4

    def reset(self) -> None:
        self.l1.reset()
        self.l2.reset()
        self.l3.reset()
