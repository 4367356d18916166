// Package cache implements the N-way set-associative cache model used for
// the simulated CPU's L1s, last-level cache (LLC), optional TLB (one fully
// associative set keyed by page number) and, with the byte-granular INV
// extension in internal/cpu, the pre-execute cache.
//
// The paper's configuration (§4.1) is a 16-way, 8 MB LLC with 64-byte lines;
// for Sync_Runahead and ITS, half of the LLC is carved out as the
// pre-execute cache, which this package supports by simply constructing two
// caches of half the capacity each.
//
// The cache is keyed by 64-bit addresses. Because the simulated processes
// use overlapping virtual address spaces, the machine model tags addresses
// with the process id in the upper bits before lookup, modelling a
// physically-indexed shared LLC without building full physical addressing
// into the cache itself.
package cache

import (
	"fmt"
	"math/bits"
)

// Config sizes a cache.
type Config struct {
	// SizeBytes is the total capacity, e.g. 8 << 20.
	SizeBytes int
	// LineBytes is the line size, e.g. 64. Must be a power of two.
	LineBytes int
	// Ways is the associativity, e.g. 16.
	Ways int
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive config %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache: size %d not a multiple of line size %d", c.SizeBytes, c.LineBytes)
	}
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Stats counts cache activity.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Fills     uint64
}

// MissRatio returns Misses/Accesses, or 0 when no accesses occurred.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is an N-way set-associative cache with true-LRU replacement within
// each set. It tracks line presence only (no data), which is all the timing
// model needs.
//
// Recency is kept in one of two representations with identical semantics:
//
//   - ways <= 16 (every shipped configuration): order[set] packs the set's
//     way indices into one word, four bits per way, least-significant
//     nibble most-recent. A hit is a move-to-front on the word, and victim
//     selection is reading the top nibble — O(1), no per-way recency scan
//     and no second array walked alongside the tags. Invalid ways are kept
//     at the stale end, so the top nibble is an invalid way whenever one
//     exists and the true-LRU way otherwise. Which invalid way receives an
//     install is unobservable (the resulting line set, recency order,
//     statistics and future evictions are identical either way), so this
//     coexists byte-for-byte with the tick representation.
//
//   - ways > 16: a per-line tick stamp (larger == more recent), victim =
//     minimum stamp. Stamps are unique, so the LRU choice matches the
//     move-to-front order exactly.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	ways      int
	// tags is a flat array indexed by set*ways+way, storing line+1 so that
	// 0 means "invalid" — validity rides inside the tag word and the hot
	// lookup loops touch one array instead of two.
	tags []uint64
	// order is the packed per-set recency word (ways <= 16 only).
	order     []uint64
	orderMask uint64
	// lruTick / tick / validCount implement the fallback representation
	// (ways > 16): tick stamps per line, plus a per-set valid-way count so
	// full sets skip the invalid-way bookkeeping.
	lruTick    []uint64
	validCount []uint32
	tick       uint64
	stats      Stats
}

// initOrder is the identity packing: nibble p holds way p.
const initOrder = 0xFEDCBA9876543210

const (
	nibbleLo = 0x1111111111111111
	nibbleHi = 0x8888888888888888
)

// findShift returns the bit offset (4 * recency position) of way w in the
// packed order q. w must be present — every way index always is.
func findShift(q, w uint64) uint {
	// Standard find-the-zero-nibble trick on q XOR broadcast(w): nibbles
	// below the first match are nonzero, so no borrow reaches it and the
	// lowest marker bit is exact.
	x := q ^ (w * nibbleLo)
	m := (x - nibbleLo) & ^x & nibbleHi
	return uint(bits.TrailingZeros64(m)) - 3
}

// moveFront makes way w the most recent in q.
func moveFront(q, w uint64) uint64 {
	sh := findShift(q, w)
	below := q & (1<<sh - 1)
	above := q >> (sh + 4) << (sh + 4)
	return above | below<<4 | w
}

// moveToTail parks way w at the stale end of q (invalid-way invariant).
func (c *Cache) moveToTail(s int, w uint64) {
	q := c.order[s]
	sh := findShift(q, w)
	below := q & (1<<sh - 1)
	above := q >> (sh + 4) << sh
	c.order[s] = above | below | w<<(4*uint(c.ways-1))
}

// New builds a cache from cfg, panicking on invalid configuration (caches
// are constructed from vetted experiment configs; an invalid one is a bug).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	c := &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:   uint64(sets - 1),
		ways:      cfg.Ways,
		tags:      make([]uint64, lines),
	}
	if cfg.Ways <= 16 {
		c.orderMask = ^uint64(0) >> (64 - 4*uint(cfg.Ways))
		c.order = make([]uint64, sets)
		for s := range c.order {
			c.order[s] = initOrder & c.orderMask
		}
	} else {
		c.lruTick = make([]uint64, lines)
		c.validCount = make([]uint32, sets)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset empties the cache and zeroes its counters: afterwards it behaves
// exactly like New(c.Config()), without allocating. (Tick stamps left
// under invalid ways are never read.) A machine reset reuses its caches
// through it.
func (c *Cache) Reset() {
	c.Flush()
	c.stats = Stats{}
}

// LineOf returns the line index (address >> lineShift) for addr.
func (c *Cache) LineOf(addr uint64) uint64 { return addr >> c.lineShift }

// AddrOf returns the base address of a line index — the inverse of LineOf.
// Inclusive-hierarchy back-invalidation uses it to turn an evicted LLC line
// tag back into an address the L1s can invalidate.
func (c *Cache) AddrOf(line uint64) uint64 { return line << c.lineShift }

func (c *Cache) setOf(line uint64) int { return int(line & c.setMask) }

// Access looks up addr, counting a hit or miss. On hit the line's recency is
// refreshed. It does NOT allocate on miss; pair with Fill for
// fetch-on-miss semantics, so the caller can charge memory latency first.
func (c *Cache) Access(addr uint64) bool {
	c.stats.Accesses++
	line := c.LineOf(addr)
	t := line + 1
	s := c.setOf(line)
	base := s * c.ways
	set := c.tags[base : base+c.ways]
	for w := range set {
		if set[w] == t {
			if c.order != nil {
				c.order[s] = moveFront(c.order[s], uint64(w))
			} else {
				c.tick++
				c.lruTick[base+w] = c.tick
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// LookupSlot is Contains followed, on a hit, by Access, in one scan of the
// set: it returns the slot (set*ways + way) holding addr's line after
// refreshing its recency and counting one access and one hit, or -1 with
// nothing counted when the line is absent. Slots index per-line state a
// caller keeps in an array parallel to the tags (SizeBytes/LineBytes
// entries); InstallSlot is the matching install.
func (c *Cache) LookupSlot(addr uint64) int {
	line := c.LineOf(addr)
	t := line + 1
	s := c.setOf(line)
	base := s * c.ways
	set := c.tags[base : base+c.ways]
	for w := range set {
		if set[w] == t {
			if c.order != nil {
				c.order[s] = moveFront(c.order[s], uint64(w))
			} else {
				c.tick++
				c.lruTick[base+w] = c.tick
			}
			c.stats.Accesses++
			c.stats.Hits++
			return base + w
		}
	}
	return -1
}

// Contains reports whether addr's line is present without updating recency
// or statistics. Used by the pre-execute engine's validity checks.
func (c *Cache) Contains(addr uint64) bool {
	line := c.LineOf(addr)
	t := line + 1
	base := c.setOf(line) * c.ways
	set := c.tags[base : base+c.ways]
	for w := range set {
		if set[w] == t {
			return true
		}
	}
	return false
}

// Fill installs addr's line, evicting the LRU way if the set is full.
// It returns the evicted line tag and true if a valid line was displaced.
// Filling a line that is already present just refreshes its recency.
func (c *Cache) Fill(addr uint64) (evicted uint64, wasValid bool) {
	line := c.LineOf(addr)
	t := line + 1
	s := c.setOf(line)
	base := s * c.ways
	set := c.tags[base : base+c.ways]
	if c.order != nil {
		q := c.order[s]
		for w := range set {
			if set[w] == t {
				c.order[s] = moveFront(q, uint64(w))
				return 0, false
			}
		}
		return c.installPacked(s, set, q, t)
	}
	for w := range set {
		if set[w] == t {
			c.tick++
			c.lruTick[base+w] = c.tick
			return 0, false
		}
	}
	_, evicted, wasValid = c.installTick(s, base, t)
	return evicted, wasValid
}

// installPacked fills tag t into set s (packed-order representation): the
// top nibble of q is an invalid way when one exists, the LRU way otherwise.
func (c *Cache) installPacked(s int, set []uint64, q, t uint64) (evicted uint64, wasValid bool) {
	v := q >> (4 * uint(c.ways-1))
	c.stats.Fills++
	if old := set[v]; old != 0 {
		evicted, wasValid = old-1, true
		c.stats.Evictions++
	}
	c.order[s] = (q<<4 | v) & c.orderMask
	set[v] = t
	return evicted, wasValid
}

// AccessFill is Access immediately followed by Fill on miss, fused into a
// single scan of the set: the match walk doubles as the presence check, and
// on miss the victim comes straight off the recency order — the executor's
// hottest loop never walks a second per-way array. On hit it behaves
// exactly like Access (recency refresh, no fill). On miss it installs the
// line and returns the displaced tag like Fill. Stats and replacement
// choices are bit-identical to the unfused pair — the victim is chosen from
// the same pre-fill set state, because a missed Access mutates nothing.
func (c *Cache) AccessFill(addr uint64) (hit bool, evicted uint64, wasValid bool) {
	c.stats.Accesses++
	line := c.LineOf(addr)
	t := line + 1
	s := c.setOf(line)
	base := s * c.ways
	set := c.tags[base : base+c.ways]
	if c.order != nil {
		q := c.order[s]
		for w := range set {
			if set[w] == t {
				c.order[s] = moveFront(q, uint64(w))
				c.stats.Hits++
				return true, 0, false
			}
		}
		c.stats.Misses++
		evicted, wasValid = c.installPacked(s, set, q, t)
		return false, evicted, wasValid
	}
	for w := range set {
		if set[w] == t {
			c.tick++
			c.lruTick[base+w] = c.tick
			c.stats.Hits++
			return true, 0, false
		}
	}
	c.stats.Misses++
	_, evicted, wasValid = c.installTick(s, base, t)
	return false, evicted, wasValid
}

// FillCold installs addr's line when the caller has just observed it absent
// (an Access miss with no intervening fill of the same line — invalidations
// are fine, they only remove lines). With the packed recency order this is
// O(1): no tag or recency walk at all. The chosen victim and all state
// transitions are identical to Fill's.
func (c *Cache) FillCold(addr uint64) (evicted uint64, wasValid bool) {
	line := c.LineOf(addr)
	s := c.setOf(line)
	base := s * c.ways
	if c.order != nil {
		return c.installPacked(s, c.tags[base:base+c.ways], c.order[s], line+1)
	}
	_, evicted, wasValid = c.installTick(s, base, line+1)
	return evicted, wasValid
}

// InstallSlot is FillCold for a line LookupSlot just reported absent: it
// returns the slot the line now occupies instead of the displaced tag.
func (c *Cache) InstallSlot(addr uint64) int {
	line := c.LineOf(addr)
	s := c.setOf(line)
	base := s * c.ways
	if c.order != nil {
		q := c.order[s]
		c.installPacked(s, c.tags[base:base+c.ways], q, line+1)
		return base + int(q>>(4*uint(c.ways-1)))
	}
	w, _, _ := c.installTick(s, base, line+1)
	return base + w
}

// installTick fills tag t into set s (slots base…base+ways-1, tick
// representation) and returns the way it chose: the first invalid way when
// one exists, the least recently stamped way otherwise.
func (c *Cache) installTick(s, base int, t uint64) (way int, evicted uint64, wasValid bool) {
	set := c.tags[base : base+c.ways]
	c.stats.Fills++
	if int(c.validCount[s]) == c.ways {
		// Set full: victim selection never consults the tags — a pure
		// LRU scan suffices, and the eviction is certain.
		lru := c.lruTick[base : base+c.ways]
		victim := 0
		victimTick := lru[0]
		for w := 1; w < len(lru); w++ {
			if lru[w] < victimTick {
				victim, victimTick = w, lru[w]
			}
		}
		c.stats.Evictions++
		evicted = set[victim] - 1
		c.tick++
		set[victim] = t
		lru[victim] = c.tick
		return victim, evicted, true
	}
	// The set has an invalid way; install into the first one, exactly as
	// the full walk would choose (no valid line can outrank an invalid
	// one, since valid lruTicks are always >= 1).
	victim := 0
	for w := range set {
		if set[w] == 0 {
			victim = w
			break
		}
	}
	c.validCount[s]++
	c.tick++
	set[victim] = t
	c.lruTick[base+victim] = c.tick
	return victim, 0, false
}

// Invalidate drops addr's line if present, returning whether it was present.
func (c *Cache) Invalidate(addr uint64) bool {
	line := c.LineOf(addr)
	t := line + 1
	s := c.setOf(line)
	base := s * c.ways
	set := c.tags[base : base+c.ways]
	for w := range set {
		if set[w] == t {
			set[w] = 0
			if c.order != nil {
				c.moveToTail(s, uint64(w))
			} else {
				c.validCount[s]--
			}
			return true
		}
	}
	return false
}

// InvalidateMatching drops every line for which keep(tagLine) reports true.
// The machine uses this to flush a terminated process's lines (tag match on
// the pid bits). Returns the number of lines dropped.
func (c *Cache) InvalidateMatching(match func(line uint64) bool) int {
	n := 0
	for i := range c.tags {
		if c.tags[i] != 0 && match(c.tags[i]-1) {
			c.tags[i] = 0
			if c.order != nil {
				c.moveToTail(i/c.ways, uint64(i%c.ways))
			} else {
				c.validCount[i/c.ways]--
			}
			n++
		}
	}
	return n
}

// Flush invalidates every line.
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = 0
	}
	if c.order != nil {
		for s := range c.order {
			c.order[s] = initOrder & c.orderMask
		}
		return
	}
	for i := range c.validCount {
		c.validCount[i] = 0
	}
}

// ValidLines returns the number of currently valid lines.
func (c *Cache) ValidLines() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}
