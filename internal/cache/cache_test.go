package cache

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"itsim/internal/prng"
)

func smallCfg() Config {
	return Config{SizeBytes: 4096, LineBytes: 64, Ways: 4} // 16 sets? 4096/64=64 lines /4 = 16 sets
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		smallCfg(),
		{SizeBytes: 8 << 20, LineBytes: 64, Ways: 16},
		{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []Config{
		{},
		{SizeBytes: -1, LineBytes: 64, Ways: 4},
		{SizeBytes: 4096, LineBytes: 48, Ways: 4},    // line not power of two
		{SizeBytes: 4096, LineBytes: 64, Ways: 3},    // 64 lines not divisible... 64/3 no
		{SizeBytes: 64 * 48, LineBytes: 64, Ways: 4}, // 48/4=12 sets: not power of two
		{SizeBytes: 4100, LineBytes: 64, Ways: 4},    // size not multiple of line
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

func TestAccessMissThenHit(t *testing.T) {
	c := New(smallCfg())
	if c.Access(0x1000) {
		t.Fatal("hit on empty cache")
	}
	c.Fill(0x1000)
	if !c.Access(0x1000) {
		t.Fatal("miss after Fill")
	}
	if !c.Access(0x1038) {
		t.Fatal("miss on same line, different offset")
	}
	if c.Access(0x1040) {
		t.Fatal("hit on adjacent line")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Hits != 2 || st.Misses != 2 || st.Fills != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(smallCfg()) // 16 sets, 4 ways
	sets := uint64(c.Sets())
	line := uint64(64)
	// Five lines mapping to set 0: addresses k*sets*line.
	addrs := make([]uint64, 5)
	for i := range addrs {
		addrs[i] = uint64(i) * sets * line
	}
	for _, a := range addrs[:4] {
		c.Fill(a)
	}
	// Touch addrs[0] so addrs[1] is LRU.
	c.Access(addrs[0])
	evicted, was := c.Fill(addrs[4])
	if !was {
		t.Fatal("no eviction from full set")
	}
	if evicted != c.LineOf(addrs[1]) {
		t.Fatalf("evicted line %#x, want LRU %#x", evicted, c.LineOf(addrs[1]))
	}
	if c.Contains(addrs[1]) {
		t.Fatal("evicted line still present")
	}
	if !c.Contains(addrs[0]) || !c.Contains(addrs[4]) {
		t.Fatal("wrong lines evicted")
	}
}

func TestFillPresentLineRefreshesWithoutEviction(t *testing.T) {
	c := New(smallCfg())
	c.Fill(0)
	if _, was := c.Fill(0); was {
		t.Fatal("refill of present line evicted something")
	}
	if c.Stats().Fills != 1 {
		t.Fatalf("refill counted as new fill: %+v", c.Stats())
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := New(smallCfg())
	sets := uint64(c.Sets())
	line := uint64(64)
	a0, a1, a2, a3, a4 := uint64(0), sets*line, 2*sets*line, 3*sets*line, 4*sets*line
	c.Fill(a0)
	c.Fill(a1)
	c.Fill(a2)
	c.Fill(a3)
	before := c.Stats()
	// Contains on a0 must not refresh its recency or touch stats.
	c.Contains(a0)
	if c.Stats() != before {
		t.Fatal("Contains changed stats")
	}
	c.Fill(a4) // evicts a0 (still LRU despite Contains)
	if c.Contains(a0) {
		t.Fatal("Contains refreshed recency")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(smallCfg())
	c.Fill(0x40)
	if !c.Invalidate(0x40) {
		t.Fatal("Invalidate missed present line")
	}
	if c.Invalidate(0x40) {
		t.Fatal("Invalidate hit absent line")
	}
	if c.Contains(0x40) {
		t.Fatal("line present after Invalidate")
	}
}

func TestInvalidateMatchingAndFlush(t *testing.T) {
	c := New(smallCfg())
	for i := uint64(0); i < 8; i++ {
		c.Fill(i * 64)
	}
	n := c.InvalidateMatching(func(line uint64) bool { return line%2 == 0 })
	if n != 4 {
		t.Fatalf("InvalidateMatching dropped %d, want 4", n)
	}
	if c.ValidLines() != 4 {
		t.Fatalf("ValidLines = %d, want 4", c.ValidLines())
	}
	c.Flush()
	if c.ValidLines() != 0 {
		t.Fatal("Flush left valid lines")
	}
}

func TestEvictionOnlyWithinSet(t *testing.T) {
	c := New(smallCfg())
	// Fill every set's way 0.
	for s := 0; s < c.Sets(); s++ {
		c.Fill(uint64(s) * 64)
	}
	if c.ValidLines() != c.Sets() {
		t.Fatalf("ValidLines = %d, want %d", c.ValidLines(), c.Sets())
	}
	// Overfill set 0 only; other sets must be untouched.
	sets := uint64(c.Sets())
	for k := uint64(1); k <= 4; k++ {
		c.Fill(k * sets * 64)
	}
	for s := 1; s < c.Sets(); s++ {
		if !c.Contains(uint64(s) * 64) {
			t.Fatalf("set %d lost its line to set 0 pressure", s)
		}
	}
}

// Property: capacity is never exceeded and a just-filled line is always
// present.
func TestCapacityProperty(t *testing.T) {
	cfg := smallCfg()
	capacity := cfg.SizeBytes / cfg.LineBytes
	f := func(addrs []uint32) bool {
		c := New(cfg)
		for _, a := range addrs {
			c.Fill(uint64(a))
			if !c.Contains(uint64(a)) {
				return false
			}
			if c.ValidLines() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: hits+misses == accesses; evictions <= fills.
func TestStatsInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(smallCfg())
		for _, op := range ops {
			addr := uint64(op) * 8
			if op%3 == 0 {
				c.Fill(addr)
			} else {
				c.Access(addr)
			}
		}
		st := c.Stats()
		return st.Hits+st.Misses == st.Accesses && st.Evictions <= st.Fills
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMissRatio(t *testing.T) {
	var s Stats
	if s.MissRatio() != 0 {
		t.Fatal("MissRatio on zero stats != 0")
	}
	s = Stats{Accesses: 10, Misses: 3}
	if got := s.MissRatio(); got != 0.3 {
		t.Fatalf("MissRatio = %v, want 0.3", got)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(Config{SizeBytes: 100, LineBytes: 7, Ways: 2})
}

// driveRandom applies n random operations over 4× as many distinct lines as
// c holds, so sets overflow and evict, and returns every observable result
// in order: hits, victims, slots and invalidation counts, then the final
// Stats and ValidLines.
func driveRandom(c *Cache, seed uint64, n int) []uint64 {
	r := prng.New(seed)
	lines := uint64(4 * c.Config().SizeBytes / c.Config().LineBytes)
	lineBytes := uint64(c.Config().LineBytes)
	var out []uint64
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	for i := 0; i < n; i++ {
		addr := r.Uint64n(lines)*lineBytes + r.Uint64n(lineBytes)
		switch r.Intn(8) {
		case 0:
			out = append(out, b(c.Access(addr)))
		case 1:
			ev, was := c.Fill(addr)
			out = append(out, ev, b(was))
		case 2:
			hit, ev, was := c.AccessFill(addr)
			out = append(out, b(hit), ev, b(was))
		case 3:
			if !c.Contains(addr) {
				ev, was := c.FillCold(addr)
				out = append(out, ev, b(was))
			}
		case 4:
			out = append(out, b(c.Invalidate(addr)))
		case 5:
			out = append(out, uint64(c.LookupSlot(addr)))
		case 6:
			if !c.Contains(addr) {
				out = append(out, uint64(c.InstallSlot(addr)))
			}
		case 7:
			k := r.Uint64n(7)
			out = append(out, uint64(c.InvalidateMatching(func(line uint64) bool { return line%7 == k })))
		}
	}
	st := c.Stats()
	return append(out, st.Accesses, st.Hits, st.Misses, st.Evictions, st.Fills, uint64(c.ValidLines()))
}

// Property: Reset leaves nothing behind. After a random operation sequence
// and Reset, a second sequence observes exactly what a new cache driven by
// the second sequence alone observes — hits, victims, slots, Stats and
// ValidLines — in both recency representations.
func TestResetMatchesNewProperty(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 4096, LineBytes: 64, Ways: 4},  // packed order
		{SizeBytes: 8192, LineBytes: 32, Ways: 32}, // tick stamps
	} {
		f := func(seed1, seed2 uint64) bool {
			reused := New(cfg)
			driveRandom(reused, seed1, 2000)
			reused.Reset()
			return reflect.DeepEqual(driveRandom(reused, seed2, 2000), driveRandom(New(cfg), seed2, 2000))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
}

// lruModel is the reference replacement policy: per set, the valid lines
// in recency order, most recent first, with the Stats a cache would count.
type lruModel struct {
	sets  [][]uint64
	ways  int
	stats Stats
}

func (m *lruModel) set(line uint64) *[]uint64 { return &m.sets[line%uint64(len(m.sets))] }

// touch makes line the most recent of its set, reporting whether it was
// present.
func (m *lruModel) touch(line uint64) bool {
	s := m.set(line)
	for i, l := range *s {
		if l == line {
			copy((*s)[1:i+1], (*s)[:i])
			(*s)[0] = line
			return true
		}
	}
	return false
}

// access is Access: a counted lookup that refreshes recency on a hit.
func (m *lruModel) access(line uint64) bool {
	m.stats.Accesses++
	if m.touch(line) {
		m.stats.Hits++
		return true
	}
	m.stats.Misses++
	return false
}

// install adds an absent line as the most recent of its set, evicting the
// least recent when the set is full.
func (m *lruModel) install(line uint64) (evicted uint64, wasValid bool) {
	s := m.set(line)
	m.stats.Fills++
	if len(*s) == m.ways {
		evicted, wasValid = (*s)[m.ways-1], true
		*s = (*s)[:m.ways-1]
		m.stats.Evictions++
	}
	*s = append([]uint64{line}, *s...)
	return evicted, wasValid
}

func (m *lruModel) remove(line uint64) bool {
	s := m.set(line)
	for i, l := range *s {
		if l == line {
			*s = append((*s)[:i], (*s)[i+1:]...)
			return true
		}
	}
	return false
}

func (m *lruModel) validLines() int {
	n := 0
	for _, s := range m.sets {
		n += len(s)
	}
	return n
}

// TestCacheMatchesLRUModel drives both recency representations — packed
// order (4, 8, 16 ways) and tick stamps (32, 64 ways) — with random
// Access/Fill/AccessFill/FillCold/Invalidate/LookupSlot/InstallSlot
// sequences and checks each operation against a per-set true-LRU list:
// its hit, evicted tag and wasValid, then Stats and ValidLines. Slot
// numbers are left out: which way holds a line depends on the
// representation.
func TestCacheMatchesLRUModel(t *testing.T) {
	type result struct {
		hit      bool
		evicted  uint64
		wasValid bool
	}
	for _, ways := range []int{4, 8, 16, 32, 64} {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			const sets, lineBytes = 4, 64
			c := New(Config{SizeBytes: sets * ways * lineBytes, LineBytes: lineBytes, Ways: ways})
			m := &lruModel{sets: make([][]uint64, sets), ways: ways}
			r := prng.New(uint64(ways))
			for i := 0; i < 20000; i++ {
				// Twice the capacity in lines: sets overflow and evict,
				// and about half the lookups hit.
				line := r.Uint64n(2 * sets * uint64(ways))
				addr := line*lineBytes + r.Uint64n(lineBytes)
				var got, want result
				op := r.Intn(7)
				if (op == 3 || op == 6) && c.Contains(addr) {
					continue // FillCold and InstallSlot require an absent line
				}
				switch op {
				case 0:
					got.hit, want.hit = c.Access(addr), m.access(line)
				case 1:
					got.evicted, got.wasValid = c.Fill(addr)
					if !m.touch(line) {
						want.evicted, want.wasValid = m.install(line)
					}
				case 2:
					got.hit, got.evicted, got.wasValid = c.AccessFill(addr)
					if want.hit = m.access(line); !want.hit {
						want.evicted, want.wasValid = m.install(line)
					}
				case 3:
					got.evicted, got.wasValid = c.FillCold(addr)
					want.evicted, want.wasValid = m.install(line)
				case 4:
					got.hit, want.hit = c.Invalidate(addr), m.remove(line)
				case 5:
					got.hit = c.LookupSlot(addr) >= 0
					if want.hit = m.touch(line); want.hit {
						m.stats.Accesses++
						m.stats.Hits++
					}
				case 6:
					c.InstallSlot(addr)
					m.install(line)
				}
				if got != want {
					t.Fatalf("op %d (kind %d) on line %d: got %+v, model %+v", i, op, line, got, want)
				}
				if c.Stats() != m.stats || c.ValidLines() != m.validLines() {
					t.Fatalf("op %d (kind %d) on line %d: stats %+v, %d valid lines; model %+v, %d",
						i, op, line, c.Stats(), c.ValidLines(), m.stats, m.validLines())
				}
			}
		})
	}
}
