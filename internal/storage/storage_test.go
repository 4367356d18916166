package storage

import (
	"testing"

	"itsim/internal/bus"
	"itsim/internal/fault"
	"itsim/internal/sim"
)

// fastLink returns a link so fast transfer time is negligible but nonzero.
func fastLink() *bus.Link {
	return bus.New(4, bus.DefaultLaneBandwidth)
}

func TestDefaultsApplied(t *testing.T) {
	d := New(Config{}, nil)
	cfg := d.Config()
	if cfg.ReadLatency != DefaultReadLatency || cfg.WriteLatency != DefaultWriteLatency ||
		cfg.Channels != DefaultChannels {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if d.Link() == nil {
		t.Fatal("nil link not replaced")
	}
}

func TestReadLatency(t *testing.T) {
	d := New(DefaultConfig(), fastLink())
	done := d.SubmitPage(0, Read, 0)
	// setup (200ns) + flash read (3µs) + bus (~257ns)
	lo := 3*sim.Microsecond + 200*sim.Nanosecond
	hi := lo + 400*sim.Nanosecond
	if done < lo || done > hi {
		t.Fatalf("read done at %v, want in [%v, %v]", done, lo, hi)
	}
}

func TestChannelQueueing(t *testing.T) {
	d := New(DefaultConfig(), fastLink())
	// Two reads to the same channel (same slot mod channels) serialize.
	d1 := d.SubmitPage(0, Read, 0)
	d2 := d.SubmitPage(0, Read, uint64(DefaultChannels)) // same channel
	if d2 <= d1 {
		t.Fatalf("same-channel read not queued: %v then %v", d1, d2)
	}
	if d2-d1 < DefaultReadLatency {
		t.Fatalf("second read gained only %v, want ≥ %v", d2-d1, DefaultReadLatency)
	}
	if d.Stats().QueueDelay == 0 {
		t.Fatal("queue delay not recorded")
	}
}

func TestChannelParallelism(t *testing.T) {
	d := New(DefaultConfig(), fastLink())
	// Reads on distinct channels overlap: completion spread dominated by
	// the shared bus only.
	var last sim.Time
	for slot := uint64(0); slot < uint64(DefaultChannels); slot++ {
		done := d.SubmitPage(0, Read, slot)
		if done > last {
			last = done
		}
	}
	// All flash reads overlap; the 8 bus transfers serialize (~257ns each).
	budget := 200*sim.Nanosecond + DefaultReadLatency + 8*300*sim.Nanosecond
	if last > budget {
		t.Fatalf("parallel reads finished at %v, want ≤ %v", last, budget)
	}
}

func TestWritesDoNotBlockReads(t *testing.T) {
	d := New(DefaultConfig(), fastLink())
	d.SubmitPage(0, Write, 3)
	read := d.SubmitPage(0, Read, 3) // same channel as the write
	budget := 200*sim.Nanosecond + DefaultReadLatency + 600*sim.Nanosecond
	if read > budget {
		t.Fatalf("read blocked behind write: done at %v, want ≤ %v (program-suspend)", read, budget)
	}
}

func TestReadsBlockLaterReadsOnChannel(t *testing.T) {
	d := New(DefaultConfig(), fastLink())
	d.SubmitPage(0, Read, 5)
	if d.FreeChannelAt(5, 0) {
		t.Fatal("channel reported free while read in flight")
	}
	if d.FreeChannelAt(5, 10*sim.Microsecond) != true {
		t.Fatal("channel reported busy after read drained")
	}
	if !d.FreeChannelAt(6, 0) {
		t.Fatal("other channel reported busy")
	}
}

func TestWriteAccounting(t *testing.T) {
	d := New(DefaultConfig(), fastLink())
	done := d.SubmitPage(0, Write, 1)
	if done < DefaultWriteLatency {
		t.Fatalf("write done at %v, want ≥ program time %v", done, DefaultWriteLatency)
	}
	st := d.Stats()
	if st.Writes != 1 || st.BytesWritten != 4096 || st.Reads != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStatsCounts(t *testing.T) {
	d := New(DefaultConfig(), fastLink())
	for i := uint64(0); i < 5; i++ {
		d.SubmitPage(sim.Time(i)*10*sim.Microsecond, Read, i)
	}
	st := d.Stats()
	if st.Reads != 5 || st.BytesRead != 5*4096 {
		t.Fatalf("stats = %+v", st)
	}
	if d.Requests() != 5 {
		t.Fatalf("Requests = %d", d.Requests())
	}
}

func TestNonPositiveSizePanics(t *testing.T) {
	d := New(DefaultConfig(), fastLink())
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size submit did not panic")
		}
	}()
	d.Submit(0, Read, 0, 0)
}

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("Op strings wrong")
	}
}

func TestSlotAllocator(t *testing.T) {
	var s SlotAllocator
	for i := uint64(0); i < 100; i++ {
		if got := s.Alloc(); got != i {
			t.Fatalf("Alloc #%d = %d", i, got)
		}
	}
	if s.Allocated() != 100 {
		t.Fatalf("Allocated = %d", s.Allocated())
	}
}

func TestSlotStripingCoversChannels(t *testing.T) {
	d := New(Config{Channels: 4}, fastLink())
	seen := map[int]bool{}
	for slot := uint64(0); slot < 8; slot++ {
		seen[d.channelOf(slot)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("striping used %d channels, want 4", len(seen))
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"defaults", DefaultConfig(), true},
		{"negative read latency", Config{ReadLatency: -1}, false},
		{"negative write latency", Config{WriteLatency: -1}, false},
		{"negative channels", Config{Channels: -4}, false},
		{"negative dma setup", Config{DMASetup: -sim.Nanosecond}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

// Zero DMASetup is "unset", not "free": New must default it exactly like the
// other zero-valued knobs, so a config can no longer slip a 0-cost DMA setup
// past defaulting while Validate calls the same value legal.
func TestZeroDMASetupDefaults(t *testing.T) {
	d := New(Config{DMASetup: 0}, fastLink())
	if got := d.Config().DMASetup; got != DefaultDMASetup {
		t.Fatalf("DMASetup = %v, want default %v", got, DefaultDMASetup)
	}
}

// --- fault injection at the device boundary ---

// injected returns a device whose injector has the given config.
func injected(t *testing.T, cfg fault.Config) *Device {
	t.Helper()
	d := New(DefaultConfig(), fastLink())
	d.SetInjector(fault.New(cfg))
	return d
}

func TestInjectedTailLengthensRead(t *testing.T) {
	clean := New(DefaultConfig(), fastLink())
	spiky := injected(t, fault.Config{Seed: 1, TailProb: 1, TailMult: 8})

	base := clean.SubmitPage(0, Read, 0)
	out := spiky.SubmitRetry(0, Read, 0, 4096, -1)
	if out.InjectedTail != 7*DefaultReadLatency {
		t.Fatalf("InjectedTail = %v, want %v", out.InjectedTail, 7*DefaultReadLatency)
	}
	if got := out.Done - base; got != out.InjectedTail {
		t.Fatalf("spiked read finished %v later than clean, want %v", got, out.InjectedTail)
	}
	if st := spiky.Injector().Stats(); st.TailSpikes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInjectedStallChargesQueueDelay(t *testing.T) {
	window := 50 * sim.Microsecond
	d := injected(t, fault.Config{Seed: 1, StallProb: 1, StallWindow: window})

	clean := New(DefaultConfig(), fastLink())
	base := clean.SubmitPage(0, Read, 0)
	out := d.SubmitRetry(0, Read, 0, 4096, -1)
	if out.Stalled != window {
		t.Fatalf("Stalled = %v, want %v", out.Stalled, window)
	}
	if got := out.Done - base; got != window {
		t.Fatalf("stalled read finished %v later than clean, want %v", got, window)
	}
	if d.Stats().QueueDelay < window {
		t.Fatalf("stall window not charged as queue delay: %v", d.Stats().QueueDelay)
	}
}

func TestDMAFailureProtocol(t *testing.T) {
	d := injected(t, fault.Config{Seed: 1, DMAFailProb: 1, RetryMax: 3})

	// Attempts below RetryMax fail; the time is spent either way.
	out := d.SubmitRetry(0, Read, 0, 4096, 0)
	if !out.Failed {
		t.Fatal("p=1 DMA failure did not fire")
	}
	if out.Done <= 0 {
		t.Fatal("failed transfer reported no elapsed time")
	}
	// At attempt == RetryMax the injector guarantees success.
	out = d.SubmitRetry(out.Done, Read, 0, 4096, 3)
	if out.Failed {
		t.Fatal("transfer failed at attempt == RetryMax")
	}
}

func TestPlainSubmitNeverFails(t *testing.T) {
	d := injected(t, fault.Config{Seed: 1, DMAFailProb: 1})
	// Submit is outside the retry protocol: the failure stream must be
	// neither consulted nor advanced.
	d.SubmitPage(0, Read, 0)
	if st := d.Injector().Stats(); st.DMAFailures != 0 {
		t.Fatalf("plain Submit drew from the dma stream: %+v", st)
	}
}

func TestWriteBacksNeverFail(t *testing.T) {
	d := injected(t, fault.Config{Seed: 1, DMAFailProb: 1})
	out := d.SubmitRetry(0, Write, 0, 4096, 0)
	if out.Failed {
		t.Fatal("write-back failed; only reads participate in the failure model")
	}
}

// --- prefetch-burst channel queueing ---

// A prefetch burst against one channel serializes at exactly the device
// service time per request; the same burst striped across channels overlaps.
func TestPrefetchBurstSameChannelSerializes(t *testing.T) {
	d := New(DefaultConfig(), fastLink())
	const burst = 4
	var dones []sim.Time
	for i := 0; i < burst; i++ {
		// Slots i*Channels all map to channel 0.
		dones = append(dones, d.SubmitPage(0, Read, uint64(i*DefaultChannels)))
	}
	for i := 1; i < burst; i++ {
		if gap := dones[i] - dones[i-1]; gap != DefaultReadLatency {
			t.Fatalf("burst read %d finished %v after its predecessor, want exactly %v (flash serialization)",
				i, gap, DefaultReadLatency)
		}
	}
	// Total queue delay is the arithmetic series 1+2+3 service times.
	want := sim.Time(burst*(burst-1)/2) * DefaultReadLatency
	if got := d.Stats().QueueDelay; got != want {
		t.Fatalf("QueueDelay = %v, want %v", got, want)
	}
}

func TestPrefetchBurstCrossChannelOverlaps(t *testing.T) {
	d := New(DefaultConfig(), fastLink())
	const burst = 4
	var last sim.Time
	for slot := uint64(0); slot < burst; slot++ { // distinct channels
		if done := d.SubmitPage(0, Read, slot); done > last {
			last = done
		}
	}
	// All flash reads overlap; only the bus transfers serialize.
	budget := DefaultDMASetup + DefaultReadLatency + burst*300*sim.Nanosecond
	if last > budget {
		t.Fatalf("cross-channel burst finished at %v, want ≤ %v", last, budget)
	}
	if d.Stats().QueueDelay != 0 {
		t.Fatalf("cross-channel burst queued: %v", d.Stats().QueueDelay)
	}
}

// Demand reads queue behind an in-flight prefetch on the same channel — the
// admission-control contract FreeChannelAt exists to let callers avoid.
func TestDemandReadQueuesBehindPrefetch(t *testing.T) {
	d := New(DefaultConfig(), fastLink())
	d.SubmitPage(0, Read, 2) // "prefetch" occupying channel 2
	if d.FreeChannelAt(2, sim.Microsecond) {
		t.Fatal("channel reported free under in-flight prefetch")
	}
	demand := d.SubmitPage(sim.Microsecond, Read, uint64(2+DefaultChannels))
	cleanBudget := sim.Microsecond + DefaultDMASetup + DefaultReadLatency + 400*sim.Nanosecond
	if demand <= cleanBudget {
		t.Fatalf("demand read at %v did not queue behind the prefetch (clean budget %v)", demand, cleanBudget)
	}
}
