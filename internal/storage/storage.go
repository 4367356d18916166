// Package storage models the Ultra-Low-Latency swap device (a Samsung
// Z-NAND-class SSD, paper §4.1: ~3 µs read latency) together with the DMA
// engine that moves pages between the device and DRAM over the PCIe link.
//
// The device exposes internal parallelism through channels: requests to
// different channels proceed concurrently, requests to the same channel
// queue. This is the "substantial parallelism offered by SSDs" the
// page-prefetch policy leverages (§3.4.1) — a burst of prefetch reads mostly
// overlaps instead of serializing.
package storage

import (
	"fmt"

	"itsim/internal/bus"
	"itsim/internal/fault"
	"itsim/internal/sim"
)

// Default ULL device parameters.
const (
	// DefaultReadLatency is the device-internal read service time (paper
	// §4.1, Z-NAND ≈ 3 µs).
	DefaultReadLatency = 3 * sim.Microsecond
	// DefaultWriteLatency is the device-internal program time. Z-NAND
	// program is substantially slower than read; 10 µs is the commonly
	// cited class figure. Write-backs are asynchronous so this mostly
	// affects channel occupancy, not the critical path.
	DefaultWriteLatency = 10 * sim.Microsecond
	// DefaultChannels is the device's internal parallelism.
	DefaultChannels = 8
	// DefaultDMASetup is the fixed per-request DMA programming cost.
	DefaultDMASetup = 200 * sim.Nanosecond
)

// Op is the request direction.
type Op uint8

const (
	// Read moves a page device → DRAM (swap-in / prefetch).
	Read Op = iota
	// Write moves a page DRAM → device (write-back).
	Write
)

// String names the op.
func (o Op) String() string {
	if o == Write {
		return "write"
	}
	return "read"
}

// Config parameterizes the device.
type Config struct {
	ReadLatency  sim.Time
	WriteLatency sim.Time
	Channels     int
	DMASetup     sim.Time
}

// DefaultConfig returns the paper's device parameters.
func DefaultConfig() Config {
	return Config{
		ReadLatency:  DefaultReadLatency,
		WriteLatency: DefaultWriteLatency,
		Channels:     DefaultChannels,
		DMASetup:     DefaultDMASetup,
	}
}

// Validate rejects negative device parameters. Zero values are legal —
// New replaces them with the defaults — but a negative latency, channel
// count or setup cost is always a caller bug, and before this check a
// Channels < 0 config slipped through New's `<= 0` defaulting only to
// panic later, while a negative DMASetup was silently zeroed.
func (c Config) Validate() error {
	if c.ReadLatency < 0 {
		return fmt.Errorf("storage: read latency must be >= 0, got %v", c.ReadLatency)
	}
	if c.WriteLatency < 0 {
		return fmt.Errorf("storage: write latency must be >= 0, got %v", c.WriteLatency)
	}
	if c.Channels < 0 {
		return fmt.Errorf("storage: channels must be >= 0, got %d", c.Channels)
	}
	if c.DMASetup < 0 {
		return fmt.Errorf("storage: dma setup must be >= 0, got %v", c.DMASetup)
	}
	return nil
}

// Stats counts device activity.
type Stats struct {
	Reads        uint64
	Writes       uint64
	BytesRead    uint64
	BytesWritten uint64
	QueueDelay   sim.Time // time requests waited behind their channel
	ServiceTime  sim.Time // device-internal busy time
}

// Device is the ULL SSD + DMA engine.
type Device struct {
	cfg       Config
	link      *bus.Link
	chanBusy  []sim.Time
	stats     Stats
	completed uint64
	inj       *fault.Injector
}

// New constructs a device attached to link. Zero-value fields in cfg are
// replaced by the defaults.
func New(cfg Config, link *bus.Link) *Device {
	if cfg.ReadLatency <= 0 {
		cfg.ReadLatency = DefaultReadLatency
	}
	if cfg.WriteLatency <= 0 {
		cfg.WriteLatency = DefaultWriteLatency
	}
	if cfg.Channels <= 0 {
		cfg.Channels = DefaultChannels
	}
	if cfg.DMASetup <= 0 {
		cfg.DMASetup = DefaultDMASetup
	}
	if link == nil {
		link = bus.New(0, 0)
	}
	return &Device{
		cfg:      cfg,
		link:     link,
		chanBusy: make([]sim.Time, cfg.Channels),
	}
}

// Config returns the device parameters.
func (d *Device) Config() Config { return d.cfg }

// SetInjector attaches a fault injector. A nil injector (the default)
// keeps the device on the exact pre-fault code path: no PRNG draws, no
// outcome changes.
func (d *Device) SetInjector(inj *fault.Injector) { d.inj = inj }

// Injector returns the attached fault injector, or nil.
func (d *Device) Injector() *fault.Injector { return d.inj }

// Link returns the attached PCIe link.
func (d *Device) Link() *bus.Link { return d.link }

// Stats returns a copy of the counters.
func (d *Device) Stats() Stats { return d.stats }

// channelOf maps a swap slot to a device channel (slot striping).
func (d *Device) channelOf(slot uint64) int {
	return int(slot % uint64(len(d.chanBusy)))
}

// Outcome describes what happened to a submitted request under fault
// injection. With no injector attached only Done is ever set.
type Outcome struct {
	// Done is when the page is safely on the destination side — or, for
	// a failed transfer, when the failure is detected (the time is spent
	// either way).
	Done sim.Time
	// Failed marks a transient DMA transfer failure: the device did the
	// work and the bus carried the bytes, but the page did not arrive.
	// The caller must resubmit to get the data.
	Failed bool
	// InjectedTail is the extra device service time added by a
	// tail-latency spike (0 when none fired).
	InjectedTail sim.Time
	// Stalled is the channel-stall window this request's channel
	// suffered before servicing (0 when none fired).
	Stalled sim.Time
}

// Submit issues a DMA transfer of n bytes for swap slot at time now and
// returns the completion time. The request pays:
//
//	DMA setup  →  channel queueing  →  device service  →  bus transfer
//
// Reads transfer device→DRAM after the flash read; writes transfer
// DRAM→device before the program. Either way the completion time is when
// the page is safely on the destination side. Under fault injection the
// request can still suffer tail spikes and channel stalls, but never a
// DMA failure — callers that need the retry protocol use SubmitRetry.
func (d *Device) Submit(now sim.Time, op Op, slot uint64, n int) sim.Time {
	return d.submit(now, op, slot, n, -1).Done
}

// SubmitRetry is Submit with the transient-failure protocol: attempt is
// the zero-based retry counter, and the injector guarantees success once
// it reaches the configured retry maximum, so a retry loop that
// increments attempt always terminates. Only reads fail; write-backs are
// asynchronous and always land.
func (d *Device) SubmitRetry(now sim.Time, op Op, slot uint64, n, attempt int) Outcome {
	return d.submit(now, op, slot, n, attempt)
}

// submit is the shared request path. attempt < 0 means the caller does
// not participate in the retry protocol: the failure stream is not
// consulted (and not advanced), so plain Submit reads keep the dma
// decision stream aligned with the kernel's retried reads.
func (d *Device) submit(now sim.Time, op Op, slot uint64, n, attempt int) Outcome {
	if n <= 0 {
		panic(fmt.Sprintf("storage: non-positive transfer size %d", n))
	}
	var out Outcome
	ch := d.channelOf(slot)
	start := now + d.cfg.DMASetup
	if d.inj != nil {
		// One stall decision per request, drawn before queueing so the
		// window extends the channel's busy horizon and is charged as
		// queue delay like any other wait behind the channel.
		if window, ok := d.inj.Stall(); ok {
			busy := d.chanBusy[ch]
			if busy < start {
				busy = start
			}
			d.chanBusy[ch] = busy + window
			out.Stalled = window
		}
	}
	if d.chanBusy[ch] > start {
		d.stats.QueueDelay += d.chanBusy[ch] - start
		start = d.chanBusy[ch]
	}
	service := d.cfg.ReadLatency
	if op == Write {
		service = d.cfg.WriteLatency
	}
	if d.inj != nil {
		// One tail decision per request: the spike multiplies the
		// device-internal service time (read-retry voltage stepping,
		// program interference), not the bus transfer.
		if mult, ok := d.inj.Tail(); ok {
			spiked := sim.Time(float64(service) * mult)
			out.InjectedTail = spiked - service
			service = spiked
		}
	}
	switch op {
	case Read:
		flashDone := start + service
		d.stats.ServiceTime += service
		d.chanBusy[ch] = flashDone
		_, out.Done = d.link.Reserve(flashDone, n)
		d.stats.Reads++
		d.stats.BytesRead += uint64(n)
		if d.inj != nil && attempt >= 0 && d.inj.DMAFail(attempt) {
			// The flash read and the bus transfer happened — the time
			// and bandwidth are spent — but the transfer failed; the
			// caller sees the failure at the would-be completion time.
			out.Failed = true
		}
	case Write:
		// Programs land in the device's write buffer and flush in the
		// background; ULL devices suspend in-flight programs when a read
		// arrives (Z-NAND program-suspend), so writes consume bus
		// bandwidth and internal service time but do NOT block the
		// channel for subsequent reads.
		_, xferDone := d.link.Reserve(start, n)
		if xferDone > start {
			start = xferDone
		}
		out.Done = start + service
		d.stats.ServiceTime += service
		d.stats.Writes++
		d.stats.BytesWritten += uint64(n)
	default:
		panic(fmt.Sprintf("storage: unknown op %d", op))
	}
	d.completed++
	return out
}

// FreeChannelAt reports whether slot's channel is idle at time t. The
// prefetch path uses this for admission control: prefetch reads only ride
// the device's spare parallelism and are dropped when the channel is busy,
// the way swap readahead throttles under load, so demand reads never queue
// behind a prefetch flood.
func (d *Device) FreeChannelAt(slot uint64, t sim.Time) bool {
	return d.chanBusy[d.channelOf(slot)] <= t
}

// BusyChannelsAt returns how many channels are still servicing requests at
// time t (the gauge sampler's view of device load).
func (d *Device) BusyChannelsAt(t sim.Time) int {
	n := 0
	for _, busy := range d.chanBusy {
		if busy > t {
			n++
		}
	}
	return n
}

// SubmitPage is Submit for one 4 KiB page.
func (d *Device) SubmitPage(now sim.Time, op Op, slot uint64) sim.Time {
	return d.Submit(now, op, slot, 4096)
}

// Requests returns the total number of submitted requests.
func (d *Device) Requests() uint64 { return d.completed }

// SlotAllocator hands out unique swap slots. The swap area is sized to the
// memory footprint of the processes (paper §4.1), which in the model just
// means slots are never exhausted; the allocator exists so slot→channel
// striping is stable and write-back targets are well-defined.
type SlotAllocator struct{ next uint64 }

// Alloc returns a fresh swap slot.
func (s *SlotAllocator) Alloc() uint64 {
	s.next++
	return s.next - 1
}

// Allocated returns how many slots have been handed out.
func (s *SlotAllocator) Allocated() uint64 { return s.next }
