package llm

import (
	"sync/atomic"

	"repro/internal/telemetry"
)

// SlotTracker is the live occupancy view of a decode-slot pool — the GPU
// abstraction the gateway schedules prefills onto. The gateway drives it
// (Acquire on slot grant, Release on slot return) and the chunk
// scheduler reads it: recompute-from-text is priced against how many
// slots are already busy, so a loaded GPU pushes the cost model back
// toward fetching and an idle one pulls it toward recompute. All methods
// are safe for concurrent use and allocation-free.
type SlotTracker struct {
	total int
	busy  atomic.Int64
}

// NewSlotTracker returns a tracker for a pool of total slots.
func NewSlotTracker(total int) *SlotTracker {
	if total < 1 {
		total = 1
	}
	return &SlotTracker{total: total}
}

// Acquire marks one slot busy.
func (t *SlotTracker) Acquire() { t.busy.Add(1) }

// Release marks one slot idle again.
func (t *SlotTracker) Release() { t.busy.Add(-1) }

// Busy returns the number of busy slots.
func (t *SlotTracker) Busy() int { return int(t.busy.Load()) }

// Total returns the pool size.
func (t *SlotTracker) Total() int { return t.total }

// Register wires the tracker's gauges into reg (nil-safe):
// cachegen_llm_slots_busy and cachegen_llm_slots_total.
func (t *SlotTracker) Register(reg *telemetry.Registry) {
	if t == nil || reg == nil {
		return
	}
	reg.GaugeFunc("cachegen_llm_slots_busy", "decode slots currently held by prefills",
		func() float64 { return float64(t.Busy()) })
	reg.GaugeFunc("cachegen_llm_slots_total", "decode-slot pool size",
		func() float64 { return float64(t.total) })
}
