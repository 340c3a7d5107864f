package core

import (
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/tensor"
)

// fakeClock is a scheduler clock the test moves by hand. None of these
// tests sleeps: they wait for the scheduler to reach a state, then act.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testSlots(workers int) (*slots, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := newSlots(workers)
	s.now = clk.now
	return s, clk
}

// slotState is what the tests observe of a scheduler.
type slotState struct{ loads, heldLoad, heldPublish, queuedLoad, queuedPublish int }

func (s *slots) state() slotState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slotState{s.loads, s.held[classLoad], s.held[classPublish], len(s.loadQ), len(s.pubQ)}
}

// awaitState yields until the scheduler is in state want.
func awaitState(t *testing.T, s *slots, want slotState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.state() != want {
		if time.Now().After(deadline) {
			t.Fatalf("scheduler state %+v, want %+v", s.state(), want)
		}
		runtime.Gosched()
	}
}

// kick runs the scheduler's dispatch as any release, end or timer would.
func (s *slots) kick() {
	s.mu.Lock()
	s.dispatch()
	s.mu.Unlock()
}

// TestSlotsLoadLaneBeforePublishBatch pins R1: whichever queued first, the
// freed slot goes to the load lane.
func TestSlotsLoadLaneBeforePublishBatch(t *testing.T) {
	for _, publishFirst := range []bool{true, false} {
		s, _ := testSlots(1)
		s.acquireLoad() // the only slot
		var mu sync.Mutex
		var order []string
		ran := func(who string) {
			mu.Lock()
			order = append(order, who)
			mu.Unlock()
		}
		var wg sync.WaitGroup
		lane := func() {
			defer wg.Done()
			s.acquireLoad()
			ran("load")
			s.release(classLoad)
		}
		batch := func() {
			defer wg.Done()
			var b publishBatch
			s.acquirePublish(&b)
			ran("publish")
			s.release(classPublish)
		}
		wg.Add(2)
		if publishFirst {
			go batch()
			awaitState(t, s, slotState{heldLoad: 1, queuedPublish: 1})
			go lane()
		} else {
			go lane()
			awaitState(t, s, slotState{heldLoad: 1, queuedLoad: 1})
			go batch()
		}
		awaitState(t, s, slotState{heldLoad: 1, queuedLoad: 1, queuedPublish: 1})
		s.release(classLoad)
		wg.Wait()
		if len(order) != 2 || order[0] != "load" {
			t.Errorf("publish queued first = %v: ran %v, want the load lane first", publishFirst, order)
		}
		awaitState(t, s, slotState{})
		if tot := s.totals(); tot.LoadWait != 0 || tot.PublishWait != 0 {
			t.Errorf("waits %v / %v on a clock that never moved", tot.LoadWait, tot.PublishWait)
		}
	}
}

// TestSlotsPublishHandsOverWithinOneBlock pins R2: the first block boundary
// after a load lane queues gives the lane the slot, and the batch gets it
// back when the lane is done.
func TestSlotsPublishHandsOverWithinOneBlock(t *testing.T) {
	s, clk := testSlots(1)
	var b publishBatch
	s.acquirePublish(&b)
	s.yieldPublish(&b) // nobody waits: keeps the slot
	if got := s.state(); got != (slotState{heldPublish: 1}) {
		t.Fatalf("idle block boundary changed the state to %+v", got)
	}
	laneRan := make(chan struct{})
	go func() {
		s.acquireLoad()
		clk.advance(3 * time.Millisecond) // the lane's work; the batch waits it out
		close(laneRan)
		s.release(classLoad)
	}()
	awaitState(t, s, slotState{heldPublish: 1, queuedLoad: 1})
	clk.advance(time.Millisecond) // how long the lane waits for the boundary
	s.yieldPublish(&b)            // one boundary
	select {
	case <-laneRan:
	default:
		t.Fatal("batch has the slot back before the waiting lane ran")
	}
	if got := s.state(); got != (slotState{heldPublish: 1}) {
		t.Fatalf("state after the hand-over %+v", got)
	}
	tot := s.totals()
	if tot.PublishYields != 1 || tot.LoadWait != time.Millisecond || tot.PublishWait != 3*time.Millisecond {
		t.Errorf("totals %+v, want 1 yield, 1ms load wait, 3ms publish wait", tot)
	}
	if b.exempt || b.keptOut != 0 {
		t.Errorf("batch aged %+v with no load in flight", b)
	}
	s.release(classPublish)
}

// TestSlotsPublishCap pins R3: with n loads in flight publish batches hold
// max(0, workers − 2n) slots, batches over the bound hand theirs back at
// the next block boundary, and the bound lifts as the loads end.
func TestSlotsPublishCap(t *testing.T) {
	for _, workers := range []int{2, 4, 16} {
		for loads := 0; loads <= 2; loads++ {
			s, _ := testSlots(workers)
			for i := 0; i < loads; i++ {
				s.beginLoad()
			}
			capAt := func(n int) int { return max(0, workers-2*n) }
			finish := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var b publishBatch
					s.acquirePublish(&b)
					<-finish
					s.release(classPublish)
				}()
			}
			for n := loads; ; n-- {
				want := slotState{loads: n, heldPublish: capAt(n), queuedPublish: workers - capAt(n)}
				awaitState(t, s, want)
				if n == 0 {
					break
				}
				s.endLoad()
			}
			if tot := s.totals(); tot.PublishExempt != 0 {
				t.Errorf("%d workers, %d loads: %d batches exempted on a stopped clock", workers, loads, tot.PublishExempt)
			}
			close(finish)
			wg.Wait()
			awaitState(t, s, slotState{})
		}
	}

	// A batch already running when a load begins is over the bound: it
	// yields at its next boundary and returns when the load ends.
	s, _ := testSlots(2)
	var b publishBatch
	s.acquirePublish(&b)
	s.beginLoad()
	back := make(chan struct{})
	go func() {
		s.yieldPublish(&b)
		close(back)
	}()
	awaitState(t, s, slotState{loads: 1, queuedPublish: 1})
	s.endLoad()
	<-back
	if got := s.state(); got != (slotState{heldPublish: 1}) {
		t.Errorf("state after the load ended %+v", got)
	}
	if tot := s.totals(); tot.PublishYields != 1 || tot.PublishBlocksBesideLoads != 0 {
		t.Errorf("totals %+v, want 1 yield and no block beside the load", tot)
	}

	// Within the bound a batch keeps running beside a load, and is counted.
	s, _ = testSlots(4)
	s.beginLoad()
	s.acquirePublish(&b)
	s.yieldPublish(&b)
	if tot := s.totals(); tot.PublishYields != 0 || tot.PublishBlocksBesideLoads != 1 {
		t.Errorf("totals %+v, want no yield and 1 block beside the load", tot)
	}
}

// TestSlotsPublishMaxWaitExemption: a batch that loads have kept out for
// publishMaxWait gets a slot while the load is still in flight, keeps it
// against R3, and still hands it to a waiting lane (R1, R2).
func TestSlotsPublishMaxWaitExemption(t *testing.T) {
	s, clk := testSlots(2)
	// Time queued with no load in flight ages nothing.
	s.acquireLoad()
	s.acquireLoad()
	var b publishBatch
	granted := make(chan struct{})
	go func() {
		s.acquirePublish(&b)
		close(granted)
	}()
	awaitState(t, s, slotState{heldLoad: 2, queuedPublish: 1})
	clk.advance(2 * publishMaxWait)
	s.beginLoad()
	s.release(classLoad)
	s.release(classLoad)
	awaitState(t, s, slotState{loads: 1, queuedPublish: 1})

	clk.advance(publishMaxWait - time.Nanosecond)
	s.kick()
	awaitState(t, s, slotState{loads: 1, queuedPublish: 1})
	clk.advance(time.Nanosecond)
	s.kick()
	<-granted
	if !b.exempt || b.keptOut != publishMaxWait {
		t.Errorf("granted batch %+v, want exempt after %v kept out", b, publishMaxWait)
	}
	if tot := s.totals(); tot.PublishExempt != 1 || tot.PublishWait != 3*publishMaxWait {
		t.Errorf("totals %+v", tot)
	}

	s.yieldPublish(&b) // over R3's bound of 0, but exempt
	if got := s.state(); got != (slotState{loads: 1, heldPublish: 1}) {
		t.Fatalf("exempt batch gave its slot up: %+v", got)
	}
	s.acquireLoad() // the other slot
	laneRan := make(chan struct{})
	go func() {
		s.acquireLoad()
		close(laneRan)
		s.release(classLoad)
	}()
	awaitState(t, s, slotState{loads: 1, heldLoad: 1, heldPublish: 1, queuedLoad: 1})
	s.yieldPublish(&b)
	<-laneRan
	s.release(classPublish)
	s.release(classLoad)
	s.endLoad()
	awaitState(t, s, slotState{})
	if tot := s.totals(); tot.PublishBlocksBesideLoads != 0 {
		t.Errorf("exempt blocks counted as under the bound: %+v", tot)
	}
}

// TestSlotsChurn drives lanes, helpers, batches and loads through a small
// scheduler from many goroutines at once, on a clock that gains a
// millisecond at every reading so batches reach the exemption too: a lost
// hand-over would hang it, a miscount shows at the end. One batch reaches
// the exemption by construction rather than by goroutine scheduling: it
// parks behind two loads registered for it (R3 leaves publishing no slot),
// and those loads end only once a batch has been exempted.
func TestSlotsChurn(t *testing.T) {
	s, clk := testSlots(3)
	s.now = func() time.Time {
		clk.advance(time.Millisecond)
		return clk.now()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	s.beginLoad()
	s.beginLoad()
	go func() { // the parked batch
		defer wg.Done()
		var b publishBatch
		s.acquirePublish(&b)
		s.release(classPublish)
	}()
	go func() { // its loads: every dispatch reads the clock, so the batch ages
		defer wg.Done()
		for s.totals().PublishExempt == 0 {
			s.kick()
			runtime.Gosched()
		}
		s.endLoad()
		s.endLoad()
	}()
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				switch (g + i) % 4 {
				case 0, 1: // a load: lanes inside BeginLoad, one helper if a slot is free
					s.beginLoad()
					s.acquireLoad()
					if s.tryAcquireLoad() {
						s.release(classLoad)
					}
					s.release(classLoad)
					s.endLoad()
				case 2: // a decode outside any load
					s.acquireLoad()
					runtime.Gosched()
					s.release(classLoad)
				default: // a publish batch of a few blocks
					var b publishBatch
					s.acquirePublish(&b)
					for blk := 0; blk < 4; blk++ {
						s.yieldPublish(&b)
						runtime.Gosched()
					}
					s.release(classPublish)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.state(); got != (slotState{}) {
		t.Errorf("scheduler not idle after the churn: %+v", got)
	}
	if tot := s.totals(); tot.PublishYields == 0 || tot.PublishExempt == 0 || tot.LoadWait == 0 {
		t.Errorf("churn never contended: %+v", tot)
	}
}

// TestSlotsUncontendedAllocs: taking and returning a free slot allocates
// nothing, in either class.
func TestSlotsUncontendedAllocs(t *testing.T) {
	s := newSlots(2)
	allocs := testing.AllocsPerRun(100, func() {
		s.acquireLoad()
		if !s.tryAcquireLoad() {
			t.Fatal("second slot not free")
		}
		s.release(classLoad)
		s.release(classLoad)
		var b publishBatch
		s.acquirePublish(&b)
		s.yieldPublish(&b)
		s.release(classPublish)
	})
	if allocs != 0 {
		t.Errorf("uncontended acquire/release: %v allocs, want 0", allocs)
	}
}

// TestPublishInsideLoadCompletes: an encode issued between BeginLoad and
// its End — on a 2-worker codec, where one load leaves publish no slot —
// outlasts publishMaxWait and runs instead of deadlocking. The clock jumps
// publishMaxWait at every reading, so nothing waits for real.
func TestPublishInsideLoadCompletes(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 2
	codec, m := testCodec(t, cfg)
	var mu sync.Mutex
	at := time.Unix(1000, 0)
	codec.slots.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		at = at.Add(publishMaxWait)
		return at
	}
	kv := m.CalculateKV(testTokens(7, 100))
	load := codec.BeginLoad()
	data, err := codec.EncodeChunk(kv, 0, 0, 1)
	load.End()
	if err != nil {
		t.Fatal(err)
	}
	tot := codec.SlotTotals()
	if tot.PublishExempt == 0 || tot.PublishBlocksBesideLoads != 0 || tot.LoadsInFlight != 0 {
		t.Errorf("totals %+v, want every batch exempted and none run under the bound", tot)
	}
	want, err := NewCodec(codec.Bank()).EncodeChunk(kv, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(want) {
		t.Error("bitstream encoded inside a load differs from one encoded alone")
	}
	if got := codec.slots.state(); got != (slotState{}) {
		t.Errorf("scheduler not idle afterwards: %+v", got)
	}
}

// ranBeforeReturn runs call on one P with the collector off, beside a
// goroutine readied as the call starts, and reports whether that goroutine
// ran before the call returned. A coder loop never blocks, and the test
// chunks code in well under the 10 ms async-preemption tick, so on one P
// the goroutine can only run first if the loop yields the processor.
func ranBeforeReturn(t *testing.T, call func() error) bool {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var returned, early atomic.Bool
	ran := make(chan struct{})
	go func() {
		early.Store(!returned.Load())
		close(ran)
	}()
	err := call()
	returned.Store(true)
	<-ran
	if err != nil {
		t.Fatal(err)
	}
	return early.Load()
}

// yieldTestCodec is a 1-worker codec — no goroutine of its own, so no
// blocking point in a call — over a narrow model, and a 240-token chunk: 6
// (kind, layer) blocks to encode, 3 decode jobs across its 16 lanes, each
// call under a millisecond (a few under the race detector).
func yieldTestCodec(t *testing.T) (*Codec, *tensor.KV) {
	m, err := llm.New(llm.Config{
		Name: "yield-test", Layers: 3, KVChannels: 8, Channels: 8,
		Hidden: 128, Params: 1e8, Seed: 98,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Workers = 1
	bank, err := Train(cfg, []*tensor.KV{m.CalculateKV(testTokens(1000, 400))})
	if err != nil {
		t.Fatal(err)
	}
	return NewCodec(bank), m.CalculateKV(testTokens(12, 240))
}

// TestEncodeYieldsProcessor: a publish batch is a Go scheduling point at
// its block boundaries, so a goroutine readied beside a running encode —
// a prefill timer, a fetch about to register its load — does not wait for
// the whole batch.
func TestEncodeYieldsProcessor(t *testing.T) {
	codec, kv := yieldTestCodec(t)
	if !ranBeforeReturn(t, func() error {
		_, err := codec.EncodeChunk(kv, 0, 0, 1)
		return err
	}) {
		t.Error("a goroutine readied as EncodeChunk started ran only after it returned")
	}
}

// TestDecodeYieldsProcessor: a decode worker is a Go scheduling point after
// every job.
func TestDecodeYieldsProcessor(t *testing.T) {
	codec, kv := yieldTestCodec(t)
	data, err := codec.EncodeChunk(kv, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := codec.ParseChunk(data)
	if err != nil {
		t.Fatal(err)
	}
	dst := tensor.New(kv.Layers, kv.Tokens, kv.Channels)
	if !ranBeforeReturn(t, func() error { return codec.DecodeParsedInto(dst, 0, p, data) }) {
		t.Error("a goroutine readied as DecodeParsedInto started ran only after it returned")
	}
}

// TestSlotsIdleAfterErrors: an encode that fails inside its batches, a
// decode that fails, and a load ended twice all leave every slot free and
// no load in flight.
func TestSlotsIdleAfterErrors(t *testing.T) {
	codec, m := testCodec(t, smallConfig())
	kv := m.CalculateKV(testTokens(8, 100))
	data, err := codec.EncodeChunk(kv, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Symbols quantized against a wider clamp than the bank's tables hold
	// fail in the entropy coder, after the batch took its slot.
	broken := NewCodec(codec.Bank())
	broken.cfg.DeltaClamp *= 4
	if _, err := broken.EncodeChunk(kv, 0, 0, 1); err == nil {
		t.Fatal("encode with an out-of-alphabet clamp succeeded")
	}
	for lv := 0; lv < broken.cfg.Levels(); lv++ {
		if _, err := broken.EncodeContext(kv, Level(lv)); err == nil {
			t.Fatalf("EncodeContext at level %d with an out-of-alphabet clamp succeeded", lv)
		}
	}
	if got := broken.slots.state(); got != (slotState{}) {
		t.Errorf("after encode errors: %+v", got)
	}

	load := codec.BeginLoad()
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0x40
	dst := tensor.New(kv.Layers, kv.Tokens, kv.Channels)
	if _, err := codec.DecodeChunkInto(dst, 0, bad); !errors.Is(err, ErrCorruptChunk) {
		t.Fatalf("corrupt chunk decoded: %v", err)
	}
	p, err := codec.ParseChunk(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := codec.DecodeLaneInto(dst, 0, p, p.Lanes()-1, bad); !errors.Is(err, ErrCorruptChunk) {
		t.Fatalf("corrupt lane decoded: %v", err)
	}
	load.End()
	load.End()
	new(Load).End()
	if got := codec.slots.state(); got != (slotState{}) {
		t.Errorf("after decode errors and a double End: %+v", got)
	}
	if tot := codec.SlotTotals(); tot.LoadsInFlight != 0 {
		t.Errorf("LoadsInFlight = %d", tot.LoadsInFlight)
	}
}

// TestWorkersFixedAtConstruction: the worker count is read once, so a codec
// built before a GOMAXPROCS change keeps cutting batches and recruiting
// helpers for the slots it has.
func TestWorkersFixedAtConstruction(t *testing.T) {
	prev := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(prev)
	codec, m := testCodec(t, smallConfig())
	runtime.GOMAXPROCS(1)
	if codec.workers != 3 || codec.slots.workers != 3 {
		t.Fatalf("workers %d over %d slots after GOMAXPROCS(1), want 3 and 3", codec.workers, codec.slots.workers)
	}
	kv := m.CalculateKV(testTokens(9, 100))
	data, err := codec.EncodeChunk(kv, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.DecodeChunk(data); err != nil {
		t.Fatal(err)
	}

	cfg := smallConfig()
	cfg.Workers = 5
	fixed, _ := testCodec(t, cfg)
	if fixed.workers != 5 || fixed.slots.workers != 5 {
		t.Errorf("Config.Workers = 5 gave %d workers over %d slots", fixed.workers, fixed.slots.workers)
	}
}
