package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// publishMaxWait bounds how long registered loads may keep one publish
// batch out of a coder slot (rule R3 below) before the batch is exempt from
// that rule for the rest of its life: loads that never stop, or a publish
// issued from inside a load, slow publishing down but cannot stop it.
const publishMaxWait = 50 * time.Millisecond

// slotClass is one of the two classes of work that hold coder slots.
type slotClass int

const (
	// classLoad is every decode path: a request is waiting on the result
	// (the paper's latency-critical get_kv, §6).
	classLoad slotClass = iota
	// classPublish is every encode path (the offline store_kv).
	classPublish
)

// slots is the codec-wide budget of concurrently running group coders,
// shared by every in-flight encode and decode call so chunk-level fan-out
// never multiplies with per-chunk group fan-out into workers² runnable
// goroutines. Only the leaf (group) level holds a slot, so nesting cannot
// deadlock. The budget is split between the two classes by three rules:
//
//	R1  a free slot goes to the oldest waiting load lane before any
//	    publish batch;
//	R2  a publish batch looks at one atomic at every (kind, layer) block
//	    boundary and, while a load lane waits, hands its slot over and
//	    re-queues;
//	R3  every load in flight (beginLoad … endLoad) reserves two slots — its
//	    decode, and the P the runtime needs idle to poll the network for
//	    its round trips promptly — so publish batches hold at most
//	    max(0, workers − 2·loads). A batch loads have kept out for
//	    publishMaxWait in total is exempt from R3 until it ends; R1 and R2
//	    still bind it.
//
// The rules share slots out; the processor under a slot is shared through
// yieldCoder, which every coder loop passes at its boundaries.
type slots struct {
	workers int
	now     func() time.Time

	// attention is the atomic of R2: set while a load is in flight or a load
	// lane waits, the only times a publish batch has anything to decide.
	attention atomic.Bool

	mu    sync.Mutex
	loads int    // loads in flight
	held  [2]int // slots held, by class
	loadQ []*slotWaiter
	pubQ  []*slotWaiter

	// loadTime is the total time at least one load has been in flight, up to
	// loadsSince while one still is: the clock publishMaxWait is read on, so
	// a batch queued behind other batches on an idle codec ages nothing.
	loadTime   time.Duration
	loadsSince time.Time

	waited                              [2]time.Duration
	yields, exempted, blocksBesideLoads int64
}

// publishBatch is one encode batch's standing under R3.
type publishBatch struct {
	keptOut time.Duration // time queued while a load was in flight
	exempt  bool
}

// slotWaiter is one queued acquire. Waiters are pooled: a fetch queues a
// lane per coder lane per chunk, publish batches that yield at their block
// boundaries queue behind one another, and the steady state should
// allocate none.
type slotWaiter struct {
	ready      chan struct{} // capacity 1; the grant sends
	timer      *time.Timer   // awaitPublish's re-examination; stopped while pooled
	since      time.Time     // when it queued
	sinceLoads time.Duration // loadClock's reading then
	publishBatch
}

var waiterPool = sync.Pool{New: func() any {
	w := &slotWaiter{ready: make(chan struct{}, 1), timer: time.NewTimer(time.Hour)}
	w.timer.Stop()
	return w
}}

func newSlots(workers int) *slots {
	return &slots{workers: workers, now: time.Now}
}

func (s *slots) free() int { return s.workers - s.held[classLoad] - s.held[classPublish] }

// publishCap is R3's bound on slots held by publish batches.
func (s *slots) publishCap() int { return max(0, s.workers-2*s.loads) }

// loadClock reads the load-time clock.
func (s *slots) loadClock(now time.Time) time.Duration {
	if s.loads > 0 {
		return s.loadTime + now.Sub(s.loadsSince)
	}
	return s.loadTime
}

// beginLoad registers a load in flight, until its endLoad.
func (s *slots) beginLoad() {
	s.mu.Lock()
	if s.loads == 0 {
		s.loadsSince = s.now()
	}
	s.loads++
	s.attention.Store(true)
	s.mu.Unlock()
}

func (s *slots) endLoad() {
	s.mu.Lock()
	if s.loads == 1 {
		s.loadTime += s.now().Sub(s.loadsSince)
	}
	s.loads--
	s.dispatch()
	s.mu.Unlock()
}

// acquireLoad takes a slot for a load lane, queueing behind older lanes
// only.
func (s *slots) acquireLoad() {
	s.mu.Lock()
	if s.free() > 0 { // and so no lane is queued
		s.held[classLoad]++
		s.mu.Unlock()
		return
	}
	w := s.enqueue(&s.loadQ, publishBatch{})
	s.attention.Store(true)
	s.mu.Unlock()
	<-w.ready
	waiterPool.Put(w)
}

// tryAcquireLoad takes a slot for a load lane if one is free right now.
func (s *slots) tryAcquireLoad() bool {
	s.mu.Lock()
	ok := s.free() > 0
	if ok {
		s.held[classLoad]++
	}
	s.mu.Unlock()
	return ok
}

// acquirePublish takes a slot for a publish batch.
func (s *slots) acquirePublish(b *publishBatch) {
	s.mu.Lock()
	if s.free() > 0 && len(s.loadQ) == 0 && s.held[classPublish] < s.publishCap() {
		s.held[classPublish]++
		s.mu.Unlock()
		return
	}
	s.awaitPublish(b)
}

// yieldPublish is a publish batch's block-boundary look (R2): the batch
// gives its slot up and re-queues while a load lane waits or, unless
// exempt, while publish holds more than R3 allows. It hands over slots
// only; the processor goes back at the same boundary through yieldCoder.
func (s *slots) yieldPublish(b *publishBatch) {
	if !s.attention.Load() {
		return
	}
	s.mu.Lock()
	if len(s.loadQ) == 0 && (b.exempt || s.held[classPublish] <= s.publishCap()) {
		if s.loads > 0 && !b.exempt {
			s.blocksBesideLoads++
		}
		s.mu.Unlock()
		return
	}
	s.yields++
	s.held[classPublish]--
	s.awaitPublish(b)
}

// yieldCoder makes a coder loop a Go scheduling point: a publish batch
// calls it at every (kind, layer) block boundary, right after yieldPublish,
// and every decode worker after each job, each keeping its coder slot
// while it yields. A coder loop never blocks between those boundaries, so
// without it the goroutine keeps its P until sysmon's 10 ms async
// preemption, and every timer and channel-readied goroutine queued behind
// it — a gateway's prefill timer, the goroutine about to register a load,
// a server's frame pusher — waits that long. Network wake-ups are not
// covered: the yielder lands in the global run queue, and the scheduler
// skips its non-blocking netpoll while any run queue holds work, so a
// socket still waits for an idle P (R3) or sysmon's poll.
func yieldCoder() { runtime.Gosched() }

// awaitPublish queues b, gives whatever is free to whoever is due it, and
// waits for b's grant. Called with mu held; returns with it released. The
// wait re-examines the queue on a timer, because nothing else happens to a
// batch that only has to outlast publishMaxWait.
func (s *slots) awaitPublish(b *publishBatch) {
	w := s.enqueue(&s.pubQ, *b)
	s.dispatch()
	s.mu.Unlock()
	timer := w.timer
	timer.Reset(max(publishMaxWait-b.keptOut, time.Millisecond))
	for {
		select {
		case <-w.ready:
			timer.Stop() // before the waiter, timer and all, goes back to the pool
			*b = w.publishBatch
			waiterPool.Put(w)
			return
		case <-timer.C:
			s.mu.Lock()
			s.dispatch()
			left := publishMaxWait - w.keptOutAt(s.loadClock(s.now()))
			exempt := w.exempt
			s.mu.Unlock()
			if !exempt { // an exempt batch waits on releases alone
				timer.Reset(max(left, time.Millisecond))
			}
		}
	}
}

// keptOutAt is the queued batch's kept-out time at load-clock reading l.
func (w *slotWaiter) keptOutAt(l time.Duration) time.Duration {
	return w.keptOut + l - w.sinceLoads
}

func (s *slots) release(class slotClass) {
	s.mu.Lock()
	s.held[class]--
	s.dispatch()
	s.mu.Unlock()
}

// enqueue appends a waiter to q. Called with mu held.
func (s *slots) enqueue(q *[]*slotWaiter, b publishBatch) *slotWaiter {
	now := s.now()
	w := waiterPool.Get().(*slotWaiter)
	w.since, w.sinceLoads, w.publishBatch = now, s.loadClock(now), b
	*q = append(*q, w)
	return w
}

// dispatch hands free slots to the waiters due them — load lanes oldest
// first (R1), then publish batches oldest first within R3 — and refreshes
// the attention flag. Called with mu held after every change that can free
// a slot, raise R3's cap or age a batch past publishMaxWait.
func (s *slots) dispatch() {
	if len(s.loadQ)+len(s.pubQ) > 0 {
		now := s.now()
		n := min(s.free(), len(s.loadQ))
		for _, w := range s.loadQ[:n] {
			s.grant(w, classLoad, now)
		}
		s.loadQ = slices.Delete(s.loadQ, 0, n)

		l := s.loadClock(now)
		kept := s.pubQ[:0]
		for _, w := range s.pubQ {
			if !w.exempt && w.keptOutAt(l) >= publishMaxWait {
				w.exempt = true
				s.exempted++
			}
			if s.free() > 0 && len(s.loadQ) == 0 && (w.exempt || s.held[classPublish] < s.publishCap()) {
				w.keptOut = w.keptOutAt(l)
				s.grant(w, classPublish, now)
			} else {
				kept = append(kept, w)
			}
		}
		clear(s.pubQ[len(kept):])
		s.pubQ = kept
	}
	s.attention.Store(s.loads > 0 || len(s.loadQ) > 0)
}

// grant gives w its slot. The send is the last touch: the waiter's
// goroutine returns w to the pool.
func (s *slots) grant(w *slotWaiter, class slotClass, now time.Time) {
	s.held[class]++
	s.waited[class] += now.Sub(w.since)
	w.ready <- struct{}{}
}

// SlotTotals is a snapshot of the codec's coder-slot scheduler.
type SlotTotals struct {
	// LoadsInFlight is the number of loads registered with BeginLoad and
	// not yet ended.
	LoadsInFlight int
	// LoadWait and PublishWait are the cumulative times load lanes and
	// publish batches have spent queued for a slot.
	LoadWait, PublishWait time.Duration
	// PublishYields counts slots a publish batch gave up at a block
	// boundary, for a waiting load lane or to get back under the bound
	// loads in flight put on publishing.
	PublishYields int64
	// PublishExempt counts publish batches that loads kept out so long that
	// the bound stopped applying to them.
	PublishExempt int64
	// PublishBlocksBesideLoads counts (kind, layer) blocks that publish
	// batches under the bound began while a load was in flight — the
	// encoder work loads shared the machine with. A codec with fewer than
	// three workers never runs one.
	PublishBlocksBesideLoads int64
}

func (s *slots) totals() SlotTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SlotTotals{
		LoadsInFlight:            s.loads,
		LoadWait:                 s.waited[classLoad],
		PublishWait:              s.waited[classPublish],
		PublishYields:            s.yields,
		PublishExempt:            s.exempted,
		PublishBlocksBesideLoads: s.blocksBesideLoads,
	}
}
