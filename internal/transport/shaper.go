package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/netsim"
)

// Shaper throttles bytes through a net.Conn along a bandwidth trace
// using a token bucket, so the live socket path can emulate the
// constrained links of the evaluation (0.4–400 Gbps in Fig 11, each a
// one-segment netsim.Constant trace) on loopback. The trace may be
// replaced while in use — including while a Write is blocked
// mid-transfer: the pacing loop samples the trace every refill quantum,
// so a SetTrace (or a trace step) takes effect within shaperQuantum, not
// after the current payload drains. A nil trace is a passthrough that
// samples nothing. NewShaper paces writes (a server emulating a
// constrained egress link); NewIngressShaper paces reads (a client
// emulating a constrained downlink from an unshaped server).
type Shaper struct {
	net.Conn

	shapeReads bool // pace Read instead of Write

	mu         sync.Mutex
	bps        float64   // bits per second
	tokens     float64   // available bytes
	burst      float64   // bucket depth in bytes
	last       time.Time // last refill
	trace      netsim.Trace
	traceStart time.Time
}

// shaperSlice is the pacing granularity; small enough that rate changes
// take effect quickly, large enough to keep syscall overhead low.
const shaperSlice = 16 << 10

// shaperQuantum bounds one pacing sleep. A blocked transfer re-samples
// the trace at this cadence, so a mid-write SetTrace is honored on the
// next refill instead of after a sleep computed from the old rate.
const shaperQuantum = 10 * time.Millisecond

// NewShaper wraps conn, pacing writes along tr from now on. A nil trace
// means unlimited.
func NewShaper(conn net.Conn, tr netsim.Trace) *Shaper {
	s := &Shaper{Conn: conn, last: time.Now()}
	s.SetTrace(tr)
	return s
}

// NewIngressShaper wraps conn, pacing reads along tr — the
// receiver-side emulation of a constrained link, used by the client CLI
// to replay bandwidth traces against an unshaped server.
func NewIngressShaper(conn net.Conn, tr netsim.Trace) *Shaper {
	s := NewShaper(conn, tr)
	s.shapeReads = true
	return s
}

// SetTrace replays a time-varying bandwidth trace, t=0 anchored now; nil
// lifts the shaping. The trace is sampled every refill, so its steps
// take effect within shaperQuantum even mid-transfer.
func (s *Shaper) SetTrace(tr netsim.Trace) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refillLocked(now)
	s.trace = tr
	s.traceStart = now
	if tr != nil {
		s.setRate(tr.BandwidthAt(0))
	} else {
		s.setRate(0)
	}
}

func (s *Shaper) setRate(bps float64) {
	s.bps = bps
	if bps > 0 {
		// A bucket of 50 ms worth of bytes keeps bursts short relative to
		// the chunk transfer times being emulated.
		s.burst = bps / 8 * 0.05
		if s.burst < shaperSlice {
			s.burst = shaperSlice
		}
		if s.tokens > s.burst {
			s.tokens = s.burst
		}
	}
}

// Rate returns the current target bandwidth in bits per second.
func (s *Shaper) Rate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bps
}

func (s *Shaper) refillLocked(now time.Time) {
	if s.trace != nil {
		if bps := s.trace.BandwidthAt(now.Sub(s.traceStart)); bps != s.bps {
			s.setRate(bps)
		}
	}
	if s.bps <= 0 {
		return
	}
	dt := now.Sub(s.last).Seconds()
	if dt > 0 {
		s.tokens += s.bps / 8 * dt
		if s.tokens > s.burst {
			s.tokens = s.burst
		}
	}
	s.last = now
}

// take blocks until n bytes of budget are available, then consumes them.
// Sleeps are bounded by shaperQuantum so a concurrent SetTrace (or a
// trace step) is honored promptly.
func (s *Shaper) take(n int) {
	for {
		s.mu.Lock()
		now := time.Now()
		s.refillLocked(now)
		if s.bps <= 0 {
			s.mu.Unlock()
			return
		}
		if s.tokens >= float64(n) {
			s.tokens -= float64(n)
			s.mu.Unlock()
			return
		}
		need := float64(n) - s.tokens
		wait := time.Duration(need / (s.bps / 8) * float64(time.Second))
		s.mu.Unlock()
		if wait > shaperQuantum {
			wait = shaperQuantum
		}
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		time.Sleep(wait)
	}
}

// Write implements net.Conn, pacing the payload through the token bucket
// in slices (unless this is an ingress shaper, which passes writes
// through).
func (s *Shaper) Write(p []byte) (int, error) {
	if s.shapeReads {
		return s.Conn.Write(p)
	}
	var written int
	for len(p) > 0 {
		n := len(p)
		if n > shaperSlice {
			n = shaperSlice
		}
		s.take(n)
		m, err := s.Conn.Write(p[:n])
		written += m
		if err != nil {
			return written, fmt.Errorf("transport: shaped write: %w", err)
		}
		p = p[m:]
	}
	return written, nil
}

// Read implements net.Conn; an ingress shaper paces delivery of received
// bytes through the token bucket.
func (s *Shaper) Read(p []byte) (int, error) {
	if !s.shapeReads {
		return s.Conn.Read(p)
	}
	if len(p) > shaperSlice {
		p = p[:shaperSlice]
	}
	n, err := s.Conn.Read(p)
	if n > 0 {
		s.take(n)
	}
	return n, err
}
