package resilience

import (
	"context"
	"time"
)

// ProbeFunc checks one node's health out-of-band (the pool probes with
// a cheap usage round trip over a fresh dial). It must honor ctx.
type ProbeFunc func(ctx context.Context, node string) error

// StartProber launches the active health prober: every ProbeInterval
// it probes each suspect and dead node, putting nodes that answer back
// into rotation (dead → recovering). Routing never tries a dead node,
// so besides MarkRecovered the prober is a dead node's only way back.
// At most one prober runs per Manager; Close stops it.
func (m *Manager) StartProber(probe ProbeFunc) {
	if probe == nil {
		return
	}
	m.mu.Lock()
	if m.probeStop != nil {
		m.mu.Unlock()
		return
	}
	m.probeStop = make(chan struct{})
	m.probeDone = make(chan struct{})
	stop, done := m.probeStop, m.probeDone
	m.mu.Unlock()

	go func() {
		defer close(done)
		ticker := time.NewTicker(m.cfg.ProbeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				m.probeCycle(stop, probe)
			}
		}
	}()
}

// probeCycle probes every node currently suspect or dead. Probes run
// sequentially — the unhealthy set is small, and one cycle overrunning
// the interval just delays the next tick.
func (m *Manager) probeCycle(stop <-chan struct{}, probe ProbeFunc) {
	m.mu.Lock()
	targets := make([]string, 0, len(m.nodes))
	for id, n := range m.nodes {
		n.mu.Lock()
		if n.state == Suspect || n.state == Dead {
			targets = append(targets, id)
		}
		n.mu.Unlock()
	}
	m.mu.Unlock()
	for _, id := range targets {
		select {
		case <-stop:
			return
		default:
		}
		m.probes.Add(1)
		ctx, cancel := context.WithTimeout(context.Background(), m.cfg.ProbeTimeout)
		start := time.Now()
		err := probe(ctx, id)
		cancel()
		if err != nil {
			m.probeFailures.Add(1)
			continue
		}
		m.probeSuccess(id, time.Since(start))
	}
}

// Close stops the prober, waiting for an in-flight cycle to notice.
func (m *Manager) Close() {
	m.mu.Lock()
	stop, done := m.probeStop, m.probeDone
	m.probeStop, m.probeDone = nil, nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}
