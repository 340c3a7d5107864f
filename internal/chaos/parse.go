package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/netsim"
)

// ParseSchedule parses the compact CLI fault-schedule spec: events
// separated by ';', each
//
//	class@at[+heal][:param]
//
// where at and heal are durations ("300ms"), and param is the
// class-specific parameter — a latency for slow-disk ("5ms"), a netsim
// bandwidth trace for cliff ("0.05Gbps" or "0s:1Gbps,300ms:0.05Gbps"),
// a corruption rate for corrupt ("0.25"), a strike spec for flaky
// ("p=0.3[,delay=50ms][,err=0.25]"); kill and partition take none.
// Examples:
//
//	kill@300ms+500ms            kill a seeded victim at 300ms, restart 500ms later
//	partition@100ms             partition a victim until the run ends
//	slow-disk@0s+1s:5ms         5ms per store op on a victim for 1s
//	cliff@250ms+1s:0.05Gbps     fleet-wide bandwidth cliff
//	corrupt@0s:0.25             corrupt 25% of served payloads all run
//	flaky@2s+8s:p=0.3           victim strikes 30% of requests for 8s
//	flaky@0s:p=0.5,delay=80ms,err=0  strikes always stall 80ms, never sever
//
// The first ':' after the timing part starts the param, so cliff traces
// containing ':' and ',' pass through intact.
func ParseSchedule(spec string, seed int64) (Schedule, error) {
	s := Schedule{Seed: seed}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		e, err := parseEvent(part)
		if err != nil {
			return Schedule{}, err
		}
		s.Events = append(s.Events, e)
	}
	if len(s.Events) == 0 {
		return Schedule{}, fmt.Errorf("chaos: schedule %q has no events", spec)
	}
	return s, nil
}

// parseEvent parses one class@at[+heal][:param] clause.
func parseEvent(part string) (Event, error) {
	class, rest, ok := strings.Cut(part, "@")
	if !ok {
		return Event{}, fmt.Errorf("chaos: event %q: want class@offset[+heal][:param]", part)
	}
	e := Event{Class: Class(strings.TrimSpace(class))}
	timing, param, hasParam := strings.Cut(rest, ":")
	atStr, healStr, hasHeal := strings.Cut(timing, "+")
	at, err := time.ParseDuration(strings.TrimSpace(atStr))
	if err != nil {
		return Event{}, fmt.Errorf("chaos: event %q: bad offset %q: %v", part, atStr, err)
	}
	e.At = at
	if hasHeal {
		heal, err := time.ParseDuration(strings.TrimSpace(healStr))
		if err != nil {
			return Event{}, fmt.Errorf("chaos: event %q: bad heal delay %q: %v", part, healStr, err)
		}
		if heal <= 0 {
			return Event{}, fmt.Errorf("chaos: event %q: heal delay must be positive", part)
		}
		e.Heal = heal
	}
	param = strings.TrimSpace(param)
	switch e.Class {
	case Kill, Partition:
		if hasParam {
			return Event{}, fmt.Errorf("chaos: event %q: %s takes no parameter", part, e.Class)
		}
	case SlowDisk:
		if !hasParam {
			return Event{}, fmt.Errorf("chaos: event %q: slow-disk needs a latency, e.g. \"slow-disk@0s:5ms\"", part)
		}
		lat, err := time.ParseDuration(param)
		if err != nil {
			return Event{}, fmt.Errorf("chaos: event %q: bad latency %q: %v", part, param, err)
		}
		e.Latency = lat
	case Cliff:
		if !hasParam {
			return Event{}, fmt.Errorf("chaos: event %q: cliff needs a bandwidth trace, e.g. \"cliff@0s:0.05Gbps\"", part)
		}
		tr, err := netsim.ParseTrace(param)
		if err != nil {
			return Event{}, fmt.Errorf("chaos: event %q: %v", part, err)
		}
		e.Trace = tr
	case Corrupt:
		if !hasParam {
			return Event{}, fmt.Errorf("chaos: event %q: corrupt needs a rate, e.g. \"corrupt@0s:0.25\"", part)
		}
		rate, err := strconv.ParseFloat(param, 64)
		if err != nil {
			return Event{}, fmt.Errorf("chaos: event %q: bad rate %q: %v", part, param, err)
		}
		e.Rate = rate
	case Flaky:
		if !hasParam {
			return Event{}, fmt.Errorf("chaos: event %q: flaky needs a strike probability, e.g. \"flaky@2s+8s:p=0.3\"", part)
		}
		// Defaults: mostly stall, occasionally sever — a browning-out
		// node, not a dead one.
		e.Latency = 50 * time.Millisecond
		e.ErrFrac = 0.25
		seenP := false
		for _, kv := range strings.Split(param, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return Event{}, fmt.Errorf("chaos: event %q: flaky parameter %q: want key=value", part, kv)
			}
			switch key {
			case "p":
				rate, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return Event{}, fmt.Errorf("chaos: event %q: bad strike probability %q: %v", part, val, err)
				}
				e.Rate = rate
				seenP = true
			case "delay":
				d, err := time.ParseDuration(val)
				if err != nil {
					return Event{}, fmt.Errorf("chaos: event %q: bad stall delay %q: %v", part, val, err)
				}
				e.Latency = d
			case "err":
				frac, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return Event{}, fmt.Errorf("chaos: event %q: bad sever fraction %q: %v", part, val, err)
				}
				e.ErrFrac = frac
			default:
				return Event{}, fmt.Errorf("chaos: event %q: unknown flaky parameter %q (have p, delay, err)", part, key)
			}
		}
		if !seenP {
			return Event{}, fmt.Errorf("chaos: event %q: flaky needs p=<probability>", part)
		}
	default:
		return Event{}, fmt.Errorf("chaos: event %q: unknown fault class %q (have kill, partition, slow-disk, cliff, corrupt, flaky)", part, class)
	}
	if err := e.validate(); err != nil {
		return Event{}, fmt.Errorf("%w (event %q)", err, part)
	}
	return e, nil
}

// Drill is a command-line fault schedule: NewDrill parses it before
// anything launches, Start arms it at the serving phase's t=0, and
// Finish waits it out, heals what it left standing and joins every
// failure the run hit. A nil Drill, from an empty spec, does nothing.
type Drill struct {
	schedule Schedule
	inj      *Injector
}

// NewDrill parses spec (see ParseSchedule) with seed.
func NewDrill(spec string, seed int64) (*Drill, error) {
	if spec == "" {
		return nil, nil
	}
	s, err := ParseSchedule(spec, seed)
	if err != nil {
		return nil, err
	}
	return &Drill{schedule: s}, nil
}

// Start arms the schedule against target, tallying into counters.
func (d *Drill) Start(target Target, counters *Counters) error {
	if d == nil {
		return nil
	}
	d.inj = New(target, counters)
	return d.inj.Start(d.schedule)
}

// Finish ends a started run (see Injector.Finish).
func (d *Drill) Finish() error {
	if d == nil || d.inj == nil {
		return nil
	}
	return d.inj.Finish()
}
