package streamer

import (
	"context"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func ival(kind phaseKind, startMS, endMS int) phaseInterval {
	base := time.Unix(0, 0)
	return phaseInterval{
		kind:  kind,
		start: base.Add(time.Duration(startMS) * time.Millisecond),
		end:   base.Add(time.Duration(endMS) * time.Millisecond),
	}
}

func TestUnionIntervals(t *testing.T) {
	got := unionIntervals([]phaseInterval{
		ival(phaseTransfer, 50, 70),
		ival(phaseTransfer, 0, 10),
		ival(phaseTransfer, 5, 20),  // overlaps the first
		ival(phaseTransfer, 20, 30), // touching counts as merged
		ival(phaseTransfer, 60, 65), // fully contained
	})
	if len(got) != 2 {
		t.Fatalf("union has %d intervals, want 2: %v", len(got), got)
	}
	if d := sumIntervals(got); d != 50*time.Millisecond {
		t.Errorf("union sums to %v, want 50ms", d)
	}
}

func TestOverlap(t *testing.T) {
	a := unionIntervals([]phaseInterval{ival(phaseTransfer, 0, 30), ival(phaseTransfer, 50, 60)})
	b := unionIntervals([]phaseInterval{ival(phaseDecode, 10, 20), ival(phaseDecode, 25, 55)})
	// [10,20] + [25,30] + [50,55] = 20ms.
	if d := overlap(a, b); d != 20*time.Millisecond {
		t.Errorf("overlap = %v, want 20ms", d)
	}
	if d := overlap(a, nil); d != 0 {
		t.Errorf("overlap with empty = %v", d)
	}
}

func TestTimelineApplyExclusive(t *testing.T) {
	// Two overlapping transfers (pipelined), decode running during part
	// of the second transfer: transfer union [0,40], decode [30,50] and
	// [60,70], so TransferTime = 40 - overlap([0,40],[30,50]) = 30ms.
	tl := &fetchTimeline{ivals: []phaseInterval{
		ival(phaseTransfer, 0, 25),
		ival(phaseTransfer, 10, 40),
		ival(phaseDecode, 30, 50),
		ival(phaseRecompute, 60, 70),
	}}
	var rep FetchReport
	tl.apply(&rep)
	if rep.DecodeTime != 20*time.Millisecond {
		t.Errorf("DecodeTime = %v, want 20ms", rep.DecodeTime)
	}
	if rep.RecomputeTime != 10*time.Millisecond {
		t.Errorf("RecomputeTime = %v, want 10ms", rep.RecomputeTime)
	}
	if rep.TransferTime != 30*time.Millisecond {
		t.Errorf("TransferTime = %v, want 30ms", rep.TransferTime)
	}
	wall := 70 * time.Millisecond
	if sum := rep.TransferTime + rep.DecodeTime + rep.RecomputeTime; sum > wall {
		t.Errorf("attribution sum %v exceeds wall clock %v", sum, wall)
	}
}

// TestAttributionNeverExceedsLoadTime is the satellite invariant: on
// live fetches over both paths and several pipeline depths, the
// report's exclusive attribution must fit inside the wall clock, and
// the tracer must hold the very spans the attribution was computed
// from.
func TestAttributionNeverExceedsLoadTime(t *testing.T) {
	s := newStack(t)
	for _, tc := range []struct {
		name      string
		depth     int
		streaming bool
	}{
		{"rr-depth1", 1, false},
		{"rr-depth3", 3, false},
		{"stream-depth1", 1, true},
		{"stream-depth3", 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := telemetry.NewTracer(0)
			ctx, root := tr.StartRequest(context.Background(), "request")
			f := &Fetcher{
				Source:           s.client,
				Codec:            s.codec,
				Model:            s.model,
				Planner:          Planner{Adapt: false, DefaultLevel: 1},
				PipelineDepth:    tc.depth,
				DisableStreaming: !tc.streaming,
			}
			_, rep, err := f.Fetch(ctx, "ctx-1")
			if err != nil {
				t.Fatal(err)
			}
			root.End()
			sum := rep.TransferTime + rep.DecodeTime + rep.RecomputeTime
			if sum > rep.LoadTime {
				t.Errorf("TransferTime(%v)+DecodeTime(%v)+RecomputeTime(%v) = %v exceeds LoadTime %v",
					rep.TransferTime, rep.DecodeTime, rep.RecomputeTime, sum, rep.LoadTime)
			}
			if rep.TransferTime <= 0 || rep.DecodeTime <= 0 {
				t.Errorf("components must be positive: transfer=%v decode=%v", rep.TransferTime, rep.DecodeTime)
			}
			var transfers, decodes, plans int
			for _, r := range tr.Snapshot() {
				switch r.Name {
				case "transfer":
					transfers++
				case "decode":
					decodes++
				case "plan":
					// One schema on both acquirers.
					plans++
					keys := ""
					for _, a := range r.Attrs {
						keys += a.Key + " "
					}
					if keys != "chunk level source " {
						t.Errorf("plan event carries attrs [%s], want [chunk level source ]", keys)
					}
				}
			}
			// The per-chunk acquirer plans every chunk as it issues it; the
			// stream acquirer plans the open, and SWITCH/CANCEL from there.
			want := s.meta.NumChunks()
			if tc.streaming {
				want = 1
			}
			if plans != want {
				t.Errorf("trace holds %d plan events, want %d", plans, want)
			}
			if transfers == 0 || decodes == 0 {
				t.Errorf("trace missing phase spans: %d transfer, %d decode", transfers, decodes)
			}
			if decodes != s.meta.NumChunks() {
				t.Errorf("trace holds %d decode spans, want one per chunk (%d)", decodes, s.meta.NumChunks())
			}
		})
	}
}
