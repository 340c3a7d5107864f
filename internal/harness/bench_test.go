package harness

// One benchmark per table and figure of the paper's evaluation: each
// regenerates its artifact through Run, so
// `go test -run '^$' -bench . ./internal/harness` exercises every
// reproduction path end to end. Codec micro-benchmarks live alongside
// their packages.

import (
	"io"
	"testing"
)

func benchExperiment(b *testing.B, id string) {
	f := testFixture(b)
	// Warm the fixture's rigs before timing.
	if err := Run(id, f, io.Discard); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Run(id, f, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1SizeAccuracy(b *testing.B)      { benchExperiment(b, "T1") }
func BenchmarkTable2Datasets(b *testing.B)          { benchExperiment(b, "T2") }
func BenchmarkFigure3DeltaCDF(b *testing.B)         { benchExperiment(b, "F3") }
func BenchmarkFigure4LayerSensitivity(b *testing.B) { benchExperiment(b, "F4") }
func BenchmarkFigure5EntropyGrouping(b *testing.B)  { benchExperiment(b, "F5") }
func BenchmarkFigure7Adaptation(b *testing.B)       { benchExperiment(b, "F7") }
func BenchmarkFigure8TTFT(b *testing.B)             { benchExperiment(b, "F8") }
func BenchmarkFigure9SizeQuality(b *testing.B)      { benchExperiment(b, "F9") }
func BenchmarkFigure10Compose(b *testing.B)         { benchExperiment(b, "F10") }
func BenchmarkFigure11Bandwidth(b *testing.B)       { benchExperiment(b, "F11") }
func BenchmarkFigure12Scaling(b *testing.B)         { benchExperiment(b, "F12") }
func BenchmarkFigure13SLO(b *testing.B)             { benchExperiment(b, "F13") }
func BenchmarkFigure14Breakdown(b *testing.B)       { benchExperiment(b, "F14") }
func BenchmarkFigure15Ablation(b *testing.B)        { benchExperiment(b, "F15") }
func BenchmarkFigure16QoE(b *testing.B)             { benchExperiment(b, "F16") }
func BenchmarkFigure17Examples(b *testing.B)        { benchExperiment(b, "F17") }
func BenchmarkFigure18Intrusive(b *testing.B)       { benchExperiment(b, "F18") }
func BenchmarkFigure19Heatmap(b *testing.B)         { benchExperiment(b, "F19") }
func BenchmarkAppendixECost(b *testing.B)           { benchExperiment(b, "AE") }
func BenchmarkX2GroupSizeAblation(b *testing.B)     { benchExperiment(b, "X2") }
func BenchmarkX3ChunkLengthAblation(b *testing.B)   { benchExperiment(b, "X3") }
func BenchmarkX10ChaosMatrix(b *testing.B)          { benchExperiment(b, "X10") }
