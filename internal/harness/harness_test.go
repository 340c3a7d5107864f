package harness

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/llm"
	"repro/internal/netsim"
	"repro/internal/streamer"
)

var (
	fixOnce sync.Once
	fix     *Fixture
)

// testFixture shares one fixture across the test binary (rig construction
// dominates test time otherwise).
func testFixture(t testing.TB) *Fixture {
	t.Helper()
	fixOnce.Do(func() { fix = NewFixture(DefaultScale()) })
	return fix
}

// TestAllExperimentsRun runs every cell on the shared fixture. A cell with
// a golden report, testdata/reports/<ID>.txt, must print it byte for
// byte. The golden files are each cell's standalone CLI output, one cell
// per process; regenerate one with
//
//	go run ./cmd/cachegen-exp -run <ID> > internal/harness/testdata/reports/<ID>.txt
//
// so a change that moves a printed number shows the old and new values in
// its diff. Only deterministic cells have a golden file.
func TestAllExperimentsRun(t *testing.T) {
	golden, err := filepath.Glob(filepath.Join("testdata", "reports", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range golden {
		if _, err := Lookup(strings.TrimSuffix(filepath.Base(path), ".txt")); err != nil {
			t.Errorf("golden report %s names no experiment", path)
		}
	}
	f := testFixture(t)
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			reports, err := e.Run(f)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(reports) == 0 {
				t.Fatalf("%s returned no reports", e.ID)
			}
			var out bytes.Buffer
			for _, r := range reports {
				if len(r.Rows) == 0 {
					t.Errorf("%s report %q has no rows", e.ID, r.Title)
				}
				var buf bytes.Buffer
				if err := r.Fprint(&buf); err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(buf.String(), r.Title) {
					t.Error("printed report missing title")
				}
				out.Write(buf.Bytes())
			}
			want, err := os.ReadFile(filepath.Join("testdata", "reports", e.ID+".txt"))
			if errors.Is(err, fs.ErrNotExist) {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if n, got, exp := firstDiff(out.String(), string(want)); n > 0 {
				t.Errorf("%s differs from its golden report at line %d:\n got: %q\nwant: %q", e.ID, n, got, exp)
			}
		})
	}
}

// firstDiff returns the first line (1-based) where got and want differ,
// with both versions ("" past either end), or 0 when they are equal.
func firstDiff(got, want string) (n int, g, w string) {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		g, w = "", ""
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if i >= len(gl) || i >= len(wl) || g != w {
			return i + 1, g, w
		}
	}
	return 0, "", ""
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("t1"); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunAndRunAll(t *testing.T) {
	f := testFixture(t)
	var buf bytes.Buffer
	if err := Run("T2", f, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "LongChat") {
		t.Error("T2 output missing datasets")
	}
	if err := Run("nope", f, &buf); err == nil {
		t.Error("Run accepted unknown id")
	}
}

// The bands TestCalibrationHeadlineRatios enforces on the §7.2
// headlines, each wider than the paper's band for the synthetic substrate.
const (
	sizeVsQuantMin, sizeVsQuantMax = 3.0, 5.0   // paper: 3.5–4.3×
	ttftVsQuantMin, ttftVsQuantMax = 2.0, 5.0   // paper: 3.2–3.7×
	ttftVsTextMin, ttftVsTextMax   = 2.5, 6.5   // paper: 3.1–4.7×
	relAccMin, relAccMax           = 0.95, 1.00 // paper: ≤2% loss
)

// claimsRow is one row of the README's claims table ("Headline claims
// and what the tests enforce"), cells trimmed, the test's backticks
// dropped.
type claimsRow struct{ paper, measured, enforced, test string }

// readClaimsTable reads the README's claims table, keyed by claim.
func readClaimsTable(t *testing.T) map[string]claimsRow {
	t.Helper()
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Headline claims and what the tests enforce\n")
	if !ok {
		t.Fatal("README has no claims section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]claimsRow{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| ") || strings.HasPrefix(line, "| Claim |") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 5 {
			t.Fatalf("claims row has %d cells, want 5: %s", len(cells), line)
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows[cells[0]] = claimsRow{cells[1], cells[2], cells[3], strings.Trim(cells[4], "`")}
	}
	return rows
}

// TestClaimsTableMatchesBands fails when a row of the README's claims
// table names an enforced band or test that differs from what the tests
// here enforce, or when a claim is missing from the table or the table
// lists one they do not check.
func TestClaimsTableMatchesBands(t *testing.T) {
	const calib = "TestCalibrationHeadlineRatios"
	ratio := func(lo, hi float64) string { return fmt.Sprintf("%.1f–%.1f×", lo, hi) }
	want := map[string][2]string{ // claim → enforced band, test
		"KV size vs 8-bit quantization": {ratio(sizeVsQuantMin, sizeVsQuantMax), calib},
		"TTFT vs 8-bit quantization":    {ratio(ttftVsQuantMin, ttftVsQuantMax), calib},
		"TTFT vs text context":          {ratio(ttftVsTextMin, ttftVsTextMax), calib},
		"Accuracy at the default level": {fmt.Sprintf("%.2f–%.2f of baseline", relAccMin, relAccMax), calib},
		"SLO violations (Figure 13)":    {"CacheGen ≤ quantization and ≤ no adaptation, at each SLO", "TestFigure13Shape"},
	}
	got := readClaimsTable(t)
	for claim, w := range want {
		if g, ok := got[claim]; !ok {
			t.Errorf("README claims table lacks %q", claim)
		} else if g.enforced != w[0] || g.test != w[1] {
			t.Errorf("README claims table: %q enforced %q by %s, the tests enforce %q by %s", claim, g.enforced, g.test, w[0], w[1])
		}
	}
	for claim := range got {
		if _, ok := want[claim]; !ok {
			t.Errorf("README claims table lists %q, which no test here checks", claim)
		}
	}
}

// TestCalibrationHeadlineRatios pins the reproduction's headline numbers
// to the bands in the README's claims table ("Headline claims and what
// the tests enforce"), which lists each beside the paper's, and fails
// when the table's Measured cell is not the number measured here at the
// table's precision.
func TestCalibrationHeadlineRatios(t *testing.T) {
	f := testFixture(t)
	rig, err := f.Rig(llm.Mistral7B())
	if err != nil {
		t.Fatal(err)
	}

	// KV size: CacheGen 3.5–4.3× below 8-bit quantization (§7.2).
	const tokens = 9400
	ratio := float64(rig.QuantBytes(tokens, 8)) / float64(rig.CacheGenBytes(tokens, defaultLevel))
	if ratio < sizeVsQuantMin || ratio > sizeVsQuantMax {
		t.Errorf("size ratio vs 8-bit = %.2fx, want ≈3.5-4.3x", ratio)
	}

	// Quality: CacheGen's default level loses ≤2-3% accuracy.
	qp := rig.QP
	task := llm.Task{Name: "longchat", Metric: llm.MetricAccuracy, Baseline: 1.0}
	relAcc := task.Score(rig.LevelErr[defaultLevel], 0, qp)
	if relAcc < relAccMin || relAcc > relAccMax {
		t.Errorf("CacheGen relative accuracy %.3f, want ≈0.98", relAcc)
	}
	if rel := task.Score(rig.QuantErr[8], 0, qp); rel < 0.99 {
		t.Errorf("8-bit quant relative accuracy %.3f, want ≈1.00", rel)
	}

	// TTFT at 3 Gbps: CacheGen 3.2–3.7× below quantization, 3.1–4.7×
	// below text (§7.2).
	trace := netsim.Constant(netsim.Gbps(3))
	tt, err := rig.TextTTFT(tokens, trace, 1)
	if err != nil {
		t.Fatal(err)
	}
	qt, _, err := rig.QuantTTFT(tokens, 8, trace, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rig.CacheGenTTFT(tokens, trace, streamer.Planner{Adapt: false, DefaultLevel: defaultLevel}, 1)
	if err != nil {
		t.Fatal(err)
	}
	vsText := tt.Seconds() / res.TTFT.Seconds()
	vsQuant := qt.Seconds() / res.TTFT.Seconds()
	if vsText < ttftVsTextMin || vsText > ttftVsTextMax {
		t.Errorf("TTFT vs text = %.2fx, want ≈3.1-4.7x", vsText)
	}
	if vsQuant < ttftVsQuantMin || vsQuant > ttftVsQuantMax {
		t.Errorf("TTFT vs quant = %.2fx, want ≈3.2-3.7x", vsQuant)
	}

	table := readClaimsTable(t)
	for claim, measured := range map[string]string{
		"KV size vs 8-bit quantization": fmt.Sprintf("%.1f×", ratio),
		"TTFT vs 8-bit quantization":    fmt.Sprintf("%.1f×", vsQuant),
		"TTFT vs text context":          fmt.Sprintf("%.1f×", vsText),
		"Accuracy at the default level": fmt.Sprintf("%.2f of baseline", relAcc),
	} {
		if got := table[claim].measured; got != measured {
			t.Errorf("README claims table: %q measured %q, the test measures %q", claim, got, measured)
		}
	}
}

// TestLevelMonotonicity: higher levels are smaller and lossier — the basis
// of the streamer's quality ladder.
func TestLevelMonotonicity(t *testing.T) {
	f := testFixture(t)
	rig, err := f.Rig(llm.Mistral7B())
	if err != nil {
		t.Fatal(err)
	}
	for lv := 1; lv < len(rig.LevelBPE); lv++ {
		if rig.LevelBPE[lv] >= rig.LevelBPE[lv-1] {
			t.Errorf("level %d bpe %.2f not below level %d bpe %.2f",
				lv, rig.LevelBPE[lv], lv-1, rig.LevelBPE[lv-1])
		}
		if rig.LevelErr[lv] <= rig.LevelErr[lv-1] {
			t.Errorf("level %d err %.3f not above level %d err %.3f",
				lv, rig.LevelErr[lv], lv-1, rig.LevelErr[lv-1])
		}
	}
}

// TestFigure13Shape: adaptation must cut the violation rate versus both
// the quantization baseline and the non-adaptive streamer.
func TestFigure13Shape(t *testing.T) {
	f := testFixture(t)
	reports, err := registry["F13"].Run(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		rates := map[string]float64{}
		for _, row := range rep.Rows {
			v, err := strconv.ParseFloat(strings.TrimSuffix(row[1], "%"), 64)
			if err != nil {
				t.Fatalf("bad violation cell %q", row[1])
			}
			rates[row[0]] = v
		}
		if rates["CacheGen"] > rates["Quantization (8-bit)"] {
			t.Errorf("%s: CacheGen violation %.0f%% above quantization %.0f%%",
				rep.Title, rates["CacheGen"], rates["Quantization (8-bit)"])
		}
		if rates["CacheGen"] > rates["CacheGen w/o adaptation"] {
			t.Errorf("%s: adaptation raised the violation rate (%v)", rep.Title, rates)
		}
	}
}

// TestFigure15Ordering: AC beats raw quantization, per-channel models beat
// a global one, delta encoding shrinks further, and layer-wise
// quantization then buys accuracy at comparable size (the paper's Fig 15
// trajectory toward the top-left).
func TestFigure15Ordering(t *testing.T) {
	f := testFixture(t)
	reports, err := registry["F15"].Run(f)
	if err != nil {
		t.Fatal(err)
	}
	rows := reports[0].Rows
	if len(rows) != 5 {
		t.Fatalf("expected 5 ablation rows, got %d", len(rows))
	}
	bpe := make([]float64, len(rows))
	acc := make([]float64, len(rows))
	for i, row := range rows {
		var err error
		if bpe[i], err = strconv.ParseFloat(row[1], 64); err != nil {
			t.Fatalf("bad bits/element cell %q", row[1])
		}
		if acc[i], err = strconv.ParseFloat(row[3], 64); err != nil {
			t.Fatalf("bad accuracy cell %q", row[3])
		}
	}
	// Rows: 0 default quant, 1 quant+AC(global), 2 quant+AC, 3 +change,
	// 4 full CacheGen.
	if !(bpe[1] < bpe[0]) {
		t.Errorf("AC did not shrink below raw quantization: %v", bpe)
	}
	if !(bpe[2] < bpe[1]) {
		t.Errorf("per-channel models did not beat the global model: %v", bpe)
	}
	if !(bpe[3] < bpe[2]) {
		t.Errorf("change-based encoding did not shrink the stream: %v", bpe)
	}
	if bpe[4] > bpe[2] {
		t.Errorf("full CacheGen (%v) larger than quant+AC (%v)", bpe[4], bpe[2])
	}
	if acc[4] <= acc[3] {
		t.Errorf("layer-wise quantization did not improve accuracy: %v", acc)
	}
}

func TestRigChunkInfos(t *testing.T) {
	f := testFixture(t)
	rig, err := f.Rig(llm.Mistral7B())
	if err != nil {
		t.Fatal(err)
	}
	infos := rig.ChunkInfos(4000, 1)
	if len(infos) != 3 { // 1500+1500+1000
		t.Fatalf("4000 tokens -> %d chunks, want 3", len(infos))
	}
	if infos[2].Tokens != 1000 {
		t.Errorf("tail chunk has %d tokens", infos[2].Tokens)
	}
	if len(infos[0].SizesByLevel) != rig.Codec.Config().Levels() {
		t.Error("missing level sizes")
	}
}

func BenchmarkRigConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewRig(llm.Mistral7B(), DefaultScale()); err != nil {
			b.Fatal(err)
		}
	}
}
