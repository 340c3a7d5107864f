package cachegen

import (
	"context"
	"math/rand"
	"net"
	"testing"
)

func testTokens(seed int64, n int) []Token {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Token, n)
	for i := range out {
		out[i] = Token(rng.Intn(32000))
	}
	return out
}

func TestModelByName(t *testing.T) {
	for _, name := range []string{"Mistral-7B", "mistral-7b", "Llama-70B", "Llama-7B"} {
		cfg, err := ModelByName(name)
		if err != nil {
			t.Errorf("ModelByName(%q): %v", name, err)
		}
		if cfg.Layers == 0 {
			t.Errorf("ModelByName(%q) returned empty config", name)
		}
	}
	if _, err := ModelByName("GPT-5"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestTrainCodecValidation(t *testing.T) {
	model := MustNewModel(Mistral7B().WithChannels(8))
	if _, err := TrainCodec(DefaultCodecConfig(), model, nil); err == nil {
		t.Error("TrainCodec accepted no contexts")
	}
}

// TestPublicAPIEndToEnd drives the full README flow through the facade:
// train, publish, serve over TCP, bootstrap the bank remotely, fetch with
// adaptation, and generate.
func TestPublicAPIEndToEnd(t *testing.T) {
	cfg := Mistral7B().WithChannels(16)
	model := MustNewModel(cfg)
	codec, err := TrainCodec(DefaultCodecConfig(), model, [][]Token{testTokens(1, 500)})
	if err != nil {
		t.Fatal(err)
	}

	store := NewMemStore()
	tokens := testTokens(2, 400)
	ctx := context.Background()
	man, err := Publish(ctx, store, codec, model, "doc", tokens)
	if err != nil {
		t.Fatal(err)
	}
	if man.Meta.TokenCount != 400 || man.Meta.Levels != codec.Config().Levels() {
		t.Fatalf("manifest meta = %+v", man.Meta)
	}

	bank, err := codec.Bank().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, WithBank(bank))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	remote, err := client.GetBank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := UnmarshalBank(remote)
	if err != nil {
		t.Fatal(err)
	}
	fetcher := &Fetcher{
		Source:  client,
		Codec:   NewCodec(rb),
		Model:   model,
		Device:  A40x4(),
		Planner: Planner{Adapt: false, DefaultLevel: 0},
	}
	kv, report, err := fetcher.Fetch(ctx, "doc")
	if err != nil {
		t.Fatal(err)
	}
	if kv.Tokens != 400 || report.BytesReceived == 0 {
		t.Fatalf("fetch: %d tokens, %d bytes", kv.Tokens, report.BytesReceived)
	}

	res, err := model.GenerateWithKV(tokens, kv, "summarise", DefaultQualityParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality < 0.95 {
		t.Errorf("quality %.3f too low for level 0", res.Quality)
	}
}

func TestSimulationFacade(t *testing.T) {
	model := Mistral7B()
	dev := A40x4()
	meta := ContextMeta{
		ContextID:   "sim",
		Model:       model.Name,
		TokenCount:  3000,
		ChunkTokens: []int{1500, 1500},
		Levels:      2,
		SizesBytes:  [][]int64{{40e6, 40e6}, {25e6, 25e6}},
		TextBytes:   []int64{6000, 6000},
	}
	chunks, err := BuildChunkInfos(meta, model, dev, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(SimInput{
		Chunks:      chunks,
		TotalTokens: 3000,
		Link:        NewLink(ConstantTrace(Gbps(2))),
		Planner:     Planner{Adapt: false, DefaultLevel: 1},
		Model:       model,
		Device:      dev,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TTFT <= 0 || res.BytesSent != 50e6 {
		t.Errorf("sim result: %+v", res)
	}
	if Figure7Trace().BandwidthAt(0) != Gbps(2) {
		t.Error("Figure7Trace start bandwidth")
	}
}

func TestConcatKV(t *testing.T) {
	model := MustNewModel(Mistral7B().WithChannels(8))
	toks := testTokens(3, 60)
	kv := model.CalculateKV(toks)
	a, err := kv.SliceTokens(0, 30)
	if err != nil {
		t.Fatal(err)
	}
	b, err := kv.SliceTokens(30, 60)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := ConcatKV(a, b)
	if err != nil {
		t.Fatal(err)
	}
	d, err := kv.MaxAbsDiff(whole)
	if err != nil || d != 0 {
		t.Errorf("ConcatKV diff %v err %v", d, err)
	}
}

func TestIncrementalFacade(t *testing.T) {
	cfg := Mistral7B().WithChannels(16)
	model := MustNewModel(cfg)
	codec, err := TrainCodec(DefaultCodecConfig(), model, [][]Token{testTokens(10, 400)})
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	tokens := testTokens(11, 300)
	ctx := context.Background()
	man, err := PublishIncremental(ctx, store, codec, model, "inc", tokens, Level(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Meta.RefineTargets) != 1 {
		t.Fatalf("meta.RefineTargets = %v", man.Meta.RefineTargets)
	}

	srv := NewServer(store)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	f := &Fetcher{Source: client, Codec: codec, Model: model, Device: A40x4(),
		Planner: Planner{Adapt: false, DefaultLevel: 0}}
	inc, err := f.FetchIncremental(ctx, "inc", Level(0))
	if err != nil {
		t.Fatal(err)
	}
	up, _, err := inc.Upgrade(ctx)
	if err != nil {
		t.Fatal(err)
	}
	qp := DefaultQualityParams()
	exact := model.CalculateKV(tokens)
	baseErr, err := model.KVError(exact, inc.Base, qp)
	if err != nil {
		t.Fatal(err)
	}
	upErr, err := model.KVError(exact, up, qp)
	if err != nil {
		t.Fatal(err)
	}
	if upErr >= baseErr {
		t.Errorf("upgrade did not improve: %.4f -> %.4f", baseErr, upErr)
	}
}
