package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/llm"
	"repro/internal/storage"
	"repro/internal/streamer"
	"repro/internal/tensor"
)

// Session is one multi-turn conversation served through the gateway over
// a content-addressed context. It owns the session's exact token history
// and resident KV cache, and per turn it (a) fetches only the cold
// suffix chunks through the gateway (Request.Resident), (b) extends the
// resident cache with the turn's tokens (ExtendKV — no prefix
// recomputation), and (c) append-publishes the delta, so the store
// receives per turn work proportional to the turn, not the conversation.
//
// Safe for concurrent use, though turns of one conversation are
// inherently sequential; concurrent Turn calls serialise.
type Session struct {
	g *Gateway
	// publisher is the publish side of the store (a cluster.ShardedStore
	// over the same fleet the gateway fetches from, or any
	// storage.Store).
	publisher storage.Store
	tenant    string
	contextID string

	// SLO / Deadline / SuffixTokens are copied onto every turn's request.
	SLO          time.Duration
	Deadline     time.Duration
	SuffixTokens int

	mu     sync.Mutex
	tokens []llm.Token
	kv     *tensor.KV
	turn   int
}

// NewSession opens a session publishing through publisher and fetching
// through the gateway. The context must not exist yet: the first Turn
// creates it.
func (g *Gateway) NewSession(publisher storage.Store, tenant, contextID string) (*Session, error) {
	if publisher == nil {
		return nil, errors.New("gateway: session needs a publisher store")
	}
	if tenant == "" || contextID == "" {
		return nil, errors.New("gateway: session needs a tenant and a context id")
	}
	return &Session{g: g, publisher: publisher, tenant: tenant, contextID: contextID}, nil
}

// TurnResult describes one completed session turn.
type TurnResult struct {
	// Turn is the 1-based turn number.
	Turn int
	// Result is the gateway's serving result for the turn's fetch; nil on
	// the first turn (nothing published yet, nothing to fetch).
	Result *Result
	// Publish accounts the turn's (append-)publish against the store.
	Publish *streamer.PublishStats
	// HistoryTokens is the context length after the turn.
	HistoryTokens int
}

// Turn runs one conversational turn: serve the request against the
// resident history, then append the turn's tokens (the user's prompt
// plus the generated reply) to the published context.
func (s *Session) Turn(ctx context.Context, turnTokens []llm.Token) (*TurnResult, error) {
	if len(turnTokens) == 0 {
		return nil, errors.New("gateway: empty turn")
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	model := s.g.cfg.Model
	if s.turn == 0 {
		// First turn: nothing is published, so there is nothing to fetch —
		// compute the cache and publish the opening turn whole.
		s.kv = model.CalculateKV(turnTokens)
		s.tokens = append([]llm.Token{}, turnTokens...)
		_, stats, err := streamer.Publish(ctx, s.publisher, s.g.cfg.Codec, model, s.contextID, s.tokens,
			streamer.PublishOptions{KV: s.kv})
		if err != nil {
			return nil, fmt.Errorf("gateway: session %q turn 1: %w", s.contextID, err)
		}
		s.turn = 1
		return &TurnResult{Turn: 1, Publish: stats, HistoryTokens: len(s.tokens)}, nil
	}

	// Warm fetch: the gateway streams only chunks the resident cache does
	// not cover (typically just the tail the previous append re-encoded).
	res, err := s.g.Submit(ctx, Request{
		Tenant:       s.tenant,
		ContextID:    s.contextID,
		SuffixTokens: s.SuffixTokens,
		SLO:          s.SLO,
		Deadline:     s.Deadline,
		Resident:     s.kv,
	})
	if err != nil {
		return nil, err
	}

	// Extend the exact resident cache with the turn and append-publish
	// the delta. Session state is committed only after the append lands:
	// a transient store failure must leave the session consistent with
	// the published context so the caller can simply retry the turn.
	ext, err := model.ExtendKV(s.kv, len(s.tokens), turnTokens)
	if err != nil {
		return nil, fmt.Errorf("gateway: session %q: %w", s.contextID, err)
	}
	grown, err := tensor.ConcatTokens(s.kv, ext)
	if err != nil {
		return nil, fmt.Errorf("gateway: session %q: %w", s.contextID, err)
	}
	_, stats, err := streamer.Append(ctx, s.publisher, s.g.cfg.Codec, model, s.contextID, turnTokens,
		streamer.PublishOptions{KV: grown})
	if err != nil {
		return nil, fmt.Errorf("gateway: session %q: %w", s.contextID, err)
	}
	s.kv = grown
	s.tokens = append(s.tokens, turnTokens...)
	s.turn++
	return &TurnResult{Turn: s.turn, Result: res, Publish: stats, HistoryTokens: len(s.tokens)}, nil
}

// HistoryTokens returns the session's current context length.
func (s *Session) HistoryTokens() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tokens)
}

// Close deletes the session's published context (refcounts drop; the
// fleet's sweepers reclaim whatever no other context shares).
func (s *Session) Close(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.turn == 0 {
		return nil
	}
	return s.publisher.DeleteContext(ctx, s.contextID)
}
