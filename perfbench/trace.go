package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/chunkstore"
	"blobcr/internal/transport"
)

// phase tags what the load generator is timing when a traced operation
// ends; operations outside any timed window are not kept.
type phase int32

const (
	idle phase = iota
	ckptPhase
	restartPhase
)

// opStagePut is the proxy's partner-replication frame. blobseer.VerbName
// does not name it, so the traced network classifies it by its first byte.
const opStagePut = 0xD0

// tracer collects per-layer samples in traced runs only.
type tracer struct {
	phase atomic.Int32

	mu    sync.Mutex
	ms    map[phase]map[string][]float64 // latency samples by operation
	calls map[phase]int
	wire  map[phase]int64 // request plus response bytes

	// Union of the time at least one provider Put is in flight during
	// checkpoint windows: the segment log's busy time.
	putsInFlight int
	busyFrom     time.Time
	busy         time.Duration
}

func newTracer() *tracer {
	return &tracer{
		ms:    make(map[phase]map[string][]float64),
		calls: make(map[phase]int),
		wire:  make(map[phase]int64),
	}
}

// set tags the operations that end from now on; a nil tracer ignores it.
func (t *tracer) set(p phase) {
	if t != nil {
		t.phase.Store(int32(p))
	}
}

func (t *tracer) observe(op string, d time.Duration) {
	p := phase(t.phase.Load())
	if p == idle {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addLocked(p, op, d)
}

func (t *tracer) wireCall(op string, d time.Duration, bytes int) {
	p := phase(t.phase.Load())
	if p == idle {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addLocked(p, op, d)
	t.calls[p]++
	t.wire[p] += int64(bytes)
}

func (t *tracer) addLocked(p phase, op string, d time.Duration) {
	if t.ms[p] == nil {
		t.ms[p] = make(map[string][]float64)
	}
	t.ms[p][op] = append(t.ms[p][op], ms(d))
}

func (t *tracer) putStart() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.putsInFlight == 0 {
		t.busyFrom = time.Now()
	}
	t.putsInFlight++
}

func (t *tracer) putEnd() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.putsInFlight--
	if t.putsInFlight == 0 && phase(t.phase.Load()) == ckptPhase {
		t.busy += time.Since(t.busyFrom)
	}
}

// samples returns the latencies of the given operations in phase p.
func (t *tracer) samples(p phase, ops ...string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, op := range ops {
		out = append(out, t.ms[p][op]...)
	}
	return out
}

// tracedNet times every call the cloud makes, below the cloud's own meter.
type tracedNet struct {
	transport.FaultNetwork
	tr *tracer
}

func (n *tracedNet) Call(ctx context.Context, addr string, req []byte) ([]byte, error) {
	start := time.Now()
	resp, err := n.FaultNetwork.Call(ctx, addr, req)
	n.tr.wireCall(verb(req), time.Since(start), len(req)+len(resp))
	return resp, err
}

func verb(req []byte) string {
	if len(req) > 0 && req[0] == opStagePut {
		return "stage-put"
	}
	return blobseer.VerbName(req)
}

// timedStore times Put and Get of a chunk store handed to the cloud through
// Config.Stores or Config.StageStores. It forwards every optional interface
// the program asserts on a store, falling back the way cas.Store does, so
// the traced run takes the same code paths as the untraced one.
type timedStore struct {
	chunkstore.Store
	tr    *tracer
	layer string // "seglog" for data providers, "localtier" for stage stores
}

func (s *timedStore) Put(k chunkstore.Key, data []byte) error {
	if s.layer == "seglog" {
		s.tr.putStart()
		defer s.tr.putEnd()
	}
	start := time.Now()
	err := s.Store.Put(k, data)
	s.tr.observe(s.layer+".put", time.Since(start))
	return err
}

func (s *timedStore) Get(k chunkstore.Key) ([]byte, error) {
	start := time.Now()
	data, err := s.Store.Get(k)
	s.tr.observe(s.layer+".get", time.Since(start))
	return data, err
}

func (s *timedStore) Keys() []chunkstore.Key {
	if l, ok := s.Store.(interface{ Keys() []chunkstore.Key }); ok {
		return l.Keys()
	}
	return nil
}

func (s *timedStore) EngineStats() chunkstore.EngineStats { return chunkstore.StatsOf(s.Store) }

func (s *timedStore) CompactNow() (chunkstore.CompactResult, error) {
	if c, ok := s.Store.(chunkstore.Compactor); ok {
		return c.CompactNow()
	}
	return chunkstore.CompactResult{}, nil
}

func (s *timedStore) Close() error {
	if c, ok := s.Store.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

var (
	_ chunkstore.EngineStatser = (*timedStore)(nil)
	_ chunkstore.Compactor     = (*timedStore)(nil)
)
