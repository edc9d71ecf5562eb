package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"blobcr/internal/chunkstore"
	"blobcr/internal/obs"
	"blobcr/internal/seglog"
	"blobcr/internal/transport"
)

func TestFaultTCPRefusesPartitionedAddress(t *testing.T) {
	n := newFaultTCP()
	defer n.Close()
	srv, err := n.Listen("", func(_ context.Context, req []byte) ([]byte, error) { return req, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	if _, err := n.Call(ctx, srv.Addr(), []byte("ping")); err != nil {
		t.Fatalf("call before partition: %v", err)
	}
	n.Partition(srv.Addr())
	if _, err := n.Call(ctx, srv.Addr(), []byte("ping")); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("call to partitioned address: err = %v, want ErrUnreachable", err)
	}
	n.Heal(srv.Addr())
	if resp, err := n.Call(ctx, srv.Addr(), []byte("ping")); err != nil || string(resp) != "ping" {
		t.Fatalf("call after heal: %q, %v", resp, err)
	}
}

// The traced run must take the program's code paths unchanged: a wrapped
// segment log has to answer every optional interface exactly as the bare
// one does.
func TestTimedStoreMatchesBareSeglog(t *testing.T) {
	dir := t.TempDir()
	open := func(name string) *seglog.Store {
		s, err := seglog.Open(filepath.Join(dir, name), seglog.Options{Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	bare := open("bare")
	tr := newTracer()
	tr.set(ckptPhase)
	var wrapped chunkstore.Store = &timedStore{Store: open("wrapped"), tr: tr, layer: "seglog"}

	for _, s := range []chunkstore.Store{bare, wrapped} {
		for i := range 40 {
			data := make([]byte, 4096+i)
			fillRegion(data, 1, "store-test", 0, 0, i)
			if i%5 == 0 {
				clear(data) // zero pages take their own path through the engine
			}
			if err := s.Put(chunkstore.Key{Blob: 1, ID: uint64(i)}, data); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Delete(chunkstore.Key{Blob: 1, ID: 3}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(chunkstore.Key{Blob: 1, ID: 7}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.(chunkstore.Compactor).CompactNow(); err != nil {
			t.Fatal(err)
		}
	}

	if got, want := fmt.Sprint(chunkstore.StatsOf(wrapped)), fmt.Sprint(chunkstore.StatsOf(bare)); got != want {
		t.Errorf("engine stats differ:\nwrapped %s\nbare    %s", got, want)
	}
	keys := func(s chunkstore.Store) []chunkstore.Key {
		l, ok := s.(interface{ Keys() []chunkstore.Key })
		if !ok {
			t.Fatalf("%T does not list its keys", s)
		}
		k := l.Keys()
		slices.SortFunc(k, func(a, b chunkstore.Key) int { return int(a.ID) - int(b.ID) })
		return k
	}
	if got, want := keys(wrapped), keys(bare); !slices.Equal(got, want) {
		t.Errorf("keys differ: wrapped %v, bare %v", got, want)
	}
	if n := len(tr.samples(ckptPhase, "seglog.put")); n != 40 {
		t.Errorf("traced %d puts, want 40", n)
	}
	if tr.busy <= 0 {
		t.Error("no segment-log busy time recorded")
	}
	for _, s := range []chunkstore.Store{bare, wrapped} {
		if err := s.(interface{ Close() error }).Close(); err != nil {
			t.Fatal(err)
		}
	}
}
