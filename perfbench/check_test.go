package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"blobcr/internal/cloud"
)

func isCheckError(err error) bool {
	var ce *checkError
	return errors.As(err, &ce)
}

func TestGeneratorDependsOnlyOnItsInputs(t *testing.T) {
	w, _ := lookupWorkload("ckpt-shared-tiered")
	a, b := make([]byte, w.stateBytes), make([]byte, w.stateBytes)
	w.rewrite(a, 7, 0, 0)
	w.rewrite(b, 7, 1, 0)
	half := w.stateBytes / 2
	if !bytes.Equal(a[:half], b[:half]) {
		t.Error("shared half differs between instances")
	}
	if bytes.Equal(a[half:], b[half:]) {
		t.Error("private half is identical between instances")
	}
	again := make([]byte, w.stateBytes)
	w.rewrite(again, 7, 0, 0)
	if !bytes.Equal(a, again) {
		t.Error("same seed gave different bytes")
	}
	w.rewrite(again, 8, 0, 0)
	if bytes.Equal(a, again) {
		t.Error("another seed gave the same bytes")
	}
	// Round 1 rewrites one window per half: 1 MiB shared once, 1 MiB per instance.
	if got, want := w.distinctBytes(1), uint64(1<<20+instances<<20); got != want {
		t.Errorf("distinct bytes of round 1 = %d, want %d", got, want)
	}
}

func TestVerifyStateRejectsOneFlippedByte(t *testing.T) {
	w, _ := lookupWorkload("ckpt-unique")
	want := make([]byte, w.stateBytes)
	w.rewrite(want, 3, 1, 0)
	got := bytes.Clone(want)
	if err := verifyState(got, want); err != nil {
		t.Fatalf("identical state rejected: %v", err)
	}
	got[w.stateBytes/3] ^= 0x01
	if err := verifyState(got, want); !isCheckError(err) {
		t.Fatalf("one flipped byte: err = %v, want a check failure", err)
	}
	if err := verifyState(got[:len(got)-1], want); !isCheckError(err) {
		t.Fatalf("short state: err = %v, want a check failure", err)
	}
}

func TestCheckStoredBounds(t *testing.T) {
	const ckpts = 4
	var distinct uint64 = 10 << 20
	limit := int64(float64(distinct)*(1+slackRecordShare)) + ckpts*slackChunksPerCkpt*chunkSize
	for _, tc := range []struct {
		stored int64
		ok     bool
	}{
		{int64(distinct), true},
		{limit, true},
		{int64(distinct) - 1, false}, // something written is missing
		{limit + 1, false},
	} {
		if err := checkStored(tc.stored, distinct, ckpts); (err == nil) != tc.ok {
			t.Errorf("stored %d of %d distinct: err = %v, want ok=%v", tc.stored, distinct, err, tc.ok)
		}
	}
}

// On ckpt-shared-tiered the check must tell the measured growth from the
// growth with the shared window stored once per instance. Per round, each
// rewritten window touches one chunk more than it covers and each instance's
// file-system metadata one chunk: 17 chunks stored with dedup (shared window
// once), 22 without.
func TestCheckStoredCatchesSharedContentStoredTwice(t *testing.T) {
	w, _ := lookupWorkload("ckpt-shared-tiered")
	const rounds = 80
	window := int64(w.windowBytes/chunkSize + 1)
	meta := int64(instances)
	private := instances * window
	var distinct uint64
	for k := 1; k <= rounds; k++ {
		distinct += w.distinctBytes(k)
	}
	deduped := rounds * (window + private + meta) * chunkSize
	if err := checkStored(deduped, distinct, rounds*instances); err != nil {
		t.Fatalf("growth with the shared window stored once: %v", err)
	}
	twice := rounds * (instances*window + private + meta) * chunkSize
	if err := checkStored(twice, distinct, rounds*instances); !isCheckError(err) {
		t.Fatalf("growth with the shared window stored twice: err = %v, want a check failure", err)
	}
}

// A snapshot older than the last state written must fail both the content
// check and the version order check.
func TestStaleSnapshotFailsChecks(t *testing.T) {
	ctx := context.Background()
	w, _ := lookupWorkload("ckpt-unique")
	r, _, err := setUp(ctx, t.TempDir(), w, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	stale := r.refs[0]
	r.round++
	if err := r.write(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if err := r.verifyDurable(ctx); err != nil {
		t.Fatalf("newest durable snapshot rejected: %v", err)
	}
	if err := verifySnapshot(ctx, r.cloud, stale, r.state[0]); !isCheckError(err) {
		t.Fatalf("stale snapshot %v: err = %v, want a check failure", stale, err)
	}
	if err := checkFollows(r.refs[0], stale); !isCheckError(err) {
		t.Fatalf("stale ref after %v: err = %v, want a check failure", r.refs[0], err)
	}
	other := cloud.SnapshotRef{Blob: r.refs[0].Blob + 1, Version: r.refs[0].Version + 1}
	if err := checkFollows(r.refs[0], other); !isCheckError(err) {
		t.Fatalf("ref on another image: err = %v, want a check failure", err)
	}
}

// The metric tables the program prints must be the ones BENCHMARK.json
// declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, declared []struct{ Name, Unit string }) {
		if len(defs) != len(declared) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", what, len(defs), len(declared))
		}
		for i, d := range defs {
			if d.name != declared[i].Name || d.unit != declared[i].Unit {
				t.Errorf("%s %d: program %s (%s), BENCHMARK.json %s (%s)", what, i, d.name, d.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloads[i].name)
		}
	}
}
