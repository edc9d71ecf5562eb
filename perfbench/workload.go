package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"time"
)

// Fixed make-up of every workload. --seed picks the bytes, never the sizes.
const (
	nodes        = 2         // compute nodes, one instance and one data provider each
	instances    = nodes     // one instance per node
	metaServers  = 2         // metadata providers
	chunkSize    = 256 << 10 // repository chunk size
	blockSize    = 4096      // guest file system block size
	imageBytes   = 32 << 20  // base disk image
	osFiles      = 4         // incompressible "operating system" files in the image
	osFileBytes  = 1 << 20   // size of each
	regionBytes  = chunkSize // the generator derives one key per region of state
	statePath    = "/data/state"
	warmRounds   = 6  // checkpoint rounds in set-up after the warm-up restart
	pruneEvery   = 8  // timed rounds between prunes of superseded checkpoints
	minRounds    = 50 // a run always holds >= 100 checkpoint samples
	minRestarts  = 20 // and at least this many whole-deployment restarts
	setupRepeats = 5  // set-ups per run; setup_s is their median
)

// A run repeats cycles of cycleRounds checkpoint rounds followed by
// cycleRestarts restarts, the life of a job that checkpoints at a fixed
// period and now and then fails and restarts from its newest durable
// checkpoint. Interleaving the two spreads both over the whole run, so a
// slow stretch of the machine weighs on them alike. Before each round the
// application computes for think. That also lets the background work of the
// previous step (drain releases, stage compaction, garbage collection)
// settle, so every round starts alike.
const (
	cycleRounds   = 4
	cycleRestarts = 1
	think         = 100 * time.Millisecond
)

// Owners of generated regions besides instance indexes.
const (
	sharedOwner = -1 // identical on every instance
	osOwner     = -2 // base image content
)

// workload fixes what one run does. The workloads differ in the data each
// round rewrites and in whether the local tier is on.
type workload struct {
	name string
	// tier turns on multilevel checkpointing (cloud.Config.LocalTier).
	tier bool
	// stateBytes is each instance's application state, one file in its
	// guest file system. The file is split in two halves; a round rewrites a
	// contiguous window of windowBytes in each half, the window moving by
	// windowBytes each round.
	stateBytes  int
	windowBytes int
	// shared makes the first half of every instance's state identical.
	shared bool
}

var workloads = []workload{
	// Every round rewrites all state with round-unique bytes and no tier:
	// the commit path carries the whole load and every CAS probe misses.
	{name: "ckpt-unique", stateBytes: 4 << 20, windowBytes: 2 << 20},
	// Half of every state identical across instances, half of it rewritten
	// per round, local tier on: stage frames, the drainer and dedup hits.
	{name: "ckpt-shared-tiered", tier: true, shared: true, stateBytes: 4 << 20, windowBytes: 1 << 20},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// span is a byte range of the state file.
type span struct{ off, n int }

// owner returns who owns the region at off: every instance shares the
// first half of a shared workload's state.
func (w workload) owner(inst, off int) int {
	if w.shared && off < w.stateBytes/2 {
		return sharedOwner
	}
	return inst
}

// windows returns the ranges round rewrites (round 0 writes everything).
func (w workload) windows(round int) []span {
	if round == 0 {
		return []span{{0, w.stateBytes}}
	}
	half := w.stateBytes / 2
	start := ((round - 1) * w.windowBytes) % half
	return []span{{start, w.windowBytes}, {half + start, w.windowBytes}}
}

// rewrite applies round's writes of instance inst to its expected state and
// returns the ranges written.
func (w workload) rewrite(state []byte, seed int64, inst, round int) []span {
	spans := w.windows(round)
	for _, s := range spans {
		for off := s.off; off < s.off+s.n; off += regionBytes {
			fillRegion(state[off:off+regionBytes], seed, w.name, w.owner(inst, off), round, off/regionBytes)
		}
	}
	return spans
}

// distinctBytes is how many different bytes one round writes across all
// instances: shared ranges count once.
func (w workload) distinctBytes(round int) uint64 {
	var n uint64
	for _, s := range w.windows(round) {
		if w.owner(0, s.off) == sharedOwner {
			n += uint64(s.n)
		} else {
			n += uint64(s.n) * instances
		}
	}
	return n
}

// fillRegion fills dst with incompressible bytes derived only from (seed,
// workload, owner, round, region): the benchmark's expected state never
// depends on what the program returns.
func fillRegion(dst []byte, seed int64, wl string, owner, round, region int) {
	key := sha256.Sum256(fmt.Appendf(nil, "perfbench/%d/%s/%d/%d/%d", seed, wl, owner, round, region))
	rand.NewChaCha8(key).Read(dst) //nolint:errcheck // ChaCha8.Read never fails
}
