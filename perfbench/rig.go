package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/chunkstore"
	"blobcr/internal/cloud"
	"blobcr/internal/core"
	"blobcr/internal/guestfs"
	"blobcr/internal/obs"
	"blobcr/internal/seglog"
	"blobcr/internal/transport"
	"blobcr/internal/vdisk"
	"blobcr/internal/vm"
)

// checkError is a result the benchmark's own checks rejected, as opposed to
// an operation the program failed.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "check failed: " + e.msg }

func checkFailed(format string, a ...any) error {
	return &checkError{msg: fmt.Sprintf(format, a...)}
}

// faultTCP gives transport.TCP the fail-stop partitioning cloud.Config.Net
// requires: a call to a partitioned address is refused until it is healed.
// It keeps no time; untraced runs see real sockets and nothing else.
type faultTCP struct {
	*transport.TCP
	mu     sync.RWMutex
	parted map[string]bool
}

func newFaultTCP() *faultTCP {
	return &faultTCP{TCP: transport.NewTCP(), parted: make(map[string]bool)}
}

func (n *faultTCP) Call(ctx context.Context, addr string, req []byte) ([]byte, error) {
	n.mu.RLock()
	parted := n.parted[addr]
	n.mu.RUnlock()
	if parted {
		return nil, fmt.Errorf("%w: %s is partitioned", transport.ErrUnreachable, addr)
	}
	return n.TCP.Call(ctx, addr, req)
}

func (n *faultTCP) Partition(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.parted[addr] = true
}

func (n *faultTCP) Heal(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.parted, addr)
}

// rig is one BlobCR cloud stood up by the benchmark, its deployment, and
// the benchmark's own record of what every instance's state must hold.
type rig struct {
	w    workload
	seed int64
	dir  string
	tr   *tracer // nil in untraced runs

	tcp       *faultTCP
	cloud     *cloud.Cloud
	dep       *cloud.Deployment
	providers []*seglog.Store // the bare segment logs behind the data providers

	state   [][]byte            // expected state per instance, from the generator only
	readBuf [][]byte            // where each instance reads its state back
	refs    []cloud.SnapshotRef // newest durable snapshot per instance
	ckptID  int
	round   int
}

// newRig starts a cloud over loopback TCP whose data providers are segment
// logs under dir, each group commit ending in one fdatasync.
func newRig(dir string, w workload, seed int64, tr *tracer) (*rig, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &rig{w: w, seed: seed, dir: dir, tr: tr, tcp: newFaultTCP(), providers: make([]*seglog.Store, nodes)}
	var net transport.FaultNetwork = r.tcp
	if tr != nil {
		net = &tracedNet{FaultNetwork: r.tcp, tr: tr}
	}
	cfg := cloud.Config{
		Nodes:         nodes,
		MetaProviders: metaServers,
		Seed:          seed,
		Dedup:         true,
		Net:           net,
		Obs:           obs.NewRegistry(),
		Stores:        r.stores(blobseer.SeglogStores(filepath.Join(dir, "providers"), seglog.Options{Registry: obs.NewRegistry()}), "seglog"),
		LocalTier:     w.tier,
	}
	if w.tier {
		// The node-local tier lives in memory and is replicated to the
		// partner node, as the RAM level of multilevel checkpointing.
		cfg.StageStores = r.stores(blobseer.MemStores, "localtier")
	}
	c, err := cloud.New(cfg)
	if err != nil {
		r.tcp.Close()
		return nil, err
	}
	r.cloud = c
	return r, nil
}

// stores hands the cloud the stores open builds, timed in traced runs, and
// keeps the bare segment logs of the data providers for their counters.
func (r *rig) stores(open blobseer.StoreFactory, layer string) blobseer.StoreFactory {
	return func(i int) (chunkstore.Store, error) {
		s, err := open(i)
		if err != nil {
			return nil, err
		}
		if sl, ok := s.(*seglog.Store); ok && layer == "seglog" {
			r.providers[i] = sl
		}
		if r.tr != nil {
			return &timedStore{Store: s, tr: r.tr, layer: layer}, nil
		}
		return s, nil
	}
}

func (r *rig) close() {
	r.cloud.Close()
	r.tcp.Close()
	os.RemoveAll(r.dir)
}

// setUp stands up a cloud and brings it to the start of the timed phase:
// base image upload, deployment and boot, the initial state and its
// checkpoint, a warm-up restart and warmRounds checkpoint rounds.
func setUp(ctx context.Context, dir string, w workload, seed int64, tr *tracer) (*rig, time.Duration, error) {
	start := time.Now()
	r, err := newRig(dir, w, seed, tr)
	if err != nil {
		return nil, 0, err
	}
	if err := r.boot(ctx); err != nil {
		r.close()
		return nil, 0, err
	}
	return r, time.Since(start), nil
}

func (r *rig) boot(ctx context.Context) error {
	raw, err := baseImage(r.seed, r.w.name)
	if err != nil {
		return err
	}
	base, err := r.cloud.UploadBaseImage(ctx, raw, chunkSize)
	if err != nil {
		return fmt.Errorf("upload base image: %w", err)
	}
	if r.dep, err = r.cloud.Deploy(ctx, instances, base, vm.Config{BlockSize: blockSize}); err != nil {
		return err
	}
	r.state = make([][]byte, instances)
	r.readBuf = make([][]byte, instances)
	r.refs = make([]cloud.SnapshotRef, instances)
	for i := range r.state {
		r.state[i] = make([]byte, r.w.stateBytes)
		r.readBuf[i] = make([]byte, r.w.stateBytes)
	}
	if err := r.write(); err != nil {
		return err
	}
	if _, err := r.checkpoint(ctx); err != nil {
		return err
	}
	if _, err := r.restart(ctx); err != nil {
		return err
	}
	for k := 0; k < warmRounds; k++ {
		r.round++
		if err := r.write(); err != nil {
			return err
		}
		if _, err := r.checkpoint(ctx); err != nil {
			return err
		}
	}
	return nil
}

// baseImage builds the raw disk image every instance boots from: a guest
// file system holding osFiles incompressible files.
func baseImage(seed int64, wl string) ([]byte, error) {
	dev := vdisk.NewMem(imageBytes)
	gfs, err := guestfs.Mkfs(dev, blockSize)
	if err != nil {
		return nil, err
	}
	if err := gfs.MkdirAll("/usr/lib"); err != nil {
		return nil, err
	}
	buf := make([]byte, osFileBytes)
	for k := 0; k < osFiles; k++ {
		for off := 0; off < osFileBytes; off += regionBytes {
			fillRegion(buf[off:off+regionBytes], seed, wl, osOwner, 0, (k*osFileBytes+off)/regionBytes)
		}
		if err := gfs.WriteFile(fmt.Sprintf("/usr/lib/os-%d.img", k), buf); err != nil {
			return nil, err
		}
	}
	raw := make([]byte, imageBytes)
	if _, err := dev.ReadAt(raw, 0); err != nil {
		return nil, err
	}
	return raw, nil
}

// each runs f once per instance, one goroutine per instance: with one
// instance per node and two nodes, the load generator never has more
// goroutines issuing requests than the machine has processors.
func each(f func(i int) error) error {
	errs := make([]error, instances)
	var wg sync.WaitGroup
	for i := range instances {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// write is the application's work for the current round: the generator
// rewrites each instance's expected state and the instance writes those
// ranges into the state file of its guest file system.
func (r *rig) write() error {
	return each(func(i int) error {
		spans := r.w.rewrite(r.state[i], r.seed, i, r.round)
		gfs := r.dep.Instances[i].VM.FS()
		var f *guestfs.File
		var err error
		if r.round == 0 {
			if err = gfs.MkdirAll(filepath.Dir(statePath)); err == nil {
				f, err = gfs.Create(statePath)
			}
		} else {
			f, err = gfs.Open(statePath)
		}
		if err != nil {
			return fmt.Errorf("instance %d: open state: %w", i, err)
		}
		for _, s := range spans {
			if _, err := f.WriteAt(r.state[i][s.off:s.off+s.n], int64(s.off)); err != nil {
				return fmt.Errorf("instance %d: write state: %w", i, err)
			}
		}
		return nil
	})
}

// dirtyBytes is what the next capture will take from every instance.
func (r *rig) dirtyBytes() uint64 {
	var n uint64
	for _, inst := range r.dep.Instances {
		n += inst.Mirror.DirtyBytes()
	}
	return n
}

// member is one instance's share of a coordinated checkpoint, each time
// measured from its CHECKPOINT request.
type member struct {
	suspend, local, durable time.Duration
	backlog                 uint64 // traced, tiered: bytes staged on its node once it is locally safe
}

type ckptRound struct {
	members []member
	wall    time.Duration // first request to last member durable
}

// checkpoint takes one coordinated checkpoint: every instance requests its
// snapshot through its proxy and the round waits until all are durable,
// then records the global checkpoint.
func (r *rig) checkpoint(ctx context.Context) (ckptRound, error) {
	members := make([]member, instances)
	starts := make([]time.Time, instances)
	ends := make([]time.Time, instances)
	refs := make([]cloud.SnapshotRef, instances)
	err := each(func(i int) error {
		inst := r.dep.Instances[i]
		t0 := time.Now()
		h, err := inst.Proxy.RequestCheckpointAsync(ctx)
		if err != nil {
			return fmt.Errorf("checkpoint %s: %w", inst.VMID, err)
		}
		t1 := time.Now()
		if _, err := inst.Proxy.WaitCheckpointLocal(ctx, h); err != nil {
			return fmt.Errorf("wait locally safe %s: %w", inst.VMID, err)
		}
		t2 := time.Now()
		if r.tr != nil && r.w.tier {
			// The totals the proxy's BACKLOG verb reports, read from the
			// node's stage in process: the probe makes no wire call, so the
			// traced network counts only the program's own calls.
			own, partner := inst.Node.Stage().Backlog()
			members[i].backlog = own.Bytes + partner.Bytes
		}
		ref, err := inst.Proxy.WaitCheckpoint(ctx, h)
		if err != nil {
			return fmt.Errorf("wait durable %s: %w", inst.VMID, err)
		}
		t3 := time.Now()
		starts[i], ends[i], refs[i] = t0, t3, ref
		members[i].suspend, members[i].local, members[i].durable = t1.Sub(t0), t2.Sub(t0), t3.Sub(t0)
		return nil
	})
	if err != nil {
		return ckptRound{}, err
	}
	snaps := make(map[string]cloud.SnapshotRef, instances)
	for i, inst := range r.dep.Instances {
		if err := checkFollows(r.refs[i], refs[i]); err != nil {
			return ckptRound{}, fmt.Errorf("instance %d: %w", i, err)
		}
		snaps[inst.VMID] = refs[i]
	}
	id, err := r.cloud.RecordCheckpoint(r.dep, snaps)
	if err != nil {
		return ckptRound{}, err
	}
	r.ckptID, r.refs = id, refs
	first, last := starts[0], ends[0]
	for i := 1; i < instances; i++ {
		if starts[i].Before(first) {
			first = starts[i]
		}
		if ends[i].After(last) {
			last = ends[i]
		}
	}
	return ckptRound{members: members, wall: last.Sub(first)}, nil
}

// checkFollows requires an instance's durable snapshots to extend one
// checkpoint image with strictly increasing versions. prev is zero before
// the first checkpoint.
func checkFollows(prev, next cloud.SnapshotRef) error {
	if prev == (cloud.SnapshotRef{}) {
		return nil
	}
	if next.Blob != prev.Blob || next.Version <= prev.Version {
		return checkFailed("durable snapshot %v does not follow %v", next, prev)
	}
	return nil
}

type restartRun struct {
	call, wall  time.Duration
	readback    []time.Duration
	remoteReads uint64
}

// restart redeploys every instance from the newest durable checkpoint onto
// other nodes, with cold mirror caches, and has each instance read its
// whole state back through its guest file system and verify it.
func (r *rig) restart(ctx context.Context) (restartRun, error) {
	start := time.Now()
	dep, err := r.cloud.Restart(ctx, r.dep, r.ckptID)
	if err != nil {
		return restartRun{}, fmt.Errorf("restart: %w", err)
	}
	call := time.Since(start)
	r.dep = dep
	readback := make([]time.Duration, instances)
	err = each(func(i int) error {
		t0 := time.Now()
		if err := readState(dep.Instances[i].VM.FS(), r.readBuf[i]); err != nil {
			return fmt.Errorf("instance %d: %w", i, err)
		}
		if err := verifyState(r.readBuf[i], r.state[i]); err != nil {
			return fmt.Errorf("instance %d restored: %w", i, err)
		}
		readback[i] = time.Since(t0)
		return nil
	})
	if err != nil {
		return restartRun{}, err
	}
	run := restartRun{call: call, wall: time.Since(start), readback: readback}
	for _, inst := range dep.Instances {
		reads, _, _ := inst.Mirror.Stats()
		run.remoteReads += reads
	}
	return run, nil
}

// readState reads the whole state file into buf, which must be its size.
func readState(gfs *guestfs.FS, buf []byte) error {
	f, err := gfs.Open(statePath)
	if err != nil {
		return fmt.Errorf("open state: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		return err
	}
	if size != uint64(len(buf)) {
		return checkFailed("state holds %d bytes, want %d", size, len(buf))
	}
	n, err := f.ReadAt(buf, 0)
	if err != nil {
		return fmt.Errorf("read state: %w", err)
	}
	if n != len(buf) {
		return fmt.Errorf("read state: %d of %d bytes", n, len(buf))
	}
	return nil
}

// verifyState compares restored bytes with the generator's.
func verifyState(got, want []byte) error {
	if len(got) != len(want) {
		return checkFailed("state is %d bytes, want %d", len(got), len(want))
	}
	if bytes.Equal(got, want) {
		return nil
	}
	for off := range got {
		if got[off] != want[off] {
			return checkFailed("state differs from the generator's at byte %d", off)
		}
	}
	return nil
}

// verifyDurable opens every instance's newest durable snapshot through a
// fresh repository client and compares its state with the generator's.
func (r *rig) verifyDurable(ctx context.Context) error {
	cp, ok := r.dep.LatestDurableCheckpoint()
	if !ok {
		return checkFailed("no durable checkpoint")
	}
	for i, inst := range r.dep.Instances {
		ref := cp.Snapshots[inst.VMID]
		if ref != r.refs[i] {
			return checkFailed("instance %d: newest durable snapshot is %v, the last checkpoint returned %v", i, ref, r.refs[i])
		}
		if err := verifySnapshot(ctx, r.cloud, ref, r.state[i]); err != nil {
			return fmt.Errorf("instance %d: %w", i, err)
		}
	}
	return nil
}

// verifySnapshot mounts ref read-only (core.InspectSnapshot builds a new
// repository client) and checks that its state file holds want.
func verifySnapshot(ctx context.Context, c *cloud.Cloud, ref cloud.SnapshotRef, want []byte) error {
	gfs, err := core.InspectSnapshot(ctx, c, ref)
	if err != nil {
		return checkFailed("inspect %v: %v", ref, err)
	}
	got := make([]byte, len(want))
	if err := readState(gfs, got); err != nil {
		return err
	}
	if err := verifyState(got, want); err != nil {
		return fmt.Errorf("snapshot %v: %w", ref, err)
	}
	return nil
}

// prune retires every checkpoint older than the newest, collects the
// repository's garbage and compacts the segment logs, so a run's disk use
// stays bounded. It runs between rounds, outside every timed window.
func (r *rig) prune(ctx context.Context) error {
	if _, err := r.cloud.Prune(ctx, r.dep, r.ckptID); err != nil {
		return fmt.Errorf("prune: %w", err)
	}
	for _, s := range r.providers {
		if _, err := s.CompactNow(); err != nil {
			return fmt.Errorf("compact: %w", err)
		}
	}
	return nil
}

// diskBytes is the size of every file under the data providers' segment
// log directories: the repository's bytes on disk.
func (r *rig) diskBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(filepath.Join(r.dir, "providers"), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// engine sums the segment-log counters the traced run reads.
type engine struct{ puts, fsyncs, disk, logical uint64 }

func (r *rig) engine() engine {
	var e engine
	for _, s := range r.providers {
		st := s.EngineStats()
		e.puts += st.Field("puts")
		e.fsyncs += st.Field("fsyncs")
		e.disk += st.Field("disk_bytes")
		e.logical += st.Field("logical_bytes")
	}
	return e
}

func (e engine) sub(o engine) engine {
	return engine{e.puts - o.puts, e.fsyncs - o.fsyncs, e.disk - o.disk, e.logical - o.logical}
}

func (e engine) add(o engine) engine {
	return engine{e.puts + o.puts, e.fsyncs + o.fsyncs, e.disk + o.disk, e.logical + o.logical}
}

// commitStats sums the mirror commit counters of the current instances.
func (r *rig) commitStats() blobseer.CommitStats {
	var cs blobseer.CommitStats
	for _, inst := range r.dep.Instances {
		cs.Add(inst.Mirror.CommitStats())
	}
	return cs
}
