// Command perfbench is the repository's end-to-end benchmark. It stands up
// an in-process BlobCR cloud over loopback TCP whose data providers are
// segment logs on disk, drives coordinated checkpoints and full restarts
// through the calls the middleware itself uses, checks every result against
// bytes it derived itself, and prints one JSON result line.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
// network and stores are wrapped with timers and the result holds the
// per-layer metrics (the traced end-to-end figures go on an earlier line).
// See README.md for the workloads and what each metric predicts.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"blobcr/internal/blobseer"
)

// deadline bounds a whole run, set-up and checks included.
const deadline = 170 * time.Second

const (
	mib = 1 << 20
	gib = 1 << 30
)

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"suspend_ms_p50", "ms"},
	{"locally_safe_ms_p50", "ms"},
	{"durable_ms_p50", "ms"},
	{"checkpoint_mib_s", "MiB/s"},
	{"restart_ms_p50", "ms"},
	{"restore_mib_s", "MiB/s"},
	{"stored_bytes_per_dirty_byte", "ratio"},
	{"alloc_bytes_per_byte", "ratio"},
	{"cpu_s_per_gib", "s/GiB"},
	{"peak_rss_mib", "MiB"},
}

var perLayer = []metricDef{
	{"transport.calls_per_ckpt", "count"},
	{"transport.put_batch_ms_p50", "ms"},
	{"transport.node_batch_ms_p50", "ms"},
	{"transport.ref_batch_ms_p50", "ms"},
	{"transport.wire_bytes_per_dirty_byte", "ratio"},
	{"transport.stage_put_ms_p50", "ms"},
	{"transport.get_batch_ms_p50", "ms"},
	{"transport.get_calls_per_restart", "count"},
	{"cas.dedup_hit_ratio", "ratio"},
	{"blobseer.transfer_bytes_per_logical_byte", "ratio"},
	{"localtier.stage_put_ms_p50", "ms"},
	{"localtier.drain_lag_ms_p50", "ms"},
	{"localtier.backlog_bytes_max", "bytes"},
	{"seglog.put_ms_p50", "ms"},
	{"seglog.put_busy_ms_per_ckpt", "ms"},
	{"seglog.fsyncs_per_put", "ratio"},
	{"seglog.get_ms_p50", "ms"},
	{"seglog.disk_bytes_per_logical_byte", "ratio"},
	{"mirror.remote_reads_per_restart", "count"},
	{"cloud.restart_call_ms_p50", "ms"},
	{"vm.readback_ms_p50", "ms"},
}

func main() { os.Exit(run()) }

// processors is how many goroutines of the whole in-process cloud run at
// once. With one, each operation's time is the work the program does for it
// plus its waits on disk and timers; with more, it also holds every
// goroutine hand-off between the host's processors, whose cost follows the
// load other tenants put on the host: a busy loop on one of two vCPUs made
// durable_ms_p50 and restart_ms_p50 about 40% slower with two processors,
// and slowed neither with one.
const processors = 1

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	dir := flag.String("dir", ".bench_build", "parent of the run's scratch directory")
	setupOnly := flag.Bool("setup-only", false, "time one set-up, print its seconds and exit")
	flag.Parse()
	runtime.GOMAXPROCS(processors)
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>; workloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	// Demand fetches in the mirror take no context; a hung run still ends.
	time.AfterFunc(deadline+5*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its deadline")
		os.Exit(3)
	})
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	scratch := filepath.Join(*dir, fmt.Sprintf("perfbench-%d", os.Getpid()))
	defer os.RemoveAll(scratch)
	if *setupOnly {
		r, took, err := setUp(ctx, scratch, w, *seed, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 1
		}
		r.close()
		fmt.Println(took.Seconds())
		return 0
	}

	m, err := measure(ctx, w, *seed, time.Duration(*seconds)*time.Second, tr, scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if m.attempted == 0 {
			return 1 // set-up failed: there is no result
		}
	}
	var ce *checkError
	res := result{Correct: !errors.As(err, &ce), Attempted: m.attempted, Failed: m.failed}
	e2e, layers := m.endToEnd(), m.perLayer(tr)
	report(os.Stderr, w.name, e2e, layers)
	if tr != nil {
		line, _ := json.Marshal(e2e)
		fmt.Printf("end-to-end under tracing: %s\n", line)
		res.Metrics = layers
	} else {
		res.Metrics = e2e
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if err != nil {
		return 1
	}
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// usage is the process's cumulative heap allocation and CPU time.
type usage struct {
	alloc uint64
	cpu   time.Duration
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func sampleUsage() usage {
	metrics.Read(allocSample)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	return usage{alloc: allocSample[0].Value.Uint64(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	return float64(ru.Maxrss) / 1024            // Linux reports KiB
}

// measurement is everything a run observed. Sums are over timed windows
// only: a checkpoint window runs from a round's first request until its
// last member is durable; a restart window from the cloud.Restart call
// until every instance has read back and verified its state.
type measurement struct {
	attempted, failed int

	setup []float64 // seconds per set-up

	suspend, local, durable, drainLag []float64 // ms per instance checkpoint
	ckptWall                          time.Duration
	dirty, distinct                   uint64 // captured bytes; distinct generator bytes
	stored                            int64  // repository bytes on disk added
	ckpts                             int
	backlogMax                        uint64
	engine                            engine               // traced: segment-log counters
	commit                            blobseer.CommitStats // traced: mirror commit counters

	restartMs, callMs, readbackMs []float64
	restartWall                   time.Duration
	restored                      uint64
	restarts                      int
	remoteReads                   uint64

	use usage // allocation and CPU inside windows
}

// measure times setupRepeats set-ups, then repeats the workload's cycles
// until seconds of cycles have passed and the run holds enough samples for
// steady medians. The first set-up runs in this process and is kept for the
// cycles. The others run in child processes, so that the clouds they leave
// behind take none of this process's memory, and they are spread over the
// run between cycles, so that setup_s samples the machine over the same
// stretch of time as the other metrics.
func measure(ctx context.Context, w workload, seed int64, seconds time.Duration, tr *tracer, scratch string) (*measurement, error) {
	m := &measurement{}
	r, took, err := setUp(ctx, filepath.Join(scratch, "setup"), w, seed, tr)
	if err != nil {
		return m, fmt.Errorf("set-up: %w", err)
	}
	m.setup = append(m.setup, took.Seconds())
	defer r.close()

	start := time.Now()
	var aside time.Duration // spent in child set-ups, not in cycles
	elapsed := func() time.Duration { return time.Since(start) - aside }
	setUpAside := func() error {
		t0 := time.Now()
		took, err := childSetUp(ctx, scratch)
		if err != nil {
			return fmt.Errorf("set-up in a child process: %w", err)
		}
		m.setup = append(m.setup, took)
		aside += time.Since(t0)
		return nil
	}
	for m.ckpts < minRounds*instances || m.restarts < minRestarts || elapsed() < seconds {
		for k := 0; k < cycleRounds; k++ {
			time.Sleep(think)
			if err := m.ckptRound(ctx, r, tr); err != nil {
				return m, err
			}
			if (m.ckpts/instances)%pruneEvery == 0 {
				if err := r.prune(ctx); err != nil {
					return m, err
				}
			}
		}
		for k := 0; k < cycleRestarts; k++ {
			if err := m.restartOnce(ctx, r, tr); err != nil {
				return m, err
			}
		}
		// The last cycle ends past seconds, so every set-up is due by then.
		for len(m.setup) < setupRepeats && elapsed() >= seconds*time.Duration(len(m.setup))/setupRepeats {
			if err := setUpAside(); err != nil {
				return m, err
			}
		}
	}
	if err := r.verifyDurable(ctx); err != nil {
		return m, err
	}
	fmt.Fprintf(os.Stderr, "repository grew by %d bytes over %d distinct bytes written: %.3f chunks per instance checkpoint\n",
		m.stored, m.distinct, float64(m.stored-int64(m.distinct))/float64(m.ckpts*chunkSize))
	return m, checkStored(m.stored, m.distinct, m.ckpts)
}

// childSetUp runs this program again with the same arguments and
// --setup-only, under scratch, and returns the seconds the child's set-up
// took.
func childSetUp(ctx context.Context, scratch string) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	args := append(slices.Clone(os.Args[1:]), "--dir", scratch, "--setup-only")
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

func (m *measurement) ckptRound(ctx context.Context, r *rig, tr *tracer) error {
	r.round++
	if err := r.write(); err != nil {
		return err
	}
	dirty := r.dirtyBytes()
	disk0, err := r.diskBytes()
	if err != nil {
		return err
	}
	var eng0 engine
	var cs0 blobseer.CommitStats
	if tr != nil {
		eng0, cs0 = r.engine(), r.commitStats()
	}
	u0 := sampleUsage()
	tr.set(ckptPhase)
	m.attempted += instances
	round, err := r.checkpoint(ctx)
	tr.set(idle)
	u1 := sampleUsage()
	if err != nil {
		return m.fail(err)
	}
	disk1, err := r.diskBytes()
	if err != nil {
		return err
	}
	if tr != nil {
		m.engine = m.engine.add(r.engine().sub(eng0))
		cs := r.commitStats()
		m.commit.LogicalBytes += cs.LogicalBytes - cs0.LogicalBytes
		m.commit.DedupHitBytes += cs.DedupHitBytes - cs0.DedupHitBytes
		m.commit.TransferBytes += cs.TransferBytes - cs0.TransferBytes
	}
	m.use.alloc += u1.alloc - u0.alloc
	m.use.cpu += u1.cpu - u0.cpu
	m.ckpts += instances
	m.dirty += dirty
	m.distinct += r.w.distinctBytes(r.round)
	m.stored += disk1 - disk0
	m.ckptWall += round.wall
	for _, mb := range round.members {
		m.suspend = append(m.suspend, ms(mb.suspend))
		m.local = append(m.local, ms(mb.local))
		m.durable = append(m.durable, ms(mb.durable))
		m.drainLag = append(m.drainLag, ms(mb.durable-mb.local))
		m.backlogMax = max(m.backlogMax, mb.backlog)
	}
	return nil
}

// fail books a timed operation that returned err: a program error fails
// every instance's operation of the round, a rejected result fails none.
func (m *measurement) fail(err error) error {
	var ce *checkError
	if !errors.As(err, &ce) {
		m.failed += instances
	}
	return err
}

func (m *measurement) restartOnce(ctx context.Context, r *rig, tr *tracer) error {
	u0 := sampleUsage()
	tr.set(restartPhase)
	m.attempted += instances
	run, err := r.restart(ctx)
	tr.set(idle)
	u1 := sampleUsage()
	if err != nil {
		return m.fail(err)
	}
	m.use.alloc += u1.alloc - u0.alloc
	m.use.cpu += u1.cpu - u0.cpu
	m.restarts++
	m.restored += uint64(instances * r.w.stateBytes)
	m.restartWall += run.wall
	m.restartMs = append(m.restartMs, ms(run.wall))
	m.callMs = append(m.callMs, ms(run.call))
	for _, d := range run.readback {
		m.readbackMs = append(m.readbackMs, ms(d))
	}
	m.remoteReads += run.remoteReads
	return nil
}

// Per captured instance checkpoint, the repository may hold this much more
// than the distinct bytes the generator wrote. The mirror captures whole
// chunks, and the state file's blocks do not start on a chunk boundary, so
// each of the two windows a round rewrites may touch one chunk more than it
// covers; the state file's inode and block pointers dirty one chunk more.
// Segment-log record headers add under 1%. Measured runs stay within 2.0 to
// 2.5 chunks per instance checkpoint, while storing the shared window of
// ckpt-shared-tiered twice adds 2.5 more.
const (
	slackChunksPerCkpt = 3
	slackRecordShare   = 0.01
)

// checkStored holds the repository's growth between the distinct bytes
// written and that figure plus the stated slack: identical content must be
// stored once, and nothing written may be missing.
func checkStored(stored int64, distinct uint64, ckpts int) error {
	limit := float64(distinct)*(1+slackRecordShare) + float64(ckpts*slackChunksPerCkpt*chunkSize)
	if stored < int64(distinct) || float64(stored) > limit {
		return checkFailed("repository grew by %d bytes; the generator wrote %d distinct bytes (allowed up to %.0f)", stored, distinct, limit)
	}
	return nil
}

func (m *measurement) endToEnd() map[string]value {
	moved := float64(m.dirty + m.restored)
	v := map[string]float64{
		"setup_s":                     quantile(m.setup, 0.5),
		"suspend_ms_p50":              quantile(m.suspend, 0.5),
		"locally_safe_ms_p50":         quantile(m.local, 0.5),
		"durable_ms_p50":              quantile(m.durable, 0.5),
		"checkpoint_mib_s":            ratio(float64(m.dirty)/mib, m.ckptWall.Seconds()),
		"restart_ms_p50":              quantile(m.restartMs, 0.5),
		"restore_mib_s":               ratio(float64(m.restored)/mib, m.restartWall.Seconds()),
		"stored_bytes_per_dirty_byte": ratio(float64(m.stored), float64(m.dirty)),
		"alloc_bytes_per_byte":        ratio(float64(m.use.alloc), moved),
		"cpu_s_per_gib":               ratio(m.use.cpu.Seconds(), moved/gib),
		"peak_rss_mib":                peakRSSMiB(),
	}
	return withUnits(endToEnd, v)
}

// perLayer derives the per-layer metrics of a traced run; an operation a
// workload never performs reads 0.
func (m *measurement) perLayer(tr *tracer) map[string]value {
	if tr == nil {
		return nil
	}
	ckpts, restarts := float64(m.ckpts), float64(m.restarts)
	p50 := func(p phase, ops ...string) float64 { return quantile(tr.samples(p, ops...), 0.5) }
	tr.mu.Lock()
	calls, wire, busy := tr.calls[ckptPhase], tr.wire[ckptPhase], tr.busy
	tr.mu.Unlock()
	v := map[string]float64{
		"transport.calls_per_ckpt":                 ratio(float64(calls), ckpts),
		"transport.put_batch_ms_p50":               p50(ckptPhase, "chunk-put-batch", "cas-put-batch"),
		"transport.node_batch_ms_p50":              p50(ckptPhase, "node-put-batch", "node-get-batch"),
		"transport.ref_batch_ms_p50":               p50(ckptPhase, "cas-ref-batch"),
		"transport.wire_bytes_per_dirty_byte":      ratio(float64(wire), float64(m.dirty)),
		"transport.stage_put_ms_p50":               p50(ckptPhase, "stage-put"),
		"transport.get_batch_ms_p50":               p50(restartPhase, "chunk-get-batch"),
		"transport.get_calls_per_restart":          ratio(float64(len(tr.samples(restartPhase, "chunk-get", "chunk-get-batch"))), restarts),
		"cas.dedup_hit_ratio":                      ratio(float64(m.commit.DedupHitBytes), float64(m.commit.LogicalBytes)),
		"blobseer.transfer_bytes_per_logical_byte": ratio(float64(m.commit.TransferBytes), float64(m.commit.LogicalBytes)),
		"localtier.stage_put_ms_p50":               p50(ckptPhase, "localtier.put"),
		"localtier.drain_lag_ms_p50":               quantile(m.drainLag, 0.5),
		"localtier.backlog_bytes_max":              float64(m.backlogMax),
		"seglog.put_ms_p50":                        p50(ckptPhase, "seglog.put"),
		"seglog.put_busy_ms_per_ckpt":              ratio(ms(busy), ckpts),
		"seglog.fsyncs_per_put":                    ratio(float64(m.engine.fsyncs), float64(m.engine.puts)),
		"seglog.get_ms_p50":                        p50(restartPhase, "seglog.get"),
		"seglog.disk_bytes_per_logical_byte":       ratio(float64(m.engine.disk), float64(m.engine.logical)),
		"mirror.remote_reads_per_restart":          ratio(float64(m.remoteReads), restarts),
		"cloud.restart_call_ms_p50":                quantile(m.callMs, 0.5),
		"vm.readback_ms_p50":                       quantile(m.readbackMs, 0.5),
	}
	return withUnits(perLayer, v)
}

func withUnits(defs []metricDef, v map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.name] = value{Value: v[d.name], Unit: d.unit}
	}
	return out
}

func report(f *os.File, wl string, sets ...map[string]value) {
	for _, set := range sets {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(f, "%-20s %-42s %14.4f %s\n", wl, n, set[n].Value, set[n].Unit)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile interpolates linearly between the closest ranks; 0 for no
// samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
