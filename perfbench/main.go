// Command perfbench is the repository's benchmark: one run of one workload
// in a fresh process, printing every metric by name with its unit and, as
// the last line of standard output, one JSON result object.
//
//	bash perfbench/run.sh --workload exhaustive-serial --seed 1 --seconds 20 --trace 0
//
// The workloads, their metrics and the layers they load are described in
// perfbench/README.md and BENCHMARK.json. With --trace 0 the run reports
// the end-to-end metrics; with --trace 1 it alternates untraced and traced
// rounds and reports the per-layer metrics, the per-layer self time from
// its span recorder, and the tracing overhead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"kset/internal/service"
)

// A run sets its workload up at least minSetups times, and more while the
// set-ups together have taken less than setupBudget (at most maxSetups), so
// that a set-up of milliseconds still has a steady median. setup_s is the
// median.
const (
	minSetups   = 3
	maxSetups   = 100
	setupBudget = time.Second
)

// shardWorkerArg re-execs the benchmark binary as a sharded-search worker.
const shardWorkerArg = "shard-worker"

// workload is one prepared workload: inputs generated, services started,
// one warm-up call made.
type workload interface {
	// round runs one pass over the next seeded request list.
	round(b *bench)
	// cached reports whether the workload's requests go through a verdict
	// cache, so that repeats are answered without a search.
	cached() bool
	// finish runs checks that are not part of the timed phase.
	finish(b *bench)
	// simTargets are the instances the sim probe walks.
	simTargets() []simTarget
	close()
}

var workloads = map[string]func(seed int64, dir string, b *bench) (workload, error){
	"exhaustive-serial": newSerialLoad,
	"bounded-parallel":  newBoundedLoad,
	"ksetd-mix":         newKsetdLoad,
	"sharded-2p":        newShardLoad,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is what one run records. Untraced rounds feed the end-to-end
// samples; traced rounds set tr, ex and lay and feed the per-layer ones.
type bench struct {
	attempted, failed int

	coldMs, hitMs []float64
	ops           int
	states        int64
	searchTime    time.Duration

	tr    *tracer
	ex    *exploreStats
	lay   *layerStats
	round int64 // span id of the current round, 0 when untraced
}

// layerStats holds the traced per-layer figures other than explore's.
type layerStats struct {
	checks int
	checkS float64

	submitMs, queueMs, runMs, settleMs []float64
	cacheGetUs, cachePutUs             []float64
	hits, submissions                  int
	journalBytes                       int64
	journalJobs                        int

	shardCalls          int
	spawnMs, shardLvlMs []float64
	coordCPU, workerCPU float64
	wireBytes           int64
}

// check counts one checked operation; a failed check is printed.
func (b *bench) check(err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: MISMATCH: %v\n", err)
		return false
	}
	return true
}

// op records one request and its check. Only correct requests of untraced
// rounds are latency samples.
func (b *bench) op(cold bool, lat time.Duration, err error) {
	if !b.check(err) || b.tr != nil {
		return
	}
	b.ops++
	ms := float64(lat) / 1e6
	if cold {
		b.coldMs = append(b.coldMs, ms)
	} else {
		b.hitMs = append(b.hitMs, ms)
	}
}

// searched records configurations explored and time spent inside search
// calls, for states_per_s.
func (b *bench) searched(states int64, d time.Duration) {
	if b.tr != nil {
		return
	}
	b.states += states
	b.searchTime += d
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == shardWorkerArg {
		os.Exit(shardWorker(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	dir := flag.String("dir", ".bench_build", "directory for temporary files and the span dump")
	flag.Parse()
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func shardWorker(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: shard-worker <coordinator-url> <shard>")
		return 2
	}
	shard, err := strconv.Atoi(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(1)
	if err := service.ShardWorkerMain(context.Background(), args[0], shard); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func run(name string, seed int64, seconds time.Duration, traced bool, dir string) (*result, error) {
	newLoad, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	tmp, err := filepath.Abs(filepath.Join(dir, "tmp"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	// Spill files and every other temporary file stay under dir.
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		return nil, err
	}

	b := &bench{}
	var w workload
	var setups []float64
	var total time.Duration
	for len(setups) < minSetups || (total < setupBudget && len(setups) < maxSetups) {
		if w != nil {
			w.close()
		}
		start := time.Now()
		w, err = newLoad(seed, tmp, b)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		took := time.Since(start)
		total += took
		setups = append(setups, took.Seconds())
	}
	defer w.close()
	// Warm-up requests are checked but are not samples.
	b.coldMs, b.hitMs, b.ops, b.states, b.searchTime = nil, nil, 0, 0, 0

	tr := newTracer()
	ex := &exploreStats{}
	lay := &layerStats{}
	var walls, tracedWalls []float64
	begin := time.Now()
	for i := 0; ; i++ {
		if time.Since(begin) >= seconds && len(walls) > 0 && (!traced || len(tracedWalls) > 0) {
			break
		}
		on := traced && i%2 == 1
		b.tr, b.ex, b.lay, b.round = nil, nil, nil, 0
		if on {
			b.tr, b.ex, b.lay = tr, ex, lay
			b.round = tr.id()
		}
		start := time.Now()
		w.round(b)
		end := time.Now()
		wall := end.Sub(start).Seconds()
		if on {
			tr.add(b.round, 0, b.round, "bench", "round", start, end)
			tracedWalls = append(tracedWalls, wall)
		} else {
			walls = append(walls, wall)
		}
	}
	b.tr, b.ex, b.lay, b.round = nil, nil, nil, 0
	// Peaks are read before finish's untimed checks can raise them.
	_, selfRSS := usage(syscall.RUSAGE_SELF)
	_, childRSS := usage(syscall.RUSAGE_CHILDREN)
	w.finish(b)

	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	rep := &report{res: res}
	if !traced {
		endToEnd(rep, b, w.cached(), setups, walls, selfRSS, childRSS)
	} else {
		simRes, err := simProbe(w.simTargets(), seed)
		if err != nil {
			return nil, fmt.Errorf("sim probe: %w", err)
		}
		perLayer(rep, ex, lay, simRes, len(tracedWalls), childRSS)
		var tracedTotal float64
		for _, x := range tracedWalls {
			tracedTotal += x
		}
		self := tr.selfTime()
		for _, l := range selfLayers {
			rep.add("self."+l+"_pct", 100*self[l].Seconds()/tracedTotal, "%", "share of traced round time spent in the layer's own code")
		}
		rep.add("trace.overhead_pct", 100*(median(tracedWalls)/median(walls)-1), "%",
			fmt.Sprintf("traced vs untraced round wall, medians of %d and %d rounds", len(tracedWalls), len(walls)))
		path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("# spans written to %s\n", path)
	}
	fmt.Printf("# %s seed=%d: %d operations attempted, %d failed\n", name, seed, b.attempted, b.failed)
	return res, nil
}

// selfLayers are the layers spans are recorded for: the benchmark's own
// round loop and checks, and the modules behind the calls it times.
var selfLayers = []string{"bench", "explore", "core", "service", "shard"}

// report fills the result and prints each metric with its unit and note.
type report struct{ res *result }

func (r *report) add(name string, v float64, unit, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("%-32s %14.6g %-6s %s\n", name, v, unit, note)
}

// endToEnd reports the end-to-end metrics. Every workload must report
// every one of them. Where no verdict cache is on the path (cached false),
// there are no hits: a repeated request would run the same search, so the
// hit percentiles report the cold samples and say so.
func endToEnd(rep *report, b *bench, cached bool, setups, walls []float64, selfRSS, childRSS float64) {
	var total float64
	for _, x := range walls {
		total += x
	}
	rep.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
	rep.add("wall_s", median(walls), "s", fmt.Sprintf("median round wall, %d rounds", len(walls)))
	rep.add("states_per_s", float64(b.states)/b.searchTime.Seconds(), "1/s",
		fmt.Sprintf("%d configurations in %.3f s of search calls", b.states, b.searchTime.Seconds()))
	rep.add("peak_rss_mb", math.Max(selfRSS, childRSS), "MB", fmt.Sprintf("self %.1f MB, largest child %.1f MB", selfRSS, childRSS))
	pct := func(name string, xs []float64, p float64, kind string) {
		rep.add(name, quantile(xs, p), "ms", fmt.Sprintf("%s, n=%d, %d beyond", kind, len(xs), beyond(len(xs), p)))
	}
	pct("cold_p50_ms", b.coldMs, 50, "uncached request latency")
	pct("cold_p95_ms", b.coldMs, 95, "uncached request latency")
	hits, kind := b.hitMs, "cached request latency"
	if !cached {
		hits, kind = b.coldMs, "not applicable, no cache on this path: cold samples"
	}
	pct("hit_p50_ms", hits, 50, kind)
	pct("hit_p95_ms", hits, 95, kind)
	rep.add("jobs_per_s", float64(b.ops)/total, "1/s", fmt.Sprintf("%d requests in %.3f s", b.ops, total))
}

// perLayer reports the per-layer metrics. Every traced round makes the same
// calls, so totals are divided by the number of traced rounds: a count is
// then fixed by the seed, whatever the machine's speed.
func perLayer(rep *report, ex *exploreStats, lay *layerStats, sim simResult, rounds int, workerRSS float64) {
	for _, eng := range []string{"packed", "pointer"} {
		e := sim[eng]
		rep.add("sim."+eng+".step_ns", e.stepNs, "ns", fmt.Sprintf("ApplyQuiet over %d walk configurations", e.configs))
		rep.add("sim."+eng+".clone_ns", e.cloneNs, "ns", "CloneInto into a reused configuration")
		rep.add("sim."+eng+".clone_bytes", e.cloneBytes, "B", "bytes allocated by one Clone")
	}

	perRound := 1 / float64(max(rounds, 1))
	states := float64(ex.states)
	rep.add("explore.visited", float64(ex.visited)*perRound, "count", "final-phase configurations the search calls of one round returned")
	rep.add("explore.search_s", ex.searchS*perRound, "s", "wall time inside the search calls of one round")
	rep.add("explore.alloc_bytes_per_state", float64(ex.allocBytes)/states, "B", "heap bytes allocated per configuration (both phases)")
	rep.add("explore.mallocs_per_state", float64(ex.mallocs)/states, "count", "heap objects allocated per configuration (both phases)")
	rep.add("explore.gc_cycles", float64(ex.gcCycles)*perRound, "count", "GC cycles completed during the search calls of one round")
	rep.add("explore.gc_pause_ms", float64(ex.gcPauseNs)/1e6*perRound, "ms", "stop-the-world pause during the search calls of one round")
	rep.add("explore.cpu_per_wall", ex.cpuS/ex.searchS, "ratio", "process CPU over wall inside search calls (ceiling 2.0)")
	rep.add("explore.levels", float64(ex.levels)*perRound, "count", "sealed BFS levels progress reported in one round")
	rep.add("explore.level_p50_ms", median(ex.levelMs), "ms", fmt.Sprintf("n=%d levels", len(ex.levelMs)))
	rep.add("explore.level_max_ms", maxOf(ex.levelMs), "ms", "slowest level")
	rep.add("explore.live_heap_mb_max", ex.heapMaxMB, "MB", "largest HeapInuse sampled at progress reports")
	rep.add("explore.spill_write_mb", float64(ex.writeBytes)/(1<<20)*perRound, "MB", "bytes written towards storage inside the search calls of one round")

	rep.add("core.checks", float64(lay.checks)*perRound, "count", "Searcher.CheckImpossibility calls in one round")
	rep.add("core.check_s", lay.checkS*perRound, "s", "wall time inside them")

	rep.add("service.submit_ms_p50", median(lay.submitMs), "ms", fmt.Sprintf("POST round trip on a miss, n=%d", len(lay.submitMs)))
	rep.add("service.queue_ms_p50", median(lay.queueMs), "ms", "202 received to Runner.Run entry (negative: the worker started first)")
	rep.add("service.run_ms_p50", median(lay.runMs), "ms", "inside Runner.Run")
	rep.add("service.settle_ms_p50", median(lay.settleMs), "ms", "Runner.Run return to terminal status seen")
	rep.add("service.cache_get_us_p50", median(lay.cacheGetUs), "us", fmt.Sprintf("Cache.Get, n=%d", len(lay.cacheGetUs)))
	rep.add("service.cache_put_us_p50", median(lay.cachePutUs), "us", fmt.Sprintf("Cache.Put, n=%d", len(lay.cachePutUs)))
	rep.add("service.hit_ratio", float64(lay.hits)/float64(max(lay.submissions, 1)), "ratio", fmt.Sprintf("%d of %d submissions answered from the cache", lay.hits, lay.submissions))
	rep.add("service.journal_bytes", float64(lay.journalBytes)/float64(max(lay.journalJobs, 1)), "B/job", "journal growth per submission")

	rep.add("shard.spawn_ms", median(lay.spawnMs), "ms", fmt.Sprintf("RunShardedSearch entry to first coordinator progress, n=%d", len(lay.spawnMs)))
	rep.add("shard.level_p50_ms", median(lay.shardLvlMs), "ms", fmt.Sprintf("n=%d levels", len(lay.shardLvlMs)))
	rep.add("shard.level_max_ms", maxOf(lay.shardLvlMs), "ms", "slowest sharded level")
	calls := float64(max(lay.shardCalls, 1))
	rep.add("shard.coord_cpu_s", lay.coordCPU/calls, "s", "coordinator CPU per sharded call")
	rep.add("shard.wire_mb", float64(lay.wireBytes)/calls/(1<<20), "MB", "computed: coordinator rchar+wchar per sharded call")
	rep.add("shard.worker_cpu_s", lay.workerCPU/calls, "s", "worker CPU per sharded call (RUSAGE_CHILDREN)")
	rep.add("shard.worker_rss_mb", workerRSS, "MB", "largest worker resident set (RUSAGE_CHILDREN)")
}
