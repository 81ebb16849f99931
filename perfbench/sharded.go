package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"kset"
	"kset/internal/service"
)

// shardLoad is the sharded-2p workload: each request runs
// service.RunShardedSearch with two worker processes, re-execs of this
// binary into service.ShardWorkerMain with GOMAXPROCS=1. There is no
// verdict cache on this path, so every request runs the search.
type shardLoad struct {
	exe       string
	tags      *uniqueValues
	first     *service.Verdict
	firstSpec service.InstanceSpec
	targets   []simTarget
}

func newShardLoad(seed int64, _ string, b *bench) (workload, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	l := &shardLoad{exe: exe, tags: newUniqueValues(rng, 80_000, 1<<30)}
	alg, err := kset.NewAlgorithm(shardedShape.alg, shardedShape.f)
	if err != nil {
		return nil, err
	}
	l.targets = []simTarget{{alg: alg, inputs: kset.DistinctInputs(shardedShape.n)}}
	l.run(b, l.spec())
	return l, nil
}

// spec is a sharded-search spec on the packed engine, like
// bounded-parallel's. ksetd's search goal fixes the proposals, so the
// seeded input is the max_configs tag: far above the 8,546 configurations
// the search needs, it changes the digest and not the work.
func (l *shardLoad) spec() service.InstanceSpec {
	sh := shardedShape
	return service.InstanceSpec{
		Alg: sh.alg, N: sh.n, F: sh.f, Budget: sh.budget, Goal: service.GoalSearch,
		Symmetry: true, POR: true, Workers: 1, Packed: "on", MaxConfigs: l.tags.next(),
	}
}

func (l *shardLoad) workerArgs(url string, shard int) []string {
	return []string{l.exe, shardWorkerArg, url, strconv.Itoa(shard)}
}

func (l *shardLoad) round(b *bench) { l.run(b, l.spec()) }

// run makes one sharded search and checks its verdict against the table.
func (l *shardLoad) run(b *bench, spec service.InstanceSpec) {
	d, err := service.KsetRunner{}.Digest(spec)
	if err != nil {
		b.check(err)
		return
	}
	id := b.tr.id()
	p := beginCall(b.ex)
	cfg := service.ShardConfig{Spec: spec, Shards: 2, WorkerArgs: l.workerArgs}
	var lvl []float64
	var last time.Time
	if hook := p.progress(); hook != nil {
		cfg.OnProgress = func(u service.ProgressUpdate) {
			now := time.Now()
			if u.Level >= 0 && !last.IsZero() {
				lvl = append(lvl, ms(now.Sub(last)))
			}
			last = now
			hook(u.Visited, u.Level)
		}
	}
	cpu0, _ := usage(syscall.RUSAGE_SELF)
	child0, _ := usage(syscall.RUSAGE_CHILDREN)
	io0 := readProcIO()
	start := time.Now()
	v, err := service.RunShardedSearch(context.Background(), cfg)
	callEnd := time.Now()
	b.tr.add(b.tr.id(), id, id, "shard", "RunShardedSearch", start, callEnd)
	if err == nil {
		err = checkShardVerdict(v, d)
	}
	if err == nil {
		p.end(int64(v.Visited), shardedShape.states)
		b.searched(shardedShape.states, callEnd.Sub(start))
		if l.first == nil {
			l.first, l.firstSpec = v, spec
		}
	}
	if b.lay != nil {
		cpu, _ := usage(syscall.RUSAGE_SELF)
		child, _ := usage(syscall.RUSAGE_CHILDREN)
		io := readProcIO()
		b.lay.shardCalls++
		b.lay.coordCPU += cpu - cpu0
		b.lay.workerCPU += child - child0
		b.lay.wireBytes += io.rchar - io0.rchar + io.wchar - io0.wchar
		b.lay.shardLvlMs = append(b.lay.shardLvlMs, lvl...)
		if n := len(b.ex.firstProgressMs); n > 0 {
			b.lay.spawnMs = append(b.lay.spawnMs, b.ex.firstProgressMs[n-1])
		}
	}
	end := time.Now()
	b.tr.add(id, b.round, id, "bench", "request", start, end)
	b.op(true, end.Sub(start), err)
}

func checkShardVerdict(v *service.Verdict, digest string) error {
	sh := shardedShape
	if v.Digest != digest || !v.Found || v.WitnessKind != sh.kind || v.Visited != sh.visited || v.Truncated ||
		!strings.HasPrefix(v.Summary, sh.kind+" witness: ") {
		return fmt.Errorf("sharded verdict %+v, want digest %s, found %s witness, visited %d", *v, digest, sh.kind, sh.visited)
	}
	return nil
}

// finish runs the first sharded spec once more without sharding, on
// bounded-parallel's engine settings (two workers, spill store, packed),
// and requires the identical verdict — witness detail included.
func (l *shardLoad) finish(b *bench) {
	if l.first == nil {
		return
	}
	spec := l.firstSpec
	spec.Workers, spec.Store, spec.Packed = 2, "spill", "on"
	v, err := service.KsetRunner{}.Run(context.Background(), spec, nil)
	if err == nil && (v.Digest != l.first.Digest || v.Summary != l.first.Summary || v.Found != l.first.Found ||
		v.WitnessKind != l.first.WitnessKind || v.WitnessDetail != l.first.WitnessDetail ||
		v.Visited != l.first.Visited || v.Truncated != l.first.Truncated) {
		err = fmt.Errorf("unsharded verdict %+v differs from sharded %+v", *v, *l.first)
	}
	b.check(err)
}

func (l *shardLoad) cached() bool            { return false }
func (l *shardLoad) simTargets() []simTarget { return l.targets }
func (l *shardLoad) close()                  {}
