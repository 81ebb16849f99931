package main

import (
	"context"
	"math/rand"
	"time"

	"kset"
)

// searchLoad drives the in-process workloads (exhaustive-serial and
// bounded-parallel): a closed loop of requests against kset.Searcher. The
// Searcher has no verdict cache, so every request runs its search.
type searchLoad struct {
	rng     *rand.Rand
	next    func() []*searchJob
	targets []simTarget
}

// searchJob is one generated request: a FindConsensusFailure (shape set)
// or a CheckImpossibility (check set).
type searchJob struct {
	shape  *searchShape
	check  *checkShape
	search *kset.Searcher
	req    kset.SearchRequest
	inst   kset.ImpossibilityInstance
}

func newSerialLoad(seed int64, _ string, b *bench) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	l := &searchLoad{rng: rng}
	searchers := make([]*kset.Searcher, len(serialShapes))
	for i, sh := range serialShapes {
		s, err := newShapeSearcher(sh, 1, "", "on")
		if err != nil {
			return nil, err
		}
		searchers[i] = s
		alg, err := kset.NewAlgorithm(sh.alg, sh.f)
		if err != nil {
			return nil, err
		}
		l.targets = append(l.targets, simTarget{alg: alg, inputs: uniformInputs(sh.n, kset.Value(rng.Intn(1<<20)))})
	}
	checker, err := kset.NewSearcher(kset.Options{Workers: 1, Packed: "on"})
	if err != nil {
		return nil, err
	}
	l.next = func() []*searchJob {
		var jobs []*searchJob
		for i := range serialShapes {
			for r := 0; r < max(serialShapes[i].reps, 1); r++ {
				jobs = append(jobs, l.searchJob(&serialShapes[i], searchers[i]))
			}
		}
		for i := range checkShapes {
			cs := &checkShapes[i]
			inst, err := checkRequest(*cs, increasingInputs(rng, cs.n))
			if err != nil {
				panic(err) // the table's shapes are valid by construction
			}
			jobs = append(jobs, &searchJob{check: cs, search: checker, inst: inst})
		}
		return jobs
	}
	// Warm-up: one request of the uniform MinWait n=4 shape.
	for i := range serialShapes {
		if serialShapes[i].name == "minwait-n4" {
			l.run(b, l.searchJob(&serialShapes[i], searchers[i]))
		}
	}
	return l, nil
}

func newBoundedLoad(seed int64, _ string, b *bench) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	l := &searchLoad{rng: rng}
	sh := &boundedShape
	s, err := newShapeSearcher(*sh, 2, "spill", "on")
	if err != nil {
		return nil, err
	}
	alg, err := kset.NewAlgorithm(sh.alg, sh.f)
	if err != nil {
		return nil, err
	}
	l.targets = []simTarget{{alg: alg, inputs: uniformInputs(sh.n, kset.Value(rng.Intn(1<<20)))}}
	l.next = func() []*searchJob { return []*searchJob{l.searchJob(sh, s)} }
	l.run(b, l.searchJob(sh, s))
	return l, nil
}

// searchJob builds a request of the shape with a seeded uniform proposal
// value.
func (l *searchLoad) searchJob(sh *searchShape, s *kset.Searcher) *searchJob {
	req, err := shapeRequest(*sh, kset.Value(l.rng.Intn(1<<30)))
	if err != nil {
		panic(err) // the table's shapes are valid by construction
	}
	return &searchJob{shape: sh, search: s, req: req}
}

func (l *searchLoad) round(b *bench) {
	for _, j := range l.next() {
		l.run(b, j)
	}
}

// run makes one request and checks its outcome against the table.
func (l *searchLoad) run(b *bench, j *searchJob) {
	id := b.tr.id()
	var err error
	start := time.Now()
	if j.check != nil {
		rep, cerr := j.search.CheckImpossibility(context.Background(), j.inst)
		end := time.Now()
		b.tr.add(b.tr.id(), id, id, "core", "Searcher.CheckImpossibility", start, end)
		if b.lay != nil {
			b.lay.checks++
			b.lay.checkS += end.Sub(start).Seconds()
		}
		if err = checkReport(*j.check, rep, cerr); err == nil {
			b.searched(int64(rep.CondCStats.Visited), end.Sub(start))
		}
	} else {
		p := beginCall(b.ex)
		req := j.req
		req.OnProgress = p.progress()
		start = time.Now()
		w, found, serr := j.search.FindConsensusFailure(context.Background(), req)
		end := time.Now()
		if err = checkSearch(*j.shape, w, found, serr); err == nil {
			p.end(int64(w.Stats.Visited), j.shape.states)
			b.searched(j.shape.states, end.Sub(start))
		}
		b.tr.add(b.tr.id(), id, id, "explore", "Searcher.FindConsensusFailure", start, end)
	}
	end := time.Now()
	b.tr.add(id, b.round, id, "bench", "request", start, end)
	b.op(true, end.Sub(start), err)
}

func (l *searchLoad) cached() bool            { return false }
func (l *searchLoad) finish(*bench)           {}
func (l *searchLoad) simTargets() []simTarget { return l.targets }
func (l *searchLoad) close()                  {}
