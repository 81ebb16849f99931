package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kset"
	"kset/internal/service"
)

// ksetdLoad is the ksetd-mix workload: an in-process service.Server
// (KsetRunner, DiskCache, Journal in a temporary directory) behind loopback
// HTTP, driven by one closed-loop client. Each round submits perRound
// seeded specs; exactly half resubmit an earlier spec of the round and must
// come back from the cache.
//
// The Runner and Cache handed to service.New are decorators that timestamp
// the calls and tell the client when Runner.Run has returned, so the client
// waits on an event instead of sleep-polling; it then reads the job status
// until it is terminal.
type ksetdLoad struct {
	dir     string
	journal string
	srv     *service.Server
	hs      *http.Server
	url     string
	client  *http.Client
	rng     *rand.Rand
	tags    *uniqueValues
	targets []simTarget

	mu  sync.Mutex
	cur *inflight // the one request in flight (closed loop, one client)
}

const ksetdPerRound = 200

// inflight is the client's record of its current request, shared with the
// decorators.
// The decorators run on server goroutines: they read only these fields and
// write under ksetdLoad.mu or before closing ran.
type inflight struct {
	tag  int // the spec's max_configs, unique per cold spec
	tr   *tracer
	span int64
	ex   *exploreStats
	lay  *layerStats

	ran         chan struct{}
	entry, exit time.Time
	runE        error

	getUs, putUs []float64
}

func newKsetdLoad(seed int64, tmp string, b *bench) (workload, error) {
	dir, err := os.MkdirTemp(tmp, "ksetd-")
	if err != nil {
		return nil, err
	}
	l := &ksetdLoad{dir: dir, journal: filepath.Join(dir, "journal.jsonl")}
	rng := rand.New(rand.NewSource(seed))
	l.rng = rng
	l.tags = newUniqueValues(rng, 80_000, 1<<30)
	alg, err := kset.NewAlgorithm(ksetdCold.alg, ksetdCold.f)
	if err != nil {
		return nil, err
	}
	l.targets = []simTarget{{alg: alg, inputs: kset.DistinctInputs(ksetdCold.n)}}
	journal, err := service.OpenJournal(l.journal)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	cache, err := service.NewDiskCache(filepath.Join(dir, "cache"))
	if err != nil {
		journal.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	l.srv = service.New(service.Config{
		Runner:  &watchRunner{l: l},
		Cache:   &watchCache{inner: cache, l: l},
		Workers: 1,
		Journal: journal,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		l.srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	l.url = "http://" + ln.Addr().String()
	l.hs = &http.Server{Handler: l.srv.Handler()}
	go func() { _ = l.hs.Serve(ln) }()
	l.client = &http.Client{Timeout: time.Minute}
	// Warm-up: one cold submission and its repeat.
	sp := l.coldSpec()
	d := l.submit(b, sp, "")
	if d != "" {
		l.submit(b, sp, d)
	}
	return l, nil
}

func (l *ksetdLoad) coldSpec() service.InstanceSpec {
	return service.InstanceSpec{
		Alg: ksetdCold.alg, N: ksetdCold.n, F: ksetdCold.f, K: ksetdCold.k,
		Strategy: ksetdCold.strategy, Workers: 1, MaxConfigs: l.tags.next(),
	}
}

func (l *ksetdLoad) round(b *bench) {
	// Exactly half of the positions after the first repeat an earlier spec.
	hit := make([]bool, ksetdPerRound)
	for _, i := range l.rng.Perm(ksetdPerRound - 1)[:ksetdPerRound/2] {
		hit[i+1] = true
	}
	var size0 int64
	if b.lay != nil {
		size0 = fileSize(l.journal)
	}
	type done struct {
		spec   service.InstanceSpec
		digest string
	}
	var colds []done
	for i := 0; i < ksetdPerRound; i++ {
		if hit[i] && len(colds) > 0 {
			c := colds[l.rng.Intn(len(colds))]
			l.submit(b, c.spec, c.digest)
			continue
		}
		sp := l.coldSpec()
		if d := l.submit(b, sp, ""); d != "" {
			colds = append(colds, done{sp, d})
		}
	}
	if b.lay != nil {
		b.lay.journalBytes += fileSize(l.journal) - size0
		b.lay.journalJobs += ksetdPerRound
	}
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// submit posts one spec. wantDigest empty means the spec is new and must
// run; otherwise it is a repeat and must be answered from the cache with
// that digest. It returns the verdict's digest, or "" when the check failed.
func (l *ksetdLoad) submit(b *bench, spec service.InstanceSpec, wantDigest string) string {
	cold := wantDigest == ""
	cur := &inflight{tag: spec.MaxConfigs, tr: b.tr, span: b.tr.id(), ex: b.ex, lay: b.lay, ran: make(chan struct{})}
	l.mu.Lock()
	l.cur = cur
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		l.cur = nil
		if b.lay != nil {
			b.lay.cacheGetUs = append(b.lay.cacheGetUs, cur.getUs...)
			b.lay.cachePutUs = append(b.lay.cachePutUs, cur.putUs...)
		}
		l.mu.Unlock()
	}()

	start := time.Now()
	var resp service.SubmitResponse
	code, err := l.do(http.MethodPost, "/v1/jobs", spec, &resp)
	posted := time.Now()
	if b.lay != nil {
		b.lay.submissions++
	}
	var v *service.Verdict
	switch {
	case err != nil:
	case cold && code != http.StatusAccepted:
		err = fmt.Errorf("new spec answered %d (cached=%t), want 202", code, resp.Cached)
	case !cold && (code != http.StatusOK || !resp.Cached || resp.Digest != wantDigest):
		err = fmt.Errorf("repeat of %s answered %d (cached=%t, digest %s), want a cache hit", wantDigest, code, resp.Cached, resp.Digest)
	case !cold:
		v = resp.Verdict
		if b.lay != nil {
			b.lay.hits++
		}
	default:
		v, err = l.await(cur, resp.JobID)
	}
	end := time.Now()
	if err == nil {
		err = checkKsetdVerdict(v, resp.Digest)
	}
	if cold && err == nil && b.lay != nil {
		b.lay.submitMs = append(b.lay.submitMs, ms(posted.Sub(start)))
		b.lay.queueMs = append(b.lay.queueMs, ms(cur.entry.Sub(posted)))
		b.lay.runMs = append(b.lay.runMs, ms(cur.exit.Sub(cur.entry)))
		b.lay.settleMs = append(b.lay.settleMs, ms(end.Sub(cur.exit)))
	}
	name := "POST /v1/jobs (hit)"
	if cold {
		name = "POST /v1/jobs + status (cold)"
		if err == nil {
			b.searched(int64(v.Visited), cur.exit.Sub(cur.entry))
		}
	}
	b.tr.add(cur.span, b.round, cur.span, "service", name, start, end)
	b.op(cold, end.Sub(start), err)
	if err != nil {
		return ""
	}
	return resp.Digest
}

// await waits for the decorated Runner.Run to return, then reads the job
// status until the server has settled it.
func (l *ksetdLoad) await(cur *inflight, id string) (*service.Verdict, error) {
	select {
	case <-cur.ran:
	case <-time.After(time.Minute):
		return nil, fmt.Errorf("job %s: Runner.Run did not return within a minute", id)
	}
	if cur.runE != nil {
		return nil, fmt.Errorf("job %s: %w", id, cur.runE)
	}
	for i := 0; ; i++ {
		var st service.JobStatus
		if _, err := l.do(http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
			return nil, err
		}
		switch st.State {
		case service.StateDone:
			return st.Verdict, nil
		case service.StateFailed, service.StateCancelled:
			return nil, fmt.Errorf("job %s settled %s: %s", id, st.State, st.Error)
		}
		if i == 100_000 {
			return nil, fmt.Errorf("job %s not settled after %d status reads", id, i)
		}
	}
}

func checkKsetdVerdict(v *service.Verdict, digest string) error {
	if v == nil {
		return errors.New("no verdict")
	}
	want := ksetdCold
	if v.Digest != digest || v.Summary != want.summary || !v.Refuted || v.Violation != want.violation ||
		v.WitnessKind != want.kind || v.Visited != want.visited || v.Truncated {
		return fmt.Errorf("verdict %+v, want digest %s, summary %q, %s witness, visited %d", *v, digest, want.summary, want.kind, want.visited)
	}
	return nil
}

func (l *ksetdLoad) do(method, path string, body any, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, l.url+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

func (l *ksetdLoad) current() *inflight {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cur
}

func (l *ksetdLoad) cached() bool            { return true }
func (l *ksetdLoad) finish(*bench)           {}
func (l *ksetdLoad) simTargets() []simTarget { return l.targets }

func (l *ksetdLoad) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = l.hs.Shutdown(ctx)
	_ = l.srv.Shutdown(ctx)
	os.RemoveAll(l.dir)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// watchRunner wraps the production KsetRunner: it timestamps Run, feeds
// the traced explore probe, and signals the waiting client.
type watchRunner struct {
	inner service.KsetRunner
	l     *ksetdLoad
}

func (r *watchRunner) Digest(spec service.InstanceSpec) (string, error) { return r.inner.Digest(spec) }

func (r *watchRunner) Run(ctx context.Context, spec service.InstanceSpec, progress func(service.ProgressUpdate)) (*service.Verdict, error) {
	cur := r.l.current()
	if cur == nil || cur.tag != spec.MaxConfigs {
		return r.inner.Run(ctx, spec, progress)
	}
	p := beginCall(cur.ex)
	if hook := p.progress(); hook != nil {
		inner := progress
		progress = func(u service.ProgressUpdate) {
			if u.Degraded == "" {
				hook(u.Visited, u.Level)
			}
			if inner != nil {
				inner(u)
			}
		}
	}
	cur.entry = time.Now()
	v, err := r.inner.Run(ctx, spec, progress)
	cur.exit = time.Now()
	if v != nil {
		p.end(int64(v.Visited), int64(v.Visited))
	}
	cur.tr.add(cur.tr.id(), cur.span, cur.span, "core", "Runner.Run", cur.entry, cur.exit)
	cur.runE = err
	close(cur.ran)
	return v, err
}

// watchCache wraps the DiskCache, timing Get and Put in traced rounds.
type watchCache struct {
	inner *service.DiskCache
	l     *ksetdLoad
}

func (c *watchCache) Get(digest string) (*service.Verdict, bool, error) {
	start := time.Now()
	v, ok, err := c.inner.Get(digest)
	c.record("Cache.Get", start, time.Now(), true)
	return v, ok, err
}

func (c *watchCache) Put(digest string, v *service.Verdict) error {
	start := time.Now()
	err := c.inner.Put(digest, v)
	c.record("Cache.Put", start, time.Now(), false)
	return err
}

func (c *watchCache) Len() (int, error) { return c.inner.Len() }

func (c *watchCache) record(name string, start, end time.Time, get bool) {
	cur := c.l.current()
	if cur == nil || cur.lay == nil {
		return
	}
	cur.tr.add(cur.tr.id(), cur.span, cur.span, "service", name, start, end)
	us := float64(end.Sub(start)) / 1e3
	c.l.mu.Lock()
	if get {
		cur.getUs = append(cur.getUs, us)
	} else {
		cur.putUs = append(cur.putUs, us)
	}
	c.l.mu.Unlock()
}
