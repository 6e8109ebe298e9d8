package main

import (
	"bufio"
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
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wlansim/internal/channel"
	"wlansim/internal/core"
	"wlansim/internal/measure"
	"wlansim/internal/phy"
	"wlansim/internal/randutil"
	"wlansim/internal/seed"
	"wlansim/internal/service"
	"wlansim/internal/service/store"
)

// The wlansimd settings the daemon-mix stack runs with: the daemon's
// defaults, plus a lock-step batch width as `wlansimd -batch 4` sets it.
const (
	daemonWorkers = 2
	daemonQueue   = 16
	daemonBatch   = 4
)

// timedStore is the traced run's decorator around the store handed to the
// manager: it times every Get and Put.
type timedStore struct {
	store.Store
	mu       sync.Mutex
	get, put []float64 // microseconds
}

func (t *timedStore) Get(key uint64) (measure.Point, bool) {
	t0 := time.Now()
	p, ok := t.Store.Get(key)
	d := time.Since(t0).Seconds() * 1e6
	t.mu.Lock()
	t.get = append(t.get, d)
	t.mu.Unlock()
	return p, ok
}

func (t *timedStore) Put(key uint64, p measure.Point) error {
	t0 := time.Now()
	err := t.Store.Put(key, p)
	d := time.Since(t0).Seconds() * 1e6
	t.mu.Lock()
	t.put = append(t.put, d)
	t.mu.Unlock()
	return err
}

// stack is the wlansimd composition in-process: a tiered store (memory LRU
// over a disk segment), the job manager and its HTTP handler on a loopback
// listener.
type stack struct {
	st     store.Store
	timed  *timedStore
	mgr    *service.Manager
	srv    *http.Server
	url    string
	served chan error
}

// openStack opens the store in dir (recovering whatever it holds) and
// starts the manager and the listener.
func openStack(dir string, traced bool) (*stack, error) {
	disk, err := store.OpenDisk(dir, store.DefaultSyncEvery)
	if err != nil {
		return nil, err
	}
	s := &stack{st: store.NewTiered(store.NewMemory(store.DefaultMemoryBytes), disk)}
	managed := s.st
	if traced {
		s.timed = &timedStore{Store: s.st}
		managed = s.timed
	}
	start := time.Now()
	s.mgr = service.New(service.Config{
		Store:      managed,
		Workers:    daemonWorkers,
		QueueDepth: daemonQueue,
		Batch:      daemonBatch,
		Clock:      func() time.Duration { return time.Since(start) },
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.mgr.Drain() // nothing submitted yet; the store is closed below
		_ = s.st.Close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: service.NewHandler(s.mgr)}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close drains the manager (which flushes the store), stops the server,
// waits for it, and closes the store. It returns the flush time.
func (s *stack) close() (time.Duration, error) {
	t0 := time.Now()
	derr := s.mgr.Drain()
	flush := time.Since(t0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	serr := s.srv.Shutdown(ctx)
	<-s.served
	cerr := s.st.Close()
	return flush, errors.Join(derr, serr, cerr)
}

// streamLine mirrors one NDJSON record of the service's stream endpoint.
type streamLine struct {
	Index  int                `json:"index"`
	Point  *measure.Point     `json:"point,omitempty"`
	Status *service.JobStatus `json:"status,omitempty"`
}

// jobReport is the client's view of one job.
type jobReport struct {
	first, total time.Duration // POST to the first point, to the final line
	points       []measure.Point
	status       service.JobStatus
}

// runJob submits spec, streams the job to completion and checks the
// exchange: any non-2xx answer (429 included), a failed job, a short or
// out-of-order stream, or a final series that differs from the stream is an
// error.
func runJob(ctx context.Context, client *http.Client, base string, spec service.SweepSpec) (*jobReport, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	var accepted service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+accepted.ID+"/stream", nil)
	if err != nil {
		return nil, err
	}
	resp, err = client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	rep := &jobReport{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		if line.Status != nil {
			rep.total = time.Since(t0)
			rep.status = *line.Status
			break
		}
		if line.Point == nil || line.Index != len(rep.points) {
			return nil, fmt.Errorf("stream: record %d out of order", line.Index)
		}
		if len(rep.points) == 0 {
			rep.first = time.Since(t0)
		}
		rep.points = append(rep.points, *line.Point)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	st := rep.status
	switch {
	case rep.total == 0:
		return nil, fmt.Errorf("stream ended without a status line")
	case st.State != service.JobDone:
		return nil, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	case len(rep.points) != len(st.Spec.Values) || st.Series == nil || !samePoints(st.Series.Points, rep.points):
		return nil, fmt.Errorf("job %s: streamed points differ from the final series", st.ID)
	}
	return rep, nil
}

// jobClass is a daemon-mix job's role in the mix.
type jobClass int

const (
	cold    jobClass = iota // a new seed: every point is computed
	warm                    // a repeat of a completed spec: every point is stored
	overlap                 // half the grid of a completed spec, half new points
)

// cycle is each client's job sequence, repeated: the proportions stay fixed
// so the metrics of one run are comparable with the next. The 1:2:1
// cold:warm:overlap mix is an assumption; no recorded wlansimd traffic
// exists to take it from. Each run reports the store-served share of points
// it saw.
var cycle = []jobClass{cold, warm, overlap, warm}

// coldSpec returns the n-th cold spec of a client: the kinds rotate through
// snr on the behavioral front end (the default path into the batched
// pipeline), evm and fig6, each with a fresh seed. Grid and packet count are
// left out, so Canonicalize applies each kind's defaults.
func coldSpec(n int, rng *rand.Rand) service.SweepSpec {
	s := service.SweepSpec{Seed: 1 + rng.Int63n(1<<62)}
	switch n % 3 {
	case 0:
		s.Kind, s.FrontEnd = "snr", "behavioral"
	case 1:
		s.Kind = "evm"
	default:
		s.Kind = "fig6"
	}
	return s
}

// overlapSpec shifts a canonical spec's grid by half its length: the first
// half of the new grid is stored, the second half is new.
func overlapSpec(c service.SweepSpec) service.SweepSpec {
	v := c.Values
	step := v[1] - v[0]
	next := append([]float64(nil), v[len(v)/2:]...)
	for len(next) < len(v) {
		next = append(next, next[len(next)-1]+step)
	}
	c.Values = next
	return c
}

// registry holds the first serving of every point key; every later serving
// of the key must match it bit for bit.
type registry struct {
	mu     sync.Mutex
	points map[uint64]measure.Point
}

// check registers or compares the points of a served canonical spec.
func (r *registry) check(spec service.SweepSpec, pts []measure.Point) bool {
	keys := service.PointKeys(spec)
	r.mu.Lock()
	defer r.mu.Unlock()
	ok := len(keys) == len(pts)
	for i := 0; ok && i < len(keys); i++ {
		if prev, seen := r.points[keys[i]]; seen {
			ok = samePoints([]measure.Point{prev}, pts[i:i+1])
		} else {
			r.points[keys[i]] = pts[i]
		}
	}
	return ok
}

// inProcess runs a canonical spec of the kinds daemon-mix submits through
// the core harness the service maps it onto.
func inProcess(spec service.SweepSpec) (*measure.Series, error) {
	var base core.Config
	switch spec.Kind {
	case "fig6":
		base = core.Figure6Config()
	default:
		base = core.DefaultConfig()
	}
	base.RateMbps = spec.RateMbps
	base.PSDULen = spec.PSDULen
	base.Packets = spec.Packets
	base.Seed = spec.Seed
	base.WantedPowerDBm = spec.PowerDBm
	base.TargetErrors = spec.TargetErrors
	switch spec.Kind {
	case "snr":
		fe := core.FrontEndIdeal
		if spec.FrontEnd == "behavioral" {
			fe = core.FrontEndBehavioral
		}
		fig, err := core.WaterfallBERvsSNROnFrontEnd(base, fe, []int{spec.RateMbps}, spec.Values)
		if err != nil {
			return nil, err
		}
		return fig.Series[0], nil
	case "evm":
		return core.EVMvsSNR(base, spec.Values)
	case "fig6":
		return core.CompressionPointSweep(base, spec.Values, spec.Adjacent)
	}
	return nil, fmt.Errorf("no in-process mirror for kind %q", spec.Kind)
}

// served is one completed op as the checks and metrics need it.
type served struct {
	class jobClass
	start time.Time // when the job was submitted
	rep   *jobReport
	ok    bool
}

// rssJobs is how many completed jobs daemon-mix samples its resident set
// over. The manager keeps every job it ran, so the resident set grows with
// the jobs done; sampling up to a fixed job count rather than through the
// whole window keeps a faster host from reading as more memory.
const rssJobs = 2000

// benchDir is where runs keep their scratch state, inside the checkout.
const benchDir = ".bench_build"

func runDaemon(o opts) (*outcome, error) {
	out := newOutcome()
	if err := os.MkdirAll(benchDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(benchDir, "daemon-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// Set-up: open the store (recovering an empty segment), start manager
	// and listener, and serve one one-point warm-up job end to end.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * runtime.NumCPU()}}
	defer client.CloseIdleConnections()
	st, err := openStack(root, o.trace)
	if err != nil {
		return nil, err
	}
	stOpen := true
	defer func() {
		if stOpen {
			st.close()
		}
	}()
	warmup := service.SweepSpec{Kind: "evm", Packets: 1, Points: 1, Seed: seed.Derive(o.seed, 0)}
	if _, err := runJob(context.Background(), client, st.url, warmup); err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	if o.setupDone() {
		return out, nil
	}
	if st.timed != nil {
		st.timed.mu.Lock()
		st.timed.get, st.timed.put = nil, nil
		st.timed.mu.Unlock()
	}

	reg := &registry{points: map[uint64]measure.Point{}}
	nClients := runtime.NumCPU()
	results := make([][]served, nClients)
	colds := make([][]int, nClients) // per client, the indexes of its cold jobs in results
	before := readRuntime()
	rss := startRSS()
	var jobsDone atomic.Int64
	start := time.Now()
	rate := newRateMeter(start)
	deadline := start.Add(seconds(o.seconds))
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed.Derive(o.seed, 1000+uint64(c))))
			var done []service.SweepSpec // canonical specs this client completed
			var lastCold *service.SweepSpec
			nCold := 0
			for i := 0; time.Now().Before(deadline); i++ {
				class := cycle[i%len(cycle)]
				if lastCold == nil {
					class = cold
				}
				var spec service.SweepSpec
				switch class {
				case cold:
					spec = coldSpec(nCold, rng)
					nCold++
				case warm:
					spec = done[rng.Intn(len(done))]
				case overlap:
					spec = overlapSpec(*lastCold)
				}
				t0 := time.Now()
				rep, err := runJob(context.Background(), client, st.url, spec)
				s := served{class: class, start: t0, rep: rep, ok: err == nil}
				if err == nil {
					rate.add(t0, t0.Add(rep.total), float64(rep.status.StoreMisses))
					canon := rep.status.Spec
					s.ok = reg.check(canon, rep.points)
					switch class {
					case cold:
						s.ok = s.ok && rep.status.StoreHits == 0
						lastCold = &canon
						colds[c] = append(colds[c], len(results[c]))
					case warm:
						s.ok = s.ok && rep.status.StoreMisses == 0
					}
					done = append(done, canon)
				} else {
					fmt.Fprintf(os.Stderr, "wlbench: daemon-mix client %d: %v\n", c, err)
				}
				results[c] = append(results[c], s)
				if jobsDone.Add(1) == rssJobs {
					go rss.halt()
				}
			}
		}(c)
	}
	wg.Wait()
	end := time.Now()
	wall := end.Sub(start).Seconds()
	after := readRuntime()
	out.e2e["rss_p90_mb"] = metric{rss.p90(), "MiB"}
	out.notef("rss_jobs %d count (rss_p90_mb sampled until this many jobs had completed)", min(jobsDone.Load(), rssJobs))
	out.notef("rss_peak_mb %.4f MiB (VmHWM)", rssPeakMB())

	// A seeded sample of cold jobs must match an in-process core run.
	sample := rand.New(rand.NewSource(seed.Derive(o.seed, 2000)))
	for c := range colds {
		for k := 0; k < 2 && len(colds[c]) > 0; k++ {
			job := &results[c][colds[c][sample.Intn(len(colds[c]))]]
			spec := job.rep.status.Spec
			want, err := inProcess(spec)
			if err != nil {
				return nil, err
			}
			if !samePoints(job.rep.points, want.Points) {
				job.ok = false
				out.notef("in-process check: %s seed %d differs from the served series", spec.Kind, spec.Seed)
			}
		}
	}

	var firstMS, warmMS, queueMS, runMS, clientMS []float64
	var firstAt []time.Time // when each cold job's first point arrived
	computed, hits, misses := 0, 0, 0
	for _, rs := range results {
		for _, s := range rs {
			out.record(s.ok)
			if s.rep == nil {
				continue
			}
			st := s.rep.status
			computed += st.StoreMisses
			hits += st.StoreHits
			misses += st.StoreMisses
			queueMS = append(queueMS, float64(st.StartedMs-st.SubmittedMs))
			runMS = append(runMS, float64(st.FinishedMs-st.StartedMs))
			clientMS = append(clientMS, s.rep.total.Seconds()*1e3)
			switch s.class {
			case cold:
				firstMS = append(firstMS, s.rep.first.Seconds()*1e3)
				firstAt = append(firstAt, s.start.Add(s.rep.first))
			case warm:
				warmMS = append(warmMS, s.rep.total.Seconds()*1e3)
			}
		}
	}

	stOpen = false
	flush, err := st.close()
	if err != nil {
		return nil, err
	}

	firstP90, okFirst := percentile(firstMS, 0.9)
	warmP50 := median(warmMS)
	warmP99, okWarm := percentile(warmMS, 0.99)
	sustained := rate.sustained(end)
	byArrival := make([]int, len(firstMS))
	for i := range byArrival {
		byArrival[i] = i
	}
	sort.Slice(byArrival, func(a, b int) bool { return firstAt[byArrival[a]].Before(firstAt[byArrival[b]]) })
	ordered := make([]float64, len(firstMS))
	for i, k := range byArrival {
		ordered[i] = firstMS[k]
	}
	out.windowedLatency(ordered, 0.9)
	out.e2e["throughput_per_s"] = metric{sustained, "1/s"}
	out.notef("cold_first_point_ms_p50 %.4f ms (%d cold jobs)", median(firstMS), len(firstMS))
	out.notef("cold_first_point_ms_p90 %.4f ms%s", firstP90, unsupported(okFirst, len(firstMS)))
	out.notef("cold_points_per_s %.4f /s median window; mean %.4f (%d computed points in %.2f s, %d clients)",
		sustained, float64(computed)/wall, computed, wall, nClients)
	out.notef("store_served_share %.4f ratio (%d of %d points served from the store)",
		float64(hits)/float64(hits+misses), hits, hits+misses)
	out.notef("warm_job_ms_p50 %.4f ms (%d warm jobs)", warmP50, len(warmMS))
	out.notef("warm_job_ms_p99 %.4f ms%s", warmP99, unsupported(okWarm, len(warmMS)))

	if o.trace {
		jobs := len(clientMS)
		out.layer["service.warm_job_ms_p50"] = metric{warmP50, "ms"}
		out.layer["service.queue_ms"] = metric{sum(queueMS) / float64(jobs), "ms"}
		out.layer["service.run_ms"] = metric{sum(runMS) / float64(jobs), "ms"}
		out.layer["service.store_hits"] = metric{float64(hits), "count"}
		out.layer["service.store_misses"] = metric{float64(misses), "count"}
		// The service spans (queue + run, from the job timestamps) cover
		// each job's client-side time but for HTTP and streaming.
		out.layer["trace.coverage"] = metric{(sum(queueMS) + sum(runMS)) / sum(clientMS), "ratio"}
		t := st.timed
		out.layer["store.get_us_p50"] = metric{median(t.get), "us"}
		out.layer["store.put_us_p50"] = metric{median(t.put), "us"}
		out.layer["store.flush_ms"] = metric{flush.Seconds() * 1e3, "ms"}
		ss := st.st.Stats()
		out.layer["store.hit_ratio"] = metric{ss.HitRate(), "ratio"}
		out.layer["store.bytes"] = metric{float64(ss.Bytes), "bytes"}
		out.layer["store.evictions"] = metric{float64(ss.Evictions), "count"}
		// The decorator's cost is two clock reads and a locked append per
		// store call; its share of the workers' busy time is the overhead.
		perCall := decoratorCost()
		calls := float64(len(t.get) + len(t.put))
		out.layer["trace.overhead_pct"] = metric{100 * calls * perCall / (float64(daemonWorkers) * wall), "%"}
		goLayer(out.layer, before, after, jobs)
		out.layer["channel.awgn_us"] = metric{awgnReplay(o.seed), "us"}
	}
	return out, nil
}

// awgnReplay times channel.AWGN.AddTo, the antenna-noise stage of the snr
// and evm jobs, on one 24 Mbit/s 100-octet packet's antenna waveform at
// oversample 1, and returns the median microseconds per call.
func awgnReplay(s int64) float64 {
	mode, err := phy.ModeByRate(24)
	if err != nil {
		return 0
	}
	nBits := phy.ServiceBits + 8*100 + phy.TailBits
	nSym := (nBits + mode.NDBPS() - 1) / mode.NDBPS()
	x := make([]complex128, leadInSamples+phy.PreambleLen+(1+nSym)*phy.SymbolLen+tailSamples)
	rng := randutil.NewRandDirect(s)
	var us []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		channel.AWGNFrom(1e-9, rng).AddTo(x)
		us = append(us, time.Since(t0).Seconds()*1e6)
	}
	return median(us)
}

// decoratorCost measures the timing decorator's own cost per call, in
// seconds, around a store call that does nothing.
func decoratorCost() float64 {
	t := &timedStore{Store: nopStore{}}
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.Get(uint64(i))
	}
	d := time.Since(t0).Seconds()
	t0 = time.Now()
	var s nopStore
	for i := 0; i < n; i++ {
		s.Get(uint64(i))
	}
	return (d - time.Since(t0).Seconds()) / n
}

// nopStore is an empty store for calibrating the decorator.
type nopStore struct{}

func (nopStore) Get(uint64) (measure.Point, bool) { return measure.Point{}, false }
func (nopStore) Put(uint64, measure.Point) error  { return nil }
func (nopStore) Flush() error                     { return nil }
func (nopStore) Close() error                     { return nil }
func (nopStore) Stats() store.Stats               { return store.Stats{} }
