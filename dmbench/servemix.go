package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Serve-mix parameters.
const (
	serveCopies     = 2       // copies of the 360-job mix per pass
	serveDesigns    = 6       // inline presets
	serveScale      = 0.05    // inline preset scale
	serveCacheBytes = 4 << 20 // below the mix's 4-8 MiB artifact working set
	serveWait       = "60s"   // long-poll per GET
	serveTimeout    = time.Minute
)

// serveMix drives the dmopt-serve handler on loopback with a closed loop
// of nproc clients, each submitting a job and waiting for its result
// before sending the next, as design-flow scripts do.
type serveMix struct {
	specs []api.JobSpec
	keys  []string // canonical form of each job as the server runs it
	// want holds the direct api.Run results of the checked specs, by
	// canonical form.
	want map[string]*api.JobResult
}

func (*serveMix) workers() int { return 1 }

// mixDesigns returns the six inline presets, derived from the two
// smaller Table I designs and re-seeded by the design seed.  The small
// designs keep a job near the ~10 ms a design-flow script's request
// costs.
func mixDesigns(designSeed int64) []gen.Preset {
	base := []gen.Preset{gen.AES65(), gen.AES90()}
	designs := make([]gen.Preset, serveDesigns)
	for i := range designs {
		p := base[i%len(base)]
		p.Name = fmt.Sprintf("mix%d-%s", i, p.Name)
		p.Seed += int64(i+1)*7919 + designSeed*1_000_003
		designs[i] = p
	}
	return designs
}

var (
	mixDeltas = []float64{2, 2.5, 3}
	mixGrids  = []float64{5, 10}
	mixModes  = []string{api.ModeQP, api.ModeQCP, "joint"}
)

func mixSpec(p gen.Preset, delta, g float64, mode string) api.JobSpec {
	s := api.JobSpec{Preset: &p, Scale: serveScale, Delta: delta, GridUm: g, Mode: mode}
	if mode == "joint" {
		s.Mode, s.Actuators = api.ModeQP, api.ActuatorsJoint
	}
	return s
}

// mixSpecs builds the job sequence: every combination of the six
// inline presets, δ and G, as 5 QP, 3 QCP and 2 joint-QP jobs,
// serveCopies times over, in an order drawn from the workload seed.
// The mix is exact, so every seed sends the same work and only the
// interleaving (dedupe, cache order) changes.
func mixSpecs(seed, designSeed int64) []api.JobSpec {
	var specs []api.JobSpec
	for _, p := range mixDesigns(designSeed) {
		for _, delta := range mixDeltas {
			for _, g := range mixGrids {
				for m, n := range []int{5, 3, 2} { // QP, QCP, joint jobs per combination
					for j := 0; j < n*serveCopies; j++ {
						specs = append(specs, mixSpec(p, delta, g, mixModes[m]))
					}
				}
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// setup draws the job sequence, computes the expected results of the
// checked specs with a direct api.Run of each, and starts and stops a
// server once.  The checked specs are one per base design and mode,
// covering every preset, δ and G between them; they do not depend on
// the seed, so the set-up cost does not either.  Every job of a checked
// spec is compared with its expected result.
func (s *serveMix) setup(ctx context.Context, b *bench) error {
	s.specs = mixSpecs(b.seed, b.designSeed)
	s.keys = make([]string, len(s.specs))
	for i, spec := range s.specs {
		spec.Workers = 1 // the server clamps every job to JobWorkers
		s.keys[i] = spec.MarshalCanonical()
	}
	designs := mixDesigns(b.designSeed)
	s.want = map[string]*api.JobResult{}
	for base := 0; base < 2; base++ {
		for m, mode := range mixModes {
			spec := mixSpec(designs[base+2*m], mixDeltas[(base+m)%len(mixDeltas)], mixGrids[(base+m)%len(mixGrids)], mode)
			spec.Workers = 1
			var res *api.JobResult
			err := b.call(ctx, "api.Run", func(ctx context.Context) (err error) {
				res, _, err = api.Run(ctx, spec)
				return err
			})
			if err != nil {
				return fmt.Errorf("reference run of %s: %w", spec.MarshalCanonical(), err)
			}
			s.want[spec.MarshalCanonical()] = res
		}
	}
	srv, err := startServer(obs.New(), 1)
	if err != nil {
		return err
	}
	defer srv.stop()
	resp, err := srv.client.Get(srv.base + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	return check(resp.StatusCode == http.StatusOK, "healthz: status %d", resp.StatusCode)
}

// liveServer is the dmopt-serve handler listening on loopback.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// startServer starts a server with an empty artifact cache, room for
// queue jobs, nproc running slots and one worker per job.
func startServer(rec *obs.Recorder, queue int) (*liveServer, error) {
	nproc := runtime.NumCPU()
	srv := serve.New(serve.Config{MaxRunning: nproc, MaxQueue: queue, JobWorkers: 1,
		CacheBytes: serveCacheBytes, KeepJobs: queue}, rec)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	l := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: nproc}, Timeout: serveTimeout},
	}
	go func() { l.served <- l.hs.Serve(ln) }()
	return l, nil
}

// stop cancels every job, drains the HTTP server and waits for it.
func (l *liveServer) stop() {
	l.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = l.hs.Shutdown(ctx) // every job is canceled, so handlers return promptly
	<-l.served
	l.client.CloseIdleConnections()
}

// jobOutcome is what one client saw of one job.
type jobOutcome struct {
	view    serve.JobView
	latency time.Duration
	err     error
}

// pass starts a server, sends the whole job sequence through nproc
// closed-loop clients, checks every outcome and stops the server.
func (s *serveMix) pass(ctx context.Context, b *bench) error {
	rec := obs.From(ctx)
	traced := rec != nil
	if !traced {
		rec = obs.New() // the server always keeps its own counters
	}
	srv, err := startServer(rec, len(s.specs))
	if err != nil {
		return err
	}
	defer srv.stop()
	out := make([]jobOutcome, len(s.specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.specs) || ctx.Err() != nil {
					return
				}
				jctx, h := b.tr.begin(ctx, "serve.handler")
				t0 := time.Now()
				v, err := submitAndWait(jctx, srv.client, srv.base, s.specs[i])
				out[i] = jobOutcome{view: v, latency: time.Since(t0), err: err}
				if traced {
					// The program keeps only the last solve's supernode
					// width; sample it after every job.
					b.maxExtra("qp.supernode_cols_max", rec.Gauge("qp/supernode_cols_max"))
				}
				if err == nil && v.Started != nil && v.Finished != nil {
					b.tr.add(jctx, "serve.queue", v.Submitted, *v.Started)
					b.tr.add(jctx, "serve.run", *v.Started, *v.Finished)
				}
				h.end()
			}
		}()
	}
	wg.Wait()

	var queue, runT, transport []float64
	for i, o := range out {
		err := o.err
		if err == nil {
			err = check(o.view.State == serve.StateDone && o.view.Result != nil,
				"job %d ended %s: %s", i, o.view.State, o.view.Error)
		}
		if want := s.want[s.keys[i]]; err == nil && want != nil {
			err = check(sameResult(want, o.view.Result), "job %d: served result differs from a direct api.Run", i)
		}
		b.op(o.latency, err)
		if err != nil {
			continue
		}
		v := o.view
		q, r := v.Started.Sub(v.Submitted), v.Finished.Sub(*v.Started)
		queue = append(queue, ms(q))
		runT = append(runT, ms(r))
		transport = append(transport, ms(o.latency-q-r))
		res := v.Result
		b.sign(s.keys[i], res.NominalMCTPs, res.NominalLeakUW, res.MCTPs, res.LeakUW)
		if v.Spec.Mode == api.ModeQCP {
			b.note("mct_gain_pct", res.MCTImpPct)
		} else {
			b.note("leak_saving_pct", res.LeakImpPct)
		}
	}
	sort.Float64s(queue)
	sort.Float64s(runT)
	sort.Float64s(transport)
	b.setExtra("serve.queue_wait_p50_ms", quantile(queue, 0.5))
	b.setExtra("serve.queue_wait_p99_ms", quantile(queue, 0.99))
	b.setExtra("serve.run_p50_ms", quantile(runT, 0.5))
	b.setExtra("serve.run_p99_ms", quantile(runT, 0.99))
	b.setExtra("serve.transport_ms", quantile(transport, 0.5))
	return ctx.Err()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// submitAndWait posts a job and long-polls it until it is terminal.
func submitAndWait(ctx context.Context, c *http.Client, base string, spec api.JobSpec) (serve.JobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return serve.JobView{}, err
	}
	v, err := doJSON(ctx, c, http.MethodPost, base+"/v1/jobs", body, http.StatusAccepted)
	for err == nil && !v.State.Terminal() {
		v, err = doJSON(ctx, c, http.MethodGet, base+"/v1/jobs/"+v.ID+"?wait="+serveWait, nil, http.StatusOK)
	}
	return v, err
}

func doJSON(ctx context.Context, c *http.Client, method, url string, body []byte, want int) (serve.JobView, error) {
	var v serve.JobView
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return v, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return v, fmt.Errorf("%s %s: status %d", method, url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if v.ID == "" {
		return v, errors.New("reply without a job id")
	}
	return v, nil
}

// sameResult reports whether two results carry bit-identical numbers:
// everything but the solve wall time.  JSON encodes every float64 in
// its shortest round-tripping form, so equal encodings mean equal bits.
func sameResult(a, b *api.JobResult) bool {
	x, y := *a, *b
	x.RuntimeNS, y.RuntimeNS = 0, 0
	ja, err1 := json.Marshal(x)
	jb, err2 := json.Marshal(y)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}
