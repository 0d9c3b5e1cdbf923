package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"github.com/soferr/soferr"
	"github.com/soferr/soferr/internal/benchsim"
	"github.com/soferr/soferr/internal/design"
	"github.com/soferr/soferr/internal/experiments"
	"github.com/soferr/soferr/internal/server"
	profiles "github.com/soferr/soferr/internal/workload"
)

// Sizes of the layer replays in a traced run.
const (
	// replayRequests is how many serve-hit stream requests the soferr
	// and handler replays run.
	replayRequests = 4096
	// replayMiss is how many serve-miss requests per client the
	// Monte-Carlo replay runs: the mix four times.
	replayMiss = missRound
	// httpProbe is the traced loopback phase that splits a round trip
	// into handler and transport time.
	httpProbe = 1500 * time.Millisecond
)

// reproPrograms are the programs one reproduction simulates: every
// bundled benchmark (Section 5.1 uses all of them) plus the phased
// program of the macro-phase extension.
func reproPrograms() []string { return append(profiles.Names(), "phased-int") }

// tracedRun measures the workload untraced and then traced for half of
// d each, replays every layer's calls inside spans, writes the spans
// under out, and returns the per-layer metrics.
func tracedRun(ctx context.Context, wl *workload, seed uint64, d time.Duration, out string) (result, error) {
	b, err := wl.setup(ctx, seed)
	if err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	defer b.close()
	plain, err := b.run(ctx, d/2, nil)
	if err != nil {
		return result{}, err
	}
	rec := newRecorder()
	traced, err := b.run(ctx, d/2, rec)
	if err != nil {
		return result{}, err
	}
	res := result{
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   map[string]metric{},
	}
	m := res.Metrics
	m["bench.trace_overhead_s"] = metric{median(roundWalls(traced)) - median(roundWalls(plain)), "s"}
	ops := float64(plain.attempted)
	if !plain.requests {
		ops = float64(len(plain.rounds))
	}
	m["runtime.gc_cycles"] = metric{float64(plain.runtime.gcCycles), "count"}
	m["runtime.gc_pause_ms"] = metric{plain.runtime.pause.Seconds() * 1e3, "ms"}
	m["runtime.alloc_mb_per_op"] = metric{float64(plain.runtime.allocBytes) / 1e6 / ops, "MB"}

	from := 0
	if wl.name != "repro" {
		from = rec.mark()
		rb := &reproBench{seed: seed, want: reproDigests[seed]}
		id := rec.id()
		t0 := time.Now()
		digest, err := rb.reproduce(ctx, rec, id)
		rec.add(span{ID: id, Name: "repro.round"}, t0, time.Now())
		res.Attempted++
		if err != nil || (rb.want != "" && digest != rb.want) {
			res.Failed++
		}
	}
	experimentMetrics(m, rec.since(from))

	layers := []func(context.Context, *recorder, uint64, map[string]metric) (int, error){
		simLayers, montecarloLayer, serveLayers,
	}
	for _, layer := range layers {
		failed, err := layer(ctx, rec, seed, m)
		if err != nil {
			return result{}, err
		}
		res.Failed += failed
	}
	res.Correct = res.Failed == 0
	path := filepath.Join(out, "spans", wl.name+".jsonl.gz")
	if err := rec.write(path); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	return res, nil
}

func roundWalls(ph phase) []float64 {
	w := make([]float64, len(ph.rounds))
	for i, r := range ph.rounds {
		w[i] = r.wall
	}
	return w
}

// experimentMetrics reports each experiment group's median time per
// reproduction from the spans of traced reproductions.
func experimentMetrics(m map[string]metric, spans []span) {
	perRound := map[string]map[uint64]float64{}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if perRound[s.Name] == nil {
			perRound[s.Name] = map[uint64]float64{}
		}
		perRound[s.Name][s.Parent] += s.seconds()
	}
	for _, e := range experiments.All() {
		name := reproLayer(e.ID)
		var v []float64
		for _, t := range perRound[name] {
			v = append(v, t)
		}
		m[name+"_s"] = metric{median(v), "s"}
	}
}

// simLayers runs the simulator and the processor union over repro's
// program set and size, then sweeps a Figure 6(a) grid over three of
// the resulting traces.
func simLayers(ctx context.Context, rec *recorder, seed uint64, m map[string]metric) (int, error) {
	from := rec.mark()
	procs := map[string]soferr.Trace{}
	programs := reproPrograms()
	for _, name := range programs {
		t0 := time.Now()
		tr, err := benchsim.Simulate(name, reproInstructions, seed, nil)
		t1 := time.Now()
		rec.add(span{Name: "turandot.simulate"}, t0, t1)
		if err != nil {
			return 0, err
		}
		p, err := benchsim.ProcessorUnion(name, tr)
		rec.add(span{Name: "trace.union"}, t1, time.Now())
		if err != nil {
			return 0, err
		}
		procs[name] = p
	}
	spans := rec.since(from)
	sim := durations(spans, "turandot.simulate")
	instr := float64(reproInstructions * len(programs))
	m["turandot.simulate_s"] = metric{sum(sim), "s"}
	m["turandot.simulate_max_s"] = metric{maxOf(sim), "s"}
	m["turandot.instructions"] = metric{instr, "count"}
	m["turandot.minstr_per_s"] = metric{instr / sum(sim) / 1e6, "Minstr/s"}
	m["trace.union_s"] = metric{sum(durations(spans, "trace.union")), "s"}

	var sources []soferr.TraceSource
	for _, name := range []string{"gzip", "swim", "mcf"} {
		sources = append(sources, soferr.TraceSource{Name: name, Trace: procs[name]})
	}
	g := soferr.Grid{
		Sources:      sources,
		RatesPerYear: []float64{1e9 * 1e-8, 2e12 * 1e-8, 1e14 * 1e-8, 1e15 * 1e-8},
		Counts:       design.ComponentCounts,
		Methods:      []soferr.Method{soferr.MonteCarlo},
		Seed:         seed,
	}
	cells, err := g.Cells()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	_, err = soferr.SweepCellsAll(ctx, sources, cells, g.Methods, nil,
		soferr.WithTrials(reproTrials), soferr.WithEngine(soferr.Fused))
	t1 := time.Now()
	rec.add(span{Name: "sweep.cells_all"}, t0, t1)
	if err != nil {
		return 0, err
	}
	m["sweep.cells"] = metric{float64(len(cells)), "count"}
	m["sweep.cells_per_s"] = metric{float64(len(cells)) / t1.Sub(t0).Seconds(), "1/s"}
	return 0, nil
}

// montecarloLayer replays the start of serve-miss's request stream in
// process: compile each Spec, answer it with the engine it names, and
// time an Exact answer on the same System for comparison.
func montecarloLayer(ctx context.Context, rec *recorder, seed uint64, m map[string]metric) (int, error) {
	comp := &soferr.Compiler{Instructions: poolInstructions}
	shapes := missShapes()
	for _, s := range shapes {
		if _, err := comp.Compile(s); err != nil {
			return 0, err
		}
	}
	from := rec.mark()
	trials := map[soferr.Engine]float64{}
	for c := 0; c < clients; c++ {
		next := missStream(seed, c, shapes)
		for i := 0; i < replayMiss; i++ {
			var w wireRequest
			if err := json.Unmarshal(next().body, &w); err != nil {
				return 0, err
			}
			sys, err := comp.Compile(w.Spec)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			est, err := sys.MTTF(ctx, soferr.MonteCarlo, estimateOptions(w)...)
			rec.add(span{Name: "montecarlo." + est.Engine.String()}, t0, time.Now())
			if err != nil {
				return 0, err
			}
			trials[est.Engine] += float64(est.Trials)
			t0 = time.Now()
			_, err = sys.MTTF(ctx, soferr.MonteCarlo, soferr.WithEngine(soferr.Exact))
			if err == nil {
				rec.add(span{Name: "montecarlo.exact"}, t0, time.Now())
			} else if !errors.Is(err, soferr.ErrExactUnavailable) {
				return 0, err
			}
		}
	}
	spans := rec.since(from)
	sup, fused := durations(spans, "montecarlo.superposed"), durations(spans, "montecarlo.fused")
	m["montecarlo.trials"] = metric{trials[soferr.Superposed] + trials[soferr.Fused], "count"}
	m["montecarlo.query_s"] = metric{sum(sup) + sum(fused), "s"}
	m["montecarlo.superposed.trials_per_s"] = metric{trials[soferr.Superposed] / sum(sup), "1/s"}
	m["montecarlo.fused.trials_per_s"] = metric{trials[soferr.Fused] / sum(fused), "1/s"}
	m["montecarlo.exact.query_us"] = metric{mean(durations(spans, "montecarlo.exact")) * 1e6, "us"}
	return 0, nil
}

// Response bodies as the server encodes them, for the encode replay.
type (
	mttfResponse struct {
		SpecHash        string          `json:"spec_hash"`
		CompileCacheHit bool            `json:"compile_cache_hit"`
		CompileMS       float64         `json:"compile_ms"`
		Estimate        soferr.Estimate `json:"estimate"`
	}
	compareResponse struct {
		SpecHash        string            `json:"spec_hash"`
		CompileCacheHit bool              `json:"compile_cache_hit"`
		CompileMS       float64           `json:"compile_ms"`
		Estimates       []soferr.Estimate `json:"estimates"`
	}
	pointResponse struct {
		SpecHash        string           `json:"spec_hash"`
		CompileCacheHit bool             `json:"compile_cache_hit"`
		P               soferr.JSONFloat `json:"p,omitempty"`
		TSeconds        soferr.JSONFloat `json:"t_seconds"`
		Reliability     soferr.JSONFloat `json:"reliability,omitempty"`
	}
)

// serveLayers sets up serve-hit and splits one request into its layers:
// the soferr calls the handler makes (replayed in process), the whole
// handler (through an in-memory recorder), and the loopback round trip
// (a short traced phase); /metrics supplies the server's counters.
func serveLayers(ctx context.Context, rec *recorder, seed uint64, m map[string]metric) (int, error) {
	bb, err := setupServeHit(ctx, seed)
	if err != nil {
		return 0, fmt.Errorf("serve-hit set-up: %w", err)
	}
	b := bb.(*serveBench)
	defer b.close()
	tuples := hitTuples(seed)

	// Compile every working-set Spec once, as the server's LRU did.
	systems := map[string]*soferr.System{}
	from := rec.mark()
	for _, t := range tuples {
		var w wireRequest
		if err := json.Unmarshal(t.body, &w); err != nil {
			return 0, err
		}
		h := w.Spec.Hash()
		if systems[h] != nil {
			continue
		}
		t0 := time.Now()
		sys, err := b.comp.Compile(w.Spec)
		rec.add(span{Name: "soferr.compile"}, t0, time.Now())
		if err != nil {
			return 0, err
		}
		systems[h] = sys
	}
	m["soferr.compile_us"] = metric{mean(durations(rec.since(from), "soferr.compile")) * 1e6, "us"}

	// Warm the query memo, then replay the stream.
	for _, t := range tuples {
		if _, err := replayRequest(ctx, rec, systems, t, nil); err != nil {
			return 0, err
		}
	}
	var st replayStats
	from = rec.mark()
	next := hitStream(seed, 0, tuples)
	var soferrTotal float64
	for i := 0; i < replayRequests; i++ {
		t, err := replayRequest(ctx, rec, systems, next(), &st)
		if err != nil {
			return 0, err
		}
		soferrTotal += t
	}
	spans := rec.since(from)
	for _, l := range []string{"decode", "hash", "memo_hit", "reliability", "quantile", "encode"} {
		m["soferr."+l+"_us"] = metric{mean(durations(spans, "soferr."+l)) * 1e6, "us"}
	}
	m["soferr.decode_allocs"] = metric{float64(st.decodeAllocs) / replayRequests, "count"}
	m["soferr.encode_allocs"] = metric{float64(st.encodeAllocs) / replayRequests, "count"}
	m["soferr.memo_hit_ratio"] = metric{float64(st.cached) / float64(st.montecarlo), "ratio"}

	// The same stream through the handler, in memory.
	failed := 0
	next = hitStream(seed, 0, tuples)
	var allocs uint64
	from = rec.mark()
	for i := 0; i < replayRequests; i++ {
		req := next()
		w := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(req.body))
		a0 := allocObjects()
		t0 := time.Now()
		b.srv.ServeHTTP(w, hr)
		t1 := time.Now()
		allocs += allocObjects() - a0
		rec.add(span{Name: "server.serve_http"}, t0, t1)
		if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), b.expected[req.key]) {
			failed++
		}
	}
	handler := mean(durations(rec.since(from), "server.serve_http"))
	m["server.handler_us"] = metric{handler * 1e6, "us"}
	m["server.allocs_per_req"] = metric{float64(allocs) / replayRequests, "count"}
	m["server.self_us"] = metric{(handler - soferrTotal/replayRequests) * 1e6, "us"}

	// A short traced loopback phase: round trip minus handler span.
	from = rec.mark()
	ph, err := b.run(ctx, httpProbe, rec)
	if err != nil {
		return 0, err
	}
	failed += ph.failed
	rt, self := httpSplit(rec.since(from))
	m["http.roundtrip_us"] = metric{rt * 1e6, "us"}
	m["http.self_us"] = metric{self * 1e6, "us"}

	met, err := b.metrics(ctx)
	if err != nil {
		return 0, err
	}
	queries := int64(0)
	for _, q := range met.Queries {
		queries += q
	}
	m["server.compile_cache_hit_ratio"] = metric{float64(met.Cache.Hits) / float64(met.Cache.Hits+met.Cache.Misses), "ratio"}
	m["server.compiles"] = metric{float64(met.Compiles), "count"}
	m["server.success_ratio"] = metric{1 - float64(met.Errors)/float64(queries), "ratio"}
	return failed, nil
}

// replayStats counts what the soferr replay saw.
type replayStats struct {
	decodeAllocs, encodeAllocs uint64
	montecarlo, cached         int
}

// replayRequest makes the soferr calls the handler makes for one
// request, each in its own span, and returns their total seconds. st,
// when non-nil, accumulates allocation and memo counts.
func replayRequest(ctx context.Context, rec *recorder, systems map[string]*soferr.System, req request, st *replayStats) (float64, error) {
	var total float64
	timed := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		rec.add(span{Name: name}, t0, t1)
		total += t1.Sub(t0).Seconds()
		return err
	}
	var (
		w    wireRequest
		resp interface{}
	)
	a0 := allocObjects()
	err := timed("soferr.decode", func() error {
		dec := json.NewDecoder(bytes.NewReader(req.body))
		dec.DisallowUnknownFields()
		return dec.Decode(&w)
	})
	if err != nil {
		return 0, err
	}
	a1 := allocObjects()
	var hash string
	timed("soferr.hash", func() error { hash = w.Spec.Hash(); return nil })
	sys := systems[hash]
	if sys == nil {
		return 0, fmt.Errorf("replay: spec %s not compiled", w.Spec.Name)
	}
	var ests []soferr.Estimate
	switch req.path {
	case "/v1/mttf":
		err = timed("soferr.memo_hit", func() error {
			method, err := soferr.MethodByName(w.Method)
			if err != nil {
				return err
			}
			est, err := sys.MTTF(ctx, method, estimateOptions(w)...)
			ests = []soferr.Estimate{est}
			resp = mttfResponse{SpecHash: hash, CompileCacheHit: true, Estimate: est}
			return err
		})
	case "/v1/compare":
		err = timed("soferr.memo_hit", func() error {
			methods := make([]soferr.Method, len(w.Methods))
			for i, n := range w.Methods {
				var err error
				if methods[i], err = soferr.MethodByName(n); err != nil {
					return err
				}
			}
			var err error
			ests, err = sys.CompareWith(ctx, estimateOptions(w), methods...)
			resp = compareResponse{SpecHash: hash, CompileCacheHit: true, Estimates: ests}
			return err
		})
	case "/v1/reliability":
		err = timed("soferr.reliability", func() error {
			r, err := sys.Reliability(ctx, w.TSeconds)
			resp = pointResponse{SpecHash: hash, CompileCacheHit: true, TSeconds: soferr.JSONFloat(w.TSeconds), Reliability: soferr.JSONFloat(r)}
			return err
		})
	case "/v1/quantile":
		err = timed("soferr.quantile", func() error {
			t, err := sys.FailureQuantile(ctx, w.P)
			resp = pointResponse{SpecHash: hash, CompileCacheHit: true, P: soferr.JSONFloat(w.P), TSeconds: soferr.JSONFloat(t)}
			return err
		})
	default:
		return 0, fmt.Errorf("replay: unknown path %s", req.path)
	}
	if err != nil {
		return 0, fmt.Errorf("replay %s: %w", req.path, err)
	}
	a2 := allocObjects()
	err = timed("soferr.encode", func() error { _, err := json.Marshal(resp); return err })
	if err != nil {
		return 0, err
	}
	if st != nil {
		st.decodeAllocs += a1 - a0
		st.encodeAllocs += allocObjects() - a2
		for _, e := range ests {
			if e.Method == soferr.MonteCarlo {
				st.montecarlo++
				if e.Cached {
					st.cached++
				}
			}
		}
	}
	return total, nil
}

// httpSplit returns the mean round trip of the traced requests and the
// mean part of it outside the server handler.
func httpSplit(spans []span) (roundTrip, self float64) {
	handler := map[uint64]float64{}
	for _, s := range spans {
		if s.Name == "server.handler" {
			handler[s.Req] = s.seconds()
		}
	}
	var rt, out []float64
	for _, s := range spans {
		if h, ok := handler[s.Req]; ok && s.Name == "http.request" {
			rt = append(rt, s.seconds())
			out = append(out, s.seconds()-h)
		}
	}
	return mean(rt), mean(out)
}

// metrics fetches the server's /metrics document over the loopback.
func (b *serveBench) metrics(ctx context.Context) (server.Metrics, error) {
	var met server.Metrics
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/metrics", nil)
	if err != nil {
		return met, err
	}
	resp, err := b.client.Do(hr)
	if err != nil {
		return met, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return met, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return met, json.NewDecoder(resp.Body).Decode(&met)
}

func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}
