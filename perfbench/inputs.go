package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/soferr/soferr"
)

// Input generation. Every workload input derives from the --seed flag
// through newRand; the program under test receives only the generated
// specs and request bodies.

// Sizes of the generated inputs.
const (
	// poolSpecs is the serve-hit spec count: half the server's default
	// compile LRU (128), so the whole working set stays resident.
	poolSpecs = 64
	// poolInstructions is the simulated length of every benchmark trace
	// the serve workloads name (default simulation seed).
	poolInstructions = 20000
	// hitTrials is the trial count of serve-hit's Monte-Carlo tuples;
	// they are answered during set-up and memoized after that.
	hitTrials = 4000
	// missTrials is the trial count of every serve-miss request.
	missTrials = 1000
)

// poolBenchmarks are the SPEC-like programs behind serve benchmark
// traces: integer and floating-point, high- and low-IPC.
var poolBenchmarks = []string{"gzip", "swim", "mcf", "art", "gcc", "equake"}

var poolUnits = []string{soferr.UnitProcessor, soferr.UnitInt, soferr.UnitFP, soferr.UnitDecode, soferr.UnitRegFile}

// Stream identifiers, mixed into the seed so each input family and each
// client draws an independent sequence.
const (
	streamPool uint64 = iota + 1
	streamHitClient
	streamMissClient = streamHitClient + 1<<16
)

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// wireRequest is the union of the /v1 request bodies the benchmark
// sends; fields an endpoint does not take stay zero and are omitted.
type wireRequest struct {
	Spec     soferr.Spec `json:"spec"`
	Method   string      `json:"method,omitempty"`
	Methods  []string    `json:"methods,omitempty"`
	Trials   int         `json:"trials,omitempty"`
	Seed     uint64      `json:"seed,omitempty"`
	Engine   string      `json:"engine,omitempty"`
	Workers  int         `json:"workers,omitempty"`
	TSeconds float64     `json:"t_seconds,omitempty"`
	P        float64     `json:"p,omitempty"`
}

// request is one encoded HTTP request of a workload.
type request struct {
	path string
	body []byte
	// key indexes serve-hit's working set; sample marks a serve-miss
	// request whose answer is re-computed in process.
	key    int
	sample bool
}

func encodeRequest(path string, w wireRequest) request {
	body, err := json.Marshal(w)
	if err != nil {
		panic(fmt.Sprintf("encode %s request: %v", path, err)) // generated specs are finite
	}
	return request{path: path, body: body}
}

// busyIdleSpec draws a busy/idle loop whose period divides a day.
func busyIdleSpec(r *rand.Rand) soferr.TraceSpec {
	periods := []float64{3600, 7200, 21600, 86400}
	return busyIdleOver(r, periods[r.IntN(len(periods))])
}

func busyIdleOver(r *rand.Rand, period float64) soferr.TraceSpec {
	return soferr.TraceSpec{Kind: soferr.TraceKindBusyIdle, PeriodSeconds: period, BusySeconds: period * (0.05 + 0.9*r.Float64())}
}

func periodicSpec(r *rand.Rand) soferr.TraceSpec {
	const day = 86400.0
	n := 1 + r.IntN(3)
	ivs := make([]soferr.Interval, n)
	for i := range ivs {
		lo := day * float64(i) / float64(n)
		w := day / float64(n)
		start := lo + w*0.4*r.Float64()
		ivs[i] = soferr.Interval{Start: start, End: start + w*(0.1+0.4*r.Float64())}
	}
	return soferr.TraceSpec{Kind: soferr.TraceKindPeriodic, PeriodSeconds: day, Intervals: ivs}
}

func benchmarkSpec(r *rand.Rand) soferr.TraceSpec {
	return soferr.TraceSpec{
		Kind:         soferr.TraceKindBenchmark,
		Benchmark:    poolBenchmarks[r.IntN(len(poolBenchmarks))],
		Unit:         poolUnits[r.IntN(len(poolUnits))],
		Instructions: poolInstructions,
	}
}

// rate draws a raw error rate in [1e2, 1e6) errors/year, log-uniform.
func rate(r *rand.Rand) float64 {
	return 100 * math.Pow(10, 4*r.Float64())
}

// poolSpec is the i-th spec of the serve-hit pool. Kinds cycle so the
// pool mixes every trace kind regardless of seed: busy/idle, periodic,
// day, week, combined, a benchmark unit, and a multi-component system
// of loops that share the day period (SoftArch needs one period).
func poolSpec(r *rand.Rand, i int) soferr.Spec {
	comp := soferr.ComponentSpec{Name: fmt.Sprintf("c%d", i), RatePerYear: rate(r), Count: 1 + r.IntN(8)}
	switch i % 7 {
	case 0:
		comp.Trace = busyIdleSpec(r)
	case 1:
		comp.Trace = periodicSpec(r)
	case 2:
		comp.Trace = soferr.TraceSpec{Kind: soferr.TraceKindDay}
	case 3:
		comp.Trace = soferr.TraceSpec{Kind: soferr.TraceKindWeek}
	case 4:
		comp.Trace = soferr.TraceSpec{Kind: soferr.TraceKindCombined}
	case 5:
		comp.Trace = benchmarkSpec(r)
	default:
		comps := []soferr.ComponentSpec{
			{Name: "loop", RatePerYear: rate(r), Trace: busyIdleOver(r, 86400)},
			{Name: "sched", RatePerYear: rate(r), Trace: soferr.TraceSpec{Kind: soferr.TraceKindDay}},
		}
		if r.IntN(2) == 0 {
			comps = append(comps, soferr.ComponentSpec{Name: "batch", RatePerYear: rate(r), Trace: periodicSpec(r)})
		}
		return soferr.Spec{Name: fmt.Sprintf("pool-%d", i), Components: comps}
	}
	return soferr.Spec{Name: fmt.Sprintf("pool-%d", i), Components: []soferr.ComponentSpec{comp}}
}

// hitTuples is serve-hit's working set: two (endpoint, options) tuples
// per pool spec, covering every query the server answers.
func hitTuples(seed uint64) []request {
	r := newRand(seed, streamPool)
	out := make([]request, 0, 2*poolSpecs)
	for i := 0; i < poolSpecs; i++ {
		spec := poolSpec(r, i)
		for j := 0; j < 2; j++ {
			q := hitQuery(r, spec, 2*i+j)
			q.key = len(out)
			out = append(out, q)
		}
	}
	return out
}

// hitQuery is the k-th working-set query. Queries cycle through the
// endpoints and options so every seed has the same mix.
func hitQuery(r *rand.Rand, spec soferr.Spec, k int) request {
	w := wireRequest{Spec: spec}
	switch k % 6 {
	case 0:
		w.Method = "avf+sofr"
	case 1:
		w.Method, w.Engine, w.Trials, w.Seed = "montecarlo", "fused", hitTrials, r.Uint64()
	case 2:
		w.Method, w.Engine = "montecarlo", "exact"
	case 3:
		w.Methods = []string{"avf+sofr", "montecarlo", "softarch"}
		w.Engine, w.Trials, w.Seed = "fused", hitTrials, r.Uint64()
		return encodeRequest("/v1/compare", w)
	case 4:
		w.TSeconds = 3600 * (1 + r.Float64()*24*365)
		return encodeRequest("/v1/reliability", w)
	default:
		w.P = 0.01 + 0.98*r.Float64()
		return encodeRequest("/v1/quantile", w)
	}
	return encodeRequest("/v1/mttf", w)
}

// hitStream returns client c's serve-hit request sequence: uniform draws
// from the working set.
func hitStream(seed uint64, client int, tuples []request) func() request {
	r := newRand(seed, streamHitClient+uint64(client))
	return func() request { return tuples[r.IntN(len(tuples))] }
}

// missShapes are serve-miss's spec shapes. A request takes one, renames
// it uniquely and redraws its rates, so every Spec hash is new while
// the benchmark simulations behind the shapes are shared and run in
// set-up.
func missShapes() []soferr.Spec {
	bench := func(name, unit string) soferr.TraceSpec {
		return soferr.TraceSpec{Kind: soferr.TraceKindBenchmark, Benchmark: name, Unit: unit, Instructions: poolInstructions}
	}
	one := func(ts soferr.TraceSpec) soferr.Spec {
		return soferr.Spec{Components: []soferr.ComponentSpec{{RatePerYear: 1, Trace: ts}}}
	}
	return []soferr.Spec{
		shapeGzip:   one(bench("gzip", "")),
		shapeSwim:   one(bench("swim", "")),
		shapeMcf:    one(bench("mcf", "")),
		shapeArt:    one(bench("art", "")),
		shapeEquake: one(bench("equake", "")),
		shapeSwimRF: one(bench("swim", soferr.UnitRegFile)),
		shapeLoop: {Components: []soferr.ComponentSpec{
			{Name: "loop", RatePerYear: 1, Trace: soferr.TraceSpec{Kind: soferr.TraceKindBusyIdle, PeriodSeconds: 7200, BusySeconds: 5400}},
			{Name: "sched", RatePerYear: 1, Trace: soferr.TraceSpec{Kind: soferr.TraceKindDay}},
		}},
		shapeCombined: one(soferr.TraceSpec{Kind: soferr.TraceKindCombined}),
	}
}

// Indices into missShapes.
const (
	shapeGzip = iota
	shapeSwim
	shapeMcf
	shapeArt
	shapeEquake
	shapeSwimRF
	shapeLoop
	shapeCombined
)

// missMix is one cycle of serve-miss requests: a shape and the engine
// the request names, "" for the server's default (superposed).
//
// The mix sets where the median request falls. On the reference host a
// request's latency grows with host load by more the shorter it is:
// from calm to loaded spells, CPU time per round rose 1.25x, queries of
// 0.1-0.6 ms slowed 1.5-2x and queries of 3 ms and more 1.2-1.3x. So
// the median lands inside a plateau of long, alike queries: art and
// equake under the default engine, about 2.7 ms each, are 6 of the 14
// requests. Five cheaper requests lie below them (four fused queries
// and the 2-component loop) and three dearer ones above (5-50 ms). mcf
// under the default engine sets latency_p99_ms.
var missMix = [...]struct {
	shape  int
	engine string
}{
	{shapeArt, ""}, {shapeGzip, "fused"}, {shapeEquake, ""}, {shapeMcf, ""},
	{shapeArt, ""}, {shapeSwim, "fused"}, {shapeEquake, ""}, {shapeGzip, ""},
	{shapeArt, ""}, {shapeMcf, "fused"}, {shapeEquake, ""}, {shapeSwimRF, ""},
	{shapeCombined, "fused"}, {shapeLoop, ""},
}

// missStream returns client c's serve-miss request sequence. Request k
// is entry (k + c) mod len(missMix) of the mix, on its shape with a
// fresh name, fresh rates and a fresh seed, so the mix is the same
// whatever the seed. Each query asks for one Monte-Carlo worker, so its
// kernel keeps to one core and the other stays free for the runtime
// and the transport.
func missStream(seed uint64, client int, shapes []soferr.Spec) func() request {
	r := newRand(seed, streamMissClient+uint64(client))
	k := 0
	return func() request {
		mix := missMix[(k+client)%len(missMix)]
		spec := soferr.Spec{
			Name:       fmt.Sprintf("miss-%d-%d", client, k),
			Components: append([]soferr.ComponentSpec(nil), shapes[mix.shape].Components...),
		}
		for i := range spec.Components {
			spec.Components[i].RatePerYear = rate(r)
		}
		w := wireRequest{Spec: spec, Method: "montecarlo", Trials: missTrials, Seed: r.Uint64(), Workers: 1, Engine: mix.engine}
		k++
		req := encodeRequest("/v1/mttf", w)
		req.sample = r.IntN(16) == 0
		return req
	}
}
