package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/soferr/soferr"
	"github.com/soferr/soferr/internal/server"
)

// clients is the closed-loop client count of the serve workloads. With
// one client a request's latency is its own service time plus
// transport. With two on the 2-core reference host, the median request
// also waited for a core behind the other client's query and the
// runtime's goroutines, and its latency followed host load about twice
// as strongly as throughput did.
const clients = 1

// Round sizes: a serve round is this many completed requests, under
// half a second of work on the reference host. A serve-miss round sends
// the mix four times.
const (
	hitRound  = 4096
	missRound = 4 * len(missMix)
)

// missSamplesPerClient caps the serve-miss answers re-computed in
// process after each phase.
const missSamplesPerClient = 24

// reqHeader carries a traced request's ID to the server-side span.
const reqHeader = "X-Perfbench-Request"

// serveBench is a query server on a loopback listener plus the
// closed-loop clients that drive it.
type serveBench struct {
	comp    *soferr.Compiler
	srv     *server.Server
	handler *tracingHandler
	hs      *http.Server
	served  chan error
	url     string
	client  *http.Client

	next      [clients]func() request
	roundSize int
	// expected holds serve-hit's recorded body per working-set tuple.
	expected [][]byte
	// samples holds the serve-miss answers kept for re-computation.
	samples [clients][]missSample
}

type missSample struct {
	req  request
	resp []byte
}

// tracingHandler wraps the server so a traced phase records the
// handler's span; untraced, it costs one atomic load.
type tracingHandler struct {
	next http.Handler
	rec  atomic.Pointer[recorder]
}

func (h *tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := h.rec.Load()
	if rec == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
	rec.add(span{Parent: req, Req: req, Name: "server.handler"}, t0, time.Now())
}

func startServer(comp *soferr.Compiler, roundSize int) (*serveBench, error) {
	srv := server.New(server.Config{Compiler: comp})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &serveBench{
		comp:      comp,
		srv:       srv,
		handler:   &tracingHandler{next: srv},
		served:    make(chan error, 1),
		url:       "http://" + ln.Addr().String(),
		roundSize: roundSize,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	b.hs = &http.Server{Handler: b.handler}
	go func() { b.served <- b.hs.Serve(ln) }()
	return b, nil
}

func (b *serveBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b.hs.Shutdown(ctx)
	<-b.served
	b.client.CloseIdleConnections()
}

// do sends one request and reads the whole response into buf.
func (b *serveBench) do(ctx context.Context, req request, id uint64, buf *bytes.Buffer) (int, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+req.path, bytes.NewReader(req.body))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if id != 0 {
		hr.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	resp, err := b.client.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// answer sends reqs from all clients at once and returns each
// 200-status body, failing on any other outcome.
func (b *serveBench) answer(ctx context.Context, reqs []request) ([][]byte, error) {
	bodies := make([][]byte, len(reqs))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := c; i < len(reqs); i += clients {
				status, err := b.do(ctx, reqs[i], 0, &buf)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
				}
				if err != nil {
					errs[c] = fmt.Errorf("%s %s: %w", reqs[i].path, reqs[i].body, err)
					return
				}
				bodies[i] = bytes.Clone(buf.Bytes())
			}
		}(c)
	}
	wg.Wait()
	return bodies, errors.Join(errs...)
}

// setupServeHit starts a server and answers every working-set tuple
// twice: the first pass compiles each Spec and fills the query memo,
// the second records the steady-state body every timed answer must
// match byte for byte.
func setupServeHit(ctx context.Context, seed uint64) (bench, error) {
	b, err := startServer(&soferr.Compiler{Instructions: poolInstructions}, hitRound)
	if err != nil {
		return nil, err
	}
	tuples := hitTuples(seed)
	for pass := 0; pass < 2; pass++ {
		if b.expected, err = b.answer(ctx, tuples); err != nil {
			b.close()
			return nil, err
		}
	}
	for c := range b.next {
		b.next[c] = hitStream(seed, c, tuples)
	}
	return b, nil
}

// setupServeMiss starts a server and compiles every shape once, so the
// benchmark simulations behind them run before timing starts.
func setupServeMiss(ctx context.Context, seed uint64) (bench, error) {
	b, err := startServer(&soferr.Compiler{Instructions: poolInstructions}, missRound)
	if err != nil {
		return nil, err
	}
	shapes := missShapes()
	warm := make([]request, len(shapes))
	for i, s := range shapes {
		warm[i] = encodeRequest("/v1/mttf", wireRequest{Spec: s, Method: "avf+sofr"})
	}
	if _, err := b.answer(ctx, warm); err != nil {
		b.close()
		return nil, err
	}
	for c := range b.next {
		b.next[c] = missStream(seed, c, shapes)
	}
	return b, nil
}

// check validates one 200-status body. serve-hit compares it with the
// recorded body; serve-miss keeps a sample for verifyMiss.
func (b *serveBench) check(c int, req request, body []byte) bool {
	if b.expected != nil {
		return bytes.Equal(body, b.expected[req.key])
	}
	if req.sample && len(b.samples[c]) < missSamplesPerClient {
		b.samples[c] = append(b.samples[c], missSample{req, bytes.Clone(body)})
	}
	return true
}

// roundMarker cuts a phase into rounds of equal request counts.
type roundMarker struct {
	mu      sync.Mutex
	last    time.Time
	lastCPU float64
	rounds  []round
}

func (m *roundMarker) mark() {
	now, cpu := time.Now(), cpuSeconds()
	m.mu.Lock()
	m.rounds = append(m.rounds, round{now.Sub(m.last).Seconds(), cpu - m.lastCPU})
	m.last, m.lastCPU = now, cpu
	m.mu.Unlock()
}

func (b *serveBench) run(ctx context.Context, d time.Duration, rec *recorder) (phase, error) {
	if rec != nil {
		b.handler.rec.Store(rec)
		defer b.handler.rec.Store(nil)
	}
	for c := range b.samples {
		b.samples[c] = b.samples[c][:0]
	}
	var (
		wins  [clients][]window
		sent  [clients]int
		fails [clients]int
		done  atomic.Int64
		wg    sync.WaitGroup
	)
	rt0 := readRuntime()
	start := time.Now()
	marks := roundMarker{last: start, lastCPU: cpuSeconds()}
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			win := make([]float32, 0, latencyWindow)
			for ctx.Err() == nil && time.Now().Before(deadline) {
				req := b.next[c]()
				var id uint64
				if rec != nil {
					id = rec.id()
				}
				t0 := time.Now()
				status, err := b.do(ctx, req, id, &buf)
				t1 := time.Now()
				if rec != nil {
					rec.add(span{ID: id, Req: id, Name: "http.request"}, t0, t1)
				}
				sent[c]++
				if win = append(win, float32(t1.Sub(t0).Seconds()*1e3)); len(win) == latencyWindow {
					w, err := newWindow(win)
					if err != nil {
						panic(err) // a full window always supports its p99
					}
					wins[c] = append(wins[c], w)
					win = win[:0]
				}
				if err != nil || status != http.StatusOK || !b.check(c, req, buf.Bytes()) {
					if fails[c]++; fails[c] <= 3 {
						fmt.Fprintf(os.Stderr, "%s: status %d err %v body %.200s\n", req.path, status, err, buf.Bytes())
					}
				}
				if n := done.Add(1); n%int64(b.roundSize) == 0 {
					marks.mark()
				}
			}
		}(c)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return phase{}, err
	}
	ph := phase{rounds: marks.rounds, elapsed: time.Since(start), runtime: rt0.until(readRuntime()), requests: true}
	for c := 0; c < clients; c++ {
		ph.attempted += sent[c]
		ph.failed += fails[c]
		ph.windows = append(ph.windows, wins[c]...)
	}
	ph.failed += b.verifyMiss(ctx)
	return ph, nil
}

// verifyMiss re-answers the kept serve-miss samples in process, through
// Compiler.Compile and System.MTTF, and counts the answers that are not
// bit-identical to what the server sent.
func (b *serveBench) verifyMiss(ctx context.Context) int {
	bad := 0
	for c := range b.samples {
		for _, s := range b.samples[c] {
			if err := verifyMTTF(ctx, b.comp, s.req, s.resp); err != nil {
				bad++
				fmt.Fprintln(os.Stderr, "serve-miss:", err)
			}
		}
	}
	return bad
}

func verifyMTTF(ctx context.Context, comp *soferr.Compiler, req request, resp []byte) error {
	var w wireRequest
	if err := json.Unmarshal(req.body, &w); err != nil {
		return err
	}
	var got struct {
		Estimate soferr.Estimate `json:"estimate"`
	}
	if err := json.Unmarshal(resp, &got); err != nil {
		return err
	}
	sys, err := comp.Compile(w.Spec)
	if err != nil {
		return err
	}
	want, err := sys.MTTF(ctx, soferr.MonteCarlo, estimateOptions(w)...)
	if err != nil {
		return err
	}
	g, x := got.Estimate, want
	if math.Float64bits(g.MTTF) != math.Float64bits(x.MTTF) || math.Float64bits(g.StdErr) != math.Float64bits(x.StdErr) ||
		g.Trials != x.Trials || g.Seed != x.Seed || g.Engine != x.Engine {
		return fmt.Errorf("%s: server answered %+v, in process %+v", w.Spec.Name, g, x)
	}
	return nil
}

// estimateOptions lowers a request's Monte-Carlo fields the way the
// server does; options that change only wall time are left out.
func estimateOptions(w wireRequest) []soferr.EstimateOption {
	opts := []soferr.EstimateOption{soferr.WithTrials(w.Trials), soferr.WithSeed(w.Seed)}
	if w.Engine != "" {
		e, err := soferr.EngineByName(w.Engine)
		if err != nil {
			panic(err) // the generators only name valid engines
		}
		opts = append(opts, soferr.WithEngine(e))
	}
	return opts
}
