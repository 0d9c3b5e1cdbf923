package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/soferr/soferr"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		s = append(s, float64(i))
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.25, 25}, {0.011, 2}} {
		got, err := percentile(s, c.q)
		if err != nil || got != c.want {
			t.Errorf("p%v of 1..100 = %v, %v; want %v", c.q*100, got, err, c.want)
		}
	}
	if s[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

func TestPercentileTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	// p99 of 1000 samples is rank 990: exactly ten samples lie beyond.
	if got, err := percentile(mk(1000), 0.99); err != nil || got != 990 {
		t.Errorf("p99 of 1000 = %v, %v; want 990", got, err)
	}
	// With 999 samples only nine do.
	if _, err := percentile(mk(999), 0.99); err == nil {
		t.Error("p99 of 999 samples accepted with nine beyond it")
	}
	if _, err := percentile(mk(19), 0.5); err == nil {
		t.Error("p50 of 19 samples accepted with nine beyond it")
	}
	if _, err := percentile([]float64(nil), 0.5); err == nil {
		t.Error("percentile of no samples accepted")
	}
}

func TestServeTooFewRequestsFails(t *testing.T) {
	ph := phase{rounds: []round{{1, 1}}, attempted: 500, elapsed: time.Second, requests: true}
	_, err := endToEnd("serve-miss", ph, 1)
	if err == nil || !strings.Contains(err.Error(), "latency_p99_ms") {
		t.Fatalf("500 requests: err = %v, want a latency_p99_ms refusal", err)
	}
}

func TestReproReportsNoPerOpPercentile(t *testing.T) {
	ph := phase{rounds: []round{{2, 3}, {4, 5}, {3, 4}}, attempted: 3, elapsed: 9 * time.Second}
	m, err := endToEnd("repro", ph, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m["latency_p50_ms"].Value != 3000 || m["latency_p99_ms"].Value != 3000 || m["wall_s"].Value != 3 {
		t.Errorf("repro latencies = %v, %v; want the median reproduction for both", m["latency_p50_ms"], m["latency_p99_ms"])
	}
}

func bodies(next func() request, n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		r := next()
		b.WriteString(r.path)
		b.Write(r.body)
	}
	return b.Bytes()
}

func TestStreamsDeterministicPerSeed(t *testing.T) {
	streams := map[string]func(seed uint64, c int) func() request{
		"serve-hit": func(seed uint64, c int) func() request { return hitStream(seed, c, hitTuples(seed)) },
		"serve-miss": func(seed uint64, c int) func() request {
			return missStream(seed, c, missShapes())
		},
	}
	for name, mk := range streams {
		for c := 0; c < clients; c++ {
			a, b := bodies(mk(7, c), 300), bodies(mk(7, c), 300)
			if !bytes.Equal(a, b) {
				t.Errorf("%s client %d: seed 7 gave two different streams", name, c)
			}
			if bytes.Equal(a, bodies(mk(8, c), 300)) {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same stream", name, c)
			}
		}
		if bytes.Equal(bodies(mk(7, 0), 300), bodies(mk(7, 1), 300)) {
			t.Errorf("%s: clients 0 and 1 send the same stream", name)
		}
	}
}

// declared reads BENCHMARK.json at the repository root.
type declared struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNameCharset(t *testing.T) {
	d := readDeclared(t)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the charset", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s breaks the charset", unit, name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range d.Workloads {
		check(w.Name, "")
	}
	for _, m := range d.EndToEnd {
		check(m.Name, m.Unit)
	}
	for _, m := range d.PerLayer {
		check(m.Name, m.Unit)
	}
	for _, w := range d.Workloads {
		found := false
		for _, wl := range workloads {
			found = found || wl.name == w.Name
		}
		if !found {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
}

// sameMetrics fails unless got prints exactly the declared names with
// the declared units.
func sameMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	var names []string
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if u, ok := want[n]; !ok {
			t.Errorf("%s prints undeclared metric %s", what, n)
		} else if got[n].Unit != u {
			t.Errorf("%s prints %s in %s, declared %s", what, n, got[n].Unit, u)
		}
	}
	for n := range want {
		if _, ok := got[n]; !ok {
			t.Errorf("%s does not print declared metric %s", what, n)
		}
	}
}

func TestEndToEndMetricsMatchDeclared(t *testing.T) {
	d := readDeclared(t)
	want := map[string]string{}
	for _, m := range d.EndToEnd {
		want[m.Name] = m.Unit
	}
	serve := phase{rounds: []round{{1, 1}}, attempted: 2000, elapsed: time.Second, requests: true,
		windows: []window{{1, 3}, {2, 4}}}
	repro := phase{rounds: []round{{1, 1}}, attempted: 1, elapsed: time.Second}
	for name, ph := range map[string]phase{"serve": serve, "repro": repro} {
		m, err := endToEnd(name, ph, 1)
		if err != nil {
			t.Fatal(err)
		}
		sameMetrics(t, name, m, want)
		for n, v := range m {
			if v.Value == 0 {
				t.Errorf("%s: %s reads 0", name, n)
			}
		}
	}
}

func TestTracedRunMetricsMatchDeclared(t *testing.T) {
	if testing.Short() {
		t.Skip("a traced run reproduces the paper once")
	}
	d := readDeclared(t)
	want := map[string]string{}
	for _, m := range d.PerLayer {
		want[m.Name] = m.Unit
	}
	res, err := tracedRun(context.Background(), &workloads[1], 1, 300*time.Millisecond, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced serve-hit run: correct=%v failed=%d", res.Correct, res.Failed)
	}
	sameMetrics(t, "traced serve-hit", res.Metrics, want)
}

func TestServeMissAnswersVerified(t *testing.T) {
	ctx := context.Background()
	bb, err := setupServeMiss(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	b := bb.(*serveBench)
	defer b.close()
	ph, err := b.run(ctx, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed != 0 || ph.attempted == 0 {
		t.Fatalf("serve-miss: %d of %d requests failed", ph.failed, ph.attempted)
	}
	var kept []missSample
	for c := range b.samples {
		kept = append(kept, b.samples[c]...)
	}
	if len(kept) == 0 {
		t.Fatal("no serve-miss answer was re-computed")
	}
	// A one-ulp change in the answered MTTF must fail the check.
	s := kept[0]
	var resp map[string]json.RawMessage
	if err := json.Unmarshal(s.resp, &resp); err != nil {
		t.Fatal(err)
	}
	var est soferr.Estimate
	if err := json.Unmarshal(resp["estimate"], &est); err != nil {
		t.Fatal(err)
	}
	est.MTTF = math.Nextafter(est.MTTF, math.Inf(1))
	if resp["estimate"], err = json.Marshal(est); err != nil {
		t.Fatal(err)
	}
	tampered, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyMTTF(ctx, b.comp, s.req, s.resp); err != nil {
		t.Errorf("untouched answer rejected: %v", err)
	}
	if err := verifyMTTF(ctx, b.comp, s.req, tampered); err == nil {
		t.Error("answer one ulp off accepted")
	}
}

func TestServeLatencyIsMedianOverWindows(t *testing.T) {
	// One stalled window must not move either figure.
	ph := phase{rounds: []round{{1, 1}}, attempted: 3000, elapsed: time.Second, requests: true,
		windows: []window{{1, 3}, {2, 4}, {90, 900}}}
	m, err := endToEnd("serve-hit", ph, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m["latency_p50_ms"].Value != 2 || m["latency_p99_ms"].Value != 4 {
		t.Errorf("p50, p99 = %v, %v; want 2, 4", m["latency_p50_ms"].Value, m["latency_p99_ms"].Value)
	}
	full := make([]float32, latencyWindow)
	for i := range full {
		full[i] = float32(i + 1)
	}
	if w, err := newWindow(full); err != nil || w.p50 != 500 || w.p99 != 990 {
		t.Errorf("window of 1..%d = %+v, %v; want p50 500, p99 990", latencyWindow, w, err)
	}
}
