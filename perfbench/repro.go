package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"github.com/soferr/soferr/internal/experiments"
)

// repro sizes: every registered experiment on its full grid, with
// instruction and trial counts reduced so one reproduction takes a few
// seconds on a 2-core host.
const (
	reproInstructions = 30000
	reproTrials       = 10000
)

// reproDigests are the committed digests of repro's rendered tables,
// by seed.
var reproDigests = map[uint64]string{
	1: "3a95a0d095512f3d0bb524d658b731d98012810d282d5f1de81a7175f76e3ed6",
}

func reproOptions(seed uint64) experiments.Options {
	return experiments.Options{Seed: seed, Instructions: reproInstructions, Trials: reproTrials}
}

// reproLayer names the span of an experiment: the four analytic
// artifacts (Tables 1-2, Figures 3-4) share one.
func reproLayer(id string) string {
	switch id {
	case "table1", "table2", "fig3", "fig4":
		return "experiments.analytic"
	}
	return "experiments." + id
}

type reproBench struct {
	seed uint64
	// want is the digest every reproduction must render: the committed
	// one, or else the first one this process rendered.
	want string
}

// setupRepro runs one quick reproduction (small grids, a few thousand
// instructions and trials) so every code path has run once before
// timing starts.
func setupRepro(ctx context.Context, seed uint64) (bench, error) {
	r := experiments.NewRunner(experiments.Options{Quick: true, Seed: seed, Instructions: 5000, Trials: 2000})
	for _, e := range experiments.All() {
		if _, err := e.Run(r, ctx); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", e.ID, err)
		}
	}
	return &reproBench{seed: seed, want: reproDigests[seed]}, nil
}

func (b *reproBench) close() {}

// reproduce runs every registered experiment once on a fresh Runner and
// returns the digest of the rendered tables.
func (b *reproBench) reproduce(ctx context.Context, rec *recorder, parent uint64) (string, error) {
	r := experiments.NewRunner(reproOptions(b.seed))
	h := sha256.New()
	for _, e := range experiments.All() {
		t0 := time.Now()
		tab, err := e.Run(r, ctx)
		if rec != nil {
			rec.add(span{Parent: parent, Name: reproLayer(e.ID)}, t0, time.Now())
		}
		if err != nil {
			return "", fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := tab.Fprint(h); err != nil {
			return "", fmt.Errorf("%s: render: %w", e.ID, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (b *reproBench) run(ctx context.Context, d time.Duration, rec *recorder) (phase, error) {
	var ph phase
	rt0 := readRuntime()
	start := time.Now()
	for len(ph.rounds) == 0 || time.Since(start) < d {
		t0, c0 := time.Now(), cpuSeconds()
		var id uint64
		if rec != nil {
			id = rec.id()
		}
		digest, err := b.reproduce(ctx, rec, id)
		t1 := time.Now()
		if rec != nil {
			rec.add(span{ID: id, Name: "repro.round"}, t0, t1)
		}
		if ctx.Err() != nil {
			return ph, ctx.Err()
		}
		ph.attempted++
		switch {
		case err != nil:
			ph.failed++
			fmt.Fprintln(os.Stderr, "repro:", err)
		case b.want == "":
			b.want = digest
		case digest != b.want:
			ph.failed++
			fmt.Fprintf(os.Stderr, "repro: tables digest %s, want %s\n", digest, b.want)
		}
		ph.rounds = append(ph.rounds, round{t1.Sub(t0).Seconds(), cpuSeconds() - c0})
	}
	ph.elapsed = time.Since(start)
	ph.runtime = rt0.until(readRuntime())
	fmt.Fprintf(os.Stderr, "repro: seed %d tables sha256 %s\n", b.seed, b.want)
	return ph, nil
}
