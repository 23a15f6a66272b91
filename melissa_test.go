package melissa

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Simulations = 6
	cfg.GridN = 8
	cfg.StepsPerSim = 8
	cfg.MaxConcurrentClients = 3
	cfg.Hidden = []int{16}
	cfg.BatchSize = 4
	cfg.Capacity = 100
	cfg.Threshold = 8
	cfg.ValidationSims = 1
	cfg.ValidateEvery = 10
	return cfg
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Simulations = 0 },
		func(c *Config) { c.GridN = 0 },
		func(c *Config) { c.StepsPerSim = 0 },
		func(c *Config) { c.Ranks = 0 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.Buffer = "bogus" },
		func(c *Config) { c.Dt = 0 },
		func(c *Config) { c.Dt = -0.01 },
		func(c *Config) { c.Capacity = 0 },
		func(c *Config) { c.Capacity = -5 },
		func(c *Config) { c.Threshold = -1 },
		func(c *Config) { c.Threshold = c.Capacity + 1 },
	}
	for i, mutate := range bad {
		cfg := tinyConfig()
		mutate(&cfg)
		if _, err := RunOnline(context.Background(), cfg); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

// pacer ties solver progress to training progress: the first free time
// steps run unhindered; every further step waits until rank 0 has trained
// pace batches per step beyond them. While producers wait, the Reservoir
// keeps the trainer busy by repeating samples, so the gate always opens.
type pacer struct {
	pace, free int
	produced   atomic.Int64

	mu      sync.Mutex
	batches int
	moved   chan struct{} // closed and replaced after every batch
}

func newPacer(pace, free int) *pacer {
	return &pacer{pace: pace, free: free, moved: make(chan struct{})}
}

// batchEnd records rank 0's batch count and wakes waiting producers.
func (p *pacer) batchEnd(batches int) {
	p.mu.Lock()
	p.batches = batches
	close(p.moved)
	p.moved = make(chan struct{})
	p.mu.Unlock()
}

// wait blocks the caller's next time step until training has caught up
// with it, or ctx ends.
func (p *pacer) wait(ctx context.Context) error {
	need := p.pace * (int(p.produced.Add(1)) - p.free)
	for {
		p.mu.Lock()
		done, moved := p.batches >= need, p.moved
		p.mu.Unlock()
		if done {
			return nil
		}
		select {
		case <-moved:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// pacedProblem is a Problem whose simulators gate every time step on a
// pacer.
type pacedProblem struct {
	Problem
	ctx context.Context
	p   *pacer
}

func (pp pacedProblem) NewSimulator(cfg Config, params []float64) (Simulator, error) {
	sim, err := pp.Problem.NewSimulator(cfg, params)
	if err != nil {
		return nil, err
	}
	return pacedSim{Simulator: sim, ctx: pp.ctx, p: pp.p}, nil
}

type pacedSim struct {
	Simulator
	ctx context.Context
	p   *pacer
}

func (s pacedSim) StepOnce() error {
	if err := s.p.wait(s.ctx); err != nil {
		return err
	}
	return s.Simulator.StepOnce()
}

func TestRunOnlineEndToEnd(t *testing.T) {
	// A free-running tiny run trains anywhere from one pass over the data
	// (12 batches) to hundreds, depending on how the scheduler interleaves
	// solvers and trainer. Pacing the single-rank Reservoir run guarantees
	// the training volume the plausibility check below needs: the
	// validation set and the first Threshold+1 ensemble steps run free,
	// every later step waits for pace more batches. The timeout only
	// guards against a hang.
	cfg := tinyConfig()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const pace = 3
	pc := newPacer(pace, cfg.ValidationSims*cfg.StepsPerSim+cfg.Threshold+1)
	cfg.Problem = pacedProblem{Problem: Heat(), ctx: ctx, p: pc}
	cfg.batchHook = pc.batchEnd
	res, err := RunOnline(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Surrogate == nil {
		t.Fatal("no surrogate")
	}
	want := cfg.Simulations * cfg.StepsPerSim
	if res.UniqueSamples != want {
		t.Fatalf("unique %d, want %d", res.UniqueSamples, want)
	}
	if res.Samples < want || res.Batches == 0 {
		t.Fatalf("samples %d batches %d", res.Samples, res.Batches)
	}
	if paced := pace * (want - cfg.Threshold - 1); res.Batches < paced {
		t.Fatalf("paced run trained %d batches, want at least %d", res.Batches, paced)
	}
	if res.ValidationMSE <= 0 {
		t.Fatal("no validation recorded")
	}
	if res.ValidationMSEKelvin <= res.ValidationMSE {
		t.Fatal("Kelvin-scale MSE should exceed normalized MSE")
	}
	if len(res.ValidationCurve) == 0 || len(res.TrainCurve) == 0 {
		t.Fatal("curves missing")
	}
	if res.Throughput <= 0 || res.WallTime <= 0 {
		t.Fatal("throughput accounting broken")
	}

	// The surrogate predicts fields of the right shape within the
	// physically plausible range (trained on [100,500] K).
	p := HeatParams{TIC: 300, TX1: 200, TY1: 400, TX2: 250, TY2: 350}
	field := res.Surrogate.PredictHeat(p, 0.04)
	if len(field) != cfg.GridN*cfg.GridN {
		t.Fatalf("field length %d", len(field))
	}
	for _, v := range field {
		if v < 0 || v > 700 || math.IsNaN(v) {
			t.Fatalf("implausible prediction %v", v)
		}
	}
}

func TestRunOnlineDeterministicConfigSurface(t *testing.T) {
	// Two runs with the same seed produce the same unique-sample set size
	// and the same network shape. (Wall-clock interleaving means training
	// order — and thus exact weights — can differ across live runs; full
	// determinism is a property of the simulated mode.)
	cfg := tinyConfig()
	a, err := RunOnline(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOnline(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.UniqueSamples != b.UniqueSamples {
		t.Fatal("unique sample sets differ across seeded runs")
	}
	if a.Surrogate.NumParams() != b.Surrogate.NumParams() {
		t.Fatal("architectures differ")
	}
}

func TestSurrogateSaveLoadRoundtrip(t *testing.T) {
	cfg := tinyConfig()
	res, err := RunOnline(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Surrogate.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSurrogate(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m := loaded.Meta(); m.Problem != HeatName || m.GridN != cfg.GridN || m.StepsPerSim != cfg.StepsPerSim {
		t.Fatalf("metadata not restored: %+v", m)
	}
	p := HeatParams{TIC: 150, TX1: 450, TY1: 300, TX2: 200, TY2: 380}
	a := res.Surrogate.PredictHeat(p, 0.05)
	b := loaded.PredictHeat(p, 0.05)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loaded surrogate predicts differently")
		}
	}
}

func TestPredictBatchMatchesSingle(t *testing.T) {
	res, err := RunOnline(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	ps := []HeatParams{
		{TIC: 300, TX1: 200, TY1: 400, TX2: 250, TY2: 350},
		{TIC: 120, TX1: 480, TY1: 160, TX2: 440, TY2: 220},
	}
	ts := []float64{0.02, 0.06}
	batch, err := res.Surrogate.PredictBatchHeat(ps, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		single := res.Surrogate.PredictHeat(ps[i], ts[i])
		for j := range single {
			if math.Abs(single[j]-batch[i][j]) > 1e-3 {
				t.Fatalf("batch/single mismatch at %d/%d: %v vs %v", i, j, batch[i][j], single[j])
			}
		}
	}
	if _, err := res.Surrogate.PredictBatchHeat(ps, ts[:1]); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if _, err := res.Surrogate.PredictBatch([][]float64{{1, 2}}, []float64{0.1}); err == nil {
		t.Fatal("expected parameter-dimension error")
	}
	if out, err := res.Surrogate.PredictBatch(nil, nil); err != nil || out == nil || len(out) != 0 {
		t.Fatalf("empty batch: got %v, %v; want an empty slice and no error", out, err)
	}
}

func TestSolveGroundTruth(t *testing.T) {
	p := HeatParams{TIC: 300, TX1: 300, TY1: 300, TX2: 300, TY2: 300}
	fields, err := Solve(p, 8, 5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 5 || len(fields[0]) != 64 {
		t.Fatalf("shape %d × %d", len(fields), len(fields[0]))
	}
	// Uniform temperatures stay uniform.
	for _, f := range fields {
		for _, v := range f {
			if math.Abs(v-300) > 1e-8 {
				t.Fatalf("steady state drifted: %v", v)
			}
		}
	}
	if _, err := Solve(p, 0, 5, 0.01); err == nil {
		t.Fatal("expected error for invalid grid")
	}
}

func TestRunOnlineContextCancel(t *testing.T) {
	cfg := tinyConfig()
	cfg.Simulations = 50 // most of the ensemble is still to run at batch 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.batchHook = func(int) { cancel() }
	if _, err := RunOnline(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunOnline cancelled at the first batch: err %v, want context.Canceled", err)
	}
}
