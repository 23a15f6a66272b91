package melissa

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"melissa/internal/nn"
)

// randQueries draws n in-range float32 queries for a problem.
func randQueries(prob Problem, n int, rng *rand.Rand) (params [][]float32, ts []float32) {
	min, max := prob.ParamBounds()
	params = make([][]float32, n)
	ts = make([]float32, n)
	for i := range params {
		p := make([]float32, len(min))
		for j := range p {
			p[j] = float32(min[j] + rng.Float64()*(max[j]-min[j]))
		}
		params[i] = p
		ts[i] = float32(rng.IntN(6)) + 1
	}
	return params, ts
}

// TestReplicaBatchInvariant: with the forward shape pinned at MaxBatch, a
// query's answer must be bit-identical no matter which other requests it is
// coalesced with, which batch slot it lands in, or which replica runs it —
// the invariant the serving tier's micro-batcher and prediction cache are
// built on. It also pins the one inference path: Predict is bit-identical
// to a NewReplica(1) answer, and each row of PredictBatch(n) to the same
// row of a NewReplica(n) batch.
func TestReplicaBatchInvariant(t *testing.T) {
	for _, prob := range []Problem{Heat(), GrayScott()} {
		s := freshSurrogate(prob)
		rep := s.NewReplica(16)
		rng := rand.New(rand.NewPCG(3, 5))
		params, ts := randQueries(prob, 16, rng)
		// Reference answers: each query alone in slot 0 of a fresh replica.
		ref := make([][]float32, len(params))
		other := s.NewReplica(16)
		for q := range params {
			ref[q] = replicaRows(t, other, params[q:q+1], ts[q:q+1])[0]
		}
		for _, n := range []int{1, 2, 3, 7, 8, 13, 16} {
			// Shift the queries so each batch size exercises different slots.
			off := rng.IntN(len(params))
			err := rep.PredictBatchRaw(n,
				func(i int) ([]float32, float32) { q := (off + i) % len(params); return params[q], ts[q] },
				func(i int, field []float32) {
					q := (off + i) % len(params)
					if len(field) != len(ref[q]) {
						t.Fatalf("%s n=%d: field length %d, want %d", prob.Name(), n, len(field), len(ref[q]))
					}
					for j := range field {
						if math.Float32bits(field[j]) != math.Float32bits(ref[q][j]) {
							t.Fatalf("%s n=%d slot %d query %d: field[%d] = %x, reference %x",
								prob.Name(), n, i, q, j, math.Float32bits(field[j]), math.Float32bits(ref[q][j]))
						}
					}
				})
			if err != nil {
				t.Fatalf("%s n=%d: %v", prob.Name(), n, err)
			}
		}
		p64 := make([][]float64, len(params))
		t64 := make([]float64, len(ts))
		for q := range params {
			p64[q] = make([]float64, len(params[q]))
			for j, v := range params[q] {
				p64[q][j] = float64(v)
			}
			t64[q] = float64(ts[q])
		}
		same := func(what string, got []float64, want []float32) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d values, replica gives %d", prob.Name(), what, len(got), len(want))
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(float64(want[j])) {
					t.Fatalf("%s %s: field[%d] = %v, replica gives %v", prob.Name(), what, j, got[j], want[j])
				}
			}
		}
		one := s.NewReplica(1)
		for q := range params {
			want := replicaRows(t, one, params[q:q+1], ts[q:q+1])
			same(fmt.Sprintf("Predict query %d", q), s.Predict(p64[q], t64[q]), want[0])
		}
		for _, n := range []int{1, 3, 7, 16} {
			want := replicaRows(t, s.NewReplica(n), params[:n], ts[:n])
			got, err := s.PredictBatch(p64[:n], t64[:n])
			if err != nil {
				t.Fatal(err)
			}
			for r := range want {
				same(fmt.Sprintf("PredictBatch n=%d row %d", n, r), got[r], want[r])
			}
		}
	}
}

// replicaRows runs one batch of len(params) queries on rep and returns
// copies of the answers.
func replicaRows(t *testing.T, rep *Replica, params [][]float32, ts []float32) [][]float32 {
	t.Helper()
	out := make([][]float32, len(params))
	err := rep.PredictBatchRaw(len(params),
		func(i int) ([]float32, float32) { return params[i], ts[i] },
		func(i int, field []float32) { out[i] = append([]float32(nil), field...) })
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReplicaSharesWeights: NewReplica must not copy the weight slab — the
// whole point of the replica pool is N workers against one model's memory.
func TestReplicaSharesWeights(t *testing.T) {
	s := freshSurrogate(Heat())
	rep := s.NewReplica(4)
	sp := s.net.Params()
	rp := rep.net.Params()
	if len(sp) != len(rp) {
		t.Fatalf("param count %d vs %d", len(rp), len(sp))
	}
	for i := range sp {
		if &sp[i].Value.Data[0] != &rp[i].Value.Data[0] {
			t.Fatalf("param %q: replica has private weight storage", sp[i].Name)
		}
	}
}

// TestReplicaBatchZeroAlloc gates the serving compute hot path: once the
// activation shape caches are warm, a replica batch call must not allocate.
func TestReplicaBatchZeroAlloc(t *testing.T) {
	s := freshSurrogate(Heat())
	rep := s.NewReplica(8)
	rng := rand.New(rand.NewPCG(7, 9))
	params, ts := randQueries(Heat(), 8, rng)
	query := func(i int) ([]float32, float32) { return params[i], ts[i] }
	emit := func(i int, field []float32) { _ = field[0] }
	for i := 0; i < 2; i++ { // warm the (single, fixed-shape) activation caches
		if err := rep.PredictBatchRaw(8, query, emit); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{1, 3, 8} {
		avg := testing.AllocsPerRun(100, func() {
			if err := rep.PredictBatchRaw(n, query, emit); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("batch of %d allocates %.2f allocs/op, want 0", n, avg)
		}
	}
}

// TestReplicaNarrowOutput: a surrogate whose OutputDim is smaller than its
// InputDim (a near-scalar field) must still batch-predict — regression for
// staging the raw input row in a buffer sized only to the output.
func TestReplicaNarrowOutput(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Problem = Heat()
	cfg.GridN = 1 // OutputDim 1 < InputDim (ParamDim+1)
	cfg.StepsPerSim = 6
	cfg.Hidden = []int{8}
	norm := cfg.Problem.Normalizer(cfg)
	net := nn.ArchitectureMLP(norm.InputDim(), cfg.Hidden, norm.OutputDim(), cfg.Seed)
	s := newSurrogate(net, norm, surrogateMeta(cfg, cfg.Problem))
	if s.OutputDim() >= norm.InputDim() {
		t.Fatalf("test wants OutputDim < InputDim, got %d >= %d", s.OutputDim(), norm.InputDim())
	}
	rep := s.NewReplica(4)
	rng := rand.New(rand.NewPCG(1, 2))
	params, ts := randQueries(Heat(), 4, rng)
	emitted := 0
	err := rep.PredictBatchRaw(4,
		func(i int) ([]float32, float32) { return params[i], ts[i] },
		func(i int, field []float32) {
			emitted++
			if len(field) != s.OutputDim() {
				t.Fatalf("field length %d, want %d", len(field), s.OutputDim())
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != 4 {
		t.Fatalf("emit called %d times, want 4", emitted)
	}
}

// TestReplicaRejectsBadBatch: out-of-range sizes and wrong parameter counts
// must error without panicking mid-batch.
func TestReplicaRejectsBadBatch(t *testing.T) {
	s := freshSurrogate(Heat())
	rep := s.NewReplica(3)
	if rep.MaxBatch() != 3 {
		t.Fatalf("MaxBatch = %d, want 3", rep.MaxBatch())
	}
	noEmit := func(int, []float32) { t.Fatal("emit called for rejected batch") }
	if err := rep.PredictBatchRaw(0, nil, noEmit); err == nil {
		t.Fatal("batch of 0 accepted")
	}
	if err := rep.PredictBatchRaw(4, nil, noEmit); err == nil {
		t.Fatal("batch beyond MaxBatch accepted")
	}
	bad := func(i int) ([]float32, float32) { return []float32{1}, 1 }
	if err := rep.PredictBatchRaw(1, bad, noEmit); err == nil {
		t.Fatal("wrong parameter count accepted")
	}
}

// TestPublishSurrogate: the atomic publisher must produce a loadable
// self-describing checkpoint and leave no temporary droppings behind.
func TestPublishSurrogate(t *testing.T) {
	s := freshSurrogate(Heat())
	dir := t.TempDir()
	path := filepath.Join(dir, "surrogate.mlsg")
	for i := 0; i < 2; i++ { // second publish overwrites the first in place
		if err := PublishSurrogate(s, path); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := LoadSurrogateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p := midPoint(Heat())
	want := s.Predict(p, 1)
	got := loaded.Predict(p, 1)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("published checkpoint diverges at %d: %v vs %v", i, got[i], want[i])
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("publish left %d files in dir, want 1", len(entries))
	}
}
