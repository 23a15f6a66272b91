package main

import (
	"fmt"
	"time"

	"melissa"
	"melissa/internal/buffer"
	"melissa/internal/core"
	"melissa/internal/ddp"
	"melissa/internal/nn"
	"melissa/internal/opt"
	"melissa/internal/tensor"
)

const (
	probeWarmup = 20
	probeIters  = 200
)

// stepProbe times one training step's layers in isolation at the stage's
// shapes: batch assembly, forward, backward, the bucketed gradient
// all-reduce between two ranks (the stage's own ring for tcp, a channel
// ring otherwise), and Adam. Their sum set beside core.step_p50_us shows
// what the live step spends on sync, batch waits and contention.
func stepProbe(c ensembleConfig, seed uint64, norm core.Normalizer, groups []ddp.RankGroup, tr *Tracer) (map[string]float64, error) {
	spec := core.ModelSpec{InputDim: norm.InputDim(), Hidden: c.hidden, OutputDim: norm.OutputDim(), Seed: seed}
	var nets [2]*nn.Network
	for r := range nets {
		n, err := spec.Build()
		if err != nil {
			return nil, err
		}
		nets[r] = n
	}
	comms := [2]ddp.Communicator{}
	granks := [2]int{0, 1}
	if groups == nil {
		ch := ddp.NewCommunicator(2)
		comms[0], comms[1] = ch, ch
	} else {
		for r, g := range groups {
			comms[r], granks[r] = g.Comm, g.Offset
		}
	}
	gen := queryGen{seed: seed, tMax: float32(float64(c.steps) * c.dt)}
	batch := make([]buffer.Sample, c.batch)
	for i := range batch {
		q := gen.at(0xbb, uint64(i))
		out := make([]float32, norm.OutputDim())
		for j := range out {
			out[j] = 100 + 400*unit(splitmix(uint64(i*len(out)+j)))
		}
		batch[i] = buffer.Sample{SimID: i, Step: 1, Input: append(q.params[:], q.t), Output: out}
	}
	in, target := tensor.New(c.batch, norm.InputDim()), tensor.New(c.batch, norm.OutputDim())
	loss := nn.NewMSELoss()
	adam := opt.NewAdam(1e-3)
	buckets := nets[0].GradBuckets()

	// Rank 1 mirrors rank 0's collectives on its own goroutine.
	go1 := make(chan struct{})
	done1 := make(chan error)
	go func() {
		grads := nets[1].FlatGrads()
		for range go1 {
			var err error
			for _, b := range buckets {
				if err = comms[1].AllReduceSumRange(granks[1], grads, b.Lo, b.Hi); err != nil {
					break
				}
			}
			done1 <- err
		}
	}()
	defer close(go1)

	names := []string{"core.build_batch", "nn.forward", "nn.backward", "ddp.allreduce", "opt.adam"}
	times := make([]durations, len(names))
	grads := nets[0].FlatGrads()
	for it := 0; it < probeWarmup+probeIters; it++ {
		var t [6]time.Time
		t[0] = time.Now()
		core.BuildBatch(norm, batch, in, target)
		t[1] = time.Now()
		pred := nets[0].Forward(in)
		loss.Forward(pred, target)
		t[2] = time.Now()
		nets[0].ZeroGrad()
		nets[0].Backward(loss.Backward(pred, target))
		t[3] = time.Now()
		go1 <- struct{}{}
		var err error
		for _, b := range buckets {
			if err = comms[0].AllReduceSumRange(granks[0], grads, b.Lo, b.Hi); err != nil {
				break
			}
		}
		if err1 := <-done1; err == nil {
			err = err1
		}
		if err != nil {
			return nil, fmt.Errorf("probe all-reduce: %w", err)
		}
		t[4] = time.Now()
		adam.StepFlat(nets[0].FlatParams(), grads)
		t[5] = time.Now()
		if it < probeWarmup {
			continue
		}
		parent := tr.NewID()
		for k := range names {
			times[k] = append(times[k], t[k+1].Sub(t[k]))
			tr.Add(parent, names[k], int64(it), t[k], t[k+1])
		}
		tr.Record(parent, 0, "probe.step", int64(it), t[0], t[5])
	}
	out := map[string]float64{}
	sum := 0.0
	for k, n := range names {
		v := percentile(times[k].sortedMicros(), 0.5)
		out[n+"_us"] = v
		sum += v
	}
	out["probe.sum_us"] = sum
	return out, nil
}

// replicaProbe times PredictBatchRaw on one row and on a full batch.
func replicaProbe(sur *melissa.Surrogate, maxBatch int, seed uint64, tr *Tracer) (one, full float64, err error) {
	rep := sur.NewReplica(maxBatch)
	meta := sur.Meta()
	gen := queryGen{seed: seed, tMax: float32(float64(meta.StepsPerSim) * meta.Dt)}
	qs := make([]query, maxBatch)
	for i := range qs {
		qs[i] = gen.at(0xcc, uint64(i))
	}
	query := func(i int) ([]float32, float32) { return qs[i].params[:], qs[i].t }
	emit := func(int, []float32) {}
	timeRows := func(n int, name string) (float64, error) {
		var d durations
		for it := 0; it < probeWarmup+probeIters; it++ {
			t0 := time.Now()
			if err := rep.PredictBatchRaw(n, query, emit); err != nil {
				return 0, err
			}
			t1 := time.Now()
			if it >= probeWarmup {
				d = append(d, t1.Sub(t0))
				tr.Add(0, name, int64(it), t0, t1)
			}
		}
		return percentile(d.sortedMicros(), 0.5), nil
	}
	if one, err = timeRows(1, "replica.forward1"); err != nil {
		return 0, 0, err
	}
	full, err = timeRows(maxBatch, "replica.forward32")
	return one, full, err
}
