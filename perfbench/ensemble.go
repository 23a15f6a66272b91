package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"melissa"
	"melissa/internal/buffer"
	"melissa/internal/client"
	"melissa/internal/core"
	"melissa/internal/ddp"
	"melissa/internal/launcher"
	"melissa/internal/nn"
	"melissa/internal/opt"
	"melissa/internal/sampling"
	"melissa/internal/server"
	"melissa/internal/solver"
)

// ensembleConfig is the ensemble→train stage of a workload.
type ensembleConfig struct {
	tcp             bool // two single-rank servers over a loopback ring instead of one two-rank server
	grid, steps     int
	dt              float64
	hidden          []int
	sims, valSims   int
	testSims        int // held-out simulations val_mse is scored on
	clients         int // concurrent solver clients
	batch           int // per rank
	capacity        int // Reservoir capacity per rank
	threshold       int
	validateEvery   int
	checkpointEvery int     // rank 0 server checkpoints, tcp only; 0 disables
	rmseLimitK      float64 // accuracy bound of the held-out simulation, Kelvin
	mseLimit        float64 // bound on val_mse, normalized
	timeout         time.Duration
}

// problem returns the melissa configuration the stage trains for.
func (c ensembleConfig) problem(seed uint64) melissa.Config {
	return melissa.Config{Problem: melissa.Heat(), GridN: c.grid, StepsPerSim: c.steps, Dt: c.dt, Hidden: c.hidden, Seed: seed}
}

// ensembleResult is what the serve stage and the report need from the
// ensemble stage.
type ensembleResult struct {
	surrogate *melissa.Surrogate
	alternate *melissa.Surrogate                           // same architecture, other weights: the busy phase reloads between the two
	probe     func(tr *Tracer) (map[string]float64, error) // step probe at this stage's shapes
	closeFn   func()
	heap      *heapPeak // still sampling: the serve stage is part of this repetition's window
}

// Seeds for the input streams derived from the workload seed, so the
// ensemble, validation and held-out designs never share points.
const (
	valSeedXor     = 0x5eed0ff5
	testSeedXor    = 0x7e57d00d
	heldOutSeedXor = 0xacc0acc0
)

func heatSpace() (sampling.Space, error) {
	lo, hi := melissa.Heat().ParamBounds()
	return sampling.NewSpace(lo, hi)
}

// simTap wraps every solver the stage runs: it counts the steps each
// simulation produces and when the last one was produced, and — traced —
// records a span per StepOnce and per gap between steps, which is the
// client's Send plus its backpressure wait.
type simTap struct {
	tr       *Tracer
	steps    int
	produced []atomic.Int32
	lastStep atomic.Int64 // UnixNano of the latest step produced
}

func newSimTap(tr *Tracer, sims, steps int) *simTap {
	return &simTap{tr: tr, steps: steps, produced: make([]atomic.Int32, sims)}
}

func (p *simTap) wrap(simID int, s solver.Simulator) solver.Simulator {
	return &tappedSim{Simulator: s, tap: p, sim: simID, id: p.tr.NewID(), born: time.Now()}
}

type tappedSim struct {
	solver.Simulator
	tap  *simTap
	sim  int
	id   int64
	born time.Time
	last time.Time
}

func (s *tappedSim) StepOnce() error {
	t0 := time.Now()
	if err := s.Simulator.StepOnce(); err != nil {
		return err
	}
	t1 := time.Now()
	tap := s.tap
	tap.produced[s.sim].Add(1)
	for now := t1.UnixNano(); ; {
		old := tap.lastStep.Load()
		if now <= old || tap.lastStep.CompareAndSwap(old, now) {
			break
		}
	}
	if tr := tap.tr; tr != nil {
		key := int64(s.sim)
		if !s.last.IsZero() {
			tr.Add(s.id, "client.send", key, s.last, t0)
		}
		tr.Add(s.id, "solver.step", key, t0, t1)
		if s.StepIndex() >= tap.steps {
			tr.Record(s.id, 0, "client.sim", key, s.born, t1)
		}
	}
	s.last = t1
	return nil
}

// batchTap is the trainer's OnBatchEnd hook. It runs on global rank 0's
// training goroutine only; the times are read after training returns.
type batchTap struct {
	traced bool
	times  []time.Time
}

func (b *batchTap) hook(int) {
	if b.traced {
		b.times = append(b.times, time.Now())
	}
}

// freeLoopbackAddrs reserves n loopback ports for the collective ring by
// binding and releasing them; the window in which another process could
// take one is a few microseconds.
func freeLoopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

// connectRing forms the two-process gradient ring of the tcp topology.
func connectRing() ([]ddp.RankGroup, error) {
	addrs, err := freeLoopbackAddrs(2)
	if err != nil {
		return nil, err
	}
	groups := make([]ddp.RankGroup, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for p := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			groups[p], errs[p] = ddp.ConnectGroup(p, addrs, 1, 10*time.Second)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, g := range groups {
			if g.Comm != nil {
				g.Close()
			}
		}
		return nil, fmt.Errorf("forming gradient ring: %w", err)
	}
	return groups, nil
}

// solveSim runs one simulation and returns its steps as samples.
func solveSim(c ensembleConfig, mcfg melissa.Config, params []float64, simID int) ([]buffer.Sample, error) {
	sim, err := melissa.Heat().NewSimulator(mcfg, params)
	if err != nil {
		return nil, err
	}
	samples := make([]buffer.Sample, 0, c.steps)
	for sim.StepIndex() < c.steps {
		if err := sim.StepOnce(); err != nil {
			return nil, err
		}
		in := make([]float32, 0, len(params)+1)
		for _, v := range params {
			in = append(in, float32(v))
		}
		in = append(in, float32(float64(sim.StepIndex())*c.dt))
		field := sim.Field()
		out := make([]float32, len(field))
		for j, v := range field {
			out[j] = float32(v)
		}
		samples = append(samples, buffer.Sample{SimID: simID, Step: sim.StepIndex(), Input: in, Output: out})
	}
	return samples, nil
}

// heldOutDesign draws n simulation parameters from a stream of their own.
func heldOutDesign(seed uint64, n int) ([][]float64, error) {
	space, err := heatSpace()
	if err != nil {
		return nil, err
	}
	design := sampling.NewMonteCarlo(space.Dim(), seed)
	params := make([][]float64, n)
	for i := range params {
		params[i] = space.Scale(design.Next())
	}
	return params, nil
}

// validationSet solves the trainer's validation simulations, as the
// system does at set-up.
func validationSet(c ensembleConfig, seed uint64, norm core.Normalizer) (*core.ValidationSet, error) {
	params, err := heldOutDesign(seed^valSeedXor, c.valSims)
	if err != nil {
		return nil, err
	}
	var samples []buffer.Sample
	for i, p := range params {
		s, err := solveSim(c, c.problem(seed), p, -1-i)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s...)
	}
	return core.NewValidationSet(norm, samples), nil
}

// testMSE scores the trained network on c.testSims held-out simulations,
// more than the trainer's validation set holds so that the figure does
// not hinge on a few simulations. They are solved and scored one at a
// time on two goroutines; every simulation has the same number of steps,
// so the mean of their MSEs is the MSE over all their samples.
func testMSE(c ensembleConfig, seed uint64, norm core.Normalizer, net *nn.Network) (float64, error) {
	params, err := heldOutDesign(seed^testSeedXor, c.testSims)
	if err != nil {
		return 0, err
	}
	mse := make([]float64, len(params))
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := net.Clone()
			for i := w; i < len(params) && errs[w] == nil; i += len(errs) {
				var samples []buffer.Sample
				if samples, errs[w] = solveSim(c, c.problem(seed), params[i], -1-i); errs[w] == nil {
					mse[i] = core.Validate(own, core.NewValidationSet(norm, samples), 4*c.batch)
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	sum := 0.0
	for _, v := range mse {
		sum += v
	}
	return sum / float64(len(mse)), nil
}

func (c ensembleConfig) trainerConfig(seed uint64, norm core.Normalizer, val *core.ValidationSet, hook func(int)) core.TrainerConfig {
	return core.TrainerConfig{
		BatchSize: c.batch,
		Model: core.ModelSpec{
			InputDim:  norm.InputDim(),
			Hidden:    c.hidden,
			OutputDim: norm.OutputDim(),
			Seed:      seed,
		},
		Normalizer:       norm,
		LearningRate:     1e-3,
		Schedule:         opt.PaperSchedule(),
		Validation:       val,
		ValidateEvery:    c.validateEvery,
		TrackOccurrences: true,
		OnBatchEnd:       hook,
	}
}

func (c ensembleConfig) bufferConfig(seed uint64) buffer.Config {
	return buffer.Config{Kind: buffer.ReservoirKind, Capacity: c.capacity, Threshold: c.threshold, Seed: seed}
}

// trainOutcome is what either topology hands back after training.
type trainOutcome struct {
	net            *nn.Network
	metrics        []*core.Metrics // one per server process; [0] holds global rank 0's counters
	clientRestarts int
	serverRestarts int
}

// ensembleReps is how many times a pass runs the ensemble stage, each
// time on another ensemble drawn from the workload seed. Each of its
// figures is the median over the repetitions, so neither one ensemble's
// solver costs nor a burst of load from other guests on the host during
// one repetition moves it.
const ensembleReps = 5

// runEnsemble runs the ensemble stage ensembleReps times and returns the
// last repetition's result. With warmup, an unmeasured repetition on a
// half-size ensemble of its own runs first: the first ensemble a process
// runs is slower than the rest (heap growth, cold code and caches), and
// would otherwise pull the median of its figures. Its checks still count.
func runEnsemble(c ensembleConfig, seed uint64, warmup bool, tr *Tracer, rep *report, scratch string) (*ensembleResult, error) {
	if warmup {
		warm := newReport()
		wc := c
		wc.sims /= 2
		if _, err := ensembleOnce(wc, splitmix(seed+ensembleReps), nil, warm, scratch, -1, false); err != nil {
			return nil, err
		}
		rep.attempt(warm.attempted, warm.failed)
		rep.checks = append(rep.checks, warm.checks...)
	}
	var res *ensembleResult
	for r := 0; r < ensembleReps; r++ {
		var err error
		if res, err = ensembleOnce(c, splitmix(seed+uint64(r)), tr, rep, scratch, r, r == ensembleReps-1); err != nil {
			return nil, err
		}
	}
	for _, name := range []string{"generation_s", "makespan_s", "train_samples_per_s"} {
		rep.info("ensemble repetitions: %s %.4g", name, rep.samples[name])
	}
	return res, nil
}

// ensembleOnce runs the stage once: set-up, the ensemble streamed into
// training, and the checks on its output. The last repetition also scores
// the model and prepares what the serve stage and the probes need.
func ensembleOnce(c ensembleConfig, seed uint64, tr *Tracer, rep *report, scratch string, r int, last bool) (*ensembleResult, error) {
	mcfg := c.problem(seed)
	norm := core.AdaptNormalizer(melissa.Heat().Normalizer(mcfg))
	space, err := heatSpace()
	if err != nil {
		return nil, err
	}
	tap := newSimTap(tr, c.sims, c.steps)
	bt := &batchTap{traced: tr != nil}
	newSim := func(params []float64) (solver.Simulator, error) { return melissa.Heat().NewSimulator(mcfg, params) }
	runtime.GC()
	heap := startHeapPeak()

	// Set-up: the trainer's validation set and the topology's construction.
	start := time.Now()
	val, err := validationSet(c, seed, norm)
	if err != nil {
		return nil, err
	}
	var l *launcher.Launcher
	var groups []ddp.RankGroup
	var servers []*server.Server
	ckptPath := ""
	if c.tcp {
		if groups, err = connectRing(); err != nil {
			return nil, err
		}
		if c.checkpointEvery > 0 {
			ckptPath = filepath.Join(scratch, "server.ckpt")
		}
		for p, g := range groups {
			scfg := server.Config{
				Ranks:           1,
				Group:           g,
				Buffer:          c.bufferConfig(seed),
				Trainer:         c.trainerConfig(seed, norm, val, nil),
				ExpectedClients: c.sims,
			}
			if p == 0 {
				scfg.Trainer.OnBatchEnd = bt.hook
				scfg.CheckpointPath = ckptPath
				scfg.CheckpointEveryBatches = c.checkpointEvery
			}
			srv, err := server.New(scfg)
			if err != nil {
				return nil, err
			}
			servers = append(servers, srv)
		}
	} else {
		lcfg := launcher.Config{
			Server: server.Config{
				Ranks:   2,
				Buffer:  c.bufferConfig(seed),
				Trainer: c.trainerConfig(seed, norm, val, bt.hook),
			},
			NewSim:               newSim,
			Steps:                c.steps,
			Dt:                   c.dt,
			Design:               sampling.NewMonteCarlo(space.Dim(), seed),
			Space:                space,
			Simulations:          c.sims,
			MaxConcurrentClients: c.clients,
			MaxClientRetries:     2,
			JobHook: func(simID, _ int, job *client.Job) {
				inner := job.NewSim
				job.NewSim = func() (solver.Simulator, error) {
					s, err := inner()
					if err != nil {
						return nil, err
					}
					return tap.wrap(simID, s), nil
				}
			},
		}
		if l, err = launcher.New(lcfg); err != nil {
			return nil, err
		}
	}
	rep.add("setup.ensemble_s", time.Since(start).Seconds())
	closeGroups := func() {
		for _, g := range groups {
			g.Close()
		}
	}

	// Launch. A cancelled run can hang, so the stage is never cancelled:
	// past its time limit it is reported as failed and the process exits
	// without waiting for it.
	launch := time.Now()
	stageID := tr.NewID()
	done := make(chan error, 1)
	var out trainOutcome
	if c.tcp {
		go func() { done <- runTCP(c, seed, space, servers, tap, newSim, &out) }()
	} else {
		go func() {
			res, err := l.Run(context.Background())
			if err == nil {
				out = trainOutcome{net: res.Network, metrics: []*core.Metrics{res.Metrics}, clientRestarts: res.ClientRestarts, serverRestarts: res.ServerRestarts}
			}
			done <- err
		}()
	}
	select {
	case err := <-done:
		if err != nil {
			return nil, fmt.Errorf("ensemble: %w", err)
		}
	case <-time.After(c.timeout):
		return nil, fmt.Errorf("ensemble did not finish within %v", c.timeout)
	}
	if !last {
		defer closeGroups()
	}
	sur, err := melissa.SurrogateFromNetwork(out.net, mcfg)
	if err != nil {
		return nil, err
	}
	end := time.Now()
	genEnd := time.Unix(0, tap.lastStep.Load())
	tr.Record(stageID, 0, "stage.ensemble", -1, launch, end)
	tr.Add(stageID, "ensemble.generation", -1, launch, genEnd)

	m0 := out.metrics[0]
	wall := m0.WallTime().Seconds()
	samples := m0.Samples()
	rep.add("train_samples_per_s", float64(samples)/wall)
	rep.add("generation_s", genEnd.Sub(launch).Seconds())
	rep.add("makespan_s", end.Sub(launch).Seconds())

	// Every produced step must reach a buffer exactly once: each simulation
	// produced its trajectory once, and the union of what the ranks trained
	// on is exactly the set of produced steps.
	trained := map[buffer.Key]bool{}
	for _, m := range out.metrics {
		for k := range m.Occurrences() {
			trained[k] = true
		}
	}
	lostSims, lostSteps, extra := 0, 0, 0
	for sim := range tap.produced {
		lost := 0
		extra += max(int(tap.produced[sim].Load())-c.steps, 0)
		for step := 1; step <= c.steps; step++ {
			if !trained[buffer.Key{SimID: sim, Step: step}] {
				lost++
			}
		}
		if lost > 0 {
			lostSims++
		}
		lostSteps += lost
	}
	stray := len(trained) - (c.sims*c.steps - lostSteps)
	rname := fmt.Sprintf("repetition %d", r)
	if r < 0 {
		rname = "warm-up"
	}
	rep.attempt(c.sims, lostSims+out.clientRestarts)
	rep.check("ensemble: every produced time step trained, each produced once",
		lostSteps == 0 && extra == 0 && stray == 0,
		fmt.Sprintf("%s: %d sims × %d steps, %d lost, %d produced twice, %d unexpected keys", rname, c.sims, c.steps, lostSteps, extra, stray))
	rep.check("ensemble: no client or server restarts", out.clientRestarts == 0 && out.serverRestarts == 0,
		fmt.Sprintf("%s: %d client, %d server restarts", rname, out.clientRestarts, out.serverRestarts))
	if tr != nil {
		addTrainLayers(c, tr, rep, stageID, bt.times, launch, genEnd, end, ckptPath)
		rep.add("launcher.client_restarts", float64(out.clientRestarts))
		rep.add("buffer.unique_samples", float64(len(trained)))
		rep.add("buffer.repeat_ratio", float64(samples)/float64(len(trained)))
		rep.add("core.batches", float64(m0.Batches()))
		sent, _ := m0.WireBytes()
		rep.add("ddp.wire_mb_per_step", float64(sent)/1e6/float64(max(m0.Batches(), 1)))
	}
	if !last {
		rep.add("peak_heap_mb", heap.end())
		return nil, nil
	}

	// The last repetition's model is scored, checked and served.
	mse, err := testMSE(c, seed, norm, out.net)
	if err != nil {
		return nil, err
	}
	rep.add("val_mse", mse)
	rep.check("ensemble: normalized MSE on held-out simulations within bound", mse <= c.mseLimit,
		fmt.Sprintf("MSE %.3g over %d simulations, bound %.3g", mse, c.testSims, c.mseLimit))

	// Accuracy: a held-out simulation against the solver.
	held, err := heldOutDesign(seed^heldOutSeedXor, 1)
	if err != nil {
		return nil, err
	}
	params := held[0]
	truth, err := melissa.Simulate(melissa.Heat(), mcfg, params)
	if err != nil {
		return nil, err
	}
	var sq float64
	var cells int
	var predictTimes durations
	predictParent := tr.NewID()
	pstart := time.Now()
	for step, field := range truth {
		t0 := time.Now()
		pred := sur.Predict(params, float64(step+1)*c.dt)
		t1 := time.Now()
		predictTimes = append(predictTimes, t1.Sub(t0))
		tr.Add(predictParent, "melissa.predict", int64(step+1), t0, t1)
		for i := range field {
			d := pred[i] - field[i]
			sq += d * d
		}
		cells += len(field)
	}
	tr.Record(predictParent, 0, "check.accuracy", -1, pstart, time.Now())
	rmse := math.Sqrt(sq / float64(cells))
	rep.check("ensemble: held-out simulation within RMSE bound", rmse <= c.rmseLimitK,
		fmt.Sprintf("RMSE %.3f K over %d steps, bound %.1f K", rmse, len(truth), c.rmseLimitK))

	if tr != nil {
		rep.add("melissa.predict_us", percentile(predictTimes.sortedMicros(), 0.5))
	}

	altNet, err := core.ModelSpec{InputDim: norm.InputDim(), Hidden: c.hidden, OutputDim: norm.OutputDim(), Seed: seed + 1}.Build()
	if err != nil {
		return nil, err
	}
	alt, err := melissa.SurrogateFromNetwork(altNet, mcfg)
	if err != nil {
		return nil, err
	}
	res := &ensembleResult{surrogate: sur, alternate: alt, heap: heap}
	res.probe = func(tr *Tracer) (map[string]float64, error) { return stepProbe(c, seed, norm, groups, tr) }
	res.closeFn = closeGroups
	return res, nil
}

// addTrainLayers derives the trainer's per-layer figures from the times
// OnBatchEnd fired on global rank 0.
func addTrainLayers(c ensembleConfig, tr *Tracer, rep *report, parent int64, times []time.Time, launch, genEnd, end time.Time, ckptPath string) {
	steps := make(durations, 0, len(times))
	for i := 1; i < len(times); i++ {
		steps = append(steps, times[i].Sub(times[i-1]))
		tr.Add(parent, "core.step", int64(i+1), times[i-1], times[i])
	}
	st := steps.sortedMicros()
	med := percentile(st, 0.5)
	rep.add("core.step_p50_us", med)
	rep.add("core.step_p99_us", percentile(st, 0.99))
	rep.add("core.step_max_ms", st[len(st)-1]/1000)
	rep.add("core.first_batch_s", times[0].Sub(launch).Seconds())
	rep.add("core.drain_s", end.Sub(genEnd).Seconds())
	stall, ckptMB := 0.0, 0.0
	if ckptPath != "" {
		var stalls []float64
		for i := 1; i < len(times); i++ {
			// Batch i+1 wrote its checkpoint before the hook ran.
			if (i+1)%c.checkpointEvery == 0 {
				stalls = append(stalls, (float64(times[i].Sub(times[i-1]))/1e3-med)/1000)
			}
		}
		if len(stalls) > 0 {
			stall = median(stalls)
		}
		if fi, err := os.Stat(ckptPath); err == nil {
			ckptMB = float64(fi.Size()) / 1e6
		}
	}
	rep.add("server.checkpoint_stall_ms", stall)
	rep.add("server.checkpoint_mb", ckptMB)
}

// runTCP runs the static multi-process topology in one process: the two
// servers train as one group over the loopback ring while c.clients
// solver clients at a time stream to both ranks.
func runTCP(c ensembleConfig, seed uint64, space sampling.Space, servers []*server.Server, tap *simTap, newSim func([]float64) (solver.Simulator, error), out *trainOutcome) error {
	design := sampling.NewMonteCarlo(space.Dim(), seed)
	params := make([][]float64, c.sims)
	for i := range params {
		params[i] = space.Scale(design.Next())
	}
	var addrs []string
	for _, s := range servers {
		addrs = append(addrs, s.Addrs()...)
	}
	srvErrs := make([]error, len(servers))
	var srvWG sync.WaitGroup
	for i, s := range servers {
		srvWG.Add(1)
		go func() {
			defer srvWG.Done()
			srvErrs[i] = s.Run(context.Background())
		}()
	}
	ids := make(chan int)
	clientErrs := make([]error, c.sims)
	var cliWG sync.WaitGroup
	for w := 0; w < c.clients; w++ {
		cliWG.Add(1)
		go func() {
			defer cliWG.Done()
			for id := range ids {
				clientErrs[id] = client.Run(context.Background(), client.Job{
					Client: client.Config{ClientID: id, SimID: id, ServerAddrs: addrs},
					NewSim: func() (solver.Simulator, error) {
						s, err := newSim(params[id])
						if err != nil {
							return nil, err
						}
						return tap.wrap(id, s), nil
					},
					Params: params[id],
					Steps:  c.steps,
					Dt:     c.dt,
				})
			}
		}()
	}
	for i := 0; i < c.sims; i++ {
		ids <- i
	}
	close(ids)
	cliWG.Wait()
	if err := errors.Join(clientErrs...); err != nil {
		// Without every Goodbye the servers would wait forever.
		return fmt.Errorf("solver clients failed: %w", err)
	}
	srvWG.Wait()
	if err := errors.Join(srvErrs...); err != nil {
		return err
	}
	out.net = servers[0].Trainer().Network()
	for _, s := range servers {
		out.metrics = append(out.metrics, s.Metrics())
	}
	return nil
}
