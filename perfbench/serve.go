package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"sync"
	"time"

	"melissa"
	"melissa/internal/protocol"
	"melissa/internal/serve"
)

// serveConfig is the serve-open stage of a workload: melissa-serve's
// defaults, three traffic phases sharing the run's --seconds, and the
// generator-health bound.
type serveConfig struct {
	replicas, maxBatch, cache int
	batchWait                 time.Duration

	loneQPS   float64 // open loop of unique queries that arrive alone
	busyQPS   float64 // open loop with a hot set and hot reloads, over all connections
	hotSet    int     // distinct hot queries in busy
	hotEvery  int     // one busy request in hotEvery repeats the hot set
	reloadGap time.Duration
	conns     int // predict connections; busy and saturate use all of them
	satDepth  int // saturate: requests in flight per connection

	loneShare, busyShare, satShare float64 // of --seconds

	deadline   time.Duration // per-request budget sent to the server
	maxLateP50 time.Duration // a phase whose generator ran later than this is invalid
}

// query is one predict input.
type query struct {
	params [5]float32
	t      float32
}

// Request outcomes.
const (
	stPending uint8 = iota
	stOK
	stShed
	stExpired
	stError
	stReset
)

// reqRecord is one request of a phase. The sender writes q, due and sent;
// the connection's reader writes the rest.
type reqRecord struct {
	q      query
	due    time.Duration // offset from the phase origin
	sent   time.Duration
	recv   time.Duration
	epoch  uint32
	hash   uint64
	state  uint8
	sentOK bool // the request reached the socket buffer
}

// queryGen draws queries deterministically from the workload seed.
type queryGen struct {
	seed uint64
	tMax float32
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float32 { return float32(h>>40) / float32(1<<24) }

// at returns query i of stream salt; distinct (salt, i) give distinct
// queries with overwhelming probability.
func (g queryGen) at(salt, i uint64) query {
	h := splitmix(g.seed ^ salt<<48 ^ i)
	var q query
	for k := range q.params {
		h = splitmix(h)
		q.params[k] = 100 + 400*unit(h)
	}
	h = splitmix(h)
	q.t = g.tMax * (0.01 + 0.99*unit(h))
	return q
}

// Query stream salts.
const (
	saltSetup = iota + 1
	saltLone
	saltHot
	saltBusy
	saltSat
	saltHit
)

// fieldHash fingerprints an answer's exact bits.
func fieldHash(field []float32) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range field {
		h ^= uint64(math.Float32bits(v))
		h *= 1099511628211
	}
	return h
}

// pconn is a pipelined predict connection: requests carry distinct IDs
// (record index + 1) and a reader goroutine matches the answers.
type pconn struct {
	nc   net.Conn
	w    *bufio.Writer
	br   *bufio.Reader
	rd   *protocol.Reader
	req  protocol.PredictRequest
	dlMs uint32
}

func dialPredict(addr string, deadline time.Duration) (*pconn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(nc, 256<<10)
	return &pconn{nc: nc, w: bufio.NewWriterSize(nc, 64<<10), br: br, rd: protocol.NewReader(br), dlMs: uint32(deadline.Milliseconds())}, nil
}

// send buffers one request; flush writes it.
func (c *pconn) send(id uint64, q *query) error {
	c.req.ID, c.req.T, c.req.Params, c.req.DeadlineMs = id, q.t, q.params[:], c.dlMs
	err := protocol.Write(c.w, &c.req)
	c.req.Params = nil
	return err
}

// readOne reads the next answer into recs (indexed by ID-1). It returns
// the record index, or an error when the stream broke.
func (c *pconn) readOne(recs []reqRecord, origin time.Time) (int, error) {
	msg, err := c.rd.Next()
	if err != nil {
		return -1, err
	}
	now := time.Since(origin)
	switch m := msg.(type) {
	case *protocol.PredictResponse:
		i := int(m.ID) - 1
		if i < 0 || i >= len(recs) {
			protocol.RecyclePredictResponse(m)
			return -1, fmt.Errorf("answer for unknown request %d", m.ID)
		}
		r := &recs[i]
		r.recv, r.epoch, r.hash, r.state = now, m.Epoch, fieldHash(m.Field), stOK
		protocol.RecyclePredictResponse(m)
		return i, nil
	case protocol.PredictError:
		i := int(m.ID) - 1
		if i < 0 || i >= len(recs) {
			return -1, fmt.Errorf("rejection for unknown request %d: %s", m.ID, m.Msg)
		}
		r := &recs[i]
		r.recv = now
		switch m.Code {
		case protocol.PredictErrOverloaded, protocol.PredictErrDraining:
			r.state = stShed
		case protocol.PredictErrExpired:
			r.state = stExpired
		default:
			r.state = stError
		}
		return i, nil
	default:
		return -1, fmt.Errorf("unexpected %T on a predict connection", msg)
	}
}

// failPending marks every request still waiting as torn down with its
// connection.
func failPending(recs []reqRecord) {
	for i := range recs {
		if recs[i].state == stPending {
			recs[i].state = stReset
		}
	}
}

// openLoop sends recs at their due times regardless of answers, sleeping
// between sends (a busy-spinning pacer starves the server), and returns
// once every request is answered or drainWait has passed after the last
// send.
func openLoop(c *pconn, recs []reqRecord, origin time.Time, drainWait time.Duration) {
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for n := 0; n < len(recs); n++ {
			if _, err := c.readOne(recs, origin); err != nil {
				return
			}
		}
	}()
	broken := false
	for i := 0; i < len(recs) && !broken; {
		now := time.Since(origin)
		for i < len(recs) && recs[i].due <= now {
			recs[i].sent = now
			if err := c.send(uint64(i+1), &recs[i].q); err != nil {
				broken = true
				break
			}
			recs[i].sentOK = true
			i++
		}
		if broken || c.w.Flush() != nil {
			break
		}
		if i < len(recs) {
			if d := recs[i].due - time.Since(origin); d > 0 {
				time.Sleep(d)
			}
		}
	}
	select {
	case <-readerDone:
	case <-time.After(drainWait):
		c.nc.Close()
		<-readerDone
	}
	failPending(recs)
}

// closedLoop keeps depth requests in flight on c until end, drawing
// queries from next, and returns the records it issued.
func closedLoop(c *pconn, depth int, capacity int, origin time.Time, end time.Duration, next func(i int) query, drainWait time.Duration) []reqRecord {
	recs := make([]reqRecord, 0, capacity)
	issue := func() error {
		i := len(recs)
		recs = append(recs, reqRecord{q: next(i), due: time.Since(origin), sentOK: true})
		recs[i].sent = recs[i].due
		return c.send(uint64(i+1), &recs[i].q)
	}
	fail := func() []reqRecord { failPending(recs); return recs }
	for k := 0; k < depth; k++ {
		if issue() != nil {
			return fail()
		}
	}
	if c.w.Flush() != nil {
		return fail()
	}
	answered := 0
	c.nc.SetReadDeadline(time.Now().Add(end - time.Since(origin) + drainWait))
	defer c.nc.SetReadDeadline(time.Time{})
	for answered < len(recs) {
		if _, err := c.readOne(recs, origin); err != nil {
			return fail()
		}
		answered++
		if time.Since(origin) < end && len(recs) < cap(recs) {
			if issue() != nil {
				return fail()
			}
		}
		// Flush once the answers already buffered are consumed, so a
		// burst of answers becomes one write.
		if c.br.Buffered() == 0 && c.w.Flush() != nil {
			return fail()
		}
	}
	return recs
}

// phaseStats summarizes one phase's latencies from due time.
type phaseStats struct {
	n           int
	p50, p99    float64 // microseconds
	supportsP99 bool
	lateP50     float64
	failed      int
}

func summarize(recs []reqRecord) phaseStats {
	var late durations
	st := phaseStats{n: len(recs)}
	for _, r := range recs {
		if r.sentOK {
			late = append(late, r.sent-r.due)
		}
		if r.state != stOK {
			st.failed++
		}
	}
	l := sortedLatencies(recs)
	st.p50, st.p99 = percentile(l, 0.5), percentile(l, 0.99)
	st.supportsP99 = supports(len(l), 0.99)
	g := late.sortedMicros()
	st.lateP50 = percentile(g, 0.5)
	return st
}

// serveSetup loads the published checkpoint, listens, and waits for the
// first answer — the serving tier's set-up as a user sees it.
func serveSetup(sc serveConfig, ckpt string, gen queryGen) (*serve.Server, *pconn, error) {
	srv, err := serve.LoadServer(serve.Config{
		CheckpointPath: ckpt,
		Replicas:       sc.replicas,
		MaxBatch:       sc.maxBatch,
		BatchWait:      sc.batchWait,
		CacheEntries:   sc.cache,
	})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	go srv.Serve(ln)
	c, err := dialPredict(ln.Addr().String(), sc.deadline)
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	recs := []reqRecord{{q: gen.at(saltSetup, 0)}}
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if err = c.send(1, &recs[0].q); err == nil {
		err = c.w.Flush()
	}
	if err == nil {
		_, err = c.readOne(recs, time.Now())
	}
	c.nc.SetReadDeadline(time.Time{})
	if err == nil && recs[0].state != stOK {
		err = fmt.Errorf("first request rejected (state %d)", recs[0].state)
	}
	if err != nil {
		c.nc.Close()
		srv.Close()
		return nil, nil, fmt.Errorf("serve set-up: %w", err)
	}
	return srv, c, nil
}

// serveRounds is how many times the three phases run, one after the
// other, each round getting an equal part of their share of --seconds.
// Each latency median and the capacity are the median over the rounds, so
// a burst of load from other guests on the host during one round does not
// move them.
const serveRounds = 5

// phaseRun holds one phase's records per connection and the serving
// counters around it.
type phaseRun struct {
	recs          []reqRecord // all connections, in due order per connection
	before, after serve.Stats
}

// runServe runs the serve-open stage on the surrogate the ensemble stage
// trained: publish, serve, drive the lone, busy and saturate phases, then
// check every answer against a local replica.
func runServe(sc serveConfig, ens *ensembleResult, seed uint64, seconds float64, tr *Tracer, rep *report, scratch string) error {
	pathA := filepath.Join(scratch, "trained.mlsg")
	pathB := filepath.Join(scratch, "alternate.mlsg")
	if err := melissa.PublishSurrogate(ens.surrogate, pathA); err != nil {
		return err
	}
	if err := melissa.PublishSurrogate(ens.alternate, pathB); err != nil {
		return err
	}
	meta := ens.surrogate.Meta()
	gen := queryGen{seed: seed, tMax: float32(float64(meta.StepsPerSim) * meta.Dt)}

	const setupReps = 3
	var srv *serve.Server
	var first *pconn
	for r := 0; r < setupReps; r++ {
		start := time.Now()
		s, c, err := serveSetup(sc, pathA, gen)
		if err != nil {
			return err
		}
		rep.add("setup.serve_s", time.Since(start).Seconds())
		if r < setupReps-1 {
			c.nc.Close()
			s.Close()
			continue
		}
		srv, first = s, c
	}
	defer srv.Close()
	addr := srv.Addr().String()
	conns := []*pconn{first}
	defer func() {
		for _, c := range conns {
			c.nc.Close()
		}
	}()
	for len(conns) < sc.conns {
		c, err := dialPredict(addr, sc.deadline)
		if err != nil {
			return err
		}
		conns = append(conns, c)
	}

	// Hot reloads run beside the reads of every busy round, one per
	// reloadGap and at least one per round, evenly spaced; they alternate
	// the weights: odd epochs serve the trained surrogate, even ones the
	// alternate.
	var reloadTimes durations
	reloads := 0
	reloadLoop := func(origin time.Time, busyDur time.Duration, stop <-chan struct{}, errOut *error) {
		count := max(1, int(busyDur/sc.reloadGap))
		for j := 0; j < count; j++ {
			at := origin.Add(time.Duration((float64(j) + 0.5) * float64(busyDur) / float64(count)))
			select {
			case <-stop:
				return
			case <-time.After(time.Until(at)):
			}
			reloads++
			path := pathA
			if reloads%2 == 1 {
				path = pathB
			}
			t0 := time.Now()
			if _, err := srv.Reload(path); err != nil {
				*errOut = err
				return
			}
			t1 := time.Now()
			reloadTimes = append(reloadTimes, t1.Sub(t0))
			tr.Add(0, "serve.reload", int64(reloads), t0, t1)
		}
	}

	perRound := func(share float64) time.Duration {
		return time.Duration(share * seconds * float64(time.Second) / serveRounds)
	}
	loneDur, busyDur, satDur := perRound(sc.loneShare), perRound(sc.busyShare), perRound(sc.satShare)
	drainWait := 5 * time.Second
	var lone, busy, sat []phaseRun
	var all []reqRecord
	for k := 0; k < serveRounds; k++ {
		// lone: unique queries at a rate where they arrive alone.
		n := int(sc.loneQPS * loneDur.Seconds())
		recs := make([]reqRecord, n)
		for i := range recs {
			recs[i] = reqRecord{q: gen.at(saltLone, uint64(k*n+i)), due: time.Duration(float64(i) / sc.loneQPS * float64(time.Second))}
		}
		pr := phaseRun{before: srv.Stats()}
		origin := time.Now()
		openLoop(conns[0], recs, origin, drainWait)
		pr.after, pr.recs = srv.Stats(), recs
		recordRequests(tr, "serve.lone", origin, recs)
		lone = append(lone, pr)

		if tr != nil && k == 0 {
			// A repeated query, one at a time: wire plus admit with no
			// batching.
			hit := make([]reqRecord, 300)
			q := gen.at(saltHit, 0)
			for i := range hit {
				hit[i] = reqRecord{q: q, due: time.Duration(i) * 2 * time.Millisecond}
			}
			ho := time.Now()
			openLoop(conns[0], hit, ho, drainWait)
			recordRequests(tr, "serve.hit", ho, hit)
			var lat durations
			for _, r := range hit[1:] {
				if r.state == stOK {
					lat = append(lat, r.recv-r.sent)
				}
			}
			rep.add("serve.hit_p50_us", percentile(lat.sortedMicros(), 0.5))
			all = append(all, hit...)
		}

		// busy: one request in hotEvery repeats a hot set, reloads run
		// beside the reads, and the stream is dealt round-robin over the
		// connections.
		perConn := int(sc.busyQPS * busyDur.Seconds() / float64(len(conns)))
		byConn := make([][]reqRecord, len(conns))
		for ci := range conns {
			recs := make([]reqRecord, perConn)
			for j := range recs {
				i := uint64(j*len(conns) + ci)
				q := gen.at(saltBusy, uint64(k*perConn*len(conns))+i)
				if h := splitmix(seed ^ 0xb05 ^ uint64(k)<<40 ^ i); h%uint64(sc.hotEvery) == 0 {
					q = gen.at(saltHot, (h>>32)%uint64(sc.hotSet))
				}
				recs[j] = reqRecord{q: q, due: time.Duration(float64(i) / sc.busyQPS * float64(time.Second))}
			}
			byConn[ci] = recs
		}
		pr = phaseRun{before: srv.Stats()}
		origin = time.Now()
		stop := make(chan struct{})
		reloadDone := make(chan struct{})
		var reloadErr error
		go func() {
			defer close(reloadDone)
			reloadLoop(origin, busyDur, stop, &reloadErr)
		}()
		var wg sync.WaitGroup
		for ci, c := range conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				openLoop(c, byConn[ci], origin, drainWait)
			}()
		}
		wg.Wait()
		close(stop)
		<-reloadDone
		if reloadErr != nil {
			return fmt.Errorf("hot reload: %w", reloadErr)
		}
		pr.after = srv.Stats()
		for _, recs := range byConn {
			recordRequests(tr, "serve.busy", origin, recs)
			pr.recs = append(pr.recs, recs...)
		}
		busy = append(busy, pr)

		// saturate: a closed loop of unique queries measuring capacity.
		pr = phaseRun{before: srv.Stats()}
		origin = time.Now()
		satRecs := make([][]reqRecord, len(conns))
		for ci, c := range conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				salt := uint64(saltSat + 16*(k*len(conns)+ci))
				satRecs[ci] = closedLoop(c, sc.satDepth, int(150_000*satDur.Seconds()), origin, satDur,
					func(i int) query { return gen.at(salt, uint64(i)) }, drainWait)
			}()
		}
		wg.Wait()
		pr.after = srv.Stats()
		answered := 0
		for _, recs := range satRecs {
			for _, r := range recs {
				if r.state == stOK && r.recv <= satDur {
					answered++
				}
			}
			recordRequests(tr, "serve.saturate", origin, recs)
			pr.recs = append(pr.recs, recs...)
		}
		rep.add("saturate_qps", float64(answered)/satDur.Seconds())
		sat = append(sat, pr)
	}

	var loneAll, busyAll []reqRecord
	for k := range lone {
		ls, bs := summarize(lone[k].recs), summarize(busy[k].recs)
		rep.add("lone_p50_us", ls.p50)
		rep.add("busy_p50_us", bs.p50)
		loneAll = append(loneAll, lone[k].recs...)
		busyAll = append(busyAll, busy[k].recs...)
		all = append(all, lone[k].recs...)
		all = append(all, busy[k].recs...)
		all = append(all, sat[k].recs...)
	}
	// The tails pool the rounds: a p99 needs 1000 samples.
	ls, bs := summarize(loneAll), summarize(busyAll)
	rep.add("lone_p99_us", ls.p99)
	rep.add("busy_p99_us", bs.p99)
	rep.info("serve samples: lone %d, busy %d, saturate %d requests in %d rounds, %d reloads",
		ls.n, bs.n, len(all)-ls.n-bs.n, serveRounds, reloads)
	rep.info("serve tails: lone p%g %.0f µs, busy p%g %.0f µs (highest percentiles with ≥%d samples beyond)",
		100*highestPercentile(ls.n-ls.failed), percentile(sortedLatencies(loneAll), highestPercentile(ls.n-ls.failed)),
		100*highestPercentile(bs.n-bs.failed), percentile(sortedLatencies(busyAll), highestPercentile(bs.n-bs.failed)), minBeyond)
	rep.check("serve: p99 has ≥10 samples beyond it in lone and busy", ls.supportsP99 && bs.supportsP99,
		fmt.Sprintf("lone %d, busy %d answered", ls.n-ls.failed, bs.n-bs.failed))
	limit := float64(sc.maxLateP50.Microseconds())
	rep.check("serve: open-loop generator on time (late p50 within bound)", ls.lateP50 <= limit && bs.lateP50 <= limit,
		fmt.Sprintf("late p50 lone %.0f µs, busy %.0f µs, bound %.0f µs", ls.lateP50, bs.lateP50, limit))

	// Every answer must be bit-identical to a local replica at MaxBatch
	// holding the weights of the epoch it names.
	mismatched, err := verifyAnswers(all, pathA, pathB, sc.maxBatch)
	if err != nil {
		return err
	}
	var shed, expired, reset, other int
	for _, r := range all {
		switch r.state {
		case stShed:
			shed++
		case stExpired:
			expired++
		case stReset:
			reset++
		case stError:
			other++
		}
	}
	final := srv.Stats()
	rep.attempt(len(all), mismatched+shed+expired+reset+other)
	rep.check("serve: every answer bit-identical to a local replica for its epoch", mismatched == 0,
		fmt.Sprintf("%d answers checked, %d mismatched", len(all)-shed-expired-reset-other, mismatched))
	rep.check("serve: no request shed, expired, reset or rejected", shed+expired+reset+other == 0,
		fmt.Sprintf("shed %d, expired %d, reset %d (%d slow-client teardowns), rejected %d",
			shed, expired, reset, final.SlowClients, other))

	if tr != nil {
		rows := func(runs []phaseRun) float64 {
			var b, r uint64
			for _, p := range runs {
				b += p.after.Batches - p.before.Batches
				r += p.after.BatchRows - p.before.BatchRows
			}
			return float64(r) / math.Max(float64(b), 1)
		}
		rep.add("serve.lone.rows_per_batch", rows(lone))
		rep.add("serve.busy.rows_per_batch", rows(busy))
		rep.add("serve.saturate.rows_per_batch", rows(sat))
		var hits, misses uint64
		for _, p := range busy {
			hits += p.after.Hits - p.before.Hits
			misses += p.after.Misses - p.before.Misses
		}
		rep.add("serve.hit_ratio", float64(hits)/math.Max(float64(hits+misses), 1))
		rep.add("serve.reload_ms", percentile(reloadTimes.sortedMicros(), 0.5)/1000)
		rep.add("serve.shed", float64(final.Shed))
		rep.add("serve.expired", float64(final.DeadlineExpired))
		rep.add("serve.slow_clients", float64(final.SlowClients))
		var late durations
		for _, r := range append(loneAll, busyAll...) {
			if r.sentOK {
				late = append(late, r.sent-r.due)
			}
		}
		l := late.sortedMicros()
		rep.add("gen.late_p50_us", percentile(l, 0.5))
		rep.add("gen.late_p99_us", percentile(l, 0.99))
	}
	return nil
}

// sortedLatencies returns the answered requests' latencies from due
// time, in microseconds, ascending.
func sortedLatencies(recs []reqRecord) []float64 {
	var lat durations
	for _, r := range recs {
		if r.state == stOK {
			lat = append(lat, r.recv-r.due)
		}
	}
	return lat.sortedMicros()
}

// recordRequests records one span per request, from due time to answer,
// under a span for the phase.
func recordRequests(tr *Tracer, phase string, origin time.Time, recs []reqRecord) {
	if tr == nil || len(recs) == 0 {
		return
	}
	id := tr.NewID()
	var end time.Duration
	for i, r := range recs {
		stop := r.recv
		if r.state == stPending || r.state == stReset {
			stop = r.sent
		}
		end = max(end, stop)
		tr.Record(tr.NewID(), id, "serve.request", int64(i+1), origin.Add(r.due), origin.Add(stop))
	}
	tr.Record(id, 0, phase, -1, origin, origin.Add(end))
}

// verifyAnswers recomputes every answered request on local replicas at
// MaxBatch and counts answers whose bits differ, or that name an epoch
// the run never served.
func verifyAnswers(recs []reqRecord, pathA, pathB string, maxBatch int) (int, error) {
	surA, err := melissa.LoadSurrogateFile(pathA)
	if err != nil {
		return 0, err
	}
	surB, err := melissa.LoadSurrogateFile(pathB)
	if err != nil {
		return 0, err
	}
	var byWeights [2][]int
	mismatched := 0
	for i, r := range recs {
		if r.state != stOK {
			continue
		}
		if r.epoch == 0 {
			mismatched++
			continue
		}
		byWeights[1-r.epoch%2] = append(byWeights[1-r.epoch%2], i)
	}
	const workers = 2
	bad := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps := [2]*melissa.Replica{surA.NewReplica(maxBatch), surB.NewReplica(maxBatch)}
			for k, idx := range byWeights {
				for lo := w * maxBatch; lo < len(idx) && errs[w] == nil; lo += workers * maxBatch {
					chunk := idx[lo:min(lo+maxBatch, len(idx))]
					errs[w] = reps[k].PredictBatchRaw(len(chunk),
						func(i int) ([]float32, float32) { q := &recs[chunk[i]].q; return q.params[:], q.t },
						func(i int, field []float32) {
							if fieldHash(field) != recs[chunk[i]].hash {
								bad[w]++
							}
						})
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	for _, b := range bad {
		mismatched += b
	}
	return mismatched, nil
}
