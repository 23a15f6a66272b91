package ddp

// The shape matrix: every group topology — ring-less channel groups, one
// rank per process on a loopback TCP ring, and several ranks per process
// bridged over the ring — must pass identical correctness checks and
// compute fp32 results bit-identical to the ring-less group of the same
// total size (same ring algorithm, same chunking, same reduction order),
// so packing ranks into processes differently cannot perturb a training
// trajectory.

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"melissa/internal/transport"
)

// commGroup is one communicator handle per global rank: a ring-less group
// shares one object across its ranks, a ring group shares one per process.
type commGroup []*HierComm

// newRinglessGroup is the n-rank in-process group.
func newRinglessGroup(n int) commGroup {
	c := NewCommunicator(n)
	g := make(commGroup, n)
	for r := range g {
		g[r] = c
	}
	return g
}

// newRingGroup wires procs communicators over a loopback ring, each hosting
// local consecutive global ranks, with the given wire codec for the ring
// (channel hops are always exact). Every rank binds an ephemeral port
// first, then all connect concurrently. Each process's group must land at
// offset proc·local and validate for local ranks.
func newRingGroup(tb testing.TB, procs, local int, codec transport.Codec) commGroup {
	tb.Helper()
	listeners := make([]*transport.RingListener, procs)
	addrs := make([]string, procs)
	for p := range listeners {
		l, err := transport.ListenRing("127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		listeners[p] = l
		addrs[p] = l.Addr()
	}
	groups := make([]RankGroup, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for p := range groups {
		wg.Add(1)
		go func(proc int) {
			defer wg.Done()
			ring, err := listeners[proc].ConnectContext(tb.Context(), proc, addrs, 10*time.Second,
				transport.RingOptions{Identity: GroupIdentity(local), Codec: codec})
			if err != nil {
				errs[proc] = err
				return
			}
			groups[proc] = GroupFromRing(ring, local)
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			tb.Fatal(err)
		}
	}
	tb.Cleanup(func() {
		for _, grp := range groups {
			grp.Close()
		}
	})
	g := make(commGroup, procs*local)
	for p, grp := range groups {
		if grp.Offset != p*local || grp.World() != procs*local {
			tb.Fatalf("proc %d: offset %d world %d, want %d and %d", p, grp.Offset, grp.World(), p*local, procs*local)
		}
		if err := grp.Validate(local); err != nil {
			tb.Fatalf("proc %d: %v", p, err)
		}
		for l := 0; l < local; l++ {
			g[p*local+l] = grp.Comm
		}
	}
	return g
}

// runGroup launches one goroutine per rank and waits for completion.
func runGroup(g commGroup, fn func(rank int, c *HierComm)) {
	var wg sync.WaitGroup
	for r := range g {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fn(rank, g[rank])
		}(r)
	}
	wg.Wait()
}

// fillRankBufs builds deterministic per-rank buffers of the given length
// and their element-wise float64 sum.
func fillRankBufs(n, length int, seed uint64) (bufs [][]float32, sum []float64) {
	rng := rand.New(rand.NewPCG(seed, 17))
	bufs = make([][]float32, n)
	sum = make([]float64, length)
	for r := range bufs {
		bufs[r] = make([]float32, length)
		for i := range bufs[r] {
			bufs[r][i] = float32(rng.NormFloat64())
			sum[i] += float64(bufs[r][i])
		}
	}
	return bufs, sum
}

// allReduceSum is the AllReduceSum collective in checkCollective's form.
func allReduceSum(rank int, c *HierComm, buf []float32) error { return c.AllReduceSum(rank, buf) }

// checkCollective runs op on g and on a ring-less group of the same size
// over identical inputs of the given length, then compares every element:
// inside [lo,hi) against the ring-less result (bit for bit), rank 0 and
// the exact sum; outside the range against the untouched input.
func checkCollective(t *testing.T, g commGroup, length, lo, hi int, op func(rank int, c *HierComm, buf []float32) error) {
	t.Helper()
	n := len(g)
	bufs, want := fillRankBufs(n, length, uint64(length))
	refBufs, _ := fillRankBufs(n, length, uint64(length))
	orig, _ := fillRankBufs(n, length, uint64(length))
	runGroup(g, func(rank int, c *HierComm) {
		if err := op(rank, c, bufs[rank]); err != nil {
			t.Error(err)
		}
	})
	runGroup(newRinglessGroup(n), func(rank int, c *HierComm) { op(rank, c, refBufs[rank]) })
	for r := 0; r < n; r++ {
		for i := 0; i < length; i++ {
			got := bufs[r][i]
			switch {
			case i < lo || i >= hi:
				if got != orig[r][i] {
					t.Fatalf("rank %d: elem %d outside the range was modified", r, i)
				}
			case got != refBufs[r][i]:
				t.Fatalf("rank %d elem %d: %v, ring-less reference %v", r, i, got, refBufs[r][i])
			case got != bufs[0][i]:
				t.Fatalf("rank %d differs from rank 0 at %d", r, i)
			case float64(got)-want[i] > 1e-4 || float64(got)-want[i] < -1e-4:
				t.Fatalf("elem %d: got %v, want %v", i, got, want[i])
			}
		}
	}
}

// TestCollectiveSuite is the shape matrix: ring-less groups of n ∈
// {1,2,3,5} ranks, and loopback TCP rings of procs × local ranks. Every
// shape must reduce correctly (uneven and empty chunks included), leave
// the outside of a range untouched, agree bitwise across ranks, and match
// the ring-less reference of the same total size bit for bit.
func TestCollectiveSuite(t *testing.T) {
	type shape struct {
		name         string
		procs, local int // procs == 0: ring-less group of local ranks
	}
	var shapes []shape
	for _, n := range []int{1, 2, 3, 5} {
		shapes = append(shapes, shape{fmt.Sprintf("chan/n=%d", n), 0, n})
	}
	for _, procs := range []int{1, 2, 3, 5} {
		shapes = append(shapes, shape{fmt.Sprintf("tcp/n=%d", procs), procs, 1})
	}
	for _, procs := range []int{2, 3} {
		shapes = append(shapes, shape{fmt.Sprintf("hier/procs=%d/local=2", procs), procs, 2})
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			g := newRinglessGroup(sh.local)
			if sh.procs > 0 {
				g = newRingGroup(t, sh.procs, sh.local, transport.CodecF32)
			}
			t.Run("AllReduceSum", func(t *testing.T) {
				// Length 3 leaves some ranks' chunks empty at n ≥ 5.
				for _, length := range []int{3, 1000} {
					checkCollective(t, g, length, 0, length, allReduceSum)
				}
			})
			t.Run("AllReduceSumRange", func(t *testing.T) {
				const length, lo, hi = 1013, 3, 1000
				checkCollective(t, g, length, lo, hi, func(rank int, c *HierComm, buf []float32) error {
					return c.AllReduceSumRange(rank, buf, lo, hi)
				})
			})
		})
	}
}

// TestBackendsBitIdentical pins the trainer's gradient collective — a
// full-range AllReduceSumRange — on 4 processes of one rank each, every hop
// on the TCP ring, bit for bit to the ring-less group of 4 ranks.
func TestBackendsBitIdentical(t *testing.T) {
	const n, length = 4, 1000
	g := newRingGroup(t, n, 1, transport.CodecF32)
	checkCollective(t, g, length, 0, length, func(rank int, c *HierComm, buf []float32) error {
		return c.AllReduceSumRange(rank, buf, 0, length)
	})
}

// BenchmarkAllReduceTCP measures the all-reduce across 4 loopback-connected
// processes hosting one rank each — HierComm with one local rank, so every
// hop crosses the TCP ring — on the 64k-element buffer BenchmarkAllReduce
// uses for the ring-less group, under each wire codec. bytes/op is the
// logical float payload, so MB/s is effective bandwidth and directly
// comparable across codecs; wire-B/op reports what actually crossed the
// socket per operation (halved under f16).
func BenchmarkAllReduceTCP(b *testing.B) {
	const n = 4
	const elems = 1 << 16
	for _, codec := range []transport.Codec{transport.CodecF32, transport.CodecF16} {
		b.Run(codec.String(), func(b *testing.B) {
			g := newRingGroup(b, n, 1, codec)
			bufs := make([][]float32, n)
			for r := range bufs {
				bufs[r] = make([]float32, elems)
			}
			var wg sync.WaitGroup
			for r := 1; r < n; r++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					for i := 0; i < b.N+1; i++ {
						g[rank].AllReduceSum(rank, bufs[rank])
					}
				}(r)
			}
			g[0].AllReduceSum(0, bufs[0]) // warm the recycled buffers
			sent0, _ := g[0].WireBytes()
			b.SetBytes(4 * elems)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g[0].AllReduceSum(0, bufs[0])
			}
			b.StopTimer()
			sent1, _ := g[0].WireBytes()
			b.ReportMetric(float64(sent1-sent0)/float64(b.N), "wire-B/op")
			wg.Wait()
		})
	}
}
