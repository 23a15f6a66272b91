package ddp

// Tests for the hierarchical shapes beyond the shape matrix — size-1 rings,
// where every hop stays on channel links although a ring exists, and wider
// process × local-rank packings — plus the leader-hop benchmark.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"melissa/internal/transport"
)

// TestHierCollectives runs the all-reduce checks — against the ring-less
// reference of the same size — across process × local-rank shapes,
// including the degenerate single-process ring.
func TestHierCollectives(t *testing.T) {
	for _, shape := range []struct{ procs, local int }{
		{1, 1}, {1, 3}, {2, 1}, {2, 2}, {3, 2}, {4, 2},
	} {
		t.Run(fmt.Sprintf("procs=%d/local=%d", shape.procs, shape.local), func(t *testing.T) {
			// newRingGroup checks each endpoint's rank span; length 7
			// exercises uneven (and, for n>7, empty) chunks.
			g := newRingGroup(t, shape.procs, shape.local, transport.CodecF32)
			checkCollective(t, g, 7, 0, 7, allReduceSum)
		})
	}
}

// TestHierBitIdenticalToFlat pins packing to the ring-less ("flat")
// reference on a gradient-sized buffer: procs × local ranks, with and
// without channel hops between co-located ranks, must all-reduce bit for
// bit like a ring-less group of procs·local ranks.
func TestHierBitIdenticalToFlat(t *testing.T) {
	const length = 1000
	for _, procs := range []int{2, 4} {
		for _, local := range []int{1, 2} {
			t.Run(fmt.Sprintf("procs=%d/local=%d", procs, local), func(t *testing.T) {
				g := newRingGroup(t, procs, local, transport.CodecF32)
				checkCollective(t, g, length, 0, length, allReduceSum)
			})
		}
	}
}

// TestGroupFromRingShapes checks the one constructor behind every
// multi-process topology: GroupFromRing sizes the group ring size ×
// localRanks and lands each process's span at ring-rank × localRanks,
// whatever the local rank count.
func TestGroupFromRingShapes(t *testing.T) {
	l0, err := transport.ListenRing("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l1, err := transport.ListenRing("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{l0.Addr(), l1.Addr()}
	rings := make([]*transport.Ring, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for p, l := range []*transport.RingListener{l0, l1} {
		wg.Add(1)
		go func(proc int, l *transport.RingListener) {
			defer wg.Done()
			rings[proc], errs[proc] = l.Connect(proc, addrs, 10*time.Second)
		}(p, l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	defer rings[0].Close()
	defer rings[1].Close()

	single := GroupFromRing(rings[0], 1)
	if single.Offset != 0 || single.World() != 2 {
		t.Fatalf("localRanks=1: offset %d world %d, want 0 and 2", single.Offset, single.World())
	}
	if err := single.Validate(1); err != nil {
		t.Fatal(err)
	}
	multi := GroupFromRing(rings[1], 3)
	if multi.Offset != 3 || multi.World() != 6 {
		t.Fatalf("localRanks=3: offset %d world %d, want 3 and 6", multi.Offset, multi.World())
	}
	if err := multi.Validate(3); err != nil {
		t.Fatal(err)
	}
	if err := multi.Validate(1); err == nil {
		t.Fatal("a 3-rank span validated for 1 local rank")
	}
}

// BenchmarkAllReduceHier measures the hierarchical all-reduce on the same
// 64k-element buffer as BenchmarkAllReduce (ring-less) and
// BenchmarkAllReduceTCP (4 processes × 1 rank), under each wire codec.
// procs=2/local=2 has BenchmarkAllReduceTCP's total rank count with half
// the network hops per step.
func BenchmarkAllReduceHier(b *testing.B) {
	const elems = 1 << 16
	for _, shape := range []struct {
		procs, local int
		codec        transport.Codec
	}{
		{2, 2, transport.CodecF32}, {2, 4, transport.CodecF32}, {2, 2, transport.CodecF16},
	} {
		b.Run(fmt.Sprintf("procs=%d/local=%d/%s", shape.procs, shape.local, shape.codec), func(b *testing.B) {
			n := shape.procs * shape.local
			g := newRingGroup(b, shape.procs, shape.local, shape.codec)
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
			b.SetBytes(4 * elems)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g[0].AllReduceSum(0, bufs[0])
			}
			b.StopTimer()
			wg.Wait()
		})
	}
}
