// Package ddp implements the gradient all-reduce of distributed
// data-parallel training over a fixed group of training ranks.
//
// The paper's server trains with "distributed data parallelism … After each
// batch backpropagation, the locally computed vector of weight updates is
// all-reduced between all processes and applied to each local NN copy to
// keep them identical" (§3.1). One communicator, HierComm, carries that
// collective for every topology. It runs the bandwidth-optimal ring
// scatter-reduce/all-gather NCCL uses over all ranks of the group, so its
// cost model (2(n−1)/n · bytes) is also what the cluster simulator charges
// for gradient synchronization. Each ring hop rides one of two transports:
//
//   - channel hops connect consecutive ranks hosted by one process
//     (goroutines — the stand-in for GPU training processes) through
//     channels with recycled message buffers;
//   - the leader hop connects the last rank hosted by one process to the
//     first rank of the next process over a TCP ring (transport.Ring),
//     reusing the transport package's length-framed wire format and the
//     same recycled-buffer discipline.
//
// NewCommunicator builds a ring-less group: every hop is a channel and the
// ring closes inside the process. GroupFromRing and ConnectGroup wrap an
// inter-process ring with any number of ranks per process. The transport
// of a hop never changes the chunking or the reduction order, so every
// shape computes bit-identical fp32 results to every other shape with the
// same total rank count.
//
// Collectives operate directly on the caller's flat buffer — for training,
// nn.Network.FlatGrads — so there is no gather/scatter staging copy, and
// they are allocation-free in steady state.
//
// # Bucketed overlap
//
// The range collective (AllReduceSumRange) exists so the trainer can
// overlap gradient synchronization with backpropagation: the flat gradient
// slab is bucketed by layer boundaries (nn.Network.GradBuckets), and each
// bucket's all-reduce is launched as soon as its layer's gradients are
// final, while earlier layers are still back-propagating. Each range
// collective is an independent ring reduction over buf[lo:hi]; all ranks
// must issue the same sequence of ranges in the same order. Because every
// bucket's reduction order is fixed by its own ring chunking, launching
// buckets eagerly (overlapped) or after the full backward pass (serially)
// produces bit-identical results.
//
// # Wire compression
//
// The leader hop optionally compresses collective payloads to IEEE 754
// binary16 on the wire (transport.Codec, negotiated per ring in the
// identity handshake), halving inter-node all-reduce bytes while every
// rank keeps accumulating in float32; channel hops always move exact
// float32. AllReduceSumRange feeds the rounding error of each rank's own
// contribution back into the next step's gradients (error feedback,
// CodecF16) or drops it (CodecF16Raw); sub-compressMinFloats collectives
// always travel exact. HierComm.WireCodec reports the negotiated codec
// (CodecF32 for a ring-less group), which core.NewTrainer validates
// against TrainerConfig.GradCompress so a codec mismatch fails at
// construction. The codec math, determinism contract and tuning guidance
// live in docs/communication.md.
//
// # Failure model
//
// Collectives return errors instead of panicking. Channel hops cannot fail
// on their own; the leader hop fails when a ring link does: the transport
// layer's heartbeats and IO deadlines (transport.RingOptions) detect a dead
// or partitioned peer within one IO timeout, and the error propagates out
// of whichever collective is in flight on every local rank. Classify sorts
// errors into transient (connection establishment — retry with backoff,
// e.g. via Retry), aborted (deliberate local teardown via HierComm.Abort
// during group reconfiguration), and fatal (established-link death — the
// ring epoch is unusable; the group must re-form over the survivors and
// roll back to the last group checkpoint, the protocol the internal/elastic
// membership controller implements). A communicator that returned a
// non-nil error is poisoned and must be closed, never reused.
package ddp

// Communicator connects a fixed group of ranks for collective operations.
// Every collective must be entered by all ranks concurrently (one goroutine
// or process per rank), like an MPI communicator, and with matching
// arguments (equal buffer lengths, identical ranges). Rank identifies the
// caller in the global rank space [0, Size).
//
// Collectives return an error when the communicator's links fail; callers
// classify it (Classify): transient faults may be retried, fatal ones mean
// this ring epoch is dead and the group must re-form over the survivors
// (internal/elastic). After any non-nil error the communicator is poisoned
// — no further collective on it may be issued. HierComm is the one
// implementation.
type Communicator interface {
	// Size returns the number of ranks in the group.
	Size() int
	// AllReduceSum replaces buf on every rank with the element-wise sum
	// across ranks. Deterministic: results are identical on every rank and
	// across repeated runs.
	AllReduceSum(rank int, buf []float32) error
	// AllReduceSumRange all-reduces the subrange buf[lo:hi] as an
	// independent collective, leaving the rest of buf untouched. This is
	// the bucketed-overlap primitive: all ranks must issue the same
	// sequence of ranges in the same order.
	AllReduceSumRange(rank int, buf []float32, lo, hi int) error
}

// link is one directed channel hop of the ring together with its recycled
// message buffers. Senders draw an owned buffer from free, fill it and
// pass it through data; receivers consume it and return it to free. Two
// buffers keep the pipeline full without ever sharing a buffer between
// writer and reader.
type link struct {
	data chan []float32
	free chan []float32
}

func newLink() link {
	l := link{
		data: make(chan []float32, linkDepth),
		free: make(chan []float32, linkDepth),
	}
	for i := 0; i < linkDepth; i++ {
		l.free <- nil // sized lazily on first send
	}
	return l
}

// linkDepth is the number of in-flight message buffers per link.
const linkDepth = 2

// chunkRange returns the bounds [lo, hi) of the i-th of n near-equal
// contiguous chunks of a length-sized buffer. Pure arithmetic — no
// boundary slice is materialized on the hot path.
func chunkRange(length, n, i int) (lo, hi int) {
	base, rem := length/n, length%n
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}
