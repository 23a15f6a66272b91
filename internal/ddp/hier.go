package ddp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"melissa/internal/protocol"
	"melissa/internal/transport"
)

// compressMinFloats is the smallest collective (total elements) that rides
// the compressed wire format on a compressed ring. Tiny collectives — the
// trainer's 2-float status reduction — are latency-bound, save nothing
// from half-width frames, and often carry counts whose exactness matters,
// so they stay full-width float32. The threshold is a pure function of the
// collective's total length, which every rank knows identically, so
// senders and receivers always agree on the frame type.
const compressMinFloats = 16

// HierComm is the Communicator: one process hosts several consecutive
// global ranks (goroutines), and processes are joined by a single
// inter-process TCP ring (transport.Ring), or by none for a ring-less
// in-process group. It runs the literal flat-ring scatter-reduce/all-gather
// over all procs×local ranks — same chunking, same accumulation order — so
// its collective results depend only on the total rank count, never on
// how ranks are packed into processes. Hops between local ranks are
// channel links, and only the leader hop (local rank local−1 → the next
// process's local rank 0) crosses the network, so a host running M ranks
// needs one ring connection pair instead of M. With a single process (a
// nil or size-1 ring) the last channel link wraps around in place of the
// network hop.
//
// Failure model: a ring link failure (or Abort) poisons the whole
// communicator. The first error is recorded and the down channel closed,
// which unwedges local ranks blocked on channel hops mid-collective —
// without it, only the boundary ranks would observe the network fault and
// the middle ranks would block forever. A ring-less group has no network
// hop to fail, so Abort fails its collectives at entry. After any non-nil
// error the communicator must be closed, never reused (see the package
// failure model). Steady-state collectives are allocation-free: channel
// hops and ring frames reuse recycled buffers, and the success path
// returns a nil error.
type HierComm struct {
	ring   *transport.Ring // nil for a ring-less in-process group
	codec  transport.Codec
	procs  int // ring size (1 means no network hop: the ring closes locally)
	local  int // ranks hosted in this process
	offset int // first global rank hosted here: ring.Rank() * local
	size   int // procs * local

	// links[l] carries messages local rank l → local rank l+1. With a
	// single process the last link wraps around (local−1 → 0) in place of
	// the network hop.
	links []link

	// res[l] is local rank l's error-feedback residual slab for compressed
	// range collectives (CodecF16): res[l][i] carries the quantization
	// error of slab offset i from the previous step into the next one.
	// Range collectives index it by their absolute [lo,hi) offsets, which
	// is why AllReduceSumRange — whose caller contract is "ranges into one
	// persistent slab" — is the error-fed entry point, while plain
	// AllReduceSum (arbitrary transient buffers) compresses without
	// residuals. Each slab is touched only by its rank's goroutine.
	res [][]float32

	down     chan struct{} // closed on first failure; unwedges channel hops
	failOnce sync.Once
	firstErr atomic.Pointer[error]
}

var _ Communicator = (*HierComm)(nil)

// NewCommunicator creates a ring-less group of n in-process ranks: every
// hop is a channel link, the codec is exact float32, and no bytes cross a
// network.
func NewCommunicator(n int) *HierComm {
	if n <= 0 {
		panic(fmt.Sprintf("ddp: invalid communicator size %d", n))
	}
	return newHierComm(nil, n)
}

// newHierComm wraps a connected inter-process ring (nil for none) as the
// communicator for localRanks consecutive global ranks hosted in this
// process. The global group has ring.Size()·localRanks ranks; this process
// serves [ring.Rank()·localRanks, (ring.Rank()+1)·localRanks).
func newHierComm(ring *transport.Ring, localRanks int) *HierComm {
	if localRanks <= 0 {
		panic(fmt.Sprintf("ddp: invalid local rank count %d", localRanks))
	}
	h := &HierComm{
		ring:  ring,
		codec: transport.CodecF32,
		procs: 1,
		local: localRanks,
		size:  localRanks,
		links: make([]link, localRanks),
		res:   make([][]float32, localRanks),
		down:  make(chan struct{}),
	}
	if ring != nil {
		h.codec = ring.Codec()
		h.procs = ring.Size()
		h.offset = ring.Rank() * localRanks
		h.size = h.procs * localRanks
	}
	for i := range h.links {
		h.links[i] = newLink()
	}
	return h
}

// Size implements Communicator: the total rank count across all processes.
func (h *HierComm) Size() int { return h.size }

// WireCodec returns the ring's negotiated wire codec (CodecF32 for a
// ring-less group). Channel hops between co-hosted ranks always carry
// exact float32; the codec applies only to the leader hop that crosses the
// network.
func (h *HierComm) WireCodec() transport.Codec { return h.codec }

// WireBytes returns the cumulative bytes moved over the inter-process
// ring (channel hops are free and uncounted; a ring-less group reports
// zero).
func (h *HierComm) WireBytes() (sent, recv uint64) {
	if h.ring == nil {
		return 0, 0
	}
	return h.ring.WireBytes()
}

// Close tears the inter-process ring down, if there is one. It must not
// race in-flight collectives; call Abort first to interrupt them.
func (h *HierComm) Close() error {
	if h.ring == nil {
		return nil
	}
	return h.ring.Close()
}

// Abort poisons the communicator and force-closes the ring connections:
// every in-flight collective on every local rank fails with an error
// wrapping transport.ErrRingAborted (on a ring-less group, every later
// one). Safe to call from any goroutine.
func (h *HierComm) Abort() {
	if h.ring != nil {
		h.ring.Abort()
	}
	h.fail(fmt.Errorf("ddp: group aborted: %w", transport.ErrRingAborted))
}

// compressed reports whether a collective over total floats uses the f16
// wire encoding on its network hops. Identical on every rank (the codec is
// handshake-negotiated and total is a collective invariant), so ranks agree
// frame types without extra coordination.
func (h *HierComm) compressed(total int) bool {
	return h.codec.Compressed() && h.procs > 1 && total >= compressMinFloats
}

// residual returns local rank l's error-feedback slab view for absolute
// offsets [lo,hi), growing (zero-extended) on demand. Each local rank only
// ever touches its own slab, so concurrent collectives across the hosted
// ranks don't race.
func (h *HierComm) residual(l, lo, hi int) []float32 {
	if hi > len(h.res[l]) {
		grown := make([]float32, hi)
		copy(grown, h.res[l])
		h.res[l] = grown
	}
	return h.res[l][lo:hi]
}

// localOf validates that rank is hosted by this endpoint and returns its
// local index. A mismatch is a programming error, not a link fault.
func (h *HierComm) localOf(rank int) int {
	if rank < h.offset || rank >= h.offset+h.local {
		panic(fmt.Sprintf("ddp: HierComm for ranks [%d,%d) called as rank %d", h.offset, h.offset+h.local, rank))
	}
	return rank - h.offset
}

// fail records the first error and closes the down channel, unwedging
// local ranks blocked on channel hops. Returns the recorded first error.
func (h *HierComm) fail(err error) error {
	h.firstErr.CompareAndSwap(nil, &err)
	h.failOnce.Do(func() { close(h.down) })
	return *h.firstErr.Load()
}

// poisoned returns the recorded failure, if any.
func (h *HierComm) poisoned() error {
	if p := h.firstErr.Load(); p != nil {
		return *p
	}
	return nil
}

// sendHop sends vals to local rank l's ring successor: a channel link for
// interior ranks, the network (or wrap-around link for a single process)
// for the leader. comp selects the binary16 wire encoding on the network
// hop only — channel hops always move exact float32, so compression costs
// nothing between co-hosted ranks.
func (h *HierComm) sendHop(l int, vals []float32, comp bool) error {
	if l == h.local-1 && h.procs > 1 {
		var err error
		if comp {
			err = h.ring.SendFloats16(vals)
		} else {
			err = h.ring.SendFloats(vals)
		}
		if err != nil {
			return h.fail(err)
		}
		return nil
	}
	lk := &h.links[l]
	buf, err := h.take(lk.free)
	if err != nil {
		return err
	}
	if cap(buf) < len(vals) {
		buf = make([]float32, len(vals))
	}
	buf = buf[:len(vals)]
	copy(buf, vals)
	if h.ring == nil {
		lk.data <- buf
		return nil
	}
	select {
	case lk.data <- buf:
		return nil
	default:
	}
	select {
	case lk.data <- buf:
		return nil
	case <-h.down:
		return h.poisoned()
	}
}

// take receives from a channel hop, or fails once the communicator is
// down. Only a ring-backed group can fail mid-collective, at its network
// hop, so a ring-less group blocks on the bare channel operation. On a
// ring-backed group the non-blocking attempt keeps the down channel, which
// every hosted rank shares, off the path of a hop whose peer is already
// there; a select on it costs markedly more than a bare channel operation.
func (h *HierComm) take(ch chan []float32) ([]float32, error) {
	if h.ring == nil {
		return <-ch, nil
	}
	select {
	case v := <-ch:
		return v, nil
	default:
	}
	select {
	case v := <-ch:
		return v, nil
	case <-h.down:
		return nil, h.poisoned()
	}
}

// recvHop receives the predecessor's message for local rank l into dst,
// accumulating element-wise when accumulate is set and copying otherwise.
// dst length is the collective's chunk length, which the lockstep protocol
// guarantees matches the sender's. comp must match the sender's sendHop
// argument — on a compressed collective the network hop decodes binary16
// and accumulates in float32.
func (h *HierComm) recvHop(l int, dst []float32, accumulate, comp bool) error {
	if l == 0 && h.procs > 1 {
		var err error
		switch {
		case accumulate && comp:
			err = h.ring.RecvFloats16Add(dst) // fused decode+accumulate
		case accumulate:
			err = h.ring.RecvFloatsAdd(dst)
		case comp:
			err = h.ring.RecvFloats16(dst)
		default:
			err = h.ring.RecvFloats(dst)
		}
		if err != nil {
			return h.fail(err)
		}
		return nil
	}
	lk := &h.links[(l-1+h.local)%h.local]
	in, err := h.take(lk.data)
	if err != nil {
		return err
	}
	if accumulate {
		for i := range dst {
			dst[i] += in[i]
		}
	} else {
		copy(dst, in)
	}
	lk.free <- in
	return nil
}

// AllReduceSum implements Communicator: the ring scatter-reduce and
// all-gather over the hybrid hop topology. Every hosted rank must enter
// concurrently (each from its own goroutine, with its own buffer). On a
// compressed ring the network hops travel as binary16 (without error
// feedback — see AllReduceSumRange for the error-fed gradient path).
func (h *HierComm) AllReduceSum(rank int, buf []float32) error {
	return h.allReduce(rank, buf, nil)
}

// AllReduceSumRange implements Communicator: an independent ring reduction
// over buf[lo:hi], chunked relative to the range. On a CodecF16 ring this
// is the error-fed path: the range offsets index a persistent
// per-local-rank residual slab (the caller contract — one stable slab per
// rank, e.g. the flat gradient slab — is what makes residuals meaningful
// across steps).
func (h *HierComm) AllReduceSumRange(rank int, buf []float32, lo, hi int) error {
	sub := buf[lo:hi]
	var res []float32
	if h.codec == transport.CodecF16 && h.compressed(len(sub)) {
		res = h.residual(h.localOf(rank), lo, hi)
	}
	return h.allReduce(rank, sub, res)
}

// allReduce runs the ring sum over the hybrid topology. res, when non-nil,
// is this rank's error-feedback residual aliasing buf's span; it implies a
// compressed ring.
//
// Compressed mode keeps all arithmetic in float32: network chunks are
// quantized per hop, receivers expand and accumulate at full width. After
// scatter-reduce, each rank re-quantizes the one chunk it finished in
// place before gathering — binary16 values re-encode losslessly, so every
// rank ends with bit-identical results regardless of how many network hops
// each chunk crossed.
func (h *HierComm) allReduce(rank int, buf []float32, res []float32) error {
	l := h.localOf(rank)
	if err := h.poisoned(); err != nil {
		return err
	}
	n := h.size
	if n == 1 {
		return nil
	}
	comp := h.compressed(len(buf))
	if comp && res != nil {
		// Error-feedback pre-pass: quantize local contribution + carried
		// residual, store the fresh quantization error back (fused kernel).
		protocol.QuantizeEF(buf, res)
	}
	chunk := func(i int) []float32 {
		lo, hi := chunkRange(len(buf), n, ((i%n)+n)%n)
		return buf[lo:hi]
	}
	// Scatter-reduce: after step s, rank r has accumulated s+1 terms into
	// chunk (r-s); after n-1 steps chunk (r+1) holds the complete sum.
	// Sends are staged copies, so mutating the next chunk while the
	// previous message is still in flight is safe.
	for s := 0; s < n-1; s++ {
		if err := h.sendHop(l, chunk(rank-s), comp); err != nil {
			return err
		}
		if err := h.recvHop(l, chunk(rank-s-1), true, comp); err != nil {
			return err
		}
	}
	if comp {
		protocol.RoundF16s(chunk(rank + 1))
	}
	// All-gather: circulate the completed chunks.
	for s := 0; s < n-1; s++ {
		if err := h.sendHop(l, chunk(rank+1-s), comp); err != nil {
			return err
		}
		if err := h.recvHop(l, chunk(rank-s), false, comp); err != nil {
			return err
		}
	}
	return nil
}
