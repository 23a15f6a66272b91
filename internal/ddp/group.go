package ddp

import (
	"context"
	"fmt"
	"time"

	"melissa/internal/transport"
)

// RankGroup binds the communicator to the contiguous block of global
// ranks one process drives: local rank l of the process is global rank
// Offset+l on Comm. It is the single handle the trainer and server take,
// so every topology — a ring-less in-process group, one rank per process
// on a TCP ring, or several ranks per process — is wired identically. The
// zero value means "in-process, standalone": consumers substitute a fresh
// NewCommunicator of their configured rank count.
type RankGroup struct {
	// Comm is the group's communicator. nil means standalone: the consumer
	// creates a ring-less communicator sized to its local rank count.
	Comm *HierComm
	// Offset is the first global rank this process drives on Comm.
	Offset int
}

// World returns the total rank count of the group, or 0 for the zero
// value (whose world is the consumer's local rank count).
func (g RankGroup) World() int {
	if g.Comm == nil {
		return 0
	}
	return g.Comm.Size()
}

// Validate checks that this process may drive local consecutive ranks
// starting at Offset: the span must be exactly the one the communicator
// hosts.
func (g RankGroup) Validate(local int) error {
	if local <= 0 {
		return fmt.Errorf("ddp: rank group local count %d, want >= 1", local)
	}
	if g.Comm == nil {
		if g.Offset != 0 {
			return fmt.Errorf("ddp: rank offset %d requires an explicit communicator", g.Offset)
		}
		return nil
	}
	if g.Offset != g.Comm.offset || local != g.Comm.local {
		return fmt.Errorf("ddp: communicator serves ranks [%d,%d), group configured for [%d,%d)",
			g.Comm.offset, g.Comm.offset+g.Comm.local, g.Offset, g.Offset+local)
	}
	return nil
}

// Close releases the group's network resources, when it has any. It must
// not race in-flight collectives; Abort first to interrupt them.
func (g RankGroup) Close() error {
	if g.Comm == nil {
		return nil
	}
	return g.Comm.Close()
}

// Abort poisons the group's communicator, failing in-flight collectives
// on every local rank. Safe to call from any goroutine.
func (g RankGroup) Abort() {
	if g.Comm != nil {
		g.Comm.Abort()
	}
}

// GroupIdentity encodes the hierarchical topology into a ring handshake
// identity (transport.RingOptions.Identity), so two processes that
// disagree on -local-ranks fail at ring formation instead of exchanging
// misaligned collective chunks.
func GroupIdentity(localRanks int) uint32 {
	return uint32(localRanks)
}

// GroupFromRing wraps a connected inter-process ring as the rank group for
// localRanks consecutive global ranks per process — the one constructor
// behind every multi-process shape. Its results are bit-identical to a
// ring-less group of the same total size.
func GroupFromRing(ring *transport.Ring, localRanks int) RankGroup {
	h := newHierComm(ring, localRanks)
	return RankGroup{Comm: h, Offset: h.offset}
}

// ConnectGroup is the one-call setup for one process of a
// len(addrs)-process group with localRanks ranks per process: it forms the
// inter-process ring (stamped with the topology identity) and wraps it via
// GroupFromRing. See ConnectGroupContext for cancellation and ring tuning.
func ConnectGroup(proc int, addrs []string, localRanks int, timeout time.Duration) (RankGroup, error) {
	return ConnectGroupContext(context.Background(), proc, addrs, localRanks, timeout, transport.RingOptions{})
}

// ConnectGroupContext is ConnectGroup with a cancellation context and
// explicit ring options. The options' Identity is overwritten with the
// topology identity so mismatched localRanks configurations fail loudly at
// formation.
func ConnectGroupContext(ctx context.Context, proc int, addrs []string, localRanks int, timeout time.Duration, opts transport.RingOptions) (RankGroup, error) {
	if localRanks <= 0 {
		return RankGroup{}, fmt.Errorf("ddp: local rank count %d, want >= 1", localRanks)
	}
	if proc < 0 || proc >= len(addrs) {
		return RankGroup{}, fmt.Errorf("ddp: process %d out of range [0,%d)", proc, len(addrs))
	}
	opts.Identity = GroupIdentity(localRanks)
	l, err := transport.ListenRing(addrs[proc])
	if err != nil {
		return RankGroup{}, err
	}
	ring, err := l.ConnectContext(ctx, proc, addrs, timeout, opts)
	if err != nil {
		return RankGroup{}, err
	}
	return GroupFromRing(ring, localRanks), nil
}
