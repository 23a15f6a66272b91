package server

import (
	"encoding/gob"
	"fmt"
	"os"

	"melissa/internal/buffer"
)

// checkpointFile is the on-disk server checkpoint (§3.1): everything a
// replacement server instance needs to resume training without retraining
// on already-seen data or losing buffered samples. The per-rank message
// log travels inside SimState.Seen (the per-sim step bitsets).
type checkpointFile struct {
	Ranks   int
	Batches int
	Samples int

	Weights  []byte
	OptState []byte

	Sims []map[int32]SimState

	BufSeen   [][]buffer.Sample
	BufUnseen [][]buffer.Sample
}

// WriteCheckpoint atomically persists the full server state. It is called
// from the trainer's rank-0 batch boundary, so the weights are consistent;
// rank shards and buffer contents are captured under their own locks (the
// buffer snapshot deep-copies payloads, so arena rows recycled afterwards
// cannot corrupt the checkpoint).
func (s *Server) WriteCheckpoint(path string) error {
	weights, optState, err := s.trainer.CaptureState()
	if err != nil {
		return err
	}
	ck := checkpointFile{
		Ranks:    s.cfg.Ranks,
		Batches:  s.trainer.Metrics().Batches(),
		Samples:  s.trainer.Metrics().Samples(),
		Weights:  weights,
		OptState: optState,
	}

	ck.Sims = make([]map[int32]SimState, len(s.aggs))
	for r, a := range s.aggs {
		a.mu.Lock()
		cp := make(map[int32]SimState, len(a.sims))
		for id, st := range a.sims {
			c := *st
			c.Seen = append([]uint64(nil), st.Seen...)
			cp[id] = c
		}
		a.mu.Unlock()
		ck.Sims[r] = cp
	}

	ck.BufSeen = make([][]buffer.Sample, s.cfg.Ranks)
	ck.BufUnseen = make([][]buffer.Sample, s.cfg.Ranks)
	for r, b := range s.bufs {
		b.WithLock(func(p buffer.Policy) {
			if snap, ok := p.(buffer.Snapshotter); ok {
				ck.BufSeen[r], ck.BufUnseen[r] = snap.Snapshot()
			}
		})
	}

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(&ck); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// RestoreCheckpoint loads a checkpoint written by WriteCheckpoint into a
// freshly constructed server (same configuration). Call before Run.
func (s *Server) RestoreCheckpoint(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var ck checkpointFile
	if err := gob.NewDecoder(f).Decode(&ck); err != nil {
		return fmt.Errorf("server: decoding checkpoint: %w", err)
	}
	if ck.Ranks != s.cfg.Ranks {
		return fmt.Errorf("server: checkpoint has %d ranks, config has %d", ck.Ranks, s.cfg.Ranks)
	}
	if err := s.trainer.RestoreState(ck.Weights, ck.OptState, ck.Batches, ck.Samples); err != nil {
		return err
	}
	for r, m := range ck.Sims {
		a := s.aggs[r]
		a.mu.Lock()
		a.sims = make(map[int32]*SimState, len(m))
		a.goodbyes = 0
		for id, st := range m {
			cp := st
			// Clamp like the live Hello path: a crafted Steps past the
			// tracking cap would make receptionComplete demand steps
			// markSeen can never record.
			cp.Steps = clampSteps(cp.Steps)
			a.sims[id] = &cp
			if cp.Goodbye {
				a.goodbyes++
			}
		}
		a.mu.Unlock()
	}
	for r, b := range s.bufs {
		r := r
		b.WithLock(func(p buffer.Policy) {
			if snap, ok := p.(buffer.Snapshotter); ok {
				snap.RestoreSnapshot(ck.BufSeen[r], ck.BufUnseen[r])
			}
		})
		// If the ensemble had already completed for this rank, reception
		// is over and the buffer only needs draining.
		a := s.aggs[r]
		a.mu.Lock()
		done := s.receptionComplete(a)
		a.mu.Unlock()
		if done {
			b.EndReception()
		}
	}
	return nil
}
