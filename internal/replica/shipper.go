// Package replica implements WAL-shipping replication and lease-based
// failover for the active-database server (DESIGN.md §4.6): a primary
// engine's WAL frames — byte-stable by construction — stream over the
// wire protocol to follower engines that persist them verbatim and replay
// them through the recovery path, so each follower's state, firing stream
// and on-disk log are byte-identical to the primary's at every batch
// boundary by construction.
//
// The pieces: Shipper taps the primary's WAL flush hook and fans durable
// batches out to follower sinks (the server's replication endpoint);
// Node is the follower-side server backend — it serves reads, health and
// firing subscriptions from the replayed engine, refuses writes with the
// not_primary sentinel carrying a primary hint, and can be promoted into
// a primary; Stream is the follower's pull loop (dial, replicate, apply,
// reconnect with capped exponential backoff); FileLease is the flock-
// anchored lease whose acquisition order mints fencing epochs.
//
// Replication is asynchronous: a commit is acknowledged to the client
// once locally durable, before followers confirm. A primary crash can
// therefore lose acked-but-unshipped commits from the *replica set*
// (never from the primary's own disk); the failover experiment (E15)
// waits for follower catch-up before declaring zero loss.
package replica

import (
	"errors"
	"fmt"
	"sync"

	"ptlactive/internal/persist"
	"ptlactive/internal/server"
)

// maxWalChunk bounds one shipped batch's frame bytes. The JSON codec
// base64-expands Wal by 4/3, so 1 MiB keeps every wal frame far below
// wire.MaxFrame on either codec. (A single WAL record beyond ~6 MiB
// cannot ship over the JSON codec; the binary codec carries it raw.)
const maxWalChunk = 1 << 20

// Shipper taps a durable primary engine's WAL flush hook and fans every
// durable batch out to registered follower sinks, stamped with the
// primary epoch in force when the batch hit disk. It installs itself at
// the backend's serialization point, so batch delivery order is exactly
// commit order.
type Shipper struct {
	be *server.EngineBackend

	mu      sync.Mutex
	epoch   int64
	lastLSN int64
	sinks   map[int]func(server.WALBatch)
	nextID  int
}

// NewShipper installs the flush hook on be's engine (which must be
// durable) and returns the shipper. The backend must outlive it.
func NewShipper(be *server.EngineBackend) *Shipper {
	s := &Shipper{be: be, sinks: map[int]func(server.WALBatch){}}
	be.Do(func() {
		s.epoch = be.Engine().Epoch()
		s.lastLSN = be.Engine().WALLastLSN()
		be.Engine().WALFlushHook(s.flushed)
	})
	return s
}

// flushed runs inside the engine call that made the batch durable, on the
// pipeline goroutine. The bytes are only valid during the call
// (persist.FlushHook), so they are copied once here (and only when someone
// is listening).
func (s *Shipper) flushed(data []byte, first, last int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastLSN = last
	if len(s.sinks) == 0 {
		return
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	b := server.WALBatch{Data: cp, First: first, Last: last, Epoch: s.epoch}
	for _, sink := range s.sinks {
		sink(b)
	}
}

// Epoch returns the primary epoch batches are currently stamped with.
func (s *Shipper) Epoch() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// LastLSN returns the last durable LSN the shipper has observed; safe for
// concurrent use (the role query reads it while commits flow).
func (s *Shipper) LastLSN() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastLSN
}

// BumpEpoch fences a leadership change on the primary: the engine logs
// and syncs the epoch record (whose batch ships stamped with the old
// epoch — the record itself performs the bump on both ends), then the
// shipper stamps every later batch with the new epoch. Runs at the
// serialization point so no commit's batch can interleave between the
// record and the stamp change.
func (s *Shipper) BumpEpoch(n int64) error {
	var err error
	s.be.Do(func() {
		if cur := s.be.Engine().Epoch(); n <= cur {
			// Already there (e.g. recovery replayed the epoch record):
			// re-fencing at the same epoch is a no-op, going backwards is not.
			if n == cur {
				s.mu.Lock()
				if s.epoch < n {
					s.epoch = n
				}
				s.mu.Unlock()
				return
			}
		}
		if err = s.be.Engine().BumpEpoch(n); err != nil {
			return
		}
		s.mu.Lock()
		s.epoch = n
		s.mu.Unlock()
	})
	return err
}

// FollowWAL implements server.WALSource: it validates the request, acks,
// replays the durable backlog from LSN `from` in bounded chunks and
// registers sink for every later flush — all at the serialization point,
// so the handoff from backlog to live stream is gap-free and
// duplicate-free by construction.
func (s *Shipper) FollowWAL(from, epoch int64, ack func(), sink func(server.WALBatch)) (func(), error) {
	var err error
	var id int
	s.be.Do(func() {
		s.mu.Lock()
		cur := s.epoch
		s.mu.Unlock()
		if epoch > cur {
			err = fmt.Errorf("replica: follower epoch %d is ahead of primary epoch %d (deposed primary?)", epoch, cur)
			return
		}
		chunks, rerr := s.be.Engine().WALReadFrom(from, maxWalChunk)
		acked := false
		if rerr != nil {
			// A follower asking below the retained WAL head (its segments
			// were garbage-collected) is bootstrapped from the newest durable
			// snapshot instead: snapshot chunks ship first, then the ordinary
			// frame stream resumes from the LSN the snapshot covers.
			if !errors.Is(rerr, persist.ErrTruncatedHead) {
				err = rerr
				return
			}
			snap, snapLSN, ok, serr := s.be.Engine().WALNewestSnapshot()
			if !ok || serr != nil || snapLSN+1 <= from {
				// No snapshot to bootstrap from (or it would not advance the
				// follower past its own position — then the truncation is
				// real and unfixable from here). Surface the original error;
				// the wire layer maps it to wal_truncated.
				err = rerr
				return
			}
			ack()
			acked = true
			for off := 0; off < len(snap); off += maxWalChunk {
				end := off + maxWalChunk
				if end > len(snap) {
					end = len(snap)
				}
				sink(server.WALBatch{Data: snap[off:end], First: snapLSN, Epoch: cur,
					Snap: true, More: end < len(snap)})
			}
			if chunks, rerr = s.be.Engine().WALReadFrom(snapLSN+1, maxWalChunk); rerr != nil {
				err = rerr
				return
			}
		}
		if !acked {
			ack()
		}
		for _, c := range chunks {
			// Backlog chunks alias a fresh file read, so no copy is needed;
			// stamping them with the current epoch is sound because the
			// chunk bytes themselves contain every epoch record up to it.
			sink(server.WALBatch{Data: c.Data, First: c.First, Last: c.Last, Epoch: cur})
		}
		s.mu.Lock()
		id = s.nextID
		s.nextID++
		s.sinks[id] = sink
		s.mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	return func() {
		s.mu.Lock()
		delete(s.sinks, id)
		s.mu.Unlock()
	}, nil
}
