// Durable knowledge base wiring: boot-time recovery from a data directory
// and the handoff between the system's live shard stores and the wal
// package's write-ahead log + snapshot compaction.

package core

import (
	"fmt"
	"log"

	"galo/internal/kb"
	"galo/internal/rdf"
	"galo/internal/wal"
)

// RecoveryInfo summarizes what OpenDataDir found in the data directory.
type RecoveryInfo struct {
	// Recovered reports that the directory held a previous generation (a
	// manifest); false means a fresh directory was initialized.
	Recovered bool `json:"recovered"`
	// Templates is the number of templates the recovered knowledge base
	// holds (after adoption or re-routing).
	Templates int `json:"recovered_templates"`
	// Rerouted reports that the on-disk shard layout did not match the
	// configured shard count (or failed adoption) and the knowledge base was
	// rebuilt by re-routing every template — template content survives, but
	// the epoch lineage restarts.
	Rerouted bool `json:"rerouted"`
	// Epochs is the per-shard epoch vector the system serves from after
	// recovery. Without re-routing it is exactly the pre-crash vector the
	// log proves durable.
	Epochs []uint64 `json:"epochs"`
	// Stats echoes the wal layer's recovery counters (records replayed,
	// snapshot fallbacks, truncation).
	Stats wal.RecoveryStats `json:"stats"`
}

// walOptions maps Config's durability knobs onto the wal package's Options.
func (s *System) walOptions() wal.Options {
	return wal.Options{
		Dir:           s.Config.DataDir,
		FS:            s.Config.WALFS,
		Sync:          s.Config.Sync,
		SnapshotEvery: s.Config.SnapshotEvery,
	}
}

// OpenDataDir opens Config.DataDir and brings up the durability layer. On a
// directory holding a previous generation it recovers the knowledge base —
// newest valid snapshots plus WAL tail replay — and, when the on-disk shard
// layout matches Config.Shards, ADOPTS the recovered stores without
// rewriting a triple, so the per-shard epoch vector continues exactly where
// the pre-crash process proved it durable and (shard, epoch, fingerprint)
// plan-cache keys stay honest. A layout mismatch falls back to re-routing
// the recovered templates into a fresh lineage. A directory without a
// manifest is initialized from the system's current knowledge base.
//
// Returns nil info when Config.DataDir is empty (persistence disabled). Call
// it once, before serving; LoadKB afterwards rebinds the directory to the
// replacement knowledge base on its own.
func (s *System) OpenDataDir() (*RecoveryInfo, error) {
	if s.Config.DataDir == "" {
		return nil, nil
	}
	opts := s.walOptions()
	rec, err := wal.Recover(opts)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.persist != nil {
		return nil, fmt.Errorf("core: data dir already open")
	}
	if s.closed {
		return nil, fmt.Errorf("core: system is closed")
	}
	if rec == nil {
		// Fresh directory: start logging the current knowledge base.
		if err := s.installKB(s.kb, true, true, nil); err != nil {
			return nil, err
		}
		info := RecoveryInfo{Epochs: s.kb.Epochs()}
		s.recovered = info
		return &info, nil
	}

	info := RecoveryInfo{Recovered: true, Stats: rec.Stats}
	var adopted *kb.KB
	if rec.Shards == s.Config.Shards {
		// The routing guard inside NewFromStores cannot catch every layout
		// change (hash%2 aliases hash%4), so the shard-count equality check
		// above is load-bearing, not belt-and-braces.
		adopted, err = kb.NewFromStores(rec.Stores)
		if err != nil {
			logf := opts.Logf
			if logf == nil {
				logf = log.Printf
			}
			logf("core: adopting recovered shards: %v — re-routing instead", err)
		}
	}
	if adopted != nil {
		err = s.installKB(adopted, true, false, &rec.Stats)
	} else {
		// Shard layout changed: merge the recovered shards shard-agnostically
		// and re-route every template under the configured count. Fresh epoch
		// lineage; the old shard directories are wiped.
		info.Rerouted = true
		fresh := kb.NewSharded(s.Config.Shards)
		if err := fresh.LoadNTriples(rdf.MergeNTriples(rec.Stores)); err != nil {
			return nil, fmt.Errorf("core: re-routing recovered knowledge base: %w", err)
		}
		err = s.installKB(fresh, true, true, &rec.Stats)
	}
	if err != nil {
		return nil, err
	}
	info.Templates = s.kb.Size()
	info.Epochs = s.kb.Epochs()
	s.recovered = info
	return &info, nil
}

// installKB makes k the knowledge base new work sees and, when it replaces
// another, drops the matching engine built over that one (in-flight matchers
// finish against the stores they pinned). When durable it then starts
// logging k into the data directory: fresh wipes the directory's previous
// generation first, and replay is what Recover found there (nil when nothing
// was recovered). A failed start leaves k installed, in memory only. Callers
// hold s.mu.
func (s *System) installKB(k *kb.KB, durable, fresh bool, replay *wal.RecoveryStats) error {
	if k != s.kb {
		s.kb, s.matcher = k, nil
	}
	if !durable {
		return nil
	}
	mgr, err := wal.Start(s.walOptions(), k.Stores(), fresh, replay)
	if err != nil {
		return err
	}
	s.persist = mgr
	return nil
}

// PersistStats returns the durability counters, or nil when no data
// directory is open.
func (s *System) PersistStats() *wal.Stats {
	s.mu.Lock()
	persist := s.persist
	s.mu.Unlock()
	if persist == nil {
		return nil
	}
	st := persist.Stats()
	return &st
}

// PersistenceDegraded reports whether the durability layer has dropped to
// in-memory mode after a disk error (serving continues; /healthz says
// "degraded").
func (s *System) PersistenceDegraded() bool {
	s.mu.Lock()
	persist := s.persist
	s.mu.Unlock()
	return persist != nil && persist.Degraded()
}
