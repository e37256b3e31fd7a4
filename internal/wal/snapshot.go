package wal

import (
	"fmt"
	"strconv"
	"strings"

	"galo/internal/rdf"
)

const (
	snapPrefix = "snap-"
	snapSuffix = ".rec"
	// snapshotsKept is how many snapshot generations retention preserves: the
	// newest plus one fallback. The WAL is only trimmed below the OLDER
	// retained snapshot, so if the newest snapshot fails its checksum at boot
	// the fallback can still replay the gap from the log.
	snapshotsKept = 2
)

// snapName names a snapshot file after the epoch it captures; fixed-width hex
// keeps lexicographic order equal to numeric order.
func snapName(epoch uint64) string { return fmt.Sprintf("%s%016x%s", snapPrefix, epoch, snapSuffix) }

// parseSnapName extracts the epoch from a snapshot file name.
func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(snapPrefix):len(name)-len(snapSuffix)], 16, 64)
	return v, err == nil
}

// writeSnapshot durably writes one shard's full content at the snapshot's
// epoch as a single framed Record — Version the epoch, Added every triple —
// to a temp file, fsynced, and renamed into place so a crash mid-write never
// leaves a half-visible snapshot.
func writeSnapshot(fsys FS, dir string, snap *rdf.Snapshot) error {
	frame := Record{Version: snap.Version(), Added: snap.Match(nil, nil, nil)}.Encode()
	if n := len(frame) - recordHeaderLen; n > maxRecordLen {
		return fmt.Errorf("wal: snapshot at epoch %d is %d bytes, over the %d-byte record limit", snap.Version(), n, maxRecordLen)
	}
	final := join(dir, snapName(snap.Version()))
	tmp := final + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(frame); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp, final)
}

// parseSnapshot decodes a snapshot file: one framed record that fills the
// file and removes nothing. Any defect is an error; the caller falls back to
// an older file.
func parseSnapshot(data []byte) (Record, error) {
	rec, n, err := decodeRecord(data)
	if err != nil {
		return Record{}, err
	}
	if n != len(data) {
		return Record{}, fmt.Errorf("wal: %d bytes follow the snapshot record", len(data)-n)
	}
	if len(rec.Removed) != 0 {
		return Record{}, fmt.Errorf("wal: snapshot record removes %d triples", len(rec.Removed))
	}
	return rec, nil
}

// listSnapshots returns the shard directory's snapshot file names in epoch
// order (oldest first).
func listSnapshots(fsys FS, dir string) ([]string, error) {
	names, err := fsys.List(dir)
	if err != nil {
		return nil, err
	}
	var snaps []string
	for _, name := range names {
		if _, ok := parseSnapName(name); ok {
			snaps = append(snaps, name)
		}
	}
	return snaps, nil
}

// loadNewestSnapshot reads the newest snapshot that passes validation,
// falling back to older generations on any defect. It returns epoch 0 and no
// triples when no valid snapshot exists (the shard then rebuilds purely from
// the log, or starts empty).
func loadNewestSnapshot(fsys FS, dir string, stats *RecoveryStats, warnf func(string, ...any)) (uint64, []rdf.Triple) {
	snaps, err := listSnapshots(fsys, dir)
	if err != nil {
		warnf("wal: %s: listing snapshots: %v", dir, err)
		return 0, nil
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		name := snaps[i]
		data, err := fsys.ReadFile(join(dir, name))
		var rec Record
		if err == nil {
			rec, err = parseSnapshot(data)
		}
		if err == nil {
			if want, _ := parseSnapName(name); want != rec.Version {
				err = fmt.Errorf("wal: snapshot %s claims epoch %d", name, rec.Version)
			}
		}
		if err != nil {
			stats.SnapshotFallbacks++
			warnf("wal: %s: %v — falling back to an older snapshot", name, err)
			continue
		}
		stats.SnapshotsLoaded++
		return rec.Version, rec.Added
	}
	return 0, nil
}

// trimSnapshots deletes all but the newest keep snapshot files and returns
// the epoch of the oldest file retained (0 when none exist). That epoch is
// the safe WAL trim bound: records at or below it are covered by every
// snapshot a future boot could fall back to.
func trimSnapshots(fsys FS, dir string, keep int) (uint64, error) {
	snaps, err := listSnapshots(fsys, dir)
	if err != nil {
		return 0, err
	}
	for len(snaps) > keep {
		if err := fsys.Remove(join(dir, snaps[0])); err != nil {
			return 0, err
		}
		snaps = snaps[1:]
	}
	if len(snaps) == 0 {
		return 0, nil
	}
	oldest, _ := parseSnapName(snaps[0])
	return oldest, nil
}
