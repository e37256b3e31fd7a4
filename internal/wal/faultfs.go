package wal

import (
	"errors"
	"sync"
)

// ErrInjected is the error FaultFS returns for every injected failure.
var ErrInjected = errors.New("wal: injected fault")

// FaultFS wraps another FS and injects failures on demand: fail the Nth
// write (counted across all files), deliver short writes, or fail fsyncs. It
// drives the fault-injection suite that proves recovery truncates torn
// records and the manager degrades to in-memory mode instead of crashing
// (corrupt files are written to disk by the tests themselves). Safe for
// concurrent use.
type FaultFS struct {
	Inner FS

	mu sync.Mutex
	// failWriteAt: writes numbered >= failWriteAt fail (1-based); 0 = off.
	failWriteAt int
	// shortWriteAt: the write numbered shortWriteAt persists only half its
	// payload (then reports ErrInjected); 0 = off.
	shortWriteAt int
	failSync     bool
	writes       int
}

// NewFaultFS wraps inner (OsFS when nil) with fault injection; all faults
// start disabled.
func NewFaultFS(inner FS) *FaultFS {
	if inner == nil {
		inner = OsFS{}
	}
	return &FaultFS{Inner: inner}
}

// FailWritesFrom makes the nth write (1-based, counted across all files) and
// every later write fail with ErrInjected without persisting anything;
// n <= 0 disables.
func (f *FaultFS) FailWritesFrom(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failWriteAt = n
}

// ShortWriteAt makes the nth write (1-based) persist only the first half of
// its payload and then report ErrInjected — a torn record; n <= 0 disables.
func (f *FaultFS) ShortWriteAt(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shortWriteAt = n
}

// FailSyncs makes every Sync fail with ErrInjected.
func (f *FaultFS) FailSyncs(fail bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failSync = fail
}

// Writes returns how many writes the FS has seen (successful or failed).
func (f *FaultFS) Writes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes
}

// faultFile wraps a File with the parent's injection state.
type faultFile struct {
	File
	fs *FaultFS
}

func (w *faultFile) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	w.fs.writes++
	n := w.fs.writes
	fail := w.fs.failWriteAt > 0 && n >= w.fs.failWriteAt
	short := w.fs.shortWriteAt == n
	w.fs.mu.Unlock()
	if fail {
		return 0, ErrInjected
	}
	if short {
		half := len(p) / 2
		if _, err := w.File.Write(p[:half]); err != nil {
			return 0, err
		}
		return half, ErrInjected
	}
	return w.File.Write(p)
}

func (w *faultFile) Sync() error {
	w.fs.mu.Lock()
	fail := w.fs.failSync
	w.fs.mu.Unlock()
	if fail {
		return ErrInjected
	}
	return w.File.Sync()
}

// OpenAppend opens for appending through the inner FS, wrapping the file
// with the injection state.
func (f *FaultFS) OpenAppend(name string) (File, error) {
	file, err := f.Inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

// Create creates through the inner FS, wrapping the file with the injection
// state.
func (f *FaultFS) Create(name string) (File, error) {
	file, err := f.Inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

// ReadFile delegates to the inner FS.
func (f *FaultFS) ReadFile(name string) ([]byte, error) { return f.Inner.ReadFile(name) }

// Rename delegates to the inner FS.
func (f *FaultFS) Rename(oldname, newname string) error { return f.Inner.Rename(oldname, newname) }

// Remove delegates to the inner FS.
func (f *FaultFS) Remove(name string) error { return f.Inner.Remove(name) }

// RemoveAll delegates to the inner FS.
func (f *FaultFS) RemoveAll(name string) error { return f.Inner.RemoveAll(name) }

// MkdirAll delegates to the inner FS.
func (f *FaultFS) MkdirAll(name string) error { return f.Inner.MkdirAll(name) }

// List delegates to the inner FS.
func (f *FaultFS) List(dir string) ([]string, error) { return f.Inner.List(dir) }
