package wal

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// FS is the filesystem seam the write-ahead log runs over. Production uses
// OsFS; tests inject FaultFS to exercise torn writes, failed writes and
// failed fsyncs without touching a real disk's failure modes.
type FS interface {
	// OpenAppend opens the named file for appending, creating it if needed.
	OpenAppend(name string) (File, error)
	// Create truncates or creates the named file for writing.
	Create(name string) (File, error)
	// ReadFile returns the named file's full contents.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newname with oldname (POSIX rename).
	Rename(oldname, newname string) error
	// Remove deletes the named file or empty directory.
	Remove(name string) error
	// RemoveAll deletes name and everything below it.
	RemoveAll(name string) error
	// MkdirAll creates the named directory and any missing parents.
	MkdirAll(name string) error
	// List returns the sorted base names of the plain files in dir; a
	// missing directory is an empty listing, not an error.
	List(dir string) ([]string, error)
}

// File is the writable-file surface the log needs.
type File interface {
	io.Writer
	io.Closer
	// Sync flushes the file's written data to stable storage (fsync).
	Sync() error
}

// OsFS is the real-filesystem implementation of FS.
type OsFS struct{}

// OpenAppend opens the named file for appending, creating it if needed.
func (OsFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Create truncates or creates the named file for writing.
func (OsFS) Create(name string) (File, error) { return os.Create(name) }

// ReadFile returns the named file's full contents.
func (OsFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Rename atomically replaces newname with oldname.
func (OsFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove deletes the named file or empty directory.
func (OsFS) Remove(name string) error { return os.Remove(name) }

// RemoveAll deletes name and everything below it.
func (OsFS) RemoveAll(name string) error { return os.RemoveAll(name) }

// MkdirAll creates the named directory and any missing parents.
func (OsFS) MkdirAll(name string) error { return os.MkdirAll(name, 0o755) }

// List returns the sorted base names of the plain files in dir.
func (OsFS) List(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errorIsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func errorIsNotExist(err error) bool {
	return err != nil && (os.IsNotExist(err) || err == fs.ErrNotExist)
}

// join builds a path inside the data directory; separated out so every
// implementation agrees on layout.
func join(elem ...string) string { return filepath.Join(elem...) }
