// Package checkpoint provides the durable-state layer for long-running
// trial campaigns: atomic, checksummed, versioned snapshot files written
// in numbered generations, loaded back with torn-write detection and
// fallback to the previous good generation. Every write goes through a
// small filesystem interface (FS) so tests can inject transient and
// permanent faults (ENOSPC, EACCES, torn writes) into any durable sink
// — checkpoints, repro bundles, snapshot files — and prove the campaign
// survives them.
//
// The format is deliberately boring: one JSON envelope per generation
// carrying a magic string, a format version, the campaign key, the
// generation number, an FNV-1a/64 checksum of the payload, and the
// payload itself. Atomicity comes from write-to-temp-then-rename;
// durability against flaky disks from bounded retry with exponential
// backoff; recoverability from keeping the last two generations and
// falling back past a corrupt newest one on load.
package checkpoint

import (
	"io/fs"
	"os"
)

// FS is the filesystem surface durable sinks write through. The
// production implementation is OS; tests substitute a FaultFS to inject
// write errors and torn writes. The interface is intentionally minimal —
// exactly the operations an atomic generational store needs.
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	WriteFile(path string, data []byte, perm fs.FileMode) error
	Rename(oldpath, newpath string) error
	ReadFile(path string) ([]byte, error)
	ReadDir(path string) ([]fs.DirEntry, error)
	Remove(path string) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) WriteFile(path string, data []byte, perm fs.FileMode) error {
	return os.WriteFile(path, data, perm)
}
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) ReadFile(path string) ([]byte, error)       { return os.ReadFile(path) }
func (osFS) ReadDir(path string) ([]fs.DirEntry, error) { return os.ReadDir(path) }
func (osFS) Remove(path string) error                   { return os.Remove(path) }
