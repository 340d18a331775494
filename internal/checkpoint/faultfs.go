package checkpoint

import (
	"io/fs"
	"sync"
)

// FaultFS wraps an FS with scriptable fault injection for testing the
// durable sinks: transient failures on the next N writes or renames,
// a permanent error that persists until cleared (an unwritable
// directory mid-campaign), and torn writes (the write reports success
// but only half the bytes reach the file — what a SIGKILL or power cut
// mid-flush leaves behind when the sink skips the rename). Reads always
// pass through: load-path corruption is tested by corrupting the bytes
// on the base filesystem directly.
//
// All methods are safe for concurrent use (campaign workers and the
// checkpoint loop share one FaultFS in tests run under -race).
type FaultFS struct {
	// Base is the wrapped filesystem (nil = OS).
	Base FS

	mu          sync.Mutex
	failWrites  int   // next N WriteFile calls fail
	failRenames int   // next N Rename calls fail
	permanent   error // all mutating calls fail until cleared
	injected    error // the error transient failures return
	tornWrites  int   // next N WriteFile calls write half the data, report success
	writes      int   // WriteFile calls that reached Base
}

func (f *FaultFS) base() FS {
	if f.Base == nil {
		return OS
	}
	return f.Base
}

// FailWrites makes the next n WriteFile calls fail with err.
func (f *FaultFS) FailWrites(n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failWrites, f.injected = n, err
}

// FailRenames makes the next n Rename calls fail with err.
func (f *FaultFS) FailRenames(n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failRenames, f.injected = n, err
}

// SetPermanentError makes every mutating call fail with err until
// cleared with SetPermanentError(nil) — the directory went read-only
// (EACCES) or the disk filled (ENOSPC) and stays that way.
func (f *FaultFS) SetPermanentError(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.permanent = err
}

// TearWrites makes the next n WriteFile calls write only the first half
// of the data and report success — a torn write the load path must
// detect by checksum instead of crashing on.
func (f *FaultFS) TearWrites(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tornWrites = n
}

// Writes returns how many WriteFile calls reached the base filesystem.
func (f *FaultFS) Writes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes
}

func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	f.mu.Lock()
	err := f.permanent
	f.mu.Unlock()
	if err != nil {
		return err
	}
	return f.base().MkdirAll(path, perm)
}

func (f *FaultFS) WriteFile(path string, data []byte, perm fs.FileMode) error {
	f.mu.Lock()
	if f.permanent != nil {
		err := f.permanent
		f.mu.Unlock()
		return err
	}
	if f.failWrites > 0 {
		f.failWrites--
		err := f.injected
		f.mu.Unlock()
		return err
	}
	torn := false
	if f.tornWrites > 0 {
		f.tornWrites--
		torn = true
	}
	f.writes++
	f.mu.Unlock()
	if torn {
		return f.base().WriteFile(path, data[:len(data)/2], perm)
	}
	return f.base().WriteFile(path, data, perm)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	if f.permanent != nil {
		err := f.permanent
		f.mu.Unlock()
		return err
	}
	if f.failRenames > 0 {
		f.failRenames--
		err := f.injected
		f.mu.Unlock()
		return err
	}
	f.mu.Unlock()
	return f.base().Rename(oldpath, newpath)
}

func (f *FaultFS) ReadFile(path string) ([]byte, error) { return f.base().ReadFile(path) }

func (f *FaultFS) ReadDir(path string) ([]fs.DirEntry, error) { return f.base().ReadDir(path) }

func (f *FaultFS) Remove(path string) error { return f.base().Remove(path) }
